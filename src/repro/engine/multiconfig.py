"""One-pass multi-configuration LRU profiling (stack-distance simulation).

Every other kernel in this package simulates **one** cache configuration per
trace pass.  A sweep over a family of conventional LRU caches — the
capacity/associativity grids of the classic miss-ratio studies — therefore
costs O(configs x N).  This module implements the classic single-pass
alternatives:

* **Mattson stack-distance profiling** (:class:`StackDistanceProfile`): one
  pass over the block-number stream yields the full reuse-distance
  histogram, from which the miss ratio of a fully-associative LRU cache of
  *every* capacity falls out.  Distances are counted with a Fenwick (binary
  indexed) tree over access positions, O(N log N) total, after the
  previous-occurrence array is derived with vectorized NumPy sorting.

* **All-associativity (Hill & Smith style) set profiling**
  (:class:`MultiConfigLRUProfile`): bit-selection set mappings are nested —
  a cache with ``2^k`` sets partitions the sets of one with ``2^(k+1)`` —
  so one capped per-set LRU stack pass per *set count* serves every
  associativity at that set count at once.  A (num_sets x ways) grid for a
  fixed block size costs one pass per distinct ``num_sets`` instead of one
  per configuration.

* **Sweep partitioning** (:class:`MultiConfigPlan`): experiment sweeps hand
  their task list to a plan, which splits it into *profilable*
  configurations (conventional bit-selection placement, LRU replacement,
  no 3C classifier, cold cache — see below) served out of shared profiles,
  and everything else (skewed, I-Poly, victim, column, FIFO and the other
  policies), which runs its own per-configuration kernel.
  ``profile="sampled"`` swaps the exact LRU profile for the approximate
  SHARDS one of :mod:`repro.engine.shards`.

Write-policy divergence
-----------------------

A single profile can only serve every configuration if the stack update is
configuration-independent.  Loads (and, under write-back/write-allocate,
stores) always move the accessed block to MRU — the uniform Mattson case.
Under the paper's write-through/no-write-allocate policy a store *hit*
refreshes recency while a store *miss* changes nothing, so the update seems
to depend on the (configuration-dependent) hit outcome.  It does not: a
block's last-touch time is identical in every cache that holds it (a block
re-enters any cache only through an allocating access, and from then on
every touch hits every holder), so the family remains a *priority* stack
algorithm in Mattson's sense, with last-touch time as the priority.  The
store-aware kernel maintains exactly that priority stack; traces without
stores use the plain move-to-front fast path.  What is **not** profilable
is the 3C classifier (it needs per-access hit context in trace order) and
any non-LRU policy — those keep their per-configuration kernels.

Profiles are memoised process-globally per (trace identity, block size, set
count, depth cap, store mode) with the same identity-anchor safety rules as
:mod:`repro.engine.memo`, so every reader of a sweep group shares one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cache.set_assoc import WritePolicy
from ..core.memo_util import BoundedMemo
from .batch import AddressBatch
from .batch_cache import BatchSetAssociativeCache
from .memo import cached_block_numbers

__all__ = [
    "PROFILE_MODES",
    "PROFILE_AUTO_CAP_LIMIT",
    "check_profile_mode",
    "ProfileCounts",
    "StackDistanceProfile",
    "StackDistanceBuilder",
    "MultiConfigLRUProfile",
    "MultiConfigProfileBuilder",
    "MultiConfigPlan",
    "run_lru_grid",
    "profile_cache_info",
    "profile_cache_clear",
]

#: Valid values of every driver's ``profile`` parameter: ``"auto"`` prices
#: a group exactly out of one profile when it is expected to win (two or
#: more configurations after setting aside any too-deep member, which stays
#: on its own kernel) and runs every other task's kernel; ``"sampled"``
#: prices every profilable task approximately through the SHARDS profiles
#: of :mod:`repro.engine.shards`.
PROFILE_MODES = ("auto", "sampled")

#: Deepest per-set stack the ``"auto"`` policy will profile.  Beyond this the
#: per-access walk (which is linear in the depth cap on misses) can lose to
#: a handful of per-configuration kernel runs — e.g. the 256-deep
#: fully-associative organisation of the miss-ratio study — so such
#: configurations run their own kernel.
PROFILE_AUTO_CAP_LIMIT = 64

#: Smallest group the ``"auto"`` policy profiles: a single configuration is
#: never cheaper through a profile than through its own kernel.
_AUTO_MIN_GROUP = 2


def check_profile_mode(profile: str) -> str:
    """Validate a ``profile`` parameter value, returning it normalised."""
    label = str(profile).strip().lower()
    if label not in PROFILE_MODES:
        raise ValueError(
            f"unknown profile mode {profile!r}; expected one of {PROFILE_MODES}")
    return label


# --------------------------------------------------------------------- #
# readout counts
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ProfileCounts:
    """Access/miss counters of one configuration, engine-agnostic.

    Field names and ratio formulas mirror :class:`~repro.cache.stats.CacheStats`
    exactly, so a ratio read out of a profile is the *same IEEE double* as
    the one computed from a kernel (or scalar) run of the configuration —
    the equality the differential suite asserts is bit-exact, not approximate.
    """

    loads: int
    stores: int
    load_misses: int
    store_misses: int

    @property
    def accesses(self) -> int:
        """Total number of accesses."""
        return self.loads + self.stores

    @property
    def misses(self) -> int:
        """Total number of misses (loads + stores)."""
        return self.load_misses + self.store_misses

    @property
    def hits(self) -> int:
        """Total number of hits."""
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        """Overall miss ratio; 0.0 when there are no accesses."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def load_miss_ratio(self) -> float:
        """Load miss ratio — the metric the paper's tables report."""
        return self.load_misses / self.loads if self.loads else 0.0

    @classmethod
    def from_stats(cls, stats) -> "ProfileCounts":
        """Extract the profile-comparable counters from a ``CacheStats``."""
        return cls(loads=stats.loads, stores=stats.stores,
                   load_misses=stats.load_misses,
                   store_misses=stats.store_misses)


# --------------------------------------------------------------------- #
# part (a): fully-associative reuse-distance histogram (Fenwick tree)
# --------------------------------------------------------------------- #

class StackDistanceProfile:
    """Mattson reuse-distance histogram of a block-number stream.

    ``distances[i]`` is the number of *distinct* blocks referenced between
    access ``i`` and the previous access to the same block (``-1`` for a
    first touch).  A fully-associative LRU cache of ``C`` blocks hits access
    ``i`` iff ``0 <= distances[i] < C``, so one pass prices **every**
    capacity.

    The update is uniform (every access moves its block to MRU), which makes
    the readout exact for load-only traces under any write policy and for
    write-back/write-allocate caches with stores; for the store-touch
    subtlety of write-through caches use :class:`MultiConfigLRUProfile`.

    Distances are counted offline: the previous-occurrence array comes from
    one stable NumPy argsort, then a Fenwick tree over access positions
    (one live marker per currently-last occurrence) answers each "distinct
    blocks in window" query in O(log N) — O(N log N) total, independent of
    the footprint, where the naive stack walk is O(N * M).
    """

    def __init__(self, distances: np.ndarray) -> None:
        distances = np.asarray(distances, dtype=np.int64)
        if distances.ndim != 1:
            raise ValueError("distances must be one-dimensional")
        self._distances = distances
        reused = distances[distances >= 0]
        self._histogram = (np.bincount(reused) if reused.size
                           else np.zeros(0, dtype=np.int64)).astype(np.int64)
        self._cold = int(distances.shape[0] - reused.size)
        #: hits_at_most[c] = accesses with distance < c + 1.
        self._cumulative = np.cumsum(self._histogram, dtype=np.int64)

    # -- construction -------------------------------------------------- #

    @classmethod
    def from_blocks(cls, blocks: np.ndarray) -> "StackDistanceProfile":
        """Profile a raw block-number array (one entry per access)."""
        blocks = np.asarray(blocks, dtype=np.int64)
        n = blocks.shape[0]
        if n == 0:
            return cls(np.empty(0, dtype=np.int64))
        # Previous occurrence of each access's block, fully vectorized: a
        # stable sort by block groups equal blocks in position order, so
        # each group's consecutive pairs are (previous, current).
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        same = np.empty(n, dtype=bool)
        same[0] = False
        np.equal(sorted_blocks[1:], sorted_blocks[:-1], out=same[1:])
        prev = np.full(n, -1, dtype=np.int64)
        repeat = same[1:]
        prev[order[1:][repeat]] = order[:-1][repeat]

        # Fenwick tree over 1-based positions; position j+1 holds a marker
        # while access j is the latest occurrence of its block.  The count
        # of markers strictly between the previous occurrence and the
        # current access is exactly the number of distinct blocks touched
        # in between.
        tree = [0] * (n + 1)
        distances = [0] * n
        prev_l = prev.tolist()
        for i, p in enumerate(prev_l):
            if p < 0:
                distances[i] = -1
            else:
                pos = i  # prefix over positions 1..i == accesses 0..i-1
                count = 0
                while pos:
                    count += tree[pos]
                    pos -= pos & -pos
                pos = p + 1
                while pos:
                    count -= tree[pos]
                    pos -= pos & -pos
                distances[i] = count
                pos = p + 1  # the previous occurrence stops being latest
                while pos <= n:
                    tree[pos] -= 1
                    pos += pos & -pos
            pos = i + 1  # this access is now the latest occurrence
            while pos <= n:
                tree[pos] += 1
                pos += pos & -pos
        return cls(np.array(distances, dtype=np.int64))

    @classmethod
    def from_batch(cls, batch: AddressBatch,
                   block_size: int) -> "StackDistanceProfile":
        """Profile a batch at the given line size (shares the block memo)."""
        return cls.from_blocks(cached_block_numbers(batch, block_size))

    # -- readout ------------------------------------------------------- #

    @property
    def accesses(self) -> int:
        """Number of accesses profiled."""
        return int(self._distances.shape[0])

    @property
    def distances(self) -> np.ndarray:
        """Per-access reuse distances (``-1`` marks a first touch)."""
        return self._distances

    @property
    def histogram(self) -> np.ndarray:
        """``histogram[d]`` = accesses with reuse distance exactly ``d``."""
        return self._histogram

    @property
    def cold_accesses(self) -> int:
        """First-touch (compulsory) accesses."""
        return self._cold

    def hit_count(self, capacity_blocks: int) -> int:
        """Hits of a fully-associative LRU cache of ``capacity_blocks``."""
        if capacity_blocks < 1:
            raise ValueError("capacity_blocks must be positive")
        index = min(capacity_blocks, self._cumulative.shape[0]) - 1
        return int(self._cumulative[index]) if index >= 0 else 0

    def miss_count(self, capacity_blocks: int) -> int:
        """Misses of a fully-associative LRU cache of ``capacity_blocks``."""
        return self.accesses - self.hit_count(capacity_blocks)

    def miss_ratio(self, capacity_blocks: int) -> float:
        """Miss ratio at one capacity; 0.0 for an empty profile."""
        if not self.accesses:
            return 0.0
        return self.miss_count(capacity_blocks) / self.accesses

    def miss_ratio_curve(self, capacities: Sequence[int]) -> np.ndarray:
        """Miss ratio at each capacity (blocks) — a dense curve for free."""
        return np.array([self.miss_ratio(c) for c in capacities])


# --------------------------------------------------------------------- #
# part (b): per-level capped stack kernels (all-associativity readout)
# --------------------------------------------------------------------- #

def _level_pass_loads(blocks_l: list, mask: int, cap: int,
                      stacks: List[List[int]], hist: List[int]) -> None:
    """Capped per-set LRU stack distances of a load-only stream.

    Accumulates into ``hist`` (``hist[d]`` = accesses whose per-set stack
    distance is exactly ``d`` (< ``cap``)); deeper reuse and first touches
    are not recorded — they miss at every associativity up to ``cap``.
    The cap is sound because the top ``w`` entries of a per-set LRU stack
    are exactly the content of a ``w``-way set (inclusion), and a block
    below the cap can only resurface at the top through its own (re-)access.

    ``stacks``/``hist`` are caller-owned carried state, so the pass can be
    fed one chunk at a time (:class:`MultiConfigProfileBuilder`) with
    results identical to a single whole-trace call.
    """
    for b in blocks_l:
        st = stacks[b & mask]
        if b in st:
            i = st.index(b)
            hist[len(st) - 1 - i] += 1
            del st[i]
            st.append(b)
        else:
            st.append(b)
            if len(st) > cap:
                del st[0]


def _level_pass_uniform(blocks_l: list, writes_l: list, mask: int, cap: int,
                        stacks: List[List[int]], hist_load: List[int],
                        hist_store: List[int]) -> None:
    """Load/store-split capped distances under a uniform stack update.

    Exact for write-back/write-allocate caches, where stores allocate and
    refresh recency exactly like loads — the per-access update never
    depends on the (configuration-specific) hit outcome.  State is
    caller-owned and chunk-feedable, as in :func:`_level_pass_loads`.
    """
    for b, w in zip(blocks_l, writes_l):
        st = stacks[b & mask]
        if b in st:
            i = st.index(b)
            (hist_store if w else hist_load)[len(st) - 1 - i] += 1
            del st[i]
            st.append(b)
        else:
            st.append(b)
            if len(st) > cap:
                del st[0]


def _level_pass_wtna(blocks_l: list, writes_l: list, mask: int, cap: int,
                     stacks: List[List[int]], prios: List[List[int]],
                     hist_load: List[int], hist_store: List[int],
                     clock: int) -> int:
    """Capped *priority* stack distances under write-through/no-allocate.

    Stores never change any configuration's content (no allocate on miss,
    no movement on hit), but a store hit refreshes the block's last-touch
    time — which, being identical in every cache that holds the block, is a
    valid Mattson priority.  Loads therefore update the stack with the
    generalized priority walk: the new top is the loaded block, and walking
    down to its old position each level keeps the more-recently-touched of
    its old occupant and the carried running-minimum (each full cache of
    that depth evicts its least-recently-touched line).  Stacks hold the
    most recent ``cap`` *positions* (top at index 0), with per-entry
    last-touch priorities alongside.

    State (stacks, priorities, the returned clock) is caller-owned and
    chunk-feedable, as in :func:`_level_pass_loads`.
    """
    for b, w in zip(blocks_l, writes_l):
        clock += 1
        s = b & mask
        st = stacks[s]
        if w:
            # Store: touch-only.  A hit at position p refreshes the
            # priority for every cache deep enough to hold the block; a
            # miss (not in the capped stack => not in any tracked cache)
            # changes nothing.
            if b in st:
                i = st.index(b)
                hist_store[i] += 1
                prios[s][i] = clock
            continue
        pr = prios[s]
        if st and st[0] == b:
            hist_load[0] += 1
            pr[0] = clock
            continue
        try:
            idx = st.index(b)
        except ValueError:
            idx = -1
        if idx > 0:
            hist_load[idx] += 1
        if not st:
            st.append(b)
            pr.append(clock)
            continue
        # Priority walk: carry the running least-recently-touched entry
        # down; each level keeps the more recent of its occupant and the
        # carry.  On a hit the carry lands in the vacated slot; on a miss
        # it falls off the bottom (or extends a not-yet-full stack).
        vb, vp = st[0], pr[0]
        end = idx if idx > 0 else len(st)
        j = 1
        while j < end:
            if pr[j] < vp:
                st[j], vb = vb, st[j]
                pr[j], vp = vp, pr[j]
            j += 1
        if idx > 0:
            st[idx] = vb
            pr[idx] = vp
        elif len(st) < cap:
            st.append(vb)
            pr.append(vp)
        st[0] = b
        pr[0] = clock
    return clock


#: One profiled level: every associativity ``w <= cap`` at this set count
#: reads its hit counts out of the (load, store) distance histograms.
@dataclass(frozen=True)
class _LevelProfile:
    num_sets: int
    cap: int
    hist_load: Tuple[int, ...]
    hist_store: Tuple[int, ...]
    loads: int
    stores: int


#: Memoised level profiles per (trace identity, level, store mode).  Values
#: are tiny tuples of ints; the byte estimate is a flat guess that keeps the
#: table honest without weighing every boxed int.
_LEVEL_PROFILES = BoundedMemo(
    256, 4 * 1024 * 1024,
    nbytes_of=lambda value: 256 + 16 * (len(value[1].hist_load)
                                        + len(value[1].hist_store)))


def _checked_level_caps(level_caps: Mapping[int, int]) -> Dict[int, int]:
    """Validate a ``{num_sets: max_ways}`` request, returning it sorted."""
    if not level_caps:
        raise ValueError("level_caps must name at least one set count")
    checked: Dict[int, int] = {}
    for num_sets, max_ways in sorted(level_caps.items()):
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ValueError(
                f"num_sets must be a positive power of two, got {num_sets}")
        if max_ways < 1:
            raise ValueError("ways must be at least 1")
        checked[num_sets] = max_ways
    return checked


def _store_mode(has_stores: bool, write_policy: str) -> str:
    """The stack-update semantics a (batch, write policy) pair needs."""
    if not has_stores:
        return "loads"
    if write_policy == WritePolicy.WRITE_BACK_ALLOCATE:
        return "uniform"
    return "wtna"


def _round_cap(ways: int) -> int:
    """Depth cap actually profiled for a requested associativity.

    Rounding up to a power of two (>= 8) makes unrelated readers of the
    same trace land on the same memo entry: a cap-8 histogram serves every
    associativity up to eight.
    """
    cap = 8
    while cap < ways:
        cap <<= 1
    return cap


class _LevelState:
    """Carried state of one level's capped stack pass.

    Feeding the whole trace in one :meth:`feed` call reproduces the original
    one-shot kernels exactly; feeding it in chunks carries the per-set
    stacks (and, for ``wtna``, priorities and the touch clock) across calls,
    so chunked and one-shot profiles are bit-identical by construction.
    """

    __slots__ = ("num_sets", "cap", "mode", "stacks", "prios",
                 "hist_load", "hist_store", "clock", "loads", "stores")

    def __init__(self, num_sets: int, cap: int, mode: str) -> None:
        self.num_sets = num_sets
        self.cap = cap
        self.mode = mode
        self.stacks: List[List[int]] = [[] for _ in range(num_sets)]
        self.prios: Optional[List[List[int]]] = (
            [[] for _ in range(num_sets)] if mode == "wtna" else None)
        self.hist_load = [0] * cap
        self.hist_store = [0] * cap
        self.clock = 0
        self.loads = 0
        self.stores = 0

    def feed(self, blocks_l: list, writes_l: Optional[list]) -> None:
        """Consume one chunk of block numbers (and store flags)."""
        mask = self.num_sets - 1
        if self.mode == "loads":
            _level_pass_loads(blocks_l, mask, self.cap,
                              self.stacks, self.hist_load)
            self.loads += len(blocks_l)
            return
        if self.mode == "uniform":
            _level_pass_uniform(blocks_l, writes_l, mask, self.cap,
                                self.stacks, self.hist_load, self.hist_store)
        else:
            self.clock = _level_pass_wtna(
                blocks_l, writes_l, mask, self.cap, self.stacks, self.prios,
                self.hist_load, self.hist_store, self.clock)
        stores = sum(writes_l)
        self.stores += stores
        self.loads += len(blocks_l) - stores

    def profile(self) -> _LevelProfile:
        """Freeze the accumulated histograms into a readout profile."""
        return _LevelProfile(num_sets=self.num_sets, cap=self.cap,
                             hist_load=tuple(self.hist_load),
                             hist_store=tuple(self.hist_store),
                             loads=self.loads, stores=self.stores)


def _build_level(batch: AddressBatch, blocks: np.ndarray, num_sets: int,
                 cap: int, mode: str) -> _LevelProfile:
    state = _LevelState(num_sets, cap, mode)
    writes_l = None if mode == "loads" else batch.is_write.tolist()
    state.feed(blocks.tolist(), writes_l)
    return state.profile()


def _cached_level(batch: AddressBatch, blocks: np.ndarray, num_sets: int,
                  cap: int, mode: str) -> _LevelProfile:
    """One level's profile, memoised when the input arrays are immutable.

    Keys combine the level parameters with the *identity* of the block and
    store-mask arrays; the entry stores strong references to both, so a
    served id can never belong to a different (recycled) array — the same
    soundness rule as :mod:`repro.engine.memo`.  Writable inputs are
    profiled fresh on every call.
    """
    writes = batch.is_write
    if blocks.flags.writeable or (mode != "loads" and writes.flags.writeable):
        return _build_level(batch, blocks, num_sets, cap, mode)
    key = (id(blocks), id(writes) if mode != "loads" else None,
           num_sets, cap, mode)
    entry = _LEVEL_PROFILES.get(
        key,
        lambda: (writes, _build_level(batch, blocks, num_sets, cap, mode)),
        anchor=blocks)
    if mode != "loads" and entry[0] is not writes:  # pragma: no cover
        # Paranoia: the stored mask is kept alive by the entry, so its id
        # cannot be recycled while the entry exists — but recompute rather
        # than trust that invariant if it ever breaks.
        return _build_level(batch, blocks, num_sets, cap, mode)
    return entry[1]


class MultiConfigLRUProfile:
    """All-associativity profile of one (trace, block size) pair.

    ``level_caps`` maps each required set count (power of two; ``1`` is the
    fully-associative organisation) to the deepest associativity that will
    be read out of it.  Construction runs one capped stack pass per level
    (memoised process-globally); :meth:`miss_counts` then prices any
    ``(num_sets, ways)`` configuration of the grid in O(ways).
    """

    def __init__(self, batch: AddressBatch, block_size: int,
                 level_caps: Mapping[int, int],
                 write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                 ) -> None:
        if write_policy not in WritePolicy.ALL:
            raise ValueError(f"unknown write policy {write_policy!r}")
        self._block_size = block_size
        self._mode = _store_mode(batch.has_stores, write_policy)
        blocks = cached_block_numbers(batch, block_size)
        self._levels: Dict[int, _LevelProfile] = {}
        for num_sets, max_ways in _checked_level_caps(level_caps).items():
            self._levels[num_sets] = _cached_level(
                batch, blocks, num_sets, _round_cap(max_ways), self._mode)

    @classmethod
    def _from_levels(cls, block_size: int, mode: str,
                     levels: Mapping[int, _LevelProfile],
                     ) -> "MultiConfigLRUProfile":
        """Wrap prebuilt level profiles (the builder's finish path)."""
        self = cls.__new__(cls)
        self._block_size = block_size
        self._mode = mode
        self._levels = dict(levels)
        return self

    @property
    def block_size(self) -> int:
        """Line size (bytes) the profile was taken at."""
        return self._block_size

    @property
    def store_mode(self) -> str:
        """Stack-update semantics used (``loads``, ``uniform`` or ``wtna``)."""
        return self._mode

    @property
    def levels(self) -> List[int]:
        """Profiled set counts."""
        return sorted(self._levels)

    def miss_counts(self, num_sets: int, ways: int) -> ProfileCounts:
        """Exact counters of the ``(num_sets, ways)`` LRU configuration."""
        level = self._levels.get(num_sets)
        if level is None:
            raise KeyError(f"set count {num_sets} was not profiled "
                           f"(levels: {self.levels})")
        if ways > level.cap:
            raise ValueError(
                f"ways {ways} exceeds the profiled depth cap {level.cap} "
                f"at {num_sets} sets")
        # distance d hits every cache with ways > d: hit iff d < ways, and
        # distance == ways is exactly the first miss — no tolerance band.
        load_hits = sum(level.hist_load[:ways])
        store_hits = sum(level.hist_store[:ways])
        return ProfileCounts(loads=level.loads, stores=level.stores,
                             load_misses=level.loads - load_hits,
                             store_misses=level.stores - store_hits)


# --------------------------------------------------------------------- #
# part (b'): incremental (chunk-fed) construction for streamed traces
# --------------------------------------------------------------------- #

class StackDistanceBuilder:
    """Incremental :class:`StackDistanceProfile` over a chunked block stream.

    ``from_blocks`` needs the whole block array up front (its
    previous-occurrence pass is one global argsort); a streamed trace never
    materialises that array.  The builder instead carries the per-block
    last-occurrence table and a growable Fenwick tree across :meth:`feed`
    calls, producing per-access distances identical to the one-shot pass —
    both count live markers (latest occurrences) strictly between an
    access and its block's previous occurrence.

    Memory is O(footprint + accesses-so-far distances); each feed is
    O(len(chunk) log N).  The tree doubles its capacity as positions grow,
    rebuilding from the live-marker set (one entry per distinct block).
    """

    def __init__(self) -> None:
        self._distances: List[int] = []
        self._last_pos: Dict[int, int] = {}
        self._count = 0
        self._cap = 1024
        self._tree = [0] * (self._cap + 1)

    def _grow(self, need: int) -> None:
        cap = self._cap
        while cap < need:
            cap <<= 1
        self._cap = cap
        tree = [0] * (cap + 1)
        # Live markers are exactly the latest occurrence of each distinct
        # block, so the rebuild is O(footprint log N), not O(N log N).
        for position in self._last_pos.values():
            pos = position + 1
            while pos <= cap:
                tree[pos] += 1
                pos += pos & -pos
        self._tree = tree

    def _prefix(self, pos: int) -> int:
        tree = self._tree
        total = 0
        while pos:
            total += tree[pos]
            pos -= pos & -pos
        return total

    def _update(self, pos: int, delta: int) -> None:
        tree = self._tree
        cap = self._cap
        while pos <= cap:
            tree[pos] += delta
            pos += pos & -pos

    def feed(self, blocks: np.ndarray) -> None:
        """Consume one chunk of block numbers (trace order)."""
        blocks_l = np.asarray(blocks, dtype=np.int64).tolist()
        if not blocks_l:
            return
        i = self._count
        if i + len(blocks_l) > self._cap:
            self._grow(i + len(blocks_l))
        last_pos = self._last_pos
        distances = self._distances
        for b in blocks_l:
            p = last_pos.get(b, -1)
            if p < 0:
                distances.append(-1)
            else:
                distances.append(self._prefix(i) - self._prefix(p + 1))
                self._update(p + 1, -1)
            self._update(i + 1, 1)
            last_pos[b] = i
            i += 1
        self._count = i

    def feed_batch(self, batch: AddressBatch, block_size: int) -> None:
        """Consume one :class:`AddressBatch` at the given line size."""
        self.feed(cached_block_numbers(batch, block_size))

    @property
    def accesses(self) -> int:
        """Accesses consumed so far."""
        return self._count

    def finish(self) -> StackDistanceProfile:
        """The profile of everything fed so far (builder stays usable)."""
        return StackDistanceProfile(np.array(self._distances, dtype=np.int64))


class MultiConfigProfileBuilder:
    """Incremental :class:`MultiConfigLRUProfile` over a chunked trace.

    The capped per-set stack kernels are already sequential with carried
    state, so the builder simply owns one :class:`_LevelState` per requested
    set count and feeds each chunk through all of them; :meth:`finish`
    freezes the states into a profile whose readout is bit-identical to a
    one-shot :class:`MultiConfigLRUProfile` of the concatenated trace.

    The store mode must be fixed before the first chunk (the one-shot path
    derives it from ``batch.has_stores``, which a stream cannot know up
    front): pass ``has_stores=False`` only when the whole trace is loads.
    Feeding a chunk with stores in load-only mode raises rather than
    silently diverging.
    """

    def __init__(self, block_size: int, level_caps: Mapping[int, int],
                 write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                 has_stores: bool = True) -> None:
        if write_policy not in WritePolicy.ALL:
            raise ValueError(f"unknown write policy {write_policy!r}")
        self._block_size = block_size
        self._mode = _store_mode(has_stores, write_policy)
        self._states: Dict[int, _LevelState] = {
            num_sets: _LevelState(num_sets, _round_cap(max_ways), self._mode)
            for num_sets, max_ways in _checked_level_caps(level_caps).items()}
        self._accesses = 0

    @property
    def store_mode(self) -> str:
        """Stack-update semantics used (``loads``, ``uniform`` or ``wtna``)."""
        return self._mode

    @property
    def accesses(self) -> int:
        """Accesses consumed so far."""
        return self._accesses

    def feed(self, batch: AddressBatch) -> int:
        """Consume one chunk; returns its length."""
        if self._mode == "loads" and batch.has_stores:
            raise ValueError(
                "store mode changed mid-stream: this builder was created "
                "with has_stores=False but the chunk fed after "
                f"{self._accesses} accesses contains stores; create the "
                "builder with has_stores=True (the write policy's store "
                "semantics then apply to every chunk)")
        blocks_l = cached_block_numbers(batch, self._block_size).tolist()
        writes_l = (None if self._mode == "loads"
                    else batch.is_write.tolist())
        for state in self._states.values():
            state.feed(blocks_l, writes_l)
        self._accesses += len(blocks_l)
        return len(blocks_l)

    def finish(self) -> MultiConfigLRUProfile:
        """Freeze into a profile (builder stays usable for more chunks)."""
        return MultiConfigLRUProfile._from_levels(
            self._block_size, self._mode,
            {num_sets: state.profile()
             for num_sets, state in self._states.items()})


def profile_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the level-profile memo."""
    return _LEVEL_PROFILES.info()


def profile_cache_clear() -> None:
    """Drop every memoised level profile and zero the counters."""
    _LEVEL_PROFILES.clear()


# --------------------------------------------------------------------- #
# part (c): sweep partitioning
# --------------------------------------------------------------------- #

#: Index-function ``cache_key`` heads whose set mapping is plain bit
#: selection over the low block-number bits (``single-set`` is the
#: degenerate one-set case used by fully-associative organisations).
_BIT_SELECT_KEYS = ("bit-select", "single-set")


@dataclass
class _PlanTask:
    key: Hashable
    batch: AddressBatch
    cache: object
    runner: Optional[Callable]
    level: Optional[Tuple[int, int]]  # (num_sets, ways) when profilable


class MultiConfigPlan:
    """Partition a sweep's tasks into profiled and kernel-run configurations.

    Drivers :meth:`add` one entry per task — a result key, the
    :class:`AddressBatch` the task replays, and a zero-argument cache
    factory — then call :meth:`run` once.  Profilable tasks (see the module
    docstring) are grouped per (trace identity, block size, store mode);
    each group is priced out of a single :class:`MultiConfigLRUProfile`
    pass.  Every other task simply runs its cache's own kernel, so the plan
    never changes *which* numbers a sweep produces — only how many trace
    passes it takes to produce them.

    ``profile="auto"`` (the default) profiles a group only when it is
    expected to win: at least two configurations no deeper than
    :data:`PROFILE_AUTO_CAP_LIMIT` ways (a deeper member — e.g. a 256-way
    fully-associative organisation — stays on its own kernel without
    vetoing the shallow rest of its group).  ``"sampled"`` prices every
    profilable task out of a SHARDS-sampled profile instead.
    """

    def __init__(self, profile: str = "auto", sample_rate: float = 0.01,
                 sample_size: Optional[int] = None,
                 profile_seed: int = 0) -> None:
        self._profile = check_profile_mode(profile)
        if not 0.0 < float(sample_rate) <= 1.0:
            raise ValueError(
                f"sample rate must be in (0, 1], got {sample_rate}")
        if sample_size is not None and int(sample_size) < 1:
            raise ValueError(
                f"sample size must be at least 1, got {sample_size}")
        if int(profile_seed) < 0:
            raise ValueError(
                f"profile seed must be non-negative, got {profile_seed}")
        self._sample_rate = float(sample_rate)
        self._sample_size = None if sample_size is None else int(sample_size)
        self._profile_seed = int(profile_seed)
        self._tasks: List[_PlanTask] = []

    @staticmethod
    def profilable(cache, batch: AddressBatch) -> Optional[Tuple[int, int]]:
        """The ``(num_sets, ways)`` level a cache can be profiled at, or None.

        Requires a cold :class:`BatchSetAssociativeCache` with bit-selection
        (or single-set) placement, LRU replacement and no 3C classifier.
        Both write policies qualify — the store-mode kernels absorb the
        difference — but a warmed cache never does (profiles assume a cold
        start).
        """
        if not isinstance(cache, BatchSetAssociativeCache):
            return None
        if cache.replacement_name != "lru":
            return None
        if cache._classifier is not None or cache._clock != 0:
            return None
        key = cache.index_function.cache_key
        if key is None or key[0] not in _BIT_SELECT_KEYS:
            return None
        return cache.num_sets, cache.ways

    def add(self, key: Hashable, batch: AddressBatch,
            factory: Callable[[], object],
            runner: Optional[Callable] = None) -> None:
        """Register one task: result ``key``, its batch, a cache factory.

        ``runner(cache, batch)`` overrides how a fallback task is driven
        (defaults to ``cache.run(batch)``) — the studies pass their scalar
        replay shim so caller-supplied organisations keep working.
        """
        cache = factory()
        self._tasks.append(_PlanTask(key=key, batch=batch, cache=cache,
                                     runner=runner,
                                     level=self.profilable(cache, batch)))

    def _group_key(self, task: _PlanTask) -> tuple:
        cache = task.cache
        mode = _store_mode(task.batch.has_stores, cache.write_policy)
        # Two batches may share one address array under different store
        # masks; store-sensitive modes therefore key on the mask identity
        # too (an all-loads mask is behaviourally unique, so "loads" mode
        # only needs the addresses).
        mask_id = id(task.batch.is_write) if mode != "loads" else None
        return (id(task.batch.addresses), mask_id, cache.block_size, mode)

    def _build_profile(self, exemplar: _PlanTask,
                       level_caps: Dict[int, int]):
        """The shared profile one task group is priced out of."""
        if self._profile == "sampled":
            from .shards import SampledMultiConfigLRUProfile

            return SampledMultiConfigLRUProfile(
                exemplar.batch, exemplar.cache.block_size, level_caps,
                write_policy=exemplar.cache.write_policy,
                rate=self._sample_rate, seed=self._profile_seed,
                sample_size=self._sample_size)
        return MultiConfigLRUProfile(
            exemplar.batch, exemplar.cache.block_size, level_caps,
            write_policy=exemplar.cache.write_policy)

    def run(self) -> Dict[Hashable, ProfileCounts]:
        """Execute the plan; returns ``{key: ProfileCounts}`` for every task."""
        groups: Dict[tuple, List[_PlanTask]] = {}
        for task in self._tasks:
            if task.level is not None:
                groups.setdefault(self._group_key(task), []).append(task)

        results: Dict[Hashable, ProfileCounts] = {}
        profiled: set = set()
        for group in groups.values():
            if self._profile == "auto":
                # A too-deep configuration (e.g. the 256-way fully
                # associative organisation) pays a per-access walk linear
                # in its depth, so it alone stays on its kernel — without
                # vetoing the shallow members of its group.
                group = [t for t in group
                         if t.level[1] <= PROFILE_AUTO_CAP_LIMIT]
                if len(group) < _AUTO_MIN_GROUP:
                    continue
            level_caps: Dict[int, int] = {}
            for task in group:
                num_sets, ways = task.level
                level_caps[num_sets] = max(level_caps.get(num_sets, 0), ways)
            profile = self._build_profile(group[0], level_caps)
            for task in group:
                results[task.key] = profile.miss_counts(*task.level)
                profiled.add(id(task))

        for task in self._tasks:
            if id(task) in profiled:
                continue
            if task.runner is not None:
                task.runner(task.cache, task.batch)
            else:
                task.cache.run(task.batch)
            results[task.key] = ProfileCounts.from_stats(task.cache.stats)
        return results


def run_lru_grid(batch: AddressBatch, block_size: int,
                 grid: Sequence[Tuple[int, int]],
                 write_policy: str = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                 profile: str = "auto",
                 sample_rate: float = 0.01,
                 sample_size: Optional[int] = None,
                 profile_seed: int = 0,
                 ) -> Dict[Tuple[int, int], ProfileCounts]:
    """Price a whole conventional-LRU ``(num_sets, ways)`` grid at once.

    The new scenario the profiler opens: dense capacity/associativity
    curves over one trace.  ``grid`` lists ``(num_sets, ways)`` pairs (the
    capacity is ``num_sets * ways * block_size``); the result maps each
    pair to its :class:`ProfileCounts`.  Under ``profile="auto"`` (the
    default) a grid of two or more cells no deeper than
    :data:`PROFILE_AUTO_CAP_LIMIT` ways costs one exact profile pass per
    distinct set count, and any other cell runs its own batch kernel —
    bit-exact either way.  ``profile="sampled"`` prices the grid
    approximately at ``sample_rate`` (see :mod:`repro.engine.shards` —
    ``sample_size`` caps the expected number of sampled blocks,
    ``profile_seed`` picks the hash universe).
    """
    plan = MultiConfigPlan(profile=profile, sample_rate=sample_rate,
                           sample_size=sample_size, profile_seed=profile_seed)
    for num_sets, ways in grid:
        def factory(num_sets=num_sets, ways=ways):
            return BatchSetAssociativeCache(
                size_bytes=num_sets * ways * block_size,
                block_size=block_size, ways=ways,
                write_policy=write_policy)
        plan.add((num_sets, ways), batch, factory)
    return plan.run()
