"""Vectorized replacement-policy state: NumPy tables + tight-kernel views.

The scalar policies in :mod:`repro.cache.replacement` keep their decision
state in flat per-``(way, set)`` Python tables.  This module holds the batch
engine's counterparts: the durable state lives in NumPy arrays (``ways x
num_sets`` timestamp tables, ``num_sets x (ways-1)`` PLRU bit-trees, a draw
counter for the deterministic random policy), and a kernel that is about to
run a batch checks the tables out as plain Python lists
(:meth:`VecReplacementState.kernel_begin`), mutates them at per-access speed,
and checks them back in (:meth:`VecReplacementState.kernel_end`).

Decision logic is *not* re-implemented here: the PLRU tree walk and the
counter-based random draw call the exact same primitive helpers
(:func:`~repro.cache.replacement.plru_touch`,
:func:`~repro.cache.replacement.plru_victim`,
:func:`~repro.cache.replacement.splitmix64`) as the scalar policies, and the
LRU/FIFO comparisons use the same ``(timestamp, way)`` ordering — which is
what makes every (organisation, policy) pair bit-exact across engines,
including identical random-victim sequences from the shared
:data:`~repro.cache.replacement.DEFAULT_RANDOM_SEED`.

The LRU specialisations built directly into
:class:`~repro.engine.batch_cache.BatchSetAssociativeCache` (run-collapse
vectorized path, insertion-ordered dict kernel, per-way skewed kernels) do
not use these objects — they *are* the LRU fast path.  These state tables
serve every non-LRU policy, and all policies of the
:class:`~repro.engine.batch_cache.BatchVictimCache` kernel.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..cache.replacement import (
    DEFAULT_RANDOM_SEED,
    REPLACEMENT_POLICIES,
    plru_touch,
    plru_tree_size,
    plru_victim,
    splitmix64,
)
from ..core.splitmix import splitmix64_vec


def splitmix64_array(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized :func:`~repro.core.splitmix.splitmix64` draw sequence.

    Returns ``splitmix64(seed + n)`` for ``n`` in ``[start, start + count)``
    as a ``uint64`` array — the exact values the scalar policy's counter
    would produce one at a time.  Because the random policy's draws are a
    pure function of the eviction ordinal, a whole batch's worth of victim
    picks can be precomputed up front and consumed by index; this is what
    lets the specialised random kernels stay bit-exact with the scalar
    victim sequence without calling into Python per eviction.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return splitmix64_vec(np.uint64(seed & ((1 << 64) - 1))
                          + np.arange(start, start + count, dtype=np.uint64))


def min_stamp_way(stamp: List[List[int]], candidate_sets: Sequence[int]) -> int:
    """The way with the smallest timestamp, ties broken by way order.

    Kernel-side counterpart of
    :func:`repro.cache.replacement.min_stamp_victim` over per-way candidate
    set indices — one comparison rule, shared by the timestamp policies and
    the tree-PLRU skewed fallback.
    """
    best_way = 0
    best = stamp[0][candidate_sets[0]]
    for way in range(1, len(candidate_sets)):
        value = stamp[way][candidate_sets[way]]
        if value < best:
            best, best_way = value, way
    return best_way

__all__ = [
    "splitmix64_array",
    "min_stamp_way",
    "VecReplacementState",
    "VecLRU",
    "VecFIFO",
    "VecRandom",
    "VecTreePLRU",
    "make_vec_replacement",
]


class VecReplacementState:
    """Replacement state tables for one batch cache (or victim buffer).

    Durable state is NumPy-resident between runs; ``kernel_begin`` /
    ``kernel_end`` bracket a batch and expose list views the per-access
    hooks operate on.  The hook protocol mirrors the scalar
    :class:`~repro.cache.replacement.ReplacementPolicy`: ``on_hit`` /
    ``on_fill`` observe accesses, :meth:`victim` picks the way to evict
    among the per-way candidate sets of one access.
    """

    name: str = "abstract"

    def __init__(self, ways: int, num_sets: int) -> None:
        if ways < 1 or num_sets < 1:
            raise ValueError("ways and num_sets must be positive")
        self._ways = ways
        self._num_sets = num_sets
        self._in_kernel = False
        self._allocate()

    @property
    def ways(self) -> int:
        """Associativity of the owning cache."""
        return self._ways

    @property
    def num_sets(self) -> int:
        """Sets per way of the owning cache."""
        return self._num_sets

    def _allocate(self) -> None:
        """(Re)create the NumPy state tables (default: none)."""

    def reset(self) -> None:
        """Forget all decision state."""
        self._allocate()

    def kernel_begin(self) -> None:
        """Check the NumPy tables out as plain-list views for a tight kernel."""
        self._in_kernel = True

    def kernel_end(self) -> None:
        """Write the list views back into the NumPy tables."""
        self._in_kernel = False

    # -- durable-state snapshots (used by the epoch rewind of the ---------- #
    # -- multi-level engine in :mod:`repro.engine.hierarchy_vec`) ---------- #

    def _snapshot_guard(self) -> None:
        if self._in_kernel:
            raise RuntimeError("policy state can only be snapshotted or "
                               "restored outside a kernel checkout")

    def state_snapshot(self):
        """Copy of the durable decision state (valid outside a kernel)."""
        self._snapshot_guard()
        return None

    def state_restore(self, snapshot) -> None:
        """Restore a :meth:`state_snapshot` copy (valid outside a kernel)."""
        self._snapshot_guard()

    # -- per-access hooks (valid between kernel_begin and kernel_end) ---- #

    def on_hit(self, way: int, set_index: int, now: int) -> None:
        """Observe a hit."""

    def on_fill(self, way: int, set_index: int, now: int) -> None:
        """Observe a fill."""

    def victim(self, candidate_sets: Sequence[int]) -> int:
        """Pick the way to evict; ``candidate_sets[w]`` is way ``w``'s set."""
        raise NotImplementedError


class _VecTimestamp(VecReplacementState):
    """Shared machinery for timestamp-table policies (LRU / FIFO)."""

    def _allocate(self) -> None:
        self.stamps = np.zeros((self._ways, self._num_sets), dtype=np.int64)
        self._stamp_l: List[List[int]] = []

    def kernel_begin(self) -> None:
        self._stamp_l = [row.tolist() for row in self.stamps]
        self._in_kernel = True

    def kernel_end(self) -> None:
        self.stamps = np.array(self._stamp_l, dtype=np.int64).reshape(
            self._ways, self._num_sets)
        self._stamp_l = []
        self._in_kernel = False

    @property
    def stamp_lists(self) -> List[List[int]]:
        """Checked-out per-way timestamp rows (valid inside a kernel).

        The specialised kernels of :mod:`repro.engine.set_decompose` and
        :mod:`repro.engine.skew_decompose` mutate these rows directly instead of going through the per-access
        hooks; :meth:`kernel_end` persists whatever they left behind.
        """
        if not self._in_kernel:
            raise RuntimeError("stamp_lists is only valid between "
                               "kernel_begin() and kernel_end()")
        return self._stamp_l

    def state_snapshot(self):
        self._snapshot_guard()
        return self.stamps.copy()

    def state_restore(self, snapshot) -> None:
        self._snapshot_guard()
        self.stamps = snapshot.copy()

    def victim(self, candidate_sets):
        return min_stamp_way(self._stamp_l, candidate_sets)


class VecLRU(_VecTimestamp):
    """Least recently used: hits and fills refresh the timestamp."""

    name = "lru"

    def on_hit(self, way, set_index, now):
        self._stamp_l[way][set_index] = now

    def on_fill(self, way, set_index, now):
        self._stamp_l[way][set_index] = now


class VecFIFO(_VecTimestamp):
    """First in, first out: only fills set the timestamp."""

    name = "fifo"

    def on_fill(self, way, set_index, now):
        self._stamp_l[way][set_index] = now


class VecRandom(VecReplacementState):
    """Counter-based deterministic random victim (shared draw sequence).

    The n-th eviction consumes ``splitmix64(seed + n) % ways`` — the exact
    sequence of the scalar
    :class:`~repro.cache.replacement.RandomReplacement`, so differential
    tests can compare the engines access-for-access.
    """

    name = "random"

    def __init__(self, ways: int, num_sets: int,
                 seed: int = DEFAULT_RANDOM_SEED) -> None:
        self._seed = int(seed) & ((1 << 64) - 1)
        super().__init__(ways, num_sets)

    def _allocate(self) -> None:
        self.counter = 0

    @property
    def seed(self) -> int:
        """The draw-sequence seed."""
        return self._seed

    def state_snapshot(self):
        self._snapshot_guard()
        return self.counter

    def state_restore(self, snapshot) -> None:
        self._snapshot_guard()
        self.counter = snapshot

    def victim(self, candidate_sets):
        pick = splitmix64(self._seed + self.counter) % len(candidate_sets)
        self.counter += 1
        return pick


class VecTreePLRU(VecReplacementState):
    """Tree pseudo-LRU bit-trees per set, LRU-timestamp fallback when skewed.

    Mirrors :class:`~repro.cache.replacement.TreePLRUReplacement`: whenever
    one access's candidates all share a set index the per-set bit-tree picks
    the victim; when a skewed placement spreads them across sets the policy
    falls back to true LRU over its own timestamp table.  Both structures
    are updated on every hit and fill, exactly like the scalar policy.
    """

    name = "plru"

    def _allocate(self) -> None:
        tree = plru_tree_size(self._ways)
        self.bits = np.zeros((self._num_sets, tree), dtype=bool)
        self.stamps = np.zeros((self._ways, self._num_sets), dtype=np.int64)
        self._bits_l: List[List[bool]] = []
        self._stamp_l: List[List[int]] = []

    def kernel_begin(self) -> None:
        self._bits_l = [row.tolist() for row in self.bits]
        self._stamp_l = [row.tolist() for row in self.stamps]
        self._in_kernel = True

    def kernel_end(self) -> None:
        tree = plru_tree_size(self._ways)
        self.bits = np.array(self._bits_l, dtype=bool).reshape(
            self._num_sets, tree)
        self.stamps = np.array(self._stamp_l, dtype=np.int64).reshape(
            self._ways, self._num_sets)
        self._bits_l = []
        self._stamp_l = []
        self._in_kernel = False

    @property
    def bit_lists(self) -> List[List[bool]]:
        """Checked-out per-set direction-bit rows (valid inside a kernel)."""
        if not self._in_kernel:
            raise RuntimeError("bit_lists is only valid between "
                               "kernel_begin() and kernel_end()")
        return self._bits_l

    @property
    def stamp_lists(self) -> List[List[int]]:
        """Checked-out per-way timestamp rows (valid inside a kernel)."""
        if not self._in_kernel:
            raise RuntimeError("stamp_lists is only valid between "
                               "kernel_begin() and kernel_end()")
        return self._stamp_l

    def state_snapshot(self):
        self._snapshot_guard()
        return self.bits.copy(), self.stamps.copy()

    def state_restore(self, snapshot) -> None:
        self._snapshot_guard()
        bits, stamps = snapshot
        self.bits = bits.copy()
        self.stamps = stamps.copy()

    def _touch(self, way: int, set_index: int, now: int) -> None:
        self._stamp_l[way][set_index] = now
        if self._ways >= 2:
            plru_touch(self._bits_l[set_index], way, self._ways)

    def on_hit(self, way, set_index, now):
        self._touch(way, set_index, now)

    def on_fill(self, way, set_index, now):
        self._touch(way, set_index, now)

    def victim(self, candidate_sets):
        first = candidate_sets[0]
        shared = True
        for set_index in candidate_sets:
            if set_index != first:
                shared = False
                break
        if shared:
            return plru_victim(self._bits_l[first], len(candidate_sets))
        return min_stamp_way(self._stamp_l, candidate_sets)


_VEC_POLICIES = {
    "lru": VecLRU,
    "fifo": VecFIFO,
    "random": VecRandom,
    "plru": VecTreePLRU,
}

assert tuple(sorted(_VEC_POLICIES)) == tuple(sorted(REPLACEMENT_POLICIES))


def make_vec_replacement(name: str, ways: int, num_sets: int,
                         seed: Optional[int] = None) -> VecReplacementState:
    """Build the vectorized state tables for policy ``name``.

    ``seed`` overrides the shared default draw seed of the ``random``
    policy (it is how a scalar :class:`RandomReplacement` instance's
    configuration reaches the batch engine); other policies ignore it.
    """
    try:
        cls = _VEC_POLICIES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of "
            f"{sorted(_VEC_POLICIES)}"
        ) from None
    if cls is VecRandom:
        return VecRandom(ways, num_sets,
                         seed=DEFAULT_RANDOM_SEED if seed is None else seed)
    return cls(ways, num_sets)
