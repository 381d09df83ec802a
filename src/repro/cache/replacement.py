"""Replacement policies with externalized, array-friendly per-set state.

When a block must be brought into a full set (or, in a skewed cache, when all
candidate frames across the ways are occupied), the replacement policy picks
the victim.  The paper's experiments use LRU; FIFO, random and tree-PLRU are
provided for ablation studies because pseudo-random placement interacts with
replacement (a skewed cache cannot implement true per-set LRU cheaply in
hardware, which is why PLRU and random are interesting comparison points).

Policies own *all* of their decision state, held in flat per-``(way, set)``
tables — last-use timestamps for LRU, insertion counters for FIFO, per-set
PLRU bit-trees, a draw counter for the deterministic random policy — rather
than reading bookkeeping fields off :class:`~repro.cache.block.CacheBlock`
frames.  The tables are plain ``ways x num_sets`` structures, so the
vectorized engine (:mod:`repro.engine.replacement_vec`) can keep byte-for-byte
identical state in NumPy arrays and replay exactly the same decisions; the
shared primitive helpers (:func:`splitmix64`, from
:mod:`repro.core.splitmix`, and :func:`plru_touch`, :func:`plru_victim`
in this module) are the single source of truth both
engines call into, which is what makes the cross-engine differential tests
bit-exact by construction.

A policy is *bound* to a cache geometry with :meth:`ReplacementPolicy.bind`
(the scalar caches do this at construction); the observation hooks
(:meth:`on_hit`, :meth:`on_fill`, :meth:`on_invalidate`) and
:meth:`choose_victim` then operate purely on ``(way, set_index)``
coordinates.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Tuple

from ..core.splitmix import splitmix64

__all__ = [
    "DEFAULT_RANDOM_SEED",
    "splitmix64",
    "plru_tree_size",
    "plru_touch",
    "plru_victim",
    "min_stamp_victim",
    "replacement_policy_name",
    "clone_replacement",
    "ReplacementPolicy",
    "LRUReplacement",
    "FIFOReplacement",
    "RandomReplacement",
    "TreePLRUReplacement",
    "REPLACEMENT_POLICIES",
    "make_replacement_policy",
    "resolve_replacement",
]

#: Seed shared by the scalar and vectorized random-replacement policies, so a
#: bare ``replacement="random"`` produces the same victim sequence on both
#: engines (and across runs).
DEFAULT_RANDOM_SEED = 0x9E3779B97F4A7C15

_MASK64 = (1 << 64) - 1


# --------------------------------------------------------------------- #
# tree-PLRU primitives (shared with repro.engine.replacement_vec)
# --------------------------------------------------------------------- #

def plru_tree_size(ways: int) -> int:
    """Number of direction bits in the PLRU tree over ``ways`` ways."""
    return max(ways - 1, 1)


def plru_touch(bits: List[bool], way: int, ways: int) -> None:
    """Flip the direction bits along ``way``'s path to point away from it.

    The midpoint-split tree over ``ways`` leaves has exactly ``ways - 1``
    internal nodes, stored pre-order: the node covering ``[low, high)`` sits
    at some offset, its left subtree (``mid - low - 1`` nodes) immediately
    after it, and its right subtree after that — so ragged (non-power-of-two)
    trees pack densely and every way remains reachable as a victim.
    ``bits[node] == True`` sends the victim walk right.
    """
    if ways < 2:
        return
    offset = 0
    low, high = 0, ways
    while high - low > 1:
        mid = (low + high) // 2
        go_right = way >= mid
        bits[offset] = not go_right  # point away from the touched half
        if go_right:
            offset += mid - low
            low = mid
        else:
            offset += 1
            high = mid


def plru_victim(bits: List[bool], ways: int) -> int:
    """Follow the direction bits down the tree to the pseudo-LRU way.

    Uses the same pre-order node layout as :func:`plru_touch`.
    """
    offset = 0
    low, high = 0, ways
    while high - low > 1:
        mid = (low + high) // 2
        if bits[offset]:
            offset += mid - low
            low = mid
        else:
            offset += 1
            high = mid
    return low


# --------------------------------------------------------------------- #
# policy interface
# --------------------------------------------------------------------- #

class ReplacementPolicy(abc.ABC):
    """Chooses a victim among candidate frames and observes accesses.

    State is externalized: the policy holds its own flat per-``(way, set)``
    tables, allocated when :meth:`bind` attaches it to a cache geometry.
    Hooks receive only coordinates and the access clock, never frames.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self._ways = 0
        self._num_sets = 0

    @property
    def ways(self) -> int:
        """Associativity of the bound cache (0 before :meth:`bind`)."""
        return self._ways

    @property
    def num_sets(self) -> int:
        """Sets per way of the bound cache (0 before :meth:`bind`)."""
        return self._num_sets

    def bind(self, ways: int, num_sets: int) -> None:
        """Attach the policy to a cache geometry, allocating state tables.

        A policy instance holds the state of exactly one cache; binding it a
        second time would let two caches clobber each other's tables, so it
        raises — pass a fresh instance (or just the policy name) per cache.
        """
        if ways < 1 or num_sets < 1:
            raise ValueError("ways and num_sets must be positive")
        if self._ways:
            raise RuntimeError(
                f"{type(self).__name__} is already bound to a cache; policy "
                "instances hold per-cache state and cannot be shared — pass "
                "a fresh instance or a policy name")
        self._ways = ways
        self._num_sets = num_sets
        self._allocate()

    def _require_bound(self) -> None:
        if not self._ways:
            raise RuntimeError(
                f"{type(self).__name__} must be bound to a cache geometry "
                "(call bind(ways, num_sets)) before use")

    def _allocate(self) -> None:
        """Allocate per-(way, set) state tables (default: none)."""

    @abc.abstractmethod
    def choose_victim(
        self, candidates: Sequence[Tuple[int, int]],
    ) -> Tuple[int, int]:
        """Pick the frame to evict.

        ``candidates`` is a sequence of ``(way, set_index)`` pairs — one per
        way for a skewed cache, or the frames of a single set for a
        conventional cache, always in way order.  Invalid frames are never
        passed here (the cache fills them first).
        """

    def on_hit(self, way: int, set_index: int, now: int) -> None:
        """Observe a hit (default: no state)."""

    def on_fill(self, way: int, set_index: int, now: int) -> None:
        """Observe a fill of a previously invalid or just-evicted frame."""

    def on_invalidate(self, way: int, set_index: int) -> None:
        """Observe an invalidation (default: no state)."""

    def reset(self) -> None:
        """Forget all decision state (called by ``Cache.flush``)."""
        if self._ways:
            self._allocate()


def min_stamp_victim(stamp: List[List[int]], candidates) -> Tuple[int, int]:
    """The candidate with the smallest timestamp, ties broken by way order.

    The one LRU/FIFO comparison rule of the whole subsystem — shared by the
    timestamp policies, the tree-PLRU skewed fallback and (via list views of
    the same layout) the vectorized state tables, so the engines cannot
    drift apart on tie-breaks.
    """
    best_way, best_set = candidates[0]
    best = stamp[best_way][best_set]
    for way, set_index in candidates[1:]:
        value = stamp[way][set_index]
        if value < best:
            best, best_way, best_set = value, way, set_index
    return best_way, best_set


class _TimestampPolicy(ReplacementPolicy):
    """Shared machinery for policies keyed on a per-frame timestamp table."""

    def _allocate(self) -> None:
        self._stamp: List[List[int]] = [
            [0] * self._num_sets for _ in range(self._ways)
        ]

    def choose_victim(self, candidates):
        self._require_bound()
        return min_stamp_victim(self._stamp, candidates)


class LRUReplacement(_TimestampPolicy):
    """Evict the least recently used candidate (the paper's default)."""

    name = "lru"

    def on_hit(self, way, set_index, now):
        self._stamp[way][set_index] = now

    def on_fill(self, way, set_index, now):
        self._stamp[way][set_index] = now


class FIFOReplacement(_TimestampPolicy):
    """Evict the candidate that was filled longest ago (hits don't refresh)."""

    name = "fifo"

    def on_fill(self, way, set_index, now):
        self._stamp[way][set_index] = now


class RandomReplacement(ReplacementPolicy):
    """Evict a deterministically pseudo-random candidate.

    The n-th victim choice is ``splitmix64(seed + n) % len(candidates)`` —
    a counter-based draw with no mutable generator state beyond the counter
    itself, reproducible run-to-run and engine-to-engine (the vectorized
    policy in :mod:`repro.engine.replacement_vec` consumes the identical
    sequence).
    """

    name = "random"

    def __init__(self, seed: int = DEFAULT_RANDOM_SEED) -> None:
        super().__init__()
        self._seed = int(seed) & _MASK64
        self._counter = 0

    @property
    def seed(self) -> int:
        """The draw-sequence seed."""
        return self._seed

    @property
    def draws(self) -> int:
        """Number of victim choices made so far."""
        return self._counter

    def choose_victim(self, candidates):
        self._require_bound()
        pick = splitmix64(self._seed + self._counter) % len(candidates)
        self._counter += 1
        return candidates[pick]

    def _allocate(self) -> None:
        self._counter = 0


class TreePLRUReplacement(ReplacementPolicy):
    """Tree pseudo-LRU over the ways of each set.

    Maintains a binary tree of direction bits per set; every hit or fill
    flips the bits along the path to the touched way so they point away from
    it, and the victim is found by following the bits.  Only meaningful when
    all candidates share one set index; for skewed candidates (differing set
    indices per way) it falls back to true LRU over its own timestamp table,
    since the per-set tree has no hardware analogue across banks.
    """

    name = "plru"

    def _allocate(self) -> None:
        tree = plru_tree_size(self._ways)
        self._bits: List[List[bool]] = [
            [False] * tree for _ in range(self._num_sets)
        ]
        self._stamp: List[List[int]] = [
            [0] * self._num_sets for _ in range(self._ways)
        ]

    def _touch(self, way: int, set_index: int, now: int) -> None:
        self._stamp[way][set_index] = now
        if self._ways >= 2:
            plru_touch(self._bits[set_index], way, self._ways)

    def on_hit(self, way, set_index, now):
        self._touch(way, set_index, now)

    def on_fill(self, way, set_index, now):
        self._touch(way, set_index, now)

    def choose_victim(self, candidates):
        self._require_bound()
        first_set = candidates[0][1]
        if any(set_index != first_set for _, set_index in candidates[1:]):
            # Skewed candidates: no shared tree; fall back to true LRU.
            return min_stamp_victim(self._stamp, candidates)
        ways = len(candidates)
        victim = plru_victim(self._bits[first_set], ways)
        return candidates[victim]


REPLACEMENT_POLICIES: Tuple[str, ...] = ("lru", "fifo", "random", "plru")

_POLICY_CLASSES = {
    "lru": LRUReplacement,
    "fifo": FIFOReplacement,
    "random": RandomReplacement,
    "plru": TreePLRUReplacement,
}


def make_replacement_policy(name: str) -> ReplacementPolicy:
    """Build an (unbound) policy from its short name (``lru``, ``fifo``, ``random``, ``plru``)."""
    try:
        return _POLICY_CLASSES[name.strip().lower()]()
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of "
            f"{sorted(_POLICY_CLASSES)}"
        ) from None


def replacement_policy_name(replacement) -> str:
    """The validated short name of a ``replacement=`` argument
    (None -> ``lru``; accepts names and policy instances)."""
    if replacement is None:
        return "lru"
    if isinstance(replacement, ReplacementPolicy):
        name = replacement.name
    else:
        name = str(replacement).strip().lower()
    if name not in _POLICY_CLASSES:
        raise ValueError(
            f"unknown replacement policy {replacement!r}; expected one of "
            f"{sorted(_POLICY_CLASSES)}")
    return name


def clone_replacement(replacement) -> ReplacementPolicy:
    """A fresh, unbound policy with the same configuration.

    Used by composite caches (e.g. the victim cache) that need one policy
    instance per internal structure: the clone carries the configuration —
    including a :class:`RandomReplacement` seed — but none of the state.
    """
    if isinstance(replacement, RandomReplacement):
        return RandomReplacement(seed=replacement.seed)
    return make_replacement_policy(replacement_policy_name(replacement))


def resolve_replacement(replacement) -> ReplacementPolicy:
    """Normalise a ``replacement=`` argument: None -> LRU, str -> factory,
    policy instance -> itself."""
    if replacement is None:
        return LRUReplacement()
    if isinstance(replacement, str):
        return make_replacement_policy(replacement)
    if isinstance(replacement, ReplacementPolicy):
        return replacement
    raise TypeError(
        "replacement must be a policy name, a ReplacementPolicy instance or "
        f"None, got {type(replacement).__name__}")
