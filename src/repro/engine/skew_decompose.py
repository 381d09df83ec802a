"""Trace-order replacement kernels: 2-way caches + victim caches.

:mod:`repro.engine.set_decompose` exploits the independence of the sets of a
*conventional* cache: group accesses per set, simulate each group over dense
local state.  A skewed cache has no such independence to exploit — an access
touches one frame per way, each in a *different* set of its bank, so the
frames reachable from one way-0 group are shared with every other group
through the rehashed ways, and any per-group replay would reorder the
globally-ordered eviction decisions those shared frames carry.  (The victim
cache has the same obstruction one level up: its fully-associative buffer is
one shared side-structure coupling every main-cache set.)  The differential
suite is the enforcer: a grouping that breaks global order diverges from the
scalar models immediately.

What *can* be decomposed for these organisations is everything around the
per-access trace-order loop:

* **per-way index streams** — each way's rehashed set indices are computed
  array-at-a-time and memoised sweep-wide as arrays *and* as the plain-list
  views the kernels iterate (:func:`repro.engine.memo.cached_set_index_lists`),
  so tasks sharing a trace share the rehash work;
* **policy decisions** — the per-access :class:`~repro.engine.replacement_vec`
  method dispatch of the generic kernel is decomposed into policy-specific
  loops operating directly on the checked-out state-table views: FIFO's
  hit-transparency makes its hot path two tag compares, tree-PLRU walks a
  flat direction-bit view (one flag per set at the paper's two ways), and
  LRU/FIFO victim selection is an inline stamp comparison;
* **random draws** — the counter-based random policy's victim picks are a
  pure function of the eviction ordinal, so a whole batch's draws are
  precomputed in one vectorized pass
  (:func:`~repro.engine.replacement_vec.splitmix64_array`) and consumed by
  index, never calling into Python's ``splitmix64`` per eviction.

All kernels share state-table layout with the generic kernels through
:class:`~repro.engine.replacement_vec.VecReplacementState` (stamps, PLRU
bits, draw counters checked out at ``kernel_begin`` and back in at
``kernel_end``), so a cache can hand off mid-stream between the decomposed
kernel, the generic kernel and the scalar engine with bit-exact continuity —
which the differential suite asserts state-table-for-state-table.

Two kernel families:

* :func:`run_skew_decomposed_policy` — every 2-way classifier-free
  :class:`~repro.engine.batch_cache.BatchSetAssociativeCache` with a FIFO,
  random or PLRU policy, skewed *or conventional* (LRU keeps its dedicated
  fast paths).  A conventional cache is a skewed cache whose two ways
  share one set list, so it runs the same three loops with its one
  memoised set list passed for both ways (at two ways a probe is two tag
  compares either way, and set grouping won too little to keep a second
  copy of each loop).  Wider skewed caches and caches with the 3C
  classifier stay on the generic kernel (the capacity/conflict split needs
  the classifier called in global order with per-access hit context).
* :func:`run_victim_decomposed` — :class:`~repro.engine.batch_cache.BatchVictimCache`
  with a 1-way main cache (Jouppi's geometry), any policy, skewed or
  conventional main indexing.  The victim buffer is carried as a dense
  side-structure probed with C-level list scans (``in`` / ``index`` over a
  handful of entries), swap-on-victim-hit and displaced-block insertion
  replicated from the generic kernel bit-exactly.  Wider main caches keep
  the generic victim kernel.

Both families, and the classifier-free 2-way LRU kernels of
:mod:`repro.engine.batch_cache`, also run as compiled C when the kernel
tier of :mod:`repro.engine.cext` is on (:func:`run_two_way_compiled`,
:func:`_run_victim_compiled`): the same loops over the memoised ``int64``
arrays, updating the same state tables, so the Python loops here are the
fallback and the differential reference of the C tier.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cache.replacement import plru_touch, plru_tree_size, plru_victim
from ..cache.set_assoc import WritePolicy
from . import cext
from .memo import cached_set_index_lists, cached_set_indices
from .replacement_vec import splitmix64_array

__all__ = ["run_skew_decomposed_policy", "run_two_way_compiled",
           "run_victim_decomposed"]

#: Policy codes of the compiled loops (``_kernels.c``).
_C_POLICY = {"lru": 0, "fifo": 1, "random": 2, "plru": 3}


def _ptr(array) -> Optional[int]:
    """Address of a contiguous array's data for a ``ctypes`` call."""
    return None if array is None else array.ctypes.data


def _c_table(array: np.ndarray, dtype, shape) -> np.ndarray:
    """A state table the C loops index directly, checked for layout first
    (a wrong shape would be an out-of-bounds write there, not an error)."""
    if (array.dtype != dtype or array.shape != shape
            or not array.flags.c_contiguous or not array.flags.writeable):
        raise ValueError(f"C kernel table must be a writable contiguous "
                         f"{np.dtype(dtype)} array of shape {shape}, got "
                         f"{array.dtype} {array.shape}")
    return array


def _c_indices(sets: np.ndarray, num_sets: int, n: int) -> np.ndarray:
    """A set-index stream the C loops index with, checked to be in range."""
    if (sets.dtype != np.int64 or sets.shape != (n,)
            or not sets.flags.c_contiguous
            or (n and (int(sets.min()) < 0 or int(sets.max()) >= num_sets))):
        raise ValueError(f"set indices must be a contiguous int64 array of "
                         f"{n} values in [0, {num_sets})")
    return sets


def _c_inputs(blocks: np.ndarray, is_write: np.ndarray):
    """The block array and write mask as the contiguous buffers C reads."""
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    writes = np.ascontiguousarray(is_write, dtype=bool)
    if writes.shape != blocks.shape or blocks.ndim != 1:
        raise ValueError("blocks and is_write must be 1-D of equal length")
    return blocks, writes


# --------------------------------------------------------------------- #
# two-way set-associative caches (skewed or conventional)
# --------------------------------------------------------------------- #

def run_skew_decomposed_policy(cache, blocks: np.ndarray,
                               is_write: np.ndarray) -> np.ndarray:
    """Run one batch through the 2-way trace-order kernel for the cache's policy.

    ``cache`` is a 2-way, classifier-free
    :class:`~repro.engine.batch_cache.BatchSetAssociativeCache` with a bound
    FIFO, random or PLRU policy.  A skewed cache feeds each way its own
    set-index list; a conventional cache is the special case whose two ways
    share one set list, so it passes its one memoised list as both.
    Mutates the cache's tag/dirty stores and policy state tables exactly
    like the generic kernel and returns the per-access hit mask.  Runs the
    compiled loop when the C tier is on (:func:`run_two_way_compiled`).
    """
    hits = run_two_way_compiled(cache, blocks, is_write)
    if hits is not None:
        return hits
    s0_l = cached_set_index_lists(cache._vec_index, blocks, 0)
    s1_l = (cached_set_index_lists(cache._vec_index, blocks, 1)
            if cache._skewed else s0_l)
    kernel = _TWO_WAY_KERNELS[cache._vec_policy.name]
    hits_l = kernel(cache, blocks.tolist(), s0_l, s1_l, is_write.tolist())
    n = blocks.shape[0]
    stores = int(is_write.sum())
    cache._clock += n
    stats = cache.stats
    stats.loads += n - stores
    stats.stores += stores
    return np.array(hits_l, dtype=bool)


def run_two_way_compiled(cache, blocks: np.ndarray,
                         is_write: np.ndarray) -> Optional[np.ndarray]:
    """Run one batch of a 2-way classifier-free cache through the C loop.

    Serves every policy, LRU included, skewed or conventional, under
    either write policy; returns ``None`` without touching the cache when
    the compiled tier is off (:func:`repro.engine.cext.kernels`).  The loop
    works on the memoised ``int64`` block and set arrays and updates the
    policy state tables in place; the cache's Python-side tag, dirty and
    LRU stores are converted in and out in O(frames), so the cache can
    continue on any other kernel (or the scalar engine) bit-exactly.
    """
    lib = cext.kernels()
    if lib is None:
        return None
    name = cache._replacement_name
    policy = cache._vec_policy
    num_sets = cache._num_sets
    blocks, writes = _c_inputs(blocks, is_write)
    n = blocks.shape[0]
    s0 = _c_indices(cached_set_indices(cache._vec_index, blocks, 0),
                    num_sets, n)
    s1 = (_c_indices(cached_set_indices(cache._vec_index, blocks, 1),
                     num_sets, n) if cache._skewed else s0)
    if not cache._use_flat:
        # Conventional LRU keeps per-set dicts in LRU-to-MRU order: run
        # them as frames stamped 1 (LRU) and 2 (MRU) on a local clock.
        tags, dirty, stamps = _lru_sets_to_frames(cache._sets)
        clock = 2
    else:
        tags = np.array(cache._way_tags, dtype=np.int64)
        dirty = np.array(cache._way_dirty, dtype=bool)
        clock = cache._clock
        stamps = (np.array(cache._way_used, dtype=np.int64) if name == "lru"
                  else getattr(policy, "stamps", None))
    u0 = u1 = None
    if stamps is not None:
        u0, u1 = _c_table(stamps, np.int64, (2, num_sets))
    bits = (_c_table(policy.bits, np.bool_, (num_sets, 1))
            if name == "plru" else None)
    io = np.array([clock, getattr(policy, "counter", 0), 0, 0, 0, 0],
                  dtype=np.int64)
    hits = np.empty(n, dtype=bool)
    lib.two_way_run(
        n, _ptr(blocks), _ptr(s0), _ptr(s1), _ptr(writes), _C_POLICY[name],
        cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE,
        _ptr(tags[0]), _ptr(tags[1]), _ptr(dirty[0]), _ptr(dirty[1]),
        _ptr(u0), _ptr(u1), _ptr(bits),
        policy.seed if name == "random" else 0, _ptr(io), _ptr(hits))

    if not cache._use_flat:
        _frames_to_lru_sets(cache._sets, tags, dirty, stamps)
    else:
        _copy_rows(cache._way_tags, tags)
        _copy_rows(cache._way_dirty, dirty)
        if name == "lru":
            _copy_rows(cache._way_used, stamps)
    if name == "random":
        policy.counter = int(io[1])
    cache._clock += n
    stores = int(np.count_nonzero(writes))
    stats = cache.stats
    stats.loads += n - stores
    stats.stores += stores
    stats.load_misses += int(io[2])
    stats.store_misses += int(io[3])
    stats.evictions += int(io[4])
    stats.writebacks += int(io[5])
    return hits


def _copy_rows(rows, array: np.ndarray) -> None:
    """Write a 2-D array back into a cache's per-way lists, in place."""
    for row, values in zip(rows, array.tolist()):
        row[:] = values


def _lru_sets_to_frames(sets):
    """Per-set LRU dicts (at most two residents) as 2-way frame arrays."""
    num_sets = len(sets)
    tags = [[-1] * num_sets, [-1] * num_sets]
    dirty = [[False] * num_sets, [False] * num_sets]
    stamps = [[0] * num_sets, [0] * num_sets]
    for s, d in enumerate(sets):
        for way, (block, block_dirty) in enumerate(d.items()):
            tags[way][s] = block
            dirty[way][s] = block_dirty
            stamps[way][s] = way + 1
    return (np.array(tags, dtype=np.int64), np.array(dirty, dtype=bool),
            np.array(stamps, dtype=np.int64))


def _frames_to_lru_sets(sets, tags, dirty, stamps) -> None:
    """Rebuild the per-set LRU dicts, residents inserted in stamp order."""
    (t0, t1), (d0, d1) = tags.tolist(), dirty.tolist()
    way1_older = (stamps[1] < stamps[0]).tolist()
    for s, d in enumerate(sets):
        d.clear()
        order = (((t1[s], d1[s]), (t0[s], d0[s])) if way1_older[s]
                 else ((t0[s], d0[s]), (t1[s], d1[s])))
        for block, block_dirty in order:
            if block >= 0:
                d[block] = block_dirty


def _skew_fifo_2way(cache, blocks_l, s0_l, s1_l, writes_l):
    policy = cache._vec_policy
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    t0, t1 = cache._way_tags
    d0, d1 = cache._way_dirty
    clock = cache._clock
    stats = cache.stats
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = evictions = writebacks = 0

    policy.kernel_begin()
    try:
        stamp0, stamp1 = policy.stamp_lists
        for b, sa, sb, w in zip(blocks_l, s0_l, s1_l, writes_l):
            clock += 1
            # FIFO hits are transparent: no stamp refresh, only dirty marking.
            if t0[sa] == b:
                ha(True)
                if w and write_back:
                    d0[sa] = True
                continue
            if t1[sb] == b:
                ha(True)
                if w and write_back:
                    d1[sb] = True
                continue
            ha(False)
            if w:
                store_misses += 1
                if not write_back:
                    continue
            else:
                load_misses += 1
            dirty = w and write_back
            if t0[sa] < 0:
                t0[sa] = b
                d0[sa] = dirty
                stamp0[sa] = clock
            elif t1[sb] < 0:
                t1[sb] = b
                d1[sb] = dirty
                stamp1[sb] = clock
            elif stamp0[sa] <= stamp1[sb]:
                evictions += 1
                if d0[sa]:
                    writebacks += 1
                t0[sa] = b
                d0[sa] = dirty
                stamp0[sa] = clock
            else:
                evictions += 1
                if d1[sb]:
                    writebacks += 1
                t1[sb] = b
                d1[sb] = dirty
                stamp1[sb] = clock
    finally:
        policy.kernel_end()

    stats.load_misses += load_misses
    stats.store_misses += store_misses
    stats.evictions += evictions
    stats.writebacks += writebacks
    return hits_l


def _skew_random_2way(cache, blocks_l, s0_l, s1_l, writes_l):
    policy = cache._vec_policy
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    t0, t1 = cache._way_tags
    d0, d1 = cache._way_dirty
    stats = cache.stats
    # One draw per eviction, at most one eviction per access: n picks cover
    # the batch; the counter advances by the draws actually consumed.
    picks_l = (splitmix64_array(policy.seed, policy.counter, len(blocks_l))
               % np.uint64(2)).astype(bool).tolist()
    pe = 0
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = evictions = writebacks = 0

    for b, sa, sb, w in zip(blocks_l, s0_l, s1_l, writes_l):
        # Random hits are transparent (no policy state at all).
        if t0[sa] == b:
            ha(True)
            if w and write_back:
                d0[sa] = True
            continue
        if t1[sb] == b:
            ha(True)
            if w and write_back:
                d1[sb] = True
            continue
        ha(False)
        if w:
            store_misses += 1
            if not write_back:
                continue
        else:
            load_misses += 1
        dirty = w and write_back
        if t0[sa] < 0:
            t0[sa] = b
            d0[sa] = dirty
        elif t1[sb] < 0:
            t1[sb] = b
            d1[sb] = dirty
        elif picks_l[pe]:
            pe += 1
            evictions += 1
            if d1[sb]:
                writebacks += 1
            t1[sb] = b
            d1[sb] = dirty
        else:
            pe += 1
            evictions += 1
            if d0[sa]:
                writebacks += 1
            t0[sa] = b
            d0[sa] = dirty

    policy.counter += pe
    stats.load_misses += load_misses
    stats.store_misses += store_misses
    stats.evictions += evictions
    stats.writebacks += writebacks
    return hits_l


def _skew_plru_2way(cache, blocks_l, s0_l, s1_l, writes_l):
    policy = cache._vec_policy
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    t0, t1 = cache._way_tags
    d0, d1 = cache._way_dirty
    clock = cache._clock
    stats = cache.stats
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = evictions = writebacks = 0

    policy.kernel_begin()
    flat = None
    try:
        bits_l = policy.bit_lists
        stamp0, stamp1 = policy.stamp_lists
        # One direction bit per set at two ways: True sends the victim walk
        # to way 1.  Checked out flat, written back row-by-row at the end.
        flat = [row[0] for row in bits_l]
        for b, sa, sb, w in zip(blocks_l, s0_l, s1_l, writes_l):
            clock += 1
            if t0[sa] == b:
                ha(True)
                stamp0[sa] = clock
                flat[sa] = True
                if w and write_back:
                    d0[sa] = True
                continue
            if t1[sb] == b:
                ha(True)
                stamp1[sb] = clock
                flat[sb] = False
                if w and write_back:
                    d1[sb] = True
                continue
            ha(False)
            if w:
                store_misses += 1
                if not write_back:
                    continue
            else:
                load_misses += 1
            dirty = w and write_back
            if t0[sa] < 0:
                target = 0
            elif t1[sb] < 0:
                target = 1
            elif sa == sb:
                # Shared set: the per-set tree decides.
                target = 1 if flat[sa] else 0
                evictions += 1
            else:
                # Skewed candidates: true-LRU fallback over the stamps,
                # ties towards way 0 (the scalar policy's scan order).
                target = 0 if stamp0[sa] <= stamp1[sb] else 1
                evictions += 1
            if target:
                if t1[sb] >= 0 and d1[sb]:
                    writebacks += 1
                t1[sb] = b
                d1[sb] = dirty
                stamp1[sb] = clock
                flat[sb] = False
            else:
                if t0[sa] >= 0 and d0[sa]:
                    writebacks += 1
                t0[sa] = b
                d0[sa] = dirty
                stamp0[sa] = clock
                flat[sa] = True
    finally:
        if flat is not None:
            for s, value in enumerate(flat):
                bits_l[s][0] = value
        policy.kernel_end()

    stats.load_misses += load_misses
    stats.store_misses += store_misses
    stats.evictions += evictions
    stats.writebacks += writebacks
    return hits_l


_TWO_WAY_KERNELS = {
    "fifo": _skew_fifo_2way,
    "random": _skew_random_2way,
    "plru": _skew_plru_2way,
}


# --------------------------------------------------------------------- #
# victim caches (main array + fully-associative buffer side-structure)
# --------------------------------------------------------------------- #

def run_victim_decomposed(cache, blocks: np.ndarray,
                          is_write: np.ndarray) -> np.ndarray:
    """Run one batch through the decomposed victim kernel for the cache's policy.

    ``cache`` is a :class:`~repro.engine.batch_cache.BatchVictimCache` with a
    1-way main cache (Jouppi's geometry; its one index function may be a
    skewing rehash).  Mutates main/buffer tag stores, both policies' state
    tables and both clocks exactly like the generic victim kernel and
    returns the per-access overall hit mask.  Runs the compiled loop when
    the C tier is on.
    """
    hits = _run_victim_compiled(cache, blocks, is_write)
    if hits is not None:
        return hits
    name = cache._replacement_name
    sets_l = cached_set_index_lists(cache._vec_index, blocks, 0)
    blocks_l = blocks.tolist()
    writes_l = is_write.tolist()
    if name == "random":
        hits_l = _victim_random_1way(cache, blocks_l, sets_l, writes_l)
    else:
        # A 1-way tree has no direction bits (plru_touch is a no-op below
        # two ways), so PLRU keeps only its LRU-fallback stamps: LRU and
        # PLRU refresh the stamp on a hit, FIFO does not.
        hits_l = _victim_stamp_1way(cache, blocks_l, sets_l, writes_l,
                                    name != "fifo")
    n = blocks.shape[0]
    stores = int(is_write.sum())
    stats = cache.stats
    stats.loads += n - stores
    stats.stores += stores
    return np.array(hits_l, dtype=bool)


def _run_victim_compiled(cache, blocks, is_write):
    """:func:`run_victim_decomposed` through the compiled ``victim_run``
    (``None`` when the C tier is off), converting state like
    :func:`run_two_way_compiled`."""
    lib = cext.kernels()
    if lib is None:
        return None
    name = cache._replacement_name
    main, buffer = cache._main_policy, cache._victim_policy
    stamped = name != "random"
    entries = cache._entries
    blocks, writes = _c_inputs(blocks, is_write)
    n = blocks.shape[0]
    sets = _c_indices(cached_set_indices(cache._vec_index, blocks, 0),
                      cache._num_sets, n)
    mstamp = vstamp = vbits = None
    if stamped:
        mstamp = _c_table(main.stamps, np.int64, (1, cache._num_sets))
        vstamp = _c_table(buffer.stamps, np.int64, (entries, 1))
    if name == "plru":
        vbits = _c_table(buffer.bits, np.bool_, (1, plru_tree_size(entries)))
    tags = np.array(cache._way_tags[0], dtype=np.int64)
    dirty = np.array(cache._way_dirty[0], dtype=bool)
    vtags = np.array(cache._victim_tags, dtype=np.int64)
    vdirty = np.array(cache._victim_dirty, dtype=bool)
    io = np.array([cache._main_clock, cache._victim_clock,
                   getattr(main, "counter", 0), getattr(buffer, "counter", 0),
                   0, 0, 0, 0, 0], dtype=np.int64)
    hits = np.empty(n, dtype=bool)
    lib.victim_run(
        n, _ptr(blocks), _ptr(sets), _ptr(writes), _C_POLICY[name],
        _ptr(tags), _ptr(dirty), _ptr(mstamp), entries, _ptr(vtags),
        _ptr(vdirty), _ptr(vstamp), _ptr(vbits),
        buffer.seed if name == "random" else 0, _ptr(io), _ptr(hits))

    cache._way_tags[0][:] = tags.tolist()
    cache._way_dirty[0][:] = dirty.tolist()
    cache._victim_tags[:] = vtags.tolist()
    cache._victim_dirty[:] = vdirty.tolist()
    cache._main_clock, cache._victim_clock = int(io[0]), int(io[1])
    if not stamped:
        main.counter, buffer.counter = int(io[2]), int(io[3])
    stores = int(np.count_nonzero(writes))
    stats = cache.stats
    stats.loads += n - stores
    stats.stores += stores
    stats.load_misses += int(io[4])
    stats.store_misses += int(io[5])
    stats.writebacks += int(io[8])
    cache.main_hits += int(io[6])
    cache.victim_hits += int(io[7])
    return hits


class _VictimBuffer:
    """Checked-out dense view of the victim buffer and its policy state.

    One instance brackets one kernel run: :meth:`__init__` checks the
    buffer policy's tables out as flat lists, the kernel calls
    :meth:`stash` per displaced line, and :meth:`close` writes the stamp
    view back before ``kernel_end``.  Probing stays in the caller (C-level
    ``in`` / ``index`` over the tag list is the hot path).
    """

    __slots__ = ("tags", "dirty", "entries", "policy", "name", "stamps",
                 "bits", "picks", "pe", "clock", "writebacks")

    def __init__(self, cache, name, draws):
        self.tags = cache._victim_tags
        self.dirty = cache._victim_dirty
        self.entries = cache._entries
        self.policy = cache._victim_policy
        self.name = name
        self.clock = cache._victim_clock
        self.writebacks = 0
        self.pe = 0
        self.policy.kernel_begin()
        if name in ("lru", "fifo"):
            self.stamps = [row[0] for row in self.policy.stamp_lists]
            self.bits = None
            self.picks = None
        elif name == "plru":
            self.stamps = [row[0] for row in self.policy.stamp_lists]
            self.bits = self.policy.bit_lists[0]
            self.picks = None
        else:
            self.stamps = None
            self.bits = None
            self.picks = (splitmix64_array(self.policy.seed,
                                           self.policy.counter, draws)
                          % np.uint64(self.entries)).tolist()

    def stash(self, block, dirty):
        """Insert a displaced main-cache line, spilling the policy victim."""
        self.clock += 1
        tags = self.tags
        if -1 in tags:
            slot = tags.index(-1)
        else:
            name = self.name
            if name == "random":
                slot = self.picks[self.pe]
                self.pe += 1
            elif name == "plru":
                slot = plru_victim(self.bits, self.entries)
            else:
                stamps = self.stamps
                slot = stamps.index(min(stamps))
            if self.dirty[slot]:
                # A dirty line falling out of the buffer would be written
                # back to the next level.
                self.writebacks += 1
        tags[slot] = block
        self.dirty[slot] = dirty
        if self.stamps is not None:
            self.stamps[slot] = self.clock
        if self.bits is not None:
            plru_touch(self.bits, slot, self.entries)

    def close(self, cache):
        """Write flat views back and check the policy tables in."""
        try:
            if self.stamps is not None:
                for slot, row in enumerate(self.policy.stamp_lists):
                    row[0] = self.stamps[slot]
            if self.picks is not None:
                self.policy.counter += self.pe
        finally:
            self.policy.kernel_end()
        cache._victim_clock = self.clock
        cache.stats.writebacks += self.writebacks


def _victim_stamp_1way(cache, blocks_l, sets_l, writes_l, refresh_on_hit):
    t0 = cache._way_tags[0]
    d0 = cache._way_dirty[0]
    vtags = cache._victim_tags
    main_policy = cache._main_policy
    main_clock = cache._main_clock
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = main_hits = victim_hits = 0

    main_policy.kernel_begin()
    try:
        buffer = _VictimBuffer(cache, cache._replacement_name, len(blocks_l))
        try:
            mstamp = main_policy.stamp_lists[0]
            for b, s, w in zip(blocks_l, sets_l, writes_l):
                main_clock += 1
                if t0[s] == b:
                    if refresh_on_hit:
                        mstamp[s] = main_clock
                    if w:
                        d0[s] = True  # main cache is write-back
                    main_hits += 1
                    ha(True)
                    continue
                # Main miss: probe the victim buffer (C-level list scan).
                victim_hit = b in vtags
                ha(victim_hit)
                if victim_hit:
                    victim_hits += 1
                    slot = vtags.index(b)
                    vtags[slot] = -1
                    cache._victim_dirty[slot] = False
                elif w:
                    store_misses += 1
                else:
                    load_misses += 1
                # Refill the main cache (write-back / write-allocate).
                evicted = t0[s]
                t0[s] = b
                mstamp[s] = main_clock
                if evicted < 0:
                    d0[s] = bool(w)
                    continue
                evicted_dirty = d0[s]
                d0[s] = bool(w)
                buffer.stash(evicted, evicted_dirty)
        finally:
            buffer.close(cache)
    finally:
        main_policy.kernel_end()

    _finish_victim(cache, main_clock, main_hits, victim_hits,
                   load_misses, store_misses)
    return hits_l


def _victim_random_1way(cache, blocks_l, sets_l, writes_l):
    t0 = cache._way_tags[0]
    d0 = cache._way_dirty[0]
    vtags = cache._victim_tags
    main_policy = cache._main_policy
    main_clock = cache._main_clock
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = main_hits = victim_hits = 0
    main_evictions = 0

    buffer = _VictimBuffer(cache, "random", len(blocks_l))
    try:
        for b, s, w in zip(blocks_l, sets_l, writes_l):
            if t0[s] == b:
                if w:
                    d0[s] = True
                main_hits += 1
                ha(True)
                continue
            victim_hit = b in vtags
            ha(victim_hit)
            if victim_hit:
                victim_hits += 1
                slot = vtags.index(b)
                vtags[slot] = -1
                cache._victim_dirty[slot] = False
            elif w:
                store_misses += 1
            else:
                load_misses += 1
            evicted = t0[s]
            t0[s] = b
            if evicted < 0:
                d0[s] = bool(w)
                continue
            # A single way means the pick is forced, but the generic kernel
            # (and the scalar policy) still consume one draw per eviction —
            # advance the counter identically.
            main_evictions += 1
            evicted_dirty = d0[s]
            d0[s] = bool(w)
            buffer.stash(evicted, evicted_dirty)
    finally:
        buffer.close(cache)
        main_policy.counter += main_evictions

    _finish_victim(cache, main_clock + len(blocks_l), main_hits, victim_hits,
                   load_misses, store_misses)
    return hits_l


def _finish_victim(cache, main_clock, main_hits, victim_hits,
                   load_misses, store_misses):
    cache._main_clock = main_clock
    stats = cache.stats
    stats.load_misses += load_misses
    stats.store_misses += store_misses
    cache.main_hits += main_hits
    cache.victim_hits += victim_hits
