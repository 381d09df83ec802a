"""Set-decomposed replacement kernels for 1-way and wide conventional caches.

The generic replacement kernel in
:class:`~repro.engine.batch_cache.BatchSetAssociativeCache` replays one
access at a time through per-way flat tables and policy method calls, and
probes a set by scanning its ways — O(associativity) per access.  On a
*conventional* organisation every access touches exactly one set and the
sets are completely independent, so this module keeps each set's residents
in a dict (an O(1) probe at any associativity, which is what keeps non-LRU
*fully-associative* simulation tractable) and, for FIFO and PLRU, replays
the batch set by set: the pre-computed set indices are stably grouped (one
argsort), each set's access subsequence is simulated over dense local
state, and the per-access hit mask is scattered back in one vectorized
store.  Three policy-specific kernels:

* **FIFO** — hits never mutate FIFO state, so a hit costs one dict probe;
  the miss/fill sequence pops victims off a per-set heap of fill
  timestamps (ties to the lowest way, like the scalar scan), so warm
  starts from — and hand-offs back to — the generic kernel are bit-exact.
* **Tree-PLRU** — the per-set direction-bit tree is walked over a small
  local list instead of per-access indexing into global ``[way][set]``
  tables.  The never-consulted (in a non-skewed cache) LRU-fallback
  timestamps are still maintained, so the NumPy state tables stay
  byte-identical with the generic kernel's.
* **Random** — the counter-based draw is a pure function of the eviction
  ordinal (``splitmix64(seed + n)``), so the whole batch's victim picks are
  precomputed in one vectorized pass
  (:func:`~repro.engine.replacement_vec.splitmix64_array`).  Because the
  ordinal is defined by the *global* eviction order across sets, this kernel
  keeps trace order and keeps its per-set resident maps dense instead.

All kernels support stores under both write policies (including dirty-line
writeback accounting), warm caches, and any associativity.  Two-way caches,
conventional or skewed, do not come here: they run the trace-order loops of
:mod:`repro.engine.skew_decompose`, a conventional cache passing its one set
list for both ways (set grouping won too little at two ways to keep a
second copy of each loop).

The 3C miss classifier is the one feature the decomposition cannot serve: its
capacity/conflict split replays a fully-associative shadow cache in global
trace order, so classifying caches stay on the generic kernel
(:meth:`~repro.engine.batch_cache.BatchSetAssociativeCache._run_policy_kernel`),
which also remains the reference implementation the differential suite pits
these kernels against.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Tuple

import numpy as np

from ..cache.replacement import plru_touch, plru_victim
from ..cache.set_assoc import WritePolicy
from .replacement_vec import splitmix64_array

__all__ = ["group_by_set", "run_decomposed_policy"]


def group_by_set(sets: np.ndarray) -> Tuple[np.ndarray, List[int], List[int],
                                            List[int]]:
    """Stably group a batch's set indices into per-set subsequences.

    Returns ``(order, starts, stops, set_ids)``: ``order`` is the stable
    permutation that sorts accesses by set (preserving trace order within a
    set), and group ``k`` spans ``order[starts[k]:stops[k]]`` with set index
    ``set_ids[k]``.
    """
    n = sets.shape[0]
    order = np.argsort(sets, kind="stable")
    gs = sets[order]
    boundary = np.flatnonzero(gs[1:] != gs[:-1]) + 1
    starts = np.concatenate(([0], boundary))
    stops = np.concatenate((boundary, [n]))
    return order, starts.tolist(), stops.tolist(), gs[starts].tolist()


def run_decomposed_policy(cache, blocks: np.ndarray, sets: np.ndarray,
                          is_write: np.ndarray) -> np.ndarray:
    """Run one batch through the set-decomposed kernel for the cache's policy.

    ``cache`` is a non-skewed, classifier-free
    :class:`~repro.engine.batch_cache.BatchSetAssociativeCache` of one or
    at least three ways with a bound FIFO, random or PLRU policy; ``sets``
    is the (shared across ways) int64 set-index array for ``blocks``.
    Mutates the cache's tag/dirty stores and policy state tables exactly
    like the generic kernel and returns the per-access hit mask.
    """
    kernel = _KERNELS[cache._vec_policy.name]
    return kernel(cache, blocks, sets, is_write)


def _finish_stats(cache, n, loads, stores, load_misses, store_misses,
                  evictions, writebacks):
    cache._clock += n
    stats = cache.stats
    stats.loads += loads
    stats.stores += stores
    stats.load_misses += load_misses
    stats.store_misses += store_misses
    stats.evictions += evictions
    stats.writebacks += writebacks


# --------------------------------------------------------------------- #
# FIFO
# --------------------------------------------------------------------- #

def _run_fifo(cache, blocks, sets, is_write):
    n = blocks.shape[0]
    policy = cache._vec_policy
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    order, starts, stops, set_ids = group_by_set(sets)
    gbl = blocks[order].tolist()
    pos_l = order.tolist()
    has_stores = bool(is_write.any())
    gwl = is_write[order].tolist() if has_stores else None
    base = cache._clock + 1
    tags = cache._way_tags
    dirty = cache._way_dirty
    hits_l = [False] * n
    ways = cache._ways
    way_range = range(ways)
    load_misses = store_misses = evictions = writebacks = 0

    policy.kernel_begin()
    try:
        stamp_l = policy.stamp_lists
        for k in range(len(starts)):
            lo, hi, s = starts[k], stops[k], set_ids[k]
            tag_s = [tags[w][s] for w in way_range]
            dirty_s = [dirty[w][s] for w in way_range]
            resident = {}
            heap = []
            invalid = []
            for w in range(ways - 1, -1, -1):
                tg = tag_s[w]
                if tg < 0:
                    invalid.append(w)
                else:
                    resident[tg] = w
                    heap.append((stamp_l[w][s], w))
            heapify(heap)
            for i in range(lo, hi):
                v = gbl[i]
                hw = resident.get(v, -1)
                w = gwl[i] if gwl is not None else False
                if hw >= 0:
                    hits_l[i] = True
                    if w and write_back:
                        dirty_s[hw] = True
                    continue
                if w:
                    store_misses += 1
                    if not write_back:
                        continue
                else:
                    load_misses += 1
                if invalid:
                    way = invalid.pop()
                else:
                    _, way = heappop(heap)
                    evictions += 1
                    if dirty_s[way]:
                        writebacks += 1
                    del resident[tag_s[way]]
                stamp = base + pos_l[i]
                tag_s[way] = v
                dirty_s[way] = w
                resident[v] = way
                stamp_l[way][s] = stamp
                heappush(heap, (stamp, way))
            for w in way_range:
                tags[w][s] = tag_s[w]
                dirty[w][s] = dirty_s[w]
    finally:
        policy.kernel_end()

    stores = int(is_write.sum()) if has_stores else 0
    _finish_stats(cache, n, n - stores, stores, load_misses, store_misses,
                  evictions, writebacks)
    hits = np.empty(n, dtype=bool)
    hits[order] = hits_l
    return hits


# --------------------------------------------------------------------- #
# tree-PLRU
# --------------------------------------------------------------------- #

def _run_plru(cache, blocks, sets, is_write):
    n = blocks.shape[0]
    policy = cache._vec_policy
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    order, starts, stops, set_ids = group_by_set(sets)
    gbl = blocks[order].tolist()
    pos_l = order.tolist()
    has_stores = bool(is_write.any())
    gwl = is_write[order].tolist() if has_stores else None
    base = cache._clock + 1
    tags = cache._way_tags
    dirty = cache._way_dirty
    hits_l = [False] * n
    ways = cache._ways
    way_range = range(ways)
    touch = plru_touch
    pick = plru_victim
    load_misses = store_misses = evictions = writebacks = 0

    policy.kernel_begin()
    try:
        bits_l = policy.bit_lists
        stamp_l = policy.stamp_lists
        for k in range(len(starts)):
            lo, hi, s = starts[k], stops[k], set_ids[k]
            tag_s = [tags[w][s] for w in way_range]
            dirty_s = [dirty[w][s] for w in way_range]
            touch_i = [-1] * ways
            bits_s = bits_l[s]
            resident = {}
            invalid = []
            for w in range(ways - 1, -1, -1):
                if tag_s[w] < 0:
                    invalid.append(w)
                else:
                    resident[tag_s[w]] = w
            for i in range(lo, hi):
                v = gbl[i]
                hw = resident.get(v, -1)
                w = gwl[i] if gwl is not None else False
                if hw >= 0:
                    hits_l[i] = True
                    touch_i[hw] = i
                    touch(bits_s, hw, ways)
                    if w and write_back:
                        dirty_s[hw] = True
                    continue
                if w:
                    store_misses += 1
                    if not write_back:
                        continue
                else:
                    load_misses += 1
                if invalid:
                    way = invalid.pop()
                else:
                    way = pick(bits_s, ways)
                    evictions += 1
                    if dirty_s[way]:
                        writebacks += 1
                    del resident[tag_s[way]]
                tag_s[way] = v
                dirty_s[way] = w
                resident[v] = way
                touch_i[way] = i
                touch(bits_s, way, ways)
            for w in way_range:
                tags[w][s] = tag_s[w]
                dirty[w][s] = dirty_s[w]
                ti = touch_i[w]
                if ti >= 0:
                    stamp_l[w][s] = base + pos_l[ti]
    finally:
        policy.kernel_end()

    stores = int(is_write.sum()) if has_stores else 0
    _finish_stats(cache, n, n - stores, stores, load_misses, store_misses,
                  evictions, writebacks)
    hits = np.empty(n, dtype=bool)
    hits[order] = hits_l
    return hits


# --------------------------------------------------------------------- #
# counter-based random
# --------------------------------------------------------------------- #

def _run_random(cache, blocks, sets, is_write):
    n = blocks.shape[0]
    policy = cache._vec_policy
    ways = cache._ways
    write_back = cache._write_policy == WritePolicy.WRITE_BACK_ALLOCATE
    has_stores = bool(is_write.any())
    sets_l = sets.tolist()
    bl = blocks.tolist()
    wl = is_write.tolist() if has_stores else None
    # A batch consumes at most one draw per access, so n picks cover it; the
    # counter advances by exactly the number of draws actually consumed.
    picks_l = (splitmix64_array(policy.seed, policy.counter, n)
               % np.uint64(ways)).tolist()
    tags = cache._way_tags
    dirty = cache._way_dirty
    hits_l = []
    ha = hits_l.append
    load_misses = store_misses = evictions = writebacks = 0
    pe = 0
    # Resident maps and invalid-way stacks are seeded lazily on a set's
    # first access: a batch touching few sets of a large cache must not
    # pay an O(num_sets * ways) sweep up front.
    residents: dict = {}
    invalids: dict = {}
    for i, v in enumerate(bl):
        s = sets_l[i]
        d = residents.get(s)
        if d is None:
            d = {}
            inv = []
            for w in range(ways - 1, -1, -1):
                tg = tags[w][s]
                if tg < 0:
                    inv.append(w)
                else:
                    d[tg] = w
            residents[s] = d
            invalids[s] = inv
        hw = d.get(v, -1)
        w = wl[i] if wl is not None else False
        if hw >= 0:
            ha(True)
            if w and write_back:
                dirty[hw][s] = True
            continue
        ha(False)
        if w:
            store_misses += 1
            if not write_back:
                continue
        else:
            load_misses += 1
        inv = invalids[s]
        if inv:
            way = inv.pop()
        else:
            way = picks_l[pe]
            pe += 1
            evictions += 1
            if dirty[way][s]:
                writebacks += 1
            del d[tags[way][s]]
        tags[way][s] = v
        dirty[way][s] = w
        d[v] = way

    policy.counter += pe
    stores = int(is_write.sum()) if has_stores else 0
    _finish_stats(cache, n, n - stores, stores, load_misses, store_misses,
                  evictions, writebacks)
    return np.array(hits_l, dtype=bool)


_KERNELS = {"fifo": _run_fifo, "random": _run_random, "plru": _run_plru}
