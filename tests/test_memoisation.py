"""Sweep-wide memoisation: the trace cache and the derived-array memos.

Covers bit-exactness of the cached builders against their uncached
counterparts, identity stability (the property the engine-side memo keys
on), the LRU bounds, read-only protection of shared arrays, and the
end-to-end effect: repeated vectorized study runs hit the caches and still
produce identical results.
"""

import numpy as np
import pytest

from repro.core.index import (
    BitSelectIndexing,
    IndexFunction,
    IPolyIndexing,
    PrimeModuloIndexing,
    SingleSetIndexing,
    XorFoldIndexing,
    make_index_function,
)
from repro.engine import (
    AddressBatch,
    cached_block_numbers,
    cached_set_index_lists,
    cached_set_indices,
    memo_clear,
    memo_info,
    vectorize_index,
)
from repro.trace.batching import (
    cached_strided_arrays,
    cached_workload_arrays,
    set_trace_cache_limit,
    strided_vector_arrays,
    to_arrays,
    trace_cache_clear,
    trace_cache_info,
)
from repro.trace.workloads import build_trace


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test sees empty process-global caches (and leaves them empty)."""
    trace_cache_clear()
    memo_clear()
    yield
    trace_cache_clear()
    memo_clear()


class TestTraceCache:
    def test_workload_arrays_bit_exact_with_builder(self):
        addresses, writes = cached_workload_arrays("gcc", length=2000, seed=9)
        fresh_a, fresh_w = to_arrays(build_trace("gcc", length=2000, seed=9))
        assert addresses.tolist() == fresh_a.tolist()
        assert writes.tolist() == fresh_w.tolist()

    def test_strided_arrays_bit_exact_with_builder(self):
        addresses, writes = cached_strided_arrays(67, elements=32, sweeps=3)
        fresh_a, fresh_w = strided_vector_arrays(67, elements=32, sweeps=3)
        assert addresses.tolist() == fresh_a.tolist()
        assert writes.tolist() == fresh_w.tolist()

    def test_identity_stable_across_calls(self):
        first = cached_workload_arrays("gcc", length=1500, seed=3)
        second = cached_workload_arrays("gcc", length=1500, seed=3)
        assert first[0] is second[0]
        assert first[1] is second[1]
        info = trace_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_distinct_parameters_are_distinct_entries(self):
        a = cached_workload_arrays("gcc", length=1500, seed=3)
        b = cached_workload_arrays("gcc", length=1500, seed=4)
        c = cached_workload_arrays("li", length=1500, seed=3)
        assert a[0] is not b[0] and a[0] is not c[0]
        assert trace_cache_info()["entries"] == 3

    def test_cached_arrays_are_read_only(self):
        addresses, writes = cached_strided_arrays(17, elements=16, sweeps=2)
        with pytest.raises(ValueError):
            addresses[0] = 1
        with pytest.raises(ValueError):
            writes[0] = True

    def test_lru_bound_evicts_oldest(self):
        old = set_trace_cache_limit(2)
        try:
            cached_strided_arrays(1, elements=8, sweeps=1)
            cached_strided_arrays(2, elements=8, sweeps=1)
            first_again = cached_strided_arrays(1, elements=8, sweeps=1)  # refresh
            cached_strided_arrays(3, elements=8, sweeps=1)  # evicts stride 2
            assert trace_cache_info()["entries"] == 2
            assert cached_strided_arrays(1, elements=8, sweeps=1)[0] is first_again[0]
            before = trace_cache_info()["misses"]
            cached_strided_arrays(2, elements=8, sweeps=1)  # rebuilt
            assert trace_cache_info()["misses"] == before + 1
        finally:
            set_trace_cache_limit(old)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            set_trace_cache_limit(0)

    def test_batch_wraps_cached_arrays_without_copy(self):
        addresses, writes = cached_workload_arrays("gcc", length=1200)
        batch = AddressBatch.from_arrays(addresses, writes)
        assert batch.addresses is addresses  # uint64 in, no copy


class TestDerivedArrayMemos:
    def test_block_numbers_identity_and_value(self):
        addresses, writes = cached_strided_arrays(5, elements=64, sweeps=2)
        batch = AddressBatch.from_arrays(addresses, writes)
        blocks = cached_block_numbers(batch, 32)
        assert blocks.tolist() == batch.block_numbers(32).tolist()
        assert cached_block_numbers(batch, 32) is blocks
        assert cached_block_numbers(batch, 64) is not blocks

    def test_set_indices_shared_across_equal_functions(self):
        """Two semantically identical index-function instances (what sweep
        tasks build independently) are served one shared array."""
        addresses, _ = cached_strided_arrays(7, elements=64, sweeps=2)
        batch = AddressBatch.from_arrays(addresses)
        blocks = cached_block_numbers(batch, 32)
        fn_a = make_index_function("a2-Hp", 128, ways=2, address_bits=19)
        fn_b = make_index_function("a2-Hp", 128, ways=2, address_bits=19)
        assert fn_a is not fn_b and fn_a.cache_key == fn_b.cache_key
        sets_a = cached_set_indices(vectorize_index(fn_a), blocks, 0)
        sets_b = cached_set_indices(vectorize_index(fn_b), blocks, 0)
        assert sets_a is sets_b
        assert sets_a.dtype == np.int64
        assert sets_a.tolist() == [fn_a.index(b) for b in blocks.tolist()]

    def test_set_indices_distinguish_functions_and_ways(self):
        addresses, _ = cached_strided_arrays(11, elements=64, sweeps=2)
        batch = AddressBatch.from_arrays(addresses)
        blocks = cached_block_numbers(batch, 32)
        skewed = vectorize_index(
            make_index_function("a2-Hp-Sk", 128, ways=2, address_bits=19))
        plain = vectorize_index(
            make_index_function("a2", 128, ways=2, address_bits=19))
        assert cached_set_indices(skewed, blocks, 0) is not \
            cached_set_indices(skewed, blocks, 1)
        assert cached_set_indices(skewed, blocks, 0) is not \
            cached_set_indices(plain, blocks, 0)

    def test_unkeyed_functions_bypass_the_memo(self):
        class Custom(IndexFunction):
            name = "custom"

            def index(self, block_number, way=0):
                return block_number & (self._num_sets - 1)

        fn = Custom(64)
        assert fn.cache_key is None

        class VecCustom:
            def __init__(self, scalar):
                self.scalar = scalar

            def way_indices(self, blocks, way):
                return blocks & 63

        addresses, _ = cached_strided_arrays(13, elements=32, sweeps=1)
        batch = AddressBatch.from_arrays(addresses)
        blocks = cached_block_numbers(batch, 32)
        vec = VecCustom(fn)
        first = cached_set_indices(vec, blocks, 0)
        second = cached_set_indices(vec, blocks, 0)
        assert first is not second  # computed fresh, never aliased
        assert first.tolist() == second.tolist()

    @staticmethod
    def _frozen_batch(values):
        array = np.asarray(values, dtype=np.uint64)
        array.flags.writeable = False
        return AddressBatch.from_arrays(array)

    def test_identity_anchor_rejects_recycled_keys(self):
        """An entry is only served while its input array is the *same
        object*; equal content in a different array misses."""
        batch_a = self._frozen_batch(np.arange(64))
        batch_b = self._frozen_batch(np.arange(64))
        blocks_a = cached_block_numbers(batch_a, 32)
        blocks_b = cached_block_numbers(batch_b, 32)
        assert blocks_a.tolist() == blocks_b.tolist()
        info = memo_info()["blocks"]
        assert info["misses"] >= 2

    def test_writable_addresses_bypass_the_memo(self):
        """Regression: a writable address array can be mutated in place,
        which the identity anchor cannot detect — so it must never be
        memoised.  Mutating the trace between runs yields fresh results."""
        addresses = np.arange(0, 64 * 32, 32, dtype=np.uint64)
        cache_args = (2048, 32, 2)
        from repro.engine import BatchSetAssociativeCache

        first = BatchSetAssociativeCache(*cache_args)
        first.run(AddressBatch.from_arrays(addresses))
        assert first.stats.load_misses == 64  # 64 distinct blocks, cold
        addresses[:] = 0  # in-place mutation of the "same" array object
        second = BatchSetAssociativeCache(*cache_args)
        second.run(AddressBatch.from_arrays(addresses))
        assert second.stats.load_misses == 1  # one block now — not stale
        assert memo_info()["blocks"]["entries"] == 0

    def test_memoised_arrays_are_read_only(self):
        batch = self._frozen_batch(np.arange(32))
        blocks = cached_block_numbers(batch, 32)
        with pytest.raises(ValueError):
            blocks[0] = 5

    def test_byte_bound_keeps_footprint_small(self):
        from repro.engine.memo import _BLOCKS

        big = self._frozen_batch(np.arange(200_000))
        cached_block_numbers(big, 32)
        assert memo_info()["blocks"]["nbytes"] <= _BLOCKS.byte_limit

    def test_every_builtin_index_function_declares_a_key(self):
        fns = [BitSelectIndexing(64), SingleSetIndexing(),
               PrimeModuloIndexing(64), XorFoldIndexing(64, skewed=True),
               XorFoldIndexing(64, skewed=False),
               IPolyIndexing(64, ways=2, skewed=True, address_bits=19)]
        keys = [fn.cache_key for fn in fns]
        assert all(key is not None for key in keys)
        assert len(set(keys)) == len(keys)

    def test_subclasses_do_not_inherit_concrete_keys(self):
        """A subclass that overrides index() must not be served the parent
        mapping's memoised arrays: inherited cache_key is None."""
        class Shifted(BitSelectIndexing):
            def index(self, block_number, way=0):
                return (block_number >> 1) & (self._num_sets - 1)

        assert Shifted(64).cache_key is None
        assert BitSelectIndexing(64).cache_key is not None

    def test_tabulated_ipoly_shares_the_parent_key(self):
        """TabulatedIPolyIndexing is a bit-exact drop-in, so it opts into
        the same keyspace as plain IPolyIndexing — deliberately."""
        from repro.engine import TabulatedIPolyIndexing

        plain = IPolyIndexing(64, ways=2, skewed=True, address_bits=19)
        fast = TabulatedIPolyIndexing(64, ways=2, skewed=True,
                                      address_bits=19)
        assert fast.cache_key == plain.cache_key is not None

        class SubTabulated(TabulatedIPolyIndexing):
            pass

        assert SubTabulated(64, ways=2, skewed=True,
                            address_bits=19).cache_key is None

    def test_trace_cache_byte_bound_and_oversize_bypass(self):
        """Entries stay under the byte budget, and a trace bigger than half
        of it is returned uncached instead of monopolising the cache."""
        import repro.trace.batching as batching

        old = batching._TRACE_CACHE.byte_limit
        batching._TRACE_CACHE.byte_limit = 64 * 1024
        try:
            # ~9 KB per strided entry: cached, and eviction keeps the sum
            # under the bound.
            for stride in range(1, 12):
                cached_strided_arrays(stride, elements=1024, sweeps=1)
            info = trace_cache_info()
            assert info["nbytes"] <= 64 * 1024
            assert info["entries"] < 11
            # An oversize trace bypasses the cache entirely.
            before = trace_cache_info()["entries"]
            a1 = cached_strided_arrays(99, elements=8192, sweeps=1)
            a2 = cached_strided_arrays(99, elements=8192, sweeps=1)
            assert a1[0] is not a2[0]
            assert trace_cache_info()["entries"] == before
        finally:
            batching._TRACE_CACHE.byte_limit = old

    def test_set_index_lists_identity_and_value(self):
        """The list memo serves one shared list per (function, way, trace),
        bit-equal to the array form."""
        addresses, _ = cached_strided_arrays(19, elements=64, sweeps=2)
        batch = AddressBatch.from_arrays(addresses)
        blocks = cached_block_numbers(batch, 32)
        vec = vectorize_index(
            make_index_function("a2-Hp-Sk", 128, ways=2, address_bits=19))
        first = cached_set_index_lists(vec, blocks, 0)
        assert first == cached_set_indices(vec, blocks, 0).tolist()
        assert cached_set_index_lists(vec, blocks, 0) is first
        assert cached_set_index_lists(vec, blocks, 1) is not first
        assert memo_info()["set_lists"]["hits"] == 1

    def test_large_geometries_bypass_the_list_memo(self):
        """Indices above CPython's interned small-int range are ~28-byte
        boxed objects the pointer-size byte estimate cannot see, so the
        list memo refuses geometries with num_sets > 257 rather than
        silently retaining several times its budget."""
        addresses, _ = cached_strided_arrays(31, elements=64, sweeps=2)
        batch = AddressBatch.from_arrays(addresses)
        blocks = cached_block_numbers(batch, 32)
        vec = vectorize_index(make_index_function("a2", 512, ways=1))
        first = cached_set_index_lists(vec, blocks, 0)
        second = cached_set_index_lists(vec, blocks, 0)
        assert first is not second and first == second
        assert memo_info()["set_lists"]["entries"] == 0

    def test_writable_blocks_bypass_the_list_memo(self):
        """Writable block arrays are never served a stale list."""
        blocks = np.arange(64, dtype=np.int64)
        vec = vectorize_index(make_index_function("a2", 16, ways=1))
        first = cached_set_index_lists(vec, blocks, 0)
        second = cached_set_index_lists(vec, blocks, 0)
        assert first is not second and first == second
        assert memo_info()["set_lists"]["entries"] == 0

    def test_skewed_kernel_hits_the_list_memo(self):
        """Regression for the kernels re-deriving per-way index lists per
        batch: the skewed batch kernels fetch their per-way streams through
        the list memo, so a second cache over the same trace hits it."""
        from repro.engine import BatchSetAssociativeCache

        addresses, writes = cached_strided_arrays(23, elements=128, sweeps=3)
        batch = AddressBatch.from_arrays(addresses, writes)

        def build():
            return BatchSetAssociativeCache(
                8192, 32, 2,
                index_function=make_index_function("a2-Hp-Sk", 128, ways=2,
                                                   address_bits=19),
                replacement="fifo")

        build().run(batch)
        info = memo_info()["set_lists"]
        assert info["misses"] == 2 and info["hits"] == 0  # one per way
        build().run(batch)
        info = memo_info()["set_lists"]
        assert info["misses"] == 2 and info["hits"] == 2  # served, not rebuilt

    def test_victim_kernel_hits_the_list_memo(self):
        """The decomposed victim kernel routes its index stream through the
        list memo too."""
        from repro.engine import BatchVictimCache

        addresses, writes = cached_strided_arrays(29, elements=128, sweeps=3)
        batch = AddressBatch.from_arrays(addresses, writes)

        def build():
            return BatchVictimCache(4096, 32, ways=1, victim_entries=8)

        build().run(batch)
        assert memo_info()["set_lists"]["misses"] == 1
        build().run(batch)
        assert memo_info()["set_lists"]["hits"] == 1

    def test_caches_survive_concurrent_thread_sweeps(self):
        """Thread-mode workers share the process-global caches; hammering
        them concurrently must neither raise nor corrupt the accounting."""
        from repro.engine import run_sweep
        from repro.engine.memo import _BLOCKS

        fn = make_index_function("a2-Hp", 64, ways=2, address_bits=19)

        def worker(stride):
            addresses, writes = cached_strided_arrays(
                stride % 5 + 1, elements=256, sweeps=2)
            batch = AddressBatch.from_arrays(addresses, writes)
            blocks = cached_block_numbers(batch, 32)
            sets = cached_set_indices(vectorize_index(fn), blocks, 0)
            return int(sets.sum())

        tasks = list(range(60))
        results = run_sweep(worker, tasks, workers=8, mode="thread",
                            chunksize=2)
        assert results == [worker(task) for task in tasks]
        assert _BLOCKS.nbytes >= 0
        assert memo_info()["blocks"]["nbytes"] <= _BLOCKS.byte_limit


class TestBoundedMemoStats:
    def test_stats_reports_every_counter(self):
        from repro.core.memo_util import BoundedMemo

        memo = BoundedMemo(limit=2, byte_limit=64, nbytes_of=len)
        memo.get(("a",), lambda: b"x" * 8)           # miss
        memo.get(("a",), lambda: b"x" * 8)           # hit
        memo.get(("big",), lambda: b"x" * 40)        # oversize bypass
        memo.get(("b",), lambda: b"y" * 8)           # miss
        memo.get(("c",), lambda: b"z" * 8)           # miss -> evicts ("a",)
        stats = memo.stats()
        assert stats == {"entries": 2, "hits": 1, "misses": 4,
                         "evictions": 1, "bypasses": 1,
                         "limit": 2, "byte_limit": 64, "nbytes": 16}
        assert memo.info() == stats  # the historical name stays an alias
        memo.clear()
        cleared = memo.stats()
        assert cleared["entries"] == cleared["nbytes"] == 0
        assert cleared["hits"] == cleared["misses"] == 0
        assert cleared["evictions"] == cleared["bypasses"] == 0

    def test_stats_consistent_under_thread_hammering(self):
        """Many threads hammering a tiny memo: the counters must add up and
        the bounds must hold at every snapshot."""
        import threading

        from repro.core.memo_util import BoundedMemo

        memo = BoundedMemo(limit=4, byte_limit=256, nbytes_of=len)
        gets_per_thread = 400
        num_threads = 8
        start = threading.Barrier(num_threads)
        errors = []

        def hammer(thread_index):
            try:
                start.wait()
                for step in range(gets_per_thread):
                    key = ((thread_index + step) % 10,)
                    oversized = key[0] == 9
                    payload = b"v" * (200 if oversized else 16)
                    value = memo.get(key, lambda p=payload: p)
                    assert value == payload
                    snapshot = memo.stats()
                    assert snapshot["entries"] <= snapshot["limit"]
                    assert snapshot["nbytes"] <= snapshot["byte_limit"]
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(index,))
                   for index in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = memo.stats()
        assert stats["hits"] + stats["misses"] == gets_per_thread * num_threads
        assert stats["bypasses"] >= 1
        assert stats["evictions"] >= 1
        assert stats["entries"] == len(memo)
        assert stats["nbytes"] == memo.nbytes <= memo.byte_limit


class TestEndToEndMemoisation:
    def test_repeated_vectorized_study_hits_the_caches(self):
        from repro.experiments.replacement_study import run_replacement_study

        first = run_replacement_study(programs=["gcc"], accesses=2000,
                                      engine="vectorized")
        hits_before = trace_cache_info()["hits"]
        list_hits_before = memo_info()["set_lists"]["hits"]
        second = run_replacement_study(programs=["gcc"], accesses=2000,
                                       engine="vectorized")
        assert second.miss_ratios == first.miss_ratios
        assert trace_cache_info()["hits"] > hits_before
        # The policy kernels iterate the memoised set-index lists.
        assert memo_info()["set_lists"]["hits"] > list_hits_before

    def test_cached_and_uncached_study_agree(self):
        """The memoised vectorized path matches the reference engine."""
        from repro.experiments.miss_ratio_study import run_miss_ratio_study

        ref = run_miss_ratio_study(programs=["li"], accesses=2000,
                                   engine="reference")
        vec = run_miss_ratio_study(programs=["li"], accesses=2000,
                                   engine="vectorized")
        assert ref.miss_ratios == vec.miss_ratios
