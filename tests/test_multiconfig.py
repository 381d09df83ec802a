"""Unit tests for the one-pass multi-configuration LRU profiler.

The differential suites (``test_engine_equivalence.py``,
``test_engine_properties.py``) pit the profiler against the batch kernels
and the scalar models over whole traces; this module covers the subsystem's
own semantics — reuse-distance arithmetic, the distance == ways boundary,
the capped priority-stack store handling, profile memoisation and the
plan's partitioning policy.
"""

import numpy as np
import pytest

from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.core.index import SingleSetIndexing, make_index_function
from repro.engine import (
    AddressBatch,
    BatchSetAssociativeCache,
    MultiConfigLRUProfile,
    MultiConfigPlan,
    MultiConfigProfileBuilder,
    ProfileCounts,
    StackDistanceProfile,
    check_profile_mode,
    profile_cache_clear,
    profile_cache_info,
    run_lru_grid,
)
from repro.engine.multiconfig import PROFILE_AUTO_CAP_LIMIT, PROFILE_MODES
from repro.trace.batching import cached_workload_arrays

BLOCK = 32


def batch_of_blocks(blocks, writes=None):
    """A batch whose block numbers (at 32-byte lines) are ``blocks``."""
    addresses = np.array([b * BLOCK for b in blocks], dtype=np.uint64)
    return AddressBatch.from_arrays(addresses, writes)


def kernel_counts(batch, num_sets, ways,
                  write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                  replacement="lru"):
    cache = BatchSetAssociativeCache(num_sets * ways * BLOCK, BLOCK, ways,
                                     write_policy=write_policy,
                                     replacement=replacement)
    cache.run(batch)
    return ProfileCounts.from_stats(cache.stats)


class TestProfileCounts:
    def test_ratio_formulas_mirror_cache_stats(self):
        counts = ProfileCounts(loads=8, stores=2, load_misses=3, store_misses=1)
        assert counts.accesses == 10
        assert counts.misses == 4
        assert counts.hits == 6
        assert counts.miss_ratio == 4 / 10
        assert counts.load_miss_ratio == 3 / 8

    def test_empty_counts_have_zero_ratios(self):
        counts = ProfileCounts(loads=0, stores=0, load_misses=0, store_misses=0)
        assert counts.miss_ratio == 0.0
        assert counts.load_miss_ratio == 0.0

    def test_from_stats_round_trips_through_a_kernel_run(self):
        batch = batch_of_blocks([0, 1, 2, 0, 1, 2])
        counts = kernel_counts(batch, num_sets=1, ways=2)
        assert counts.loads == 6
        assert counts.accesses == 6


class TestStackDistanceProfile:
    def test_known_distances(self):
        # 0 1 2 0: two distinct blocks (1, 2) between the accesses to 0.
        profile = StackDistanceProfile.from_blocks(
            np.array([0, 1, 2, 0], dtype=np.int64))
        assert profile.distances.tolist() == [-1, -1, -1, 2]
        assert profile.cold_accesses == 3

    def test_duplicate_blocks_count_once(self):
        # 0 1 1 1 0: block 1 is one distinct block, not three.
        profile = StackDistanceProfile.from_blocks(
            np.array([0, 1, 1, 1, 0], dtype=np.int64))
        assert profile.distances.tolist() == [-1, -1, 0, 0, 1]

    def test_miss_counts_price_every_capacity(self):
        blocks = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
        profile = StackDistanceProfile.from_blocks(blocks)
        # Cyclic over three blocks: distance 2 on every reuse.
        assert profile.miss_count(2) == 6   # thrashes below the footprint
        assert profile.miss_count(3) == 3   # compulsory only at capacity 3
        assert profile.miss_ratio(3) == 0.5

    def test_matches_fully_associative_kernel(self):
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 60, size=3000)
        batch = batch_of_blocks(blocks.tolist())
        profile = StackDistanceProfile.from_batch(batch, BLOCK)
        for capacity in (1, 2, 7, 16, 33, 64, 100):
            cache = BatchSetAssociativeCache(
                capacity * BLOCK, BLOCK, capacity,
                index_function=SingleSetIndexing())
            cache.run(batch)
            assert profile.miss_count(capacity) == cache.stats.load_misses

    def test_empty_profile(self):
        profile = StackDistanceProfile.from_blocks(np.empty(0, dtype=np.int64))
        assert profile.accesses == 0
        assert profile.miss_ratio(8) == 0.0

    def test_curve_is_monotone_nonincreasing(self):
        rng = np.random.default_rng(11)
        profile = StackDistanceProfile.from_blocks(
            rng.integers(0, 40, size=2000))
        curve = profile.miss_ratio_curve(range(1, 64))
        assert (np.diff(curve) <= 0).all()


class TestDistanceWaysBoundary:
    """The stack-distance boundary: distance == ways is exactly a miss."""

    def test_distance_equal_to_ways_misses(self):
        # Same set throughout (one set): the final access to 0 has stack
        # distance exactly 2.
        batch = batch_of_blocks([0, 1, 2, 0])
        profile = MultiConfigLRUProfile(batch, BLOCK, {1: 8})
        at_ways_2 = profile.miss_counts(1, 2)   # distance == ways -> miss
        at_ways_3 = profile.miss_counts(1, 3)   # distance < ways  -> hit
        assert at_ways_2.load_misses == 4
        assert at_ways_3.load_misses == 3
        # And the kernels agree on both sides of the boundary.
        assert at_ways_2 == kernel_counts(batch, 1, 2)
        assert at_ways_3 == kernel_counts(batch, 1, 3)

    def test_boundary_within_a_mapped_set(self):
        # Blocks 0, 4, 8, 12 all map to set 0 of a 4-set cache; the reuse
        # of 0 sits at distance 3: miss at 3 ways, hit at 4.
        batch = batch_of_blocks([0, 4, 8, 12, 0])
        profile = MultiConfigLRUProfile(batch, BLOCK, {4: 8})
        assert profile.miss_counts(4, 3).load_misses == 5
        assert profile.miss_counts(4, 4).load_misses == 4


class TestStoreHandling:
    """WTNA stores touch without allocating; WBA stores allocate."""

    def test_wtna_store_hit_refreshes_recency(self):
        # loads 0,1 fill a 2-way set LRU-ordered [0, 1]; a store *hit* on 0
        # must make 1 the LRU victim of the next fill.
        blocks = [0, 1, 0, 2, 0]
        writes = [False, False, True, False, False]
        batch = batch_of_blocks(blocks, writes)
        profile = MultiConfigLRUProfile(batch, BLOCK, {1: 4})
        counts = profile.miss_counts(1, 2)
        assert counts == kernel_counts(batch, 1, 2)
        # The final load of 0 hits only because the store refreshed it.
        assert counts.load_misses == 3

    def test_wtna_store_miss_does_not_allocate(self):
        blocks = [0, 1, 2, 1]
        writes = [True, False, False, False]
        batch = batch_of_blocks(blocks, writes)
        profile = MultiConfigLRUProfile(batch, BLOCK, {1: 4})
        counts = profile.miss_counts(1, 1)
        assert counts == kernel_counts(batch, 1, 1)
        assert counts.store_misses == 1

    def test_wba_store_allocates(self):
        blocks = [0, 1, 0]
        writes = [True, False, False]
        batch = batch_of_blocks(blocks, writes)
        profile = MultiConfigLRUProfile(
            batch, BLOCK, {1: 4},
            write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert profile.store_mode == "uniform"
        counts = profile.miss_counts(1, 2)
        assert counts == kernel_counts(
            batch, 1, 2, write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert counts.load_misses == 1  # the store installed block 0

    def test_store_mode_selection(self):
        loads_only = batch_of_blocks([0, 1, 2])
        with_stores = batch_of_blocks([0, 1, 2], [True, False, False])
        assert MultiConfigLRUProfile(loads_only, BLOCK, {1: 2}).store_mode == "loads"
        assert MultiConfigLRUProfile(with_stores, BLOCK, {1: 2}).store_mode == "wtna"


class TestMultiConfigLRUProfile:
    def test_validates_geometry(self):
        batch = batch_of_blocks([0, 1])
        with pytest.raises(ValueError):
            MultiConfigLRUProfile(batch, BLOCK, {3: 2})   # not a power of two
        with pytest.raises(ValueError):
            MultiConfigLRUProfile(batch, BLOCK, {4: 0})   # no ways
        with pytest.raises(ValueError):
            MultiConfigLRUProfile(batch, BLOCK, {})       # no levels
        with pytest.raises(ValueError):
            MultiConfigLRUProfile(batch, BLOCK, {4: 2}, write_policy="bogus")

    def test_readout_guards(self):
        batch = batch_of_blocks([0, 1, 2])
        profile = MultiConfigLRUProfile(batch, BLOCK, {4: 2})
        with pytest.raises(KeyError):
            profile.miss_counts(8, 2)       # level never profiled
        with pytest.raises(ValueError):
            profile.miss_counts(4, 1000)    # beyond the depth cap

    def test_one_profile_serves_every_associativity(self):
        addresses, writes = cached_workload_arrays("swim", length=6000)
        batch = AddressBatch.from_arrays(addresses, writes)
        profile = MultiConfigLRUProfile(batch, BLOCK, {64: 8})
        for ways in range(1, 9):
            assert profile.miss_counts(64, ways) == kernel_counts(batch, 64, ways)

    def test_levels_are_memoised_per_trace(self):
        profile_cache_clear()
        addresses, writes = cached_workload_arrays("gcc", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        MultiConfigLRUProfile(batch, BLOCK, {64: 4})
        misses_after_first = profile_cache_info()["misses"]
        MultiConfigLRUProfile(batch, BLOCK, {64: 4})
        info = profile_cache_info()
        assert info["misses"] == misses_after_first
        assert info["hits"] >= 1

    def test_writable_inputs_are_not_memoised(self):
        profile_cache_clear()
        batch = batch_of_blocks(list(range(16)) * 4)
        assert batch.addresses.flags.writeable
        MultiConfigLRUProfile(batch, BLOCK, {4: 2})
        MultiConfigLRUProfile(batch, BLOCK, {4: 2})
        assert profile_cache_info()["entries"] == 0


class TestMultiConfigPlan:
    def test_mode_validation(self):
        assert PROFILE_MODES == ("auto", "sampled")
        assert check_profile_mode("Auto ") == "auto"
        assert check_profile_mode("SAMPLED") == "sampled"
        with pytest.raises(ValueError):
            check_profile_mode("sometimes")
        with pytest.raises(ValueError):
            MultiConfigPlan(profile="sometimes")

    @pytest.mark.parametrize("mode", ["always", "never"])
    def test_removed_modes_are_rejected(self, mode):
        """Only ``auto`` and ``sampled`` remain: forcing the exact profiler
        on or off is no longer a mode."""
        with pytest.raises(ValueError, match="unknown profile mode"):
            check_profile_mode(mode)
        with pytest.raises(ValueError):
            run_lru_grid(batch_of_blocks([0, 1]), BLOCK, [(1, 1), (1, 2)],
                         profile=mode)

    def test_profilable_predicate(self):
        batch = batch_of_blocks([0, 1, 2])
        conventional = BatchSetAssociativeCache(8192, BLOCK, 2)
        assert MultiConfigPlan.profilable(conventional, batch) == (128, 2)
        fully = BatchSetAssociativeCache(8192, BLOCK, 256,
                                         index_function=SingleSetIndexing())
        assert MultiConfigPlan.profilable(fully, batch) == (1, 256)
        skewed = BatchSetAssociativeCache(
            8192, BLOCK, 2, index_function=make_index_function(
                "a2-Hp-Sk", num_sets=128, ways=2, address_bits=19))
        assert MultiConfigPlan.profilable(skewed, batch) is None
        for policy in ("fifo", "random", "plru"):
            other = BatchSetAssociativeCache(8192, BLOCK, 2,
                                             replacement=policy)
            assert MultiConfigPlan.profilable(other, batch) is None, policy
        classified = BatchSetAssociativeCache(8192, BLOCK, 2,
                                              classify_misses=True)
        assert MultiConfigPlan.profilable(classified, batch) is None
        warmed = BatchSetAssociativeCache(8192, BLOCK, 2)
        warmed.run(batch)
        warmed.reset_stats()
        assert MultiConfigPlan.profilable(warmed, batch) is None

    def test_every_mode_is_bit_exact(self):
        """``auto`` and ``sampled`` at rate 1.0 both reproduce the
        per-config kernels on every cell."""
        addresses, writes = cached_workload_arrays("tomcatv", length=5000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(num_sets, ways) for num_sets in (32, 64, 128)
                for ways in (1, 2, 4)]
        auto = run_lru_grid(batch, BLOCK, grid, profile="auto")
        assert auto == run_lru_grid(batch, BLOCK, grid, profile="sampled",
                                    sample_rate=1.0)
        for (num_sets, ways), counts in auto.items():
            assert counts == kernel_counts(batch, num_sets, ways)

    def test_auto_profiles_every_cell_of_the_bench_sweep_grid(self):
        """The lru-grid bench row times ``run_lru_grid`` under its default
        ``auto`` against per-config kernels, so ``auto`` must price every
        cell of that 2 x 8 grid out of one profile pass per set count."""
        addresses, writes = cached_workload_arrays("gcc", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(num_sets, ways) for num_sets in (64, 128)
                for ways in range(1, 9)]
        plan = MultiConfigPlan()
        for num_sets, ways in grid:
            plan.add((num_sets, ways), batch,
                     lambda num_sets=num_sets, ways=ways:
                     BatchSetAssociativeCache(num_sets * ways * BLOCK,
                                              BLOCK, ways))
        profile_cache_clear()
        results = plan.run()
        assert profile_cache_info()["misses"] == 2  # one pass per set count
        # No kernel ran: every task's cache is still cold.
        assert all(task.cache.stats.accesses == 0 for task in plan._tasks)
        assert results == run_lru_grid(batch, BLOCK, grid)

    def test_auto_skips_singletons_and_deep_levels(self):
        batch = batch_of_blocks(list(range(64)) * 4)
        # A singleton group: auto must not profile it.
        profile_cache_clear()
        run_lru_grid(batch, BLOCK, [(64, 2)], profile="auto")
        assert profile_cache_info()["misses"] == 0
        # A too-deep configuration stays on its kernel under auto, and with
        # only a singleton left the group is not profiled at all.
        deep = [(1, PROFILE_AUTO_CAP_LIMIT * 2), (1, 2)]
        profile_cache_clear()
        run_lru_grid(batch, BLOCK, deep, profile="auto")
        assert profile_cache_info()["misses"] == 0
        for (num_sets, ways), counts in run_lru_grid(
                batch, BLOCK, deep, profile="auto").items():
            assert counts == kernel_counts(batch, num_sets, ways)

    def test_auto_excludes_deep_members_without_vetoing_the_group(self):
        """A deep organisation must not stop its shallow group members
        from profiling (regression: group-level veto)."""
        # A read-only cached trace, so profile passes land in the memo and
        # the pass count is observable.
        addresses, writes = cached_workload_arrays("li", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(1, PROFILE_AUTO_CAP_LIMIT * 2), (64, 2), (64, 4)]
        profile_cache_clear()
        auto = run_lru_grid(batch, BLOCK, grid, profile="auto")
        # The two shallow 64-set rows share one profiled level; the deep
        # fully-associative row ran its kernel.
        assert profile_cache_info()["misses"] == 1
        for (num_sets, ways), counts in auto.items():
            assert counts == kernel_counts(batch, num_sets, ways)

    def test_groups_share_one_pass_per_level(self):
        profile_cache_clear()
        addresses, writes = cached_workload_arrays("gcc", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(64, w) for w in (1, 2, 3, 4, 5, 6, 7, 8)]
        run_lru_grid(batch, BLOCK, grid)
        info = profile_cache_info()
        assert info["misses"] == 1  # eight configurations, one level pass

    def test_mixed_plan_keeps_kernel_tasks_on_their_kernels(self):
        addresses, writes = cached_workload_arrays("gcc", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        plan = MultiConfigPlan()
        plan.add("conv", batch, lambda: BatchSetAssociativeCache(8192, BLOCK, 2))
        plan.add("conv4", batch,
                 lambda: BatchSetAssociativeCache(16384, BLOCK, 4))
        plan.add("skew", batch, lambda: BatchSetAssociativeCache(
            8192, BLOCK, 2, index_function=make_index_function(
                "a2-Hp-Sk", num_sets=128, ways=2, address_bits=19)))
        profile_cache_clear()
        results = plan.run()
        assert profile_cache_info()["misses"] == 1  # the two conv rows
        assert results["conv"] == kernel_counts(batch, 128, 2)
        assert results["conv4"] == kernel_counts(batch, 128, 4)
        skewed = BatchSetAssociativeCache(
            8192, BLOCK, 2, index_function=make_index_function(
                "a2-Hp-Sk", num_sets=128, ways=2, address_bits=19))
        skewed.run(batch)
        assert results["skew"] == ProfileCounts.from_stats(skewed.stats)

    def test_custom_runner_drives_fallback_tasks(self):
        batch = batch_of_blocks([0, 1, 0, 1])
        seen = []

        def runner(cache, batch_):
            seen.append(cache)
            cache.run(batch_)

        plan = MultiConfigPlan()
        plan.add("row", batch, lambda: BatchSetAssociativeCache(1024, BLOCK, 2),
                 runner=runner)
        results = plan.run()
        assert len(seen) == 1
        assert results["row"].loads == 4

    def test_shared_addresses_with_different_store_masks_do_not_alias(self):
        """Two batches over one address array but different store masks
        must not share a profile group — their WTNA store-touch behaviour
        differs."""
        addresses = np.array([b * BLOCK for b in [0, 1, 0, 2, 0]],
                             dtype=np.uint64)
        hot_store = AddressBatch.from_arrays(
            addresses, [False, False, True, False, False])
        all_loads_mask = AddressBatch.from_arrays(
            addresses, [False] * 5)
        plan = MultiConfigPlan()
        for ways in (1, 2):  # two cells per group, so auto profiles both
            plan.add(("stores", ways), hot_store,
                     lambda ways=ways: BatchSetAssociativeCache(
                         ways * BLOCK, BLOCK, ways))
            plan.add(("loads", ways), all_loads_mask,
                     lambda ways=ways: BatchSetAssociativeCache(
                         ways * BLOCK, BLOCK, ways))
        results = plan.run()
        assert all(task.cache.stats.accesses == 0 for task in plan._tasks)
        for ways in (1, 2):
            assert results[("stores", ways)] == kernel_counts(
                hot_store, 1, ways)
            assert results[("loads", ways)] == kernel_counts(
                all_loads_mask, 1, ways)
        assert results[("stores", 2)] != results[("loads", 2)]

    @pytest.mark.parametrize("profile", ["auto", "sampled"])
    def test_non_lru_grid_runs_every_kernel(self, profile):
        """No profiler serves FIFO, random or PLRU: a conventional grid of
        those policies takes zero profile passes in every mode and each
        cell runs its own kernel."""
        addresses, writes = cached_workload_arrays("li", length=3000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(num_sets, ways, policy) for num_sets in (16, 64)
                for ways in (1, 2, 4) for policy in ("fifo", "random",
                                                     "plru")]
        plan = MultiConfigPlan(profile=profile, sample_rate=0.5)
        for num_sets, ways, policy in grid:
            plan.add((num_sets, ways, policy), batch,
                     lambda num_sets=num_sets, ways=ways, policy=policy:
                     BatchSetAssociativeCache(num_sets * ways * BLOCK,
                                              BLOCK, ways,
                                              replacement=policy))
        profile_cache_clear()
        results = plan.run()
        assert profile_cache_info()["misses"] == 0
        assert profile_cache_info()["hits"] == 0
        for (num_sets, ways, policy), counts in results.items():
            assert counts == kernel_counts(batch, num_sets, ways,
                                           replacement=policy)

    def test_empty_trace_grid(self):
        """A 0-access batch prices to all-zero counters in every mode."""
        batch = batch_of_blocks([])
        grid = [(16, 2), (64, 4)]
        zero = ProfileCounts(loads=0, stores=0, load_misses=0, store_misses=0)
        for mode in ("auto", "sampled"):
            results = run_lru_grid(batch, BLOCK, grid, profile=mode)
            assert results == {key: zero for key in grid}, mode

    def test_grid_against_scalar_models(self):
        addresses, writes = cached_workload_arrays("compress", length=4000)
        batch = AddressBatch.from_arrays(addresses, writes)
        grid = [(num_sets, ways) for num_sets in (16, 64) for ways in (1, 3, 8)]
        results = run_lru_grid(batch, BLOCK, grid)
        for (num_sets, ways), counts in results.items():
            scalar = SetAssociativeCache(num_sets * ways * BLOCK, BLOCK, ways)
            for address, is_write in zip(batch.addresses.tolist(),
                                         batch.is_write.tolist()):
                scalar.access(address, is_write=is_write)
            assert counts == ProfileCounts.from_stats(scalar.stats), (
                num_sets, ways)


class TestExactBuilderStoreModeGuard:
    """Regression: chunks disagreeing on has_stores must raise a clear
    error up front, not silently drift the profile's stats."""

    def test_exact_builder_rejects_mid_stream_store_mode_change(self):
        builder = MultiConfigProfileBuilder(BLOCK, {16: 2}, has_stores=False)
        builder.feed(batch_of_blocks([0, 1, 2]))
        with pytest.raises(ValueError) as err:
            builder.feed(batch_of_blocks([3, 4], [True, False]))
        message = str(err.value)
        assert "store mode changed mid-stream" in message
        assert "after 3 accesses" in message
        assert "has_stores=True" in message   # the message names the fix

    def test_declared_stores_accept_any_chunk_mix(self):
        builder = MultiConfigProfileBuilder(BLOCK, {16: 2}, has_stores=True)
        builder.feed(batch_of_blocks([0, 1, 2]))                # all loads
        builder.feed(batch_of_blocks([3, 4], [True, False]))    # mixed
        assert builder.finish().miss_counts(16, 2).accesses == 5
