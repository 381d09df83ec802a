"""Unit tests for SHARDS-style sampled reuse-distance profiling.

The sampled profiles of :mod:`repro.engine.shards` trade exactness for
speed, so the suite pins the three properties that make them usable:
**determinism** (a profile is a pure function of (trace, rate, seed) —
identical for any chunking), **degeneracy** (rate 1.0 must be bit-identical
to the exact twins, as must levels whose mini cache hits the set floor),
and a **bounded error envelope** at the production rate R = 0.01 across
several seeds on a spread-mass trace.  Hypothesis drives the degeneracy
claims over random geometries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_assoc import WritePolicy
from repro.engine import (
    AddressBatch,
    MultiConfigLRUProfile,
    MultiConfigProfileBuilder,
    SampledMultiConfigLRUProfile,
    SampledMultiConfigProfileBuilder,
    SampledStackDistanceBuilder,
    SampledStackDistanceProfile,
    StackDistanceProfile,
    run_lru_grid,
)
from repro.engine.shards import (
    MIN_MINI_SETS,
    AdaptiveSpatialSampler,
    SpatialSampler,
    check_sample_rate,
    hash_blocks,
    level_rate_exponent,
    sample_threshold,
)

BLOCK = 32


def spread_trace(n, seed, store_fraction=0.3):
    """A mixed-working-set trace whose access mass is *spread*: a small hot
    region, two mid-size regions and a streaming component.  Spatial
    sampling is a per-block coin flip, so bounded-error claims need traces
    where no single block carries a macroscopic mass fraction."""
    rng = np.random.default_rng(seed)
    comp = rng.choice(4, size=n, p=[0.35, 0.30, 0.20, 0.15])
    blocks = np.empty(n, dtype=np.int64)
    blocks[comp == 0] = rng.integers(0, 4096, size=(comp == 0).sum())
    blocks[comp == 1] = 4096 + rng.integers(0, 32768, size=(comp == 1).sum())
    blocks[comp == 2] = 40000 + rng.integers(0, 1 << 18,
                                             size=(comp == 2).sum())
    stream = comp == 3
    blocks[stream] = (1 << 19) + np.arange(stream.sum())
    addresses = blocks.astype(np.uint64) << np.uint64(5)
    writes = rng.random(n) < store_fraction
    return AddressBatch.from_arrays(addresses, writes)


class TestHashAndSamplers:
    def test_hash_is_deterministic_and_seed_sensitive(self):
        blocks = np.arange(1000, dtype=np.int64)
        assert (hash_blocks(blocks, 7) == hash_blocks(blocks, 7)).all()
        assert (hash_blocks(blocks, 7) != hash_blocks(blocks, 8)).any()
        with pytest.raises(ValueError):
            hash_blocks(blocks, -1)

    def test_rate_validation(self):
        assert check_sample_rate(1) == 1.0
        for bad in (0.0, -0.5, 1.5, 2):
            with pytest.raises(ValueError):
                check_sample_rate(bad)
        assert sample_threshold(1.0) == 1 << 64
        assert sample_threshold(0.5) == 1 << 63

    def test_sampler_keeps_roughly_rate_of_blocks(self):
        blocks = np.arange(100_000, dtype=np.int64)
        kept = SpatialSampler(0.01, seed=0).mask(blocks).sum()
        assert 500 < kept < 1500   # ~1000 expected, hash-uniformity slack
        assert SpatialSampler(1.0).mask(blocks).all()

    def test_sampler_selection_is_spatial(self):
        """Whole blocks are kept or dropped — the mask of a shuffled
        stream is the shuffle of the mask."""
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 500, size=2000)
        sampler = SpatialSampler(0.2, seed=5)
        mask = sampler.mask(blocks)
        perm = rng.permutation(2000)
        assert (sampler.mask(blocks[perm]) == mask[perm]).all()

    def test_adaptive_sampler_enforces_smax(self):
        sampler = AdaptiveSpatialSampler(max_blocks=8, seed=0)
        blocks = np.arange(200, dtype=np.int64)
        hashes = hash_blocks(blocks, 0)
        for b, h in zip(blocks.tolist(), hashes.tolist()):
            sampler.admit(b, h)
            sampler.shrink()
        assert sampler.active_blocks <= 8
        assert sampler.threshold < 1 << 64   # it had to drop
        with pytest.raises(ValueError):
            AdaptiveSpatialSampler(max_blocks=0)

    def test_level_rate_exponent_floors_small_levels(self):
        # Plenty of headroom: 2^-6 is the largest power of two >= 0.01.
        assert level_rate_exponent(1 << 12, 0.01) == 6
        # The floor: a 64-set level may only shrink to MIN_MINI_SETS sets.
        assert level_rate_exponent(64, 0.01) == 2
        assert 64 >> 2 == MIN_MINI_SETS
        # At or below the floor the level is exact.
        assert level_rate_exponent(MIN_MINI_SETS, 0.01) == 0
        assert level_rate_exponent(1, 0.01) == 0
        # Rate 1.0 is always exact.
        assert level_rate_exponent(1 << 12, 1.0) == 0


class TestSampledStackDistance:
    def test_rate_one_matches_exact_profile(self):
        rng = np.random.default_rng(11)
        blocks = rng.integers(0, 300, size=5000)
        exact = StackDistanceProfile.from_blocks(blocks)
        sampled = SampledStackDistanceProfile.from_blocks(blocks, rate=1.0)
        for capacity in (1, 2, 7, 16, 33, 64, 128, 300):
            assert sampled.miss_count(capacity) == exact.miss_count(capacity)
        assert sampled.accesses == exact.accesses
        assert sampled.sampled_accesses == exact.accesses

    def test_deterministic_per_seed_and_chunking_invariant(self):
        rng = np.random.default_rng(12)
        blocks = rng.integers(0, 2000, size=20_000)
        one_shot = SampledStackDistanceProfile.from_blocks(
            blocks, rate=0.1, seed=4)
        builder = SampledStackDistanceBuilder(rate=0.1, seed=4)
        for start in range(0, 20_000, 777):
            builder.feed(blocks[start:start + 777])
        chunked = builder.finish()
        assert chunked.distances.tolist() == one_shot.distances.tolist()
        assert chunked.weights.tolist() == one_shot.weights.tolist()
        assert chunked.accesses == one_shot.accesses
        again = SampledStackDistanceProfile.from_blocks(
            blocks, rate=0.1, seed=4)
        assert again.distances.tolist() == one_shot.distances.tolist()
        other_seed = SampledStackDistanceProfile.from_blocks(
            blocks, rate=0.1, seed=5)
        assert (other_seed.sampled_accesses != one_shot.sampled_accesses
                or other_seed.distances.tolist()
                != one_shot.distances.tolist())

    def test_fixed_size_mode_bounds_the_sample(self):
        rng = np.random.default_rng(13)
        blocks = rng.integers(0, 5000, size=30_000)
        builder = SampledStackDistanceBuilder(seed=1, max_blocks=64)
        builder.feed(blocks)
        assert builder._sampler.active_blocks <= 64
        assert builder.rate < 1.0
        profile = builder.finish()
        curve = profile.miss_ratio_curve([1, 8, 64, 512, 4096])
        assert ((0.0 <= curve) & (curve <= 1.0)).all()
        assert (np.diff(curve) <= 1e-12).all()

    def test_builder_requires_rate_or_bound(self):
        with pytest.raises(ValueError):
            SampledStackDistanceBuilder()
        with pytest.raises(ValueError):
            SampledStackDistanceBuilder(rate=0.5, seed=-1)

    def test_curve_error_bounded_on_spread_trace(self):
        batch = spread_trace(100_000, seed=21, store_fraction=0.0)
        from repro.engine.memo import cached_block_numbers
        blocks = cached_block_numbers(batch, BLOCK)
        exact = StackDistanceProfile.from_blocks(blocks)
        capacities = [256, 1024, 4096, 16384, 65536]
        exact_curve = exact.miss_ratio_curve(capacities)
        for seed in range(3):
            sampled = SampledStackDistanceProfile.from_blocks(
                blocks, rate=0.01, seed=seed)
            curve = sampled.miss_ratio_curve(capacities)
            assert np.abs(curve - exact_curve).max() <= 0.05, seed

    def test_empty_profile(self):
        profile = SampledStackDistanceProfile.from_blocks(
            np.empty(0, dtype=np.int64), rate=0.5)
        assert profile.accesses == 0
        assert profile.miss_ratio(4) == 0.0


class TestSampledMultiConfig:
    GRID = {64: 8, 1024: 8}

    def test_rate_one_is_bit_exact(self):
        batch = spread_trace(5000, seed=31)
        for policy in (WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
                       WritePolicy.WRITE_BACK_ALLOCATE):
            exact = MultiConfigLRUProfile(batch, BLOCK, self.GRID,
                                          write_policy=policy)
            sampled = SampledMultiConfigLRUProfile(
                batch, BLOCK, self.GRID, write_policy=policy, rate=1.0)
            for num_sets in self.GRID:
                for ways in (1, 2, 4, 8):
                    assert (sampled.miss_counts(num_sets, ways)
                            == exact.miss_counts(num_sets, ways)), (
                        policy, num_sets, ways)

    def test_floored_levels_are_bit_exact_at_any_rate(self):
        """A level at or below MIN_MINI_SETS sets never samples (k == 0),
        so its counters are exact even at R = 0.01."""
        batch = spread_trace(4000, seed=32)
        grid = {1: 8, MIN_MINI_SETS: 4}
        exact = MultiConfigLRUProfile(batch, BLOCK, grid)
        sampled = SampledMultiConfigLRUProfile(batch, BLOCK, grid, rate=0.01)
        assert sampled.level_rate(1) == 1.0
        assert sampled.level_rate(MIN_MINI_SETS) == 1.0
        for num_sets, cap in grid.items():
            for ways in range(1, cap + 1):
                assert (sampled.miss_counts(num_sets, ways)
                        == exact.miss_counts(num_sets, ways))

    def test_deterministic_per_seed_and_chunking_invariant(self):
        batch = spread_trace(20_000, seed=33)
        one_shot = SampledMultiConfigLRUProfile(batch, BLOCK, self.GRID,
                                                rate=0.05, seed=9)
        builder = SampledMultiConfigProfileBuilder(
            BLOCK, self.GRID, has_stores=True, rate=0.05, seed=9)
        addresses, writes = batch.addresses, batch.is_write
        for start in range(0, 20_000, 3001):
            builder.feed(AddressBatch.from_arrays(
                addresses[start:start + 3001], writes[start:start + 3001]))
        chunked = builder.finish()
        again = SampledMultiConfigLRUProfile(batch, BLOCK, self.GRID,
                                             rate=0.05, seed=9)
        for num_sets in self.GRID:
            assert chunked.level_rate(num_sets) == one_shot.level_rate(num_sets)
            for ways in (1, 3, 8):
                counts = one_shot.miss_counts(num_sets, ways)
                assert chunked.miss_counts(num_sets, ways) == counts
                assert again.miss_counts(num_sets, ways) == counts

    def test_grid_error_bounded_at_production_rate(self):
        """The tentpole's accuracy claim at suite scale: R = 0.01, three
        seeds, dense (sets x ways) grid on a spread-mass trace — max
        miss-ratio error within the SHARDS envelope."""
        batch = spread_trace(200_000, seed=99)
        grid = {1024: 8, 2048: 8}
        exact = MultiConfigLRUProfile(batch, BLOCK, grid)
        for seed in range(3):
            sampled = SampledMultiConfigLRUProfile(batch, BLOCK, grid,
                                                   rate=0.01, seed=seed)
            for num_sets in grid:
                assert sampled.level_rate(num_sets) < 1.0
                for ways in (1, 2, 4, 8):
                    delta = abs(sampled.miss_counts(num_sets, ways).miss_ratio
                                - exact.miss_counts(num_sets, ways).miss_ratio)
                    assert delta <= 0.05, (seed, num_sets, ways, delta)

    def test_sample_size_caps_the_rate(self):
        batch = spread_trace(50_000, seed=34)
        capped = SampledMultiConfigLRUProfile(batch, BLOCK, {1024: 4},
                                              rate=1.0, sample_size=500)
        assert capped.rate == pytest.approx(500 / 50_000)
        with pytest.raises(ValueError):
            SampledMultiConfigLRUProfile(batch, BLOCK, {1024: 4},
                                         sample_size=0)

    def test_readout_guards_match_exact_twin(self):
        batch = spread_trace(2000, seed=35)
        sampled = SampledMultiConfigLRUProfile(batch, BLOCK, {64: 4})
        with pytest.raises(KeyError):
            sampled.miss_counts(128, 2)
        with pytest.raises(KeyError):
            sampled.level_rate(128)
        with pytest.raises(ValueError):
            sampled.miss_counts(64, 1000)
        with pytest.raises(ValueError):
            SampledMultiConfigLRUProfile(batch, BLOCK, {64: 4}, rate=0.0)
        with pytest.raises(ValueError):
            SampledMultiConfigLRUProfile(batch, BLOCK, {64: 4}, seed=-1)

    def test_builder_rejects_mid_stream_store_mode_change(self):
        loads = AddressBatch.from_arrays(
            np.arange(8, dtype=np.uint64) * BLOCK)
        stores = AddressBatch.from_arrays(
            np.arange(8, dtype=np.uint64) * BLOCK, [True] * 8)
        builder = SampledMultiConfigProfileBuilder(BLOCK, {64: 2},
                                                   has_stores=False)
        builder.feed(loads)
        with pytest.raises(ValueError, match="store mode changed mid-stream"):
            builder.feed(stores)

    def test_plan_sampled_mode_routes_lru_grids(self):
        """run_lru_grid(profile="sampled") at rate 1.0 degenerates to the
        exact plan result; at a real rate it still prices every cell."""
        batch = spread_trace(10_000, seed=36)
        grid = [(num_sets, ways) for num_sets in (64, 256)
                for ways in (1, 2, 4)]
        exact = run_lru_grid(batch, BLOCK, grid)
        degenerate = run_lru_grid(batch, BLOCK, grid, profile="sampled",
                                  sample_rate=1.0)
        assert degenerate == exact
        sampled = run_lru_grid(batch, BLOCK, grid, profile="sampled",
                               sample_rate=0.05, profile_seed=2)
        assert set(sampled) == set(exact)
        for key in grid:
            assert sampled[key].accesses == exact[key].accesses
            assert abs(sampled[key].miss_ratio - exact[key].miss_ratio) < 0.5


@settings(max_examples=30, deadline=None)
@given(
    addresses=st.lists(st.integers(0, 4095), min_size=1, max_size=200),
    writes=st.data(),
    set_bits=st.integers(0, 5),
    ways=st.integers(1, 4),
    seed=st.integers(0, 3),
)
def test_sampled_profile_rate_one_matches_exact_on_random_geometries(
        addresses, writes, set_bits, ways, seed):
    """Degeneracy property: at rate 1.0 the sampled profile is the exact
    profile, over random traces, geometries and hash seeds."""
    is_write = writes.draw(st.lists(st.booleans(), min_size=len(addresses),
                                    max_size=len(addresses)))
    num_sets = 1 << set_bits
    batch = AddressBatch.from_arrays(np.array(addresses, dtype=np.uint64),
                                     np.array(is_write, dtype=bool))
    exact = MultiConfigLRUProfile(batch, 16, {num_sets: ways})
    sampled = SampledMultiConfigLRUProfile(batch, 16, {num_sets: ways},
                                           rate=1.0, seed=seed)
    assert (sampled.miss_counts(num_sets, ways)
            == exact.miss_counts(num_sets, ways))


@settings(max_examples=30, deadline=None)
@given(
    addresses=st.lists(st.integers(0, (1 << 20) - 1), min_size=1,
                       max_size=300),
    set_bits=st.integers(4, 10),
    ways=st.integers(1, 4),
    rate_percent=st.integers(1, 100),
    seed=st.integers(0, 5),
)
def test_sampled_profile_is_sane_on_random_geometries(
        addresses, set_bits, ways, rate_percent, seed):
    """Structural property at *any* rate: counts stay within the exact
    totals, ratios stay in [0, 1], and rebuilding is bit-identical."""
    num_sets = 1 << set_bits
    rate = rate_percent / 100.0
    batch = AddressBatch.from_arrays(np.array(addresses, dtype=np.uint64))
    sampled = SampledMultiConfigLRUProfile(batch, 16, {num_sets: ways},
                                           rate=rate, seed=seed)
    counts = sampled.miss_counts(num_sets, ways)
    assert counts.accesses == len(addresses)
    assert 0 <= counts.load_misses <= counts.loads
    assert 0.0 <= counts.miss_ratio <= 1.0
    rebuilt = SampledMultiConfigLRUProfile(batch, 16, {num_sets: ways},
                                           rate=rate, seed=seed)
    assert rebuilt.miss_counts(num_sets, ways) == counts
