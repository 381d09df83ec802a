"""Tests for the synthetic Spec95-like trace workload models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import FullyAssociativeCache, SetAssociativeCache
from repro.core import make_index_function
from repro.trace import workloads
from repro.trace.batching import to_arrays
from repro.trace.workloads import (
    FP_PROGRAMS,
    HIGH_CONFLICT_PROGRAMS,
    INTEGER_PROGRAMS,
    LOW_CONFLICT_PROGRAMS,
    WORKLOADS,
    WorkloadSpec,
    build_trace,
    build_trace_arrays,
    workload_names,
)


def miss_ratio(name, size_bytes, scheme, accesses=25_000):
    sets = size_bytes // (32 * 2)
    fn = make_index_function(scheme, num_sets=sets, ways=2, address_bits=19)
    cache = SetAssociativeCache(size_bytes, 32, 2, index_function=fn)
    for access in build_trace(name, length=accesses):
        cache.access(access.address, is_write=access.is_write)
    return cache.stats.load_miss_ratio


class TestCatalogue:
    def test_eighteen_programs(self):
        assert len(WORKLOADS) == 18
        assert len(workload_names()) == 18

    def test_partition_into_groups(self):
        assert set(HIGH_CONFLICT_PROGRAMS) == {"tomcatv", "swim", "wave5"}
        assert len(LOW_CONFLICT_PROGRAMS) == 15
        assert set(INTEGER_PROGRAMS) | set(FP_PROGRAMS) == set(WORKLOADS)
        assert not set(INTEGER_PROGRAMS) & set(FP_PROGRAMS)
        assert len(INTEGER_PROGRAMS) == 8 and len(FP_PROGRAMS) == 10

    def test_high_conflict_programs_have_conflict_components(self):
        for name in HIGH_CONFLICT_PROGRAMS:
            assert WORKLOADS[name].conflict_fraction > 0.2

    def test_low_conflict_programs_have_small_conflict_components(self):
        for name in LOW_CONFLICT_PROGRAMS:
            assert WORKLOADS[name].conflict_fraction < 0.05

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", conflict_fraction=0.8, stream_fraction=0.5)
        with pytest.raises(ValueError):
            WorkloadSpec("x", conflict_fraction=0.1, stream_fraction=0.1,
                         conflict_arrays=2)


class TestTraceGeneration:
    def test_deterministic(self):
        a = [(x.address, x.is_write) for x in build_trace("swim", length=500)]
        b = [(x.address, x.is_write) for x in build_trace("swim", length=500)]
        assert a == b

    def test_seed_changes_trace(self):
        a = [x.address for x in build_trace("gcc", length=500, seed=1)]
        b = [x.address for x in build_trace("gcc", length=500, seed=2)]
        assert a != b

    def test_length_respected(self):
        assert sum(1 for _ in build_trace("li", length=321)) == 321

    def test_unknown_program(self):
        with pytest.raises(ValueError):
            list(build_trace("doom", length=10))

    def test_contains_writes(self):
        assert any(a.is_write for a in build_trace("compress", length=2000))


class TestBehaviouralShape:
    """The properties the Table 2 reproduction depends on."""

    @pytest.mark.parametrize("name", HIGH_CONFLICT_PROGRAMS)
    def test_ipoly_removes_most_misses_of_bad_programs(self, name):
        conventional = miss_ratio(name, 8 * 1024, "a2")
        ipoly = miss_ratio(name, 8 * 1024, "a2-Hp-Sk")
        assert conventional > 0.35
        assert ipoly < conventional / 2

    @pytest.mark.parametrize("name", ["gcc", "compress", "hydro2d", "fpppp"])
    def test_indexing_insensitive_for_good_programs(self, name):
        conventional = miss_ratio(name, 8 * 1024, "a2")
        ipoly = miss_ratio(name, 8 * 1024, "a2-Hp-Sk")
        assert abs(conventional - ipoly) < 0.05

    @pytest.mark.parametrize("name", ["gcc", "li", "swim"])
    def test_doubling_the_cache_helps(self, name):
        small = miss_ratio(name, 8 * 1024, "a2")
        large = miss_ratio(name, 16 * 1024, "a2")
        assert large < small

    def test_ipoly_8k_beats_conventional_16k_for_bad_programs(self):
        """The paper's headline: I-Poly at 8 KB outperforms doubling the cache."""
        for name in HIGH_CONFLICT_PROGRAMS:
            assert miss_ratio(name, 8 * 1024, "a2-Hp-Sk") < miss_ratio(
                name, 16 * 1024, "a2")

    def test_ipoly_close_to_fully_associative(self):
        """Section 2.1: the I-Poly cache approaches full associativity."""
        for name in ["swim", "gcc"]:
            full = FullyAssociativeCache(8 * 1024, 32)
            for access in build_trace(name, length=25_000):
                full.access(access.address, is_write=access.is_write)
            ipoly = miss_ratio(name, 8 * 1024, "a2-Hp-Sk")
            assert ipoly <= full.stats.load_miss_ratio + 0.06


# --------------------------------------------------------------------- #
# array-native builder: byte-identical with the generator
# --------------------------------------------------------------------- #

GRID_SEEDS = [0, 1, 999, *range(1000, 1006), 12345]
GRID_BLOCK_SIZES = [16, 32, 64]
SHORT_LENGTHS = [1, 2, 3001]
LONG_LENGTH = 40_000


def assert_same_arrays(name, length, block_size, seed):
    expected = to_arrays(build_trace(name, length=length,
                                     block_size=block_size, seed=seed))
    got = build_trace_arrays(name, length=length, block_size=block_size,
                             seed=seed)
    for want, have in zip(expected, got):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes(), (name, length, block_size,
                                                  seed)


class TestArrayBuilder:
    @pytest.mark.parametrize("name", workload_names())
    def test_matches_generator_on_short_grid(self, name):
        """Every seed x block size at lengths 1, 2 and 3001."""
        for seed in GRID_SEEDS:
            for block_size in GRID_BLOCK_SIZES:
                for length in SHORT_LENGTHS:
                    assert_same_arrays(name, length, block_size, seed)

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("block_size", GRID_BLOCK_SIZES)
    def test_matches_generator_at_full_length(self, name, block_size):
        """40k accesses, one grid seed per cell, rotating so every seed is
        covered at full length; the rest of the 40k grid is ``slow``."""
        cell = (workload_names().index(name) * len(GRID_BLOCK_SIZES)
                + GRID_BLOCK_SIZES.index(block_size))
        assert_same_arrays(name, LONG_LENGTH, block_size,
                           GRID_SEEDS[cell % len(GRID_SEEDS)])

    @pytest.mark.slow
    @pytest.mark.parametrize("name", workload_names())
    def test_matches_generator_on_full_grid(self, name):
        for seed in GRID_SEEDS:
            for block_size in GRID_BLOCK_SIZES:
                assert_same_arrays(name, LONG_LENGTH, block_size, seed)

    @settings(deadline=None, max_examples=40)
    @given(name=st.sampled_from(workload_names()),
           length=st.integers(1, 5000),
           seed=st.integers(0, (1 << 64) - 1),
           block_size=st.sampled_from([8, 16, 32, 64, 128]))
    def test_matches_generator_property(self, name, length, seed, block_size):
        assert_same_arrays(name, length, block_size, seed)

    def test_all_hot_workload_uses_every_draw(self, monkeypatch):
        """All fractions 0: every access is hot and takes two draws, the
        worst case the builder's 2 * length draw budget must cover."""
        monkeypatch.setitem(workloads.WORKLOADS, "gcc", WorkloadSpec(
            "gcc", conflict_fraction=0.0, stream_fraction=0.0,
            write_fraction=0.5))
        for length in (1, 2, 3001):
            assert_same_arrays("gcc", length, 32, 7)
        addresses, writes = build_trace_arrays("gcc", length=3001, seed=7)
        assert addresses.min() >= 0x0010_0400
        assert addresses.max() < 0x0010_0400 + 2048
        assert 0 < writes.sum() < writes.size

    def test_hot_free_workload_never_writes(self, monkeypatch):
        monkeypatch.setitem(workloads.WORKLOADS, "gcc", WorkloadSpec(
            "gcc", conflict_fraction=0.5, stream_fraction=0.5))
        assert_same_arrays("gcc", 3001, 32, 7)
        assert not build_trace_arrays("gcc", length=3001, seed=7)[1].any()

    def test_arrays_are_fresh_and_writable(self):
        first = build_trace_arrays("swim", length=100)
        second = build_trace_arrays("swim", length=100)
        assert first[0] is not second[0]
        assert first[0].flags.writeable and first[1].flags.writeable

    @pytest.mark.parametrize("name, length", [("doom", 10), ("gcc", 0),
                                              ("gcc", -5)])
    def test_rejects_what_the_generator_rejects(self, name, length):
        with pytest.raises(ValueError) as generator_error:
            list(build_trace(name, length=length))
        with pytest.raises(ValueError) as builder_error:
            build_trace_arrays(name, length=length)
        assert str(builder_error.value) == str(generator_error.value)
