"""Differential tests: the batch engine against the scalar reference models.

For every index-function family and every cache organisation the engine
supports, identical traces are run through the scalar one-access-at-a-time
model and through the vectorized batch engine, and the *entire* behaviour is
compared: the per-access hit/miss sequence, the final
:class:`~repro.cache.stats.CacheStats` (all counters, including evictions,
writebacks and the 3C classification), and the final set of resident blocks.

The small configurations run in tier-1; the deep sweeps (longer traces, more
geometry combinations) are marked ``slow`` and run with ``pytest -m slow``.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.cache.column_assoc import ColumnAssociativeCache
from repro.cache.fully_assoc import FullyAssociativeCache
from repro.cache.replacement import REPLACEMENT_POLICIES
from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.cache.victim import VictimCache
from repro.core.index import SingleSetIndexing, make_index_function
from repro.engine import (
    AddressBatch,
    BatchColumnAssociativeCache,
    BatchSetAssociativeCache,
    BatchVictimCache,
    make_vec_replacement,
)
from repro.trace.batching import strided_vector_arrays, to_arrays
from repro.trace.generators import (
    multi_array_sweep,
    random_accesses,
    strided_vector,
    tiled_matrix_multiply,
)

#: The paper's four index families plus the prime-modulus baseline.
FAMILIES = ["a2", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk", "a2-prime"]

#: Trace builders exercised by the differential suite (name -> factory).
TRACES = {
    "strided": lambda: strided_vector(17, elements=64, sweeps=6),
    "strided-pathological": lambda: strided_vector(2048, elements=64, sweeps=6),
    "multi-array": lambda: multi_array_sweep(num_arrays=4, elements=400, sweeps=2),
    "tiled-matmul": lambda: tiled_matrix_multiply(n=20, tile=8),
    "random": lambda: random_accesses(5000, 64 * 1024, write_fraction=0.3),
}


def stats_snapshot(stats):
    """All comparable counters of a CacheStats as a plain dict."""
    return {
        "loads": stats.loads,
        "stores": stats.stores,
        "load_misses": stats.load_misses,
        "store_misses": stats.store_misses,
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
        "invalidations": stats.invalidations,
        "miss_kinds": dict(stats.miss_kinds),
    }


def scalar_hit_sequence(cache, trace):
    return np.array([cache.access(a.address, a.is_write).hit for a in trace],
                    dtype=bool)


def batch_of(trace):
    return AddressBatch.from_arrays(*to_arrays(trace))


def build_pair(scheme, ways=2, size=8192, block=32,
               write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
               classify=False, replacement=None):
    """A (scalar, batch) cache pair with identical configuration."""
    num_sets = size // (block * ways)
    scalar = SetAssociativeCache(
        size, block, ways,
        index_function=make_index_function(scheme, num_sets, ways=ways,
                                           address_bits=19),
        replacement=replacement,
        write_policy=write_policy, classify_misses=classify)
    batch = BatchSetAssociativeCache(
        size, block, ways,
        index_function=make_index_function(scheme, num_sets, ways=ways,
                                           address_bits=19),
        replacement=replacement,
        write_policy=write_policy, classify_misses=classify)
    return scalar, batch


def assert_equivalent(scalar, batch_cache, trace):
    trace = list(trace)
    ref_hits = scalar_hit_sequence(scalar, trace)
    vec_hits = batch_cache.run(batch_of(trace))
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch_cache.stats)
    assert sorted(scalar.resident_blocks()) == sorted(batch_cache.resident_blocks())


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("scheme", FAMILIES)
class TestSetAssociativeEquivalence:
    def test_write_through(self, scheme, trace_name):
        scalar, batch = build_pair(scheme)
        assert_equivalent(scalar, batch, TRACES[trace_name]())

    def test_write_back(self, scheme, trace_name):
        scalar, batch = build_pair(
            scheme, write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert_equivalent(scalar, batch, TRACES[trace_name]())

    def test_with_3c_classifier(self, scheme, trace_name):
        scalar, batch = build_pair(scheme, classify=True)
        assert_equivalent(scalar, batch, TRACES[trace_name]())


@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_direct_mapped_equivalence(trace_name):
    scalar, batch = build_pair("a2", ways=1)
    assert_equivalent(scalar, batch, TRACES[trace_name]())


@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_four_way_skewed_equivalence(trace_name):
    scalar, batch = build_pair("a2-Hp-Sk", ways=4)
    assert_equivalent(scalar, batch, TRACES[trace_name]())


@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_fully_associative_equivalence(trace_name):
    scalar = FullyAssociativeCache(2048, 32)
    batch = BatchSetAssociativeCache(2048, 32, ways=2048 // 32,
                                     index_function=SingleSetIndexing())
    assert_equivalent(scalar, batch, TRACES[trace_name]())


@pytest.mark.parametrize("swap", [True, False])
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_column_associative_equivalence(trace_name, swap):
    trace = list(TRACES[trace_name]())
    scalar = ColumnAssociativeCache(8192, 32, address_bits=19,
                                    swap_on_rehash_hit=swap,
                                    classify_misses=True)
    batch = BatchColumnAssociativeCache(8192, 32, address_bits=19,
                                        swap_on_rehash_hit=swap,
                                        classify_misses=True)
    ref_hits = scalar_hit_sequence(scalar, trace)
    vec_hits = batch.run(batch_of(trace))
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert scalar.first_probe_hits == batch.first_probe_hits
    assert scalar.second_probe_hits == batch.second_probe_hits
    assert scalar.total_probes == batch.total_probes
    assert scalar.first_probe_hit_ratio == batch.first_probe_hit_ratio
    assert scalar.average_probes == batch.average_probes


# --------------------------------------------------------------------- #
# replacement policy x organisation grid
# --------------------------------------------------------------------- #

#: Traces for the replacement grid: one store-free, one store-heavy.
POLICY_TRACES = ("multi-array", "random")


@pytest.mark.parametrize("trace_name", POLICY_TRACES)
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
class TestReplacementEquivalence:
    """Every replacement policy is bit-exact across engines, per organisation.

    Four policies x {conventional set-assoc, skewed I-Poly, column-assoc,
    victim} — including identical deterministic random-victim sequences from
    the shared counter-based generator.
    """

    def test_set_associative(self, policy, trace_name):
        scalar, batch = build_pair("a2", replacement=policy,
                                   write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert_equivalent(scalar, batch, TRACES[trace_name]())

    def test_skewed(self, policy, trace_name):
        scalar, batch = build_pair("a2-Hp-Sk", ways=4, replacement=policy,
                                   write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        assert_equivalent(scalar, batch, TRACES[trace_name]())

    def test_column_associative(self, policy, trace_name):
        # The organisation has no replacement freedom (direct-mapped per
        # probe location): every policy must reproduce the identical — and
        # cross-engine bit-exact — behaviour.
        trace = list(TRACES[trace_name]())
        scalar = ColumnAssociativeCache(8192, 32, address_bits=19,
                                        replacement=policy)
        batch = BatchColumnAssociativeCache(8192, 32, address_bits=19,
                                            replacement=policy)
        ref_hits = scalar_hit_sequence(scalar, trace)
        vec_hits = batch.run(batch_of(trace))
        np.testing.assert_array_equal(ref_hits, vec_hits)
        assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
        assert scalar.first_probe_hits == batch.first_probe_hits
        assert scalar.second_probe_hits == batch.second_probe_hits

    def test_victim(self, policy, trace_name):
        trace = list(TRACES[trace_name]())
        scalar = VictimCache(4096, 32, ways=1, victim_entries=8,
                             replacement=policy)
        batch = BatchVictimCache(4096, 32, ways=1, victim_entries=8,
                                 replacement=policy)
        ref_hits = scalar_hit_sequence(scalar, trace)
        vec_hits = batch.run(batch_of(trace))
        np.testing.assert_array_equal(ref_hits, vec_hits)
        assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
        assert scalar.main_hits == batch.main_hits
        assert scalar.victim_hits == batch.victim_hits
        assert scalar.miss_ratio == batch.miss_ratio
        assert scalar.victim_hit_ratio == batch.victim_hit_ratio


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
def test_victim_cache_with_skewed_main_and_stores(policy):
    """Victim kernel with a 2-way I-Poly-skewed main cache, store-heavy."""
    trace = list(random_accesses(4000, 24 * 1024, write_fraction=0.35,
                                 seed=17))
    index = lambda: make_index_function("a2-Hp-Sk", 64, ways=2,
                                        address_bits=19)
    scalar = VictimCache(4096, 32, ways=2, victim_entries=4,
                         index_function=index(), replacement=policy)
    batch = BatchVictimCache(4096, 32, ways=2, victim_entries=4,
                             index_function=index(), replacement=policy)
    ref_hits = scalar_hit_sequence(scalar, trace)
    vec_hits = batch.run(batch_of(trace))
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert scalar.main_hits == batch.main_hits
    assert scalar.victim_hits == batch.victim_hits


# --------------------------------------------------------------------- #
# conventional 2-way caches: the trace-order kernels vs the generic kernel
# --------------------------------------------------------------------- #

#: The non-LRU policies served by the specialised replacement kernels.
DECOMPOSED_POLICIES = ("fifo", "random", "plru")

#: Non-skewed schemes (their two ways share one set list).
NON_SKEWED_SCHEMES = ("a2", "a2-Hp")


def run_via_generic_kernel(batch_cache, trace):
    """Replay a trace through the retained generic policy kernel directly,
    bypassing the specialised dispatch — the differential reference."""
    batch = batch_of(trace)
    blocks = batch.block_numbers(batch_cache.block_size)
    return batch_cache._run_policy_kernel(blocks, batch.is_write)


def assert_policy_state_equal(left, right):
    """The NumPy policy state tables of two caches are byte-identical."""
    lp, rp = left._vec_policy, right._vec_policy
    assert type(lp) is type(rp)
    if hasattr(lp, "stamps"):
        np.testing.assert_array_equal(lp.stamps, rp.stamps)
    if hasattr(lp, "bits"):
        np.testing.assert_array_equal(lp.bits, rp.bits)
    if hasattr(lp, "counter"):
        assert lp.counter == rp.counter


@pytest.mark.parametrize("trace_name", POLICY_TRACES)
@pytest.mark.parametrize("scheme", NON_SKEWED_SCHEMES)
@pytest.mark.parametrize("policy", DECOMPOSED_POLICIES)
@pytest.mark.usefixtures("forced_tier")
class TestConventionalTwoWayVsGenericKernel:
    """A conventional 2-way cache runs the trace-order 2-way kernels with
    one set list for both ways.  They, the generic kernel and the scalar
    model are interchangeable: same hits, same stats, same resident blocks
    — and the same policy state tables afterwards, so either kernel can
    continue the other's cache."""

    def check(self, policy, scheme, trace_name, write_policy):
        trace = list(TRACES[trace_name]())
        scalar, dispatched = build_pair(scheme, replacement=policy,
                                        write_policy=write_policy)
        _, generic = build_pair(scheme, replacement=policy,
                                write_policy=write_policy)
        batch = batch_of(trace)
        assert dispatched.dispatch_strategy(batch) == (
            f"skew-decomposed-{policy}")
        ref_hits = scalar_hit_sequence(scalar, trace)
        dec_hits = dispatched.run(batch)
        gen_hits = run_via_generic_kernel(generic, trace)
        np.testing.assert_array_equal(ref_hits, dec_hits)
        np.testing.assert_array_equal(dec_hits, gen_hits)
        assert stats_snapshot(scalar.stats) == stats_snapshot(dispatched.stats)
        assert stats_snapshot(dispatched.stats) == stats_snapshot(generic.stats)
        assert sorted(scalar.resident_blocks()) == sorted(
            dispatched.resident_blocks())
        assert dispatched._way_tags == generic._way_tags
        assert dispatched._way_dirty == generic._way_dirty
        assert_policy_state_equal(dispatched, generic)

    def test_write_through(self, policy, scheme, trace_name):
        self.check(policy, scheme, trace_name,
                   WritePolicy.WRITE_THROUGH_NO_ALLOCATE)

    def test_write_back(self, policy, scheme, trace_name):
        self.check(policy, scheme, trace_name,
                   WritePolicy.WRITE_BACK_ALLOCATE)

    def test_kernel_handoff_mid_stream(self, policy, scheme, trace_name):
        """A batch run by the generic kernel, then one by the trace-order
        kernel, continues bit-exactly from the shared state tables (and
        leaves the same tables as an all-generic cache)."""
        scalar, batch = build_pair(
            scheme, replacement=policy,
            write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        _, generic = build_pair(
            scheme, replacement=policy,
            write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        trace = list(TRACES[trace_name]())
        cut = len(trace) // 2
        first, second = trace[:cut], trace[cut:]
        ref_hits = scalar_hit_sequence(scalar, trace)
        vec_hits = np.concatenate([
            run_via_generic_kernel(batch, first),
            batch.run(batch_of(second)),      # trace-order kernel continues
        ])
        run_via_generic_kernel(generic, first)
        run_via_generic_kernel(generic, second)
        np.testing.assert_array_equal(ref_hits, vec_hits)
        assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
        assert sorted(scalar.resident_blocks()) == sorted(
            batch.resident_blocks())
        assert_policy_state_equal(batch, generic)


# --------------------------------------------------------------------- #
# skewed caches: the dispatched kernel vs the generic kernel vs the scalar
# engine
# --------------------------------------------------------------------- #

def build_three_way_skewed_pair(replacement,
                                write_policy=WritePolicy.WRITE_BACK_ALLOCATE):
    """A (scalar, batch) 3-way skewed I-Poly pair (generic policy kernel)."""
    return build_pair("a2-Hp-Sk", ways=3, size=3 * 64 * 32,
                      replacement=replacement, write_policy=write_policy)


def build_victim_pair(ways, policy, scheme="a2", entries=4):
    """A (scalar, batch) victim-cache pair with identical configuration."""
    num_sets = 4096 // (32 * ways)
    index = lambda: make_index_function(scheme, num_sets, ways=ways,
                                        address_bits=19)
    scalar = VictimCache(4096, 32, ways=ways, victim_entries=entries,
                         index_function=index(), replacement=policy)
    batch = BatchVictimCache(4096, 32, ways=ways, victim_entries=entries,
                             index_function=index(), replacement=policy)
    return scalar, batch


def run_victim_via_generic_kernel(batch_cache, trace):
    """Replay a trace through the retained generic victim kernel directly,
    bypassing the decomposed dispatch — the differential reference."""
    batch = batch_of(trace)
    blocks = batch.block_numbers(batch_cache.block_size)
    return batch_cache._run_generic_kernel(blocks, batch.is_write)


def assert_victim_state_equal(left, right):
    """Two BatchVictimCaches carry identical durable state: tags, dirty
    bits, clocks and both structures' policy state tables."""
    assert left._way_tags == right._way_tags
    assert left._way_dirty == right._way_dirty
    assert left._victim_tags == right._victim_tags
    assert left._victim_dirty == right._victim_dirty
    assert left._main_clock == right._main_clock
    assert left._victim_clock == right._victim_clock
    for lp, rp in ((left._main_policy, right._main_policy),
                   (left._victim_policy, right._victim_policy)):
        assert type(lp) is type(rp)
        if hasattr(lp, "stamps"):
            np.testing.assert_array_equal(lp.stamps, rp.stamps)
        if hasattr(lp, "bits"):
            np.testing.assert_array_equal(lp.bits, rp.bits)
        if hasattr(lp, "counter"):
            assert lp.counter == rp.counter


def assert_victim_matches_scalar(scalar, batch_cache):
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch_cache.stats)
    assert scalar.main_hits == batch_cache.main_hits
    assert scalar.victim_hits == batch_cache.victim_hits


@pytest.mark.parametrize("trace_name", POLICY_TRACES)
@pytest.mark.parametrize("policy", DECOMPOSED_POLICIES)
@pytest.mark.usefixtures("forced_tier")
class TestSkewDecomposedVsGenericKernel:
    """On skewed placement the dispatched kernel (the trace-order 2-way
    loops at two ways, the generic kernel at three), the generic kernel and
    the scalar engine agree: same hits, same stats, same resident blocks —
    and the same policy state tables afterwards, so any kernel can continue
    any other's cache."""

    def test_two_way_skewed(self, policy, trace_name):
        trace = list(TRACES[trace_name]())
        scalar, decomposed = build_pair(
            "a2-Hp-Sk", replacement=policy,
            write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        _, generic = build_pair(
            "a2-Hp-Sk", replacement=policy,
            write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        ref_hits = scalar_hit_sequence(scalar, trace)
        dec_hits = decomposed.run(batch_of(trace))
        gen_hits = run_via_generic_kernel(generic, trace)
        np.testing.assert_array_equal(ref_hits, dec_hits)
        np.testing.assert_array_equal(dec_hits, gen_hits)
        assert stats_snapshot(scalar.stats) == stats_snapshot(decomposed.stats)
        assert stats_snapshot(decomposed.stats) == stats_snapshot(generic.stats)
        assert sorted(decomposed.resident_blocks()) == sorted(
            generic.resident_blocks())
        assert_policy_state_equal(decomposed, generic)

    def test_three_way_skewed(self, policy, trace_name):
        trace = list(TRACES[trace_name]())
        scalar, decomposed = build_three_way_skewed_pair(policy)
        _, generic = build_three_way_skewed_pair(policy)
        assert decomposed.dispatch_strategy(batch_of(trace)) == (
            "generic-policy-kernel")
        ref_hits = scalar_hit_sequence(scalar, trace)
        dec_hits = decomposed.run(batch_of(trace))
        gen_hits = run_via_generic_kernel(generic, trace)
        np.testing.assert_array_equal(ref_hits, dec_hits)
        np.testing.assert_array_equal(dec_hits, gen_hits)
        assert stats_snapshot(scalar.stats) == stats_snapshot(decomposed.stats)
        assert stats_snapshot(decomposed.stats) == stats_snapshot(generic.stats)
        assert_policy_state_equal(decomposed, generic)

    def test_skewed_kernel_handoff_mid_stream(self, policy, trace_name):
        """First batch through the generic kernel, second through the
        skew-decomposed kernel: the shared state tables round-trip and the
        combined run stays bit-exact with one scalar pass (and leaves the
        same tables as an all-generic cache)."""
        scalar, handoff = build_pair(
            "a2-Hp-Sk", replacement=policy,
            write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        _, generic = build_pair(
            "a2-Hp-Sk", replacement=policy,
            write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
        trace = list(TRACES[trace_name]())
        cut = len(trace) // 2
        first, second = trace[:cut], trace[cut:]
        ref_hits = scalar_hit_sequence(scalar, trace)
        vec_hits = np.concatenate([
            run_via_generic_kernel(handoff, first),
            handoff.run(batch_of(second)),    # skew-decomposed continues
        ])
        run_via_generic_kernel(generic, first)
        run_via_generic_kernel(generic, second)
        np.testing.assert_array_equal(ref_hits, vec_hits)
        assert stats_snapshot(scalar.stats) == stats_snapshot(handoff.stats)
        assert sorted(scalar.resident_blocks()) == sorted(
            handoff.resident_blocks())
        assert_policy_state_equal(handoff, generic)


@pytest.mark.parametrize("trace_name", POLICY_TRACES)
@pytest.mark.parametrize("ways", [1, 2])
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.usefixtures("forced_tier")
class TestVictimDecomposedVsGenericKernel:
    """The dispatched victim kernel (decomposed for a 1-way main, generic
    for a 2-way main), the retained generic victim kernel and the scalar
    model agree for all four policies — including the full durable state
    both engines leave behind."""

    def test_three_paths_agree(self, policy, ways, trace_name):
        trace = list(TRACES[trace_name]())
        scalar, decomposed = build_victim_pair(ways, policy)
        _, generic = build_victim_pair(ways, policy)
        ref_hits = scalar_hit_sequence(scalar, trace)
        dec_hits = decomposed.run(batch_of(trace))
        gen_hits = run_victim_via_generic_kernel(generic, trace)
        np.testing.assert_array_equal(ref_hits, dec_hits)
        np.testing.assert_array_equal(dec_hits, gen_hits)
        assert_victim_matches_scalar(scalar, decomposed)
        assert stats_snapshot(decomposed.stats) == stats_snapshot(generic.stats)
        assert_victim_state_equal(decomposed, generic)

    def test_skewed_main(self, policy, ways, trace_name):
        """Same three-path agreement with skewed I-Poly main-cache
        placement (ways=1 degenerates to a single rehash, still exact)."""
        trace = list(TRACES[trace_name]())
        scalar, decomposed = build_victim_pair(ways, policy,
                                               scheme="a2-Hp-Sk")
        _, generic = build_victim_pair(ways, policy, scheme="a2-Hp-Sk")
        ref_hits = scalar_hit_sequence(scalar, trace)
        dec_hits = decomposed.run(batch_of(trace))
        gen_hits = run_victim_via_generic_kernel(generic, trace)
        np.testing.assert_array_equal(ref_hits, dec_hits)
        np.testing.assert_array_equal(dec_hits, gen_hits)
        assert_victim_matches_scalar(scalar, decomposed)
        assert_victim_state_equal(decomposed, generic)

    def test_victim_kernel_handoff_mid_stream(self, policy, ways, trace_name):
        """Generic victim kernel first, decomposed kernel second: state
        round-trips bit-exactly against one scalar pass and an all-generic
        cache."""
        scalar, handoff = build_victim_pair(ways, policy)
        _, generic = build_victim_pair(ways, policy)
        trace = list(TRACES[trace_name]())
        cut = len(trace) // 2
        first, second = trace[:cut], trace[cut:]
        ref_hits = scalar_hit_sequence(scalar, trace)
        vec_hits = np.concatenate([
            run_victim_via_generic_kernel(handoff, first),
            handoff.run(batch_of(second)),    # decomposed continues
        ])
        run_victim_via_generic_kernel(generic, first)
        run_victim_via_generic_kernel(generic, second)
        np.testing.assert_array_equal(ref_hits, vec_hits)
        assert_victim_matches_scalar(scalar, handoff)
        assert_victim_state_equal(handoff, generic)


@pytest.mark.usefixtures("forced_tier")
def test_lru_skewed_two_way_vs_generic_ways_kernel():
    """The dedicated 2-way skewed LRU kernel and the generic-ways skewed
    LRU kernel are interchangeable on the same cache type."""
    trace = list(random_accesses(5000, 64 * 1024, write_fraction=0.3,
                                 seed=41))
    scalar, two_way = build_pair("a2-Hp-Sk",
                                 write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    _, generic_ways = build_pair("a2-Hp-Sk",
                                 write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    batch = batch_of(trace)
    ref_hits = scalar_hit_sequence(scalar, trace)
    two_hits = two_way.run(batch)
    gen_hits = generic_ways._run_skewed_kernel_generic(
        batch.block_numbers(generic_ways.block_size), batch.is_write)
    np.testing.assert_array_equal(ref_hits, two_hits)
    np.testing.assert_array_equal(two_hits, gen_hits)
    assert stats_snapshot(two_way.stats) == stats_snapshot(generic_ways.stats)
    assert two_way._way_tags == generic_ways._way_tags
    assert two_way._way_used == generic_ways._way_used


# --------------------------------------------------------------------- #
# dispatcher introspection: every (kernel, policy, organisation) path
# --------------------------------------------------------------------- #

def benchmark_strategy_names():
    """The kernel names the end-to-end benchmark's per-layer tracer accounts
    for (``perfbench/layers.STRATEGIES``), loaded from the file itself."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.STRATEGIES)


def test_dispatch_strategy_covers_every_kernel_path():
    """`dispatch_strategy` names the kernel `run` executes, for every
    (organisation, policy, batch) combination the dispatcher distinguishes —
    and the strategy-for-strategy behaviour matches the scalar engine.

    Every name returned is one the benchmark's tracer accounts for, and
    together they cover all of them but the column-associative kernel, so
    renaming or dropping a kernel fails here rather than in a traced
    benchmark run."""
    loads = list(strided_vector(17, elements=64, sweeps=2))
    mixed = list(random_accesses(2000, 32 * 1024, write_fraction=0.3))

    def fully_associative_pair(policy):
        return (FullyAssociativeCache(2048, 32, replacement=policy),
                BatchSetAssociativeCache(2048, 32, ways=2048 // 32,
                                         index_function=SingleSetIndexing(),
                                         replacement=policy))

    expectations = []
    for policy in ("fifo", "random", "plru"):
        # Two ways, conventional or skewed: the trace-order 2-way loops.
        expectations.append(
            (build_pair("a2", replacement=policy), mixed,
             f"skew-decomposed-{policy}"))
        expectations.append(
            (build_pair("a2-Hp", replacement=policy), mixed,
             f"skew-decomposed-{policy}"))
        expectations.append(
            (build_pair("a2-Hp-Sk", replacement=policy), mixed,
             f"skew-decomposed-{policy}"))
        # One or >= 3 conventional ways: the set-decomposed dict kernels.
        expectations.append(
            (build_pair("a2", ways=1, replacement=policy), mixed,
             f"set-decomposed-{policy}"))
        expectations.append(
            (build_pair("a2", ways=4, replacement=policy), mixed,
             f"set-decomposed-{policy}"))
        expectations.append(
            (fully_associative_pair(policy), mixed,
             f"set-decomposed-{policy}"))
        # Wider skewed caches and classifying caches: the generic kernel.
        expectations.append(
            (build_pair("a2-Hp-Sk", ways=4, replacement=policy), mixed,
             "generic-policy-kernel"))
        expectations.append(
            (build_pair("a2", replacement=policy, classify=True), mixed,
             "generic-policy-kernel"))
    expectations.append((build_pair("a2"), loads, "lru-run-collapse"))
    expectations.append((build_pair("a2"), mixed, "lru-dict"))
    expectations.append((build_pair("a2-Hp-Sk"), mixed, "lru-skewed-2way"))
    expectations.append(
        (build_pair("a2-Hp-Sk", ways=4), mixed, "lru-skewed-generic"))

    known = benchmark_strategy_names()
    seen = set()
    for (scalar, batch_cache), trace, expected in expectations:
        batch = batch_of(trace)
        strategy = batch_cache.dispatch_strategy(batch)
        assert strategy == expected
        assert strategy in known
        seen.add(strategy)
        assert_equivalent(scalar, batch_cache, trace)

    for ways, policy, expected in [
        (1, "lru", "victim-decomposed-lru"),
        (1, "fifo", "victim-decomposed-fifo"),
        (1, "random", "victim-decomposed-random"),
        (1, "plru", "victim-decomposed-plru"),
        (2, "random", "victim-generic-kernel"),
        (2, "plru", "victim-generic-kernel"),
        (4, "lru", "victim-generic-kernel"),
    ]:
        scalar, batch_cache = build_victim_pair(ways, policy)
        batch = batch_of(mixed)
        strategy = batch_cache.dispatch_strategy(batch)
        assert strategy == expected
        assert strategy in known
        seen.add(strategy)
        ref_hits = scalar_hit_sequence(scalar, mixed)
        vec_hits = batch_cache.run(batch)
        np.testing.assert_array_equal(ref_hits, vec_hits)
        assert_victim_matches_scalar(scalar, batch_cache)

    assert seen == known - {"column-assoc"}


def test_lru_run_collapse_is_batch_dependent():
    """The run-collapse fast path is only chosen for cold load-only
    batches; the same cache reports the dict kernel once warmed."""
    _, batch_cache = build_pair("a2")
    loads = batch_of(list(strided_vector(17, elements=64, sweeps=2)))
    assert batch_cache.dispatch_strategy(loads) == "lru-run-collapse"
    batch_cache.run(loads)
    assert batch_cache.dispatch_strategy(loads) == "lru-dict"


@pytest.mark.parametrize("policy", DECOMPOSED_POLICIES)
def test_decomposed_dispatch_conditions(policy, monkeypatch):
    """Classifier-free non-LRU caches of two ways, conventional or skewed,
    route through the 2-way trace-order layer; conventional caches of
    other widths through the set-decomposed layer; wider skewed and
    classifying caches keep the generic kernel."""
    from repro.engine import batch_cache as batch_cache_module

    calls = []
    real_set = batch_cache_module.run_decomposed_policy
    real_skew = batch_cache_module.run_skew_decomposed_policy

    def counting_set(cache, blocks, sets, is_write):
        calls.append(("set", cache.index_function.name, cache.ways))
        return real_set(cache, blocks, sets, is_write)

    def counting_skew(cache, blocks, is_write):
        calls.append(("skew", cache.index_function.name, cache.ways))
        return real_skew(cache, blocks, is_write)

    monkeypatch.setattr(batch_cache_module, "run_decomposed_policy",
                        counting_set)
    monkeypatch.setattr(batch_cache_module, "run_skew_decomposed_policy",
                        counting_skew)
    trace = list(TRACES["random"]())

    for scheme, ways, classify, expected in [
        ("a2", 2, False, ("skew", "a2", 2)),
        ("a2-Hp-Sk", 2, False, ("skew", "a2-Hp-Sk", 2)),
        ("a2", 4, False, ("set", "a2", 4)),
        ("a2-Hp-Sk", 4, False, None),  # wider skewed: generic kernel
        ("a2", 2, True, None),  # classifier forces the global-order kernel
    ]:
        del calls[:]
        _, cache = build_pair(scheme, ways=ways, replacement=policy,
                              classify=classify)
        cache.run(batch_of(trace))
        assert calls == ([expected] if expected else [])


@pytest.mark.parametrize("trace_name", POLICY_TRACES)
@pytest.mark.parametrize("policy", DECOMPOSED_POLICIES)
def test_classifying_policy_cache_matches_scalar(policy, trace_name):
    """3C classification + non-LRU policy (the generic-kernel fallback path)
    stays bit-exact with the scalar model, miss kinds included."""
    scalar, batch = build_pair("a2", replacement=policy, classify=True,
                               write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    assert_equivalent(scalar, batch, TRACES[trace_name]())


@pytest.mark.parametrize("policy", DECOMPOSED_POLICIES)
def test_fully_associative_policy_equivalence(policy):
    """Single-set decomposition at high associativity (64 ways): the dense
    generic-ways kernels against the scalar fully-associative model."""
    trace = list(random_accesses(4000, 16 * 1024, write_fraction=0.3,
                                 seed=23))
    scalar = FullyAssociativeCache(2048, 32, replacement=policy)
    batch = BatchSetAssociativeCache(2048, 32, ways=2048 // 32,
                                     index_function=SingleSetIndexing(),
                                     replacement=policy)
    assert_equivalent(scalar, batch, trace)


@pytest.mark.parametrize("scheme", NON_SKEWED_SCHEMES)
@pytest.mark.parametrize("policy", DECOMPOSED_POLICIES)
def test_decomposed_four_way_equivalence(policy, scheme):
    """The generic-ways decomposed kernels (dict residents, FIFO heap,
    PLRU tree walk) against the scalar model at 4 ways, store-heavy."""
    trace = list(random_accesses(5000, 64 * 1024, write_fraction=0.3,
                                 seed=31))
    scalar, batch = build_pair(scheme, ways=4, replacement=policy,
                               write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    assert_equivalent(scalar, batch, trace)


@pytest.mark.parametrize("policy", DECOMPOSED_POLICIES)
@pytest.mark.usefixtures("forced_tier")
def test_decomposed_warm_continuity_non_skewed(policy):
    """Split-batch decomposed runs on a conventional cache stay bit-exact
    with one scalar pass (state round-trips through the NumPy tables)."""
    scalar, batch = build_pair("a2", replacement=policy,
                               write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    first = list(random_accesses(1500, 32 * 1024, write_fraction=0.3, seed=7))
    second = list(random_accesses(1500, 32 * 1024, write_fraction=0.3, seed=8))
    ref_hits = scalar_hit_sequence(scalar, first + second)
    vec_hits = np.concatenate([batch.run(batch_of(first)),
                               batch.run(batch_of(second))])
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert sorted(scalar.resident_blocks()) == sorted(batch.resident_blocks())


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.usefixtures("forced_tier")
def test_warm_continuity_with_policies(policy):
    """Split-batch runs of the policy kernel stay bit-exact with one scalar
    pass, proving the NumPy state tables round-trip between batches."""
    scalar, batch = build_pair("a2-Hp-Sk", replacement=policy,
                               write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    first = list(random_accesses(1500, 32 * 1024, write_fraction=0.3, seed=5))
    second = list(random_accesses(1500, 32 * 1024, write_fraction=0.3, seed=6))
    ref_hits = scalar_hit_sequence(scalar, first + second)
    vec_hits = np.concatenate([batch.run(batch_of(first)),
                               batch.run(batch_of(second))])
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert sorted(scalar.resident_blocks()) == sorted(batch.resident_blocks())


def assert_policy_tables_match_scalar(reference, tables):
    """A scalar policy's tables (`_stamp`, `_bits`, `_counter`) equal the
    batch engine's NumPy state tables."""
    if hasattr(reference, "_stamp"):
        np.testing.assert_array_equal(
            np.array(reference._stamp, dtype=np.int64), tables.stamps)
    if hasattr(reference, "_bits"):
        np.testing.assert_array_equal(
            np.array(reference._bits, dtype=bool), tables.bits)
    if hasattr(reference, "_counter"):
        assert reference._counter == tables.counter


@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.usefixtures("forced_tier")
def test_victim_flush_then_replay_keeps_clocks_running(policy):
    """A flush forgets frames and replacement state but, like the scalar
    model, keeps both access clocks running: after flush and replay both
    structures' stamp tables equal the scalar model's `_stamp`."""
    scalar = VictimCache(4096, 32, ways=1, victim_entries=8,
                         replacement=policy)
    batch = BatchVictimCache(4096, 32, ways=1, victim_entries=8,
                             replacement=policy)
    first = list(random_accesses(1500, 32 * 1024, write_fraction=0.3, seed=9))
    second = list(random_accesses(1500, 32 * 1024, write_fraction=0.3,
                                  seed=10))
    ref_hits = [scalar_hit_sequence(scalar, first)]
    vec_hits = [batch.run(batch_of(first))]
    scalar.flush()
    batch.flush()
    ref_hits.append(scalar_hit_sequence(scalar, second))
    vec_hits.append(batch.run(batch_of(second)))
    np.testing.assert_array_equal(np.concatenate(ref_hits),
                                  np.concatenate(vec_hits))
    assert_victim_matches_scalar(scalar, batch)
    assert_policy_tables_match_scalar(scalar._main._replacement,
                                      batch._main_policy)
    assert_policy_tables_match_scalar(scalar._victim._replacement,
                                      batch._victim_policy)


def test_vec_replacement_state_tables_are_numpy_resident():
    """Between runs the policy state lives in inspectable NumPy arrays."""
    scalar, batch = build_pair("a2", replacement="plru")
    batch.run(batch_of(list(TRACES["random"]())))
    policy = batch._vec_policy
    assert policy.bits.shape == (batch.num_sets, 1)   # 2-way tree: 1 bit/set
    assert policy.stamps.shape == (batch.ways, batch.num_sets)
    assert policy.bits.any()


def test_vec_random_consumes_shared_draw_sequence():
    """The vectorized random policy consumes splitmix64(seed + n) draws."""
    vec = make_vec_replacement("random", ways=4, num_sets=8)
    vec.kernel_begin()
    picks = [vec.victim([0, 0, 0, 0]) for _ in range(10)]
    vec.kernel_end()
    from repro.cache.replacement import splitmix64
    assert picks == [splitmix64(vec.seed + n) % 4 for n in range(10)]
    assert vec.counter == 10


def test_batch_cache_honours_random_policy_instance_seed():
    """A configured RandomReplacement instance must mean the same victim
    sequence on both engines — the seed travels into the vec state tables."""
    from repro.cache.replacement import RandomReplacement

    trace = list(random_accesses(4000, 64 * 1024, write_fraction=0.3, seed=9))
    scalar = SetAssociativeCache(2048, 32, 2,
                                 replacement=RandomReplacement(seed=42))
    batch = BatchSetAssociativeCache(2048, 32, 2,
                                     replacement=RandomReplacement(seed=42))
    assert_equivalent(scalar, batch, trace)

    scalar = VictimCache(1024, 32, ways=1, victim_entries=4,
                         replacement=RandomReplacement(seed=42))
    batch = BatchVictimCache(1024, 32, ways=1, victim_entries=4,
                             replacement=RandomReplacement(seed=42))
    ref_hits = scalar_hit_sequence(scalar, trace)
    vec_hits = batch.run(batch_of(trace))
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)


@pytest.mark.parametrize("ways", [3, 5])
def test_plru_equivalence_with_non_power_of_two_ways(ways):
    """Ragged PLRU trees (non-power-of-two associativity) stay bit-exact
    across engines and can evict every way."""
    trace = list(random_accesses(6000, 64 * 1024, write_fraction=0.3,
                                 seed=ways))
    size = 128 * 32 * ways
    scalar = SetAssociativeCache(size, 32, ways, replacement="plru")
    batch = BatchSetAssociativeCache(size, 32, ways, replacement="plru")
    assert_equivalent(scalar, batch, trace)


def test_batch_cache_rejects_unknown_replacement():
    with pytest.raises(ValueError):
        BatchSetAssociativeCache(8192, 32, 2, replacement="mru")
    with pytest.raises(ValueError):
        BatchVictimCache(4096, 32, replacement="mru")
    with pytest.raises(ValueError):
        BatchColumnAssociativeCache(8192, 32, replacement="mru")


def test_warm_cache_continuity():
    """A vectorized cold run followed by a warm run stays bit-exact.

    The first (load-only) batch takes the fully vectorized path, which must
    reconstruct the LRU state it leaves behind; the second (store-carrying)
    batch continues in the tight kernel from that state.
    """
    scalar, batch = build_pair("a2")
    first = list(strided_vector(512, elements=64, sweeps=3))
    second = list(random_accesses(3000, 32 * 1024, write_fraction=0.4))
    ref_hits = scalar_hit_sequence(scalar, first + second)
    vec_hits = np.concatenate([batch.run(batch_of(first)),
                               batch.run(batch_of(second))])
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert sorted(scalar.resident_blocks()) == sorted(batch.resident_blocks())


def test_strided_vector_arrays_match_generator():
    for stride in (1, 17, 128, 2048):
        addresses, writes = strided_vector_arrays(stride, elements=64, sweeps=3)
        expected = [a.address for a in strided_vector(stride, elements=64, sweeps=3)]
        assert addresses.tolist() == expected
        assert not writes.any()


def test_engine_rejects_negative_addresses():
    with pytest.raises(ValueError):
        AddressBatch.from_arrays(np.array([0, -1], dtype=np.int64))


def test_engine_rejects_out_of_range_addresses():
    with pytest.raises(ValueError):
        AddressBatch.from_arrays(np.array([1 << 63], dtype=np.uint64))
    with pytest.raises(ValueError):
        AddressBatch.from_arrays([0, 1 << 70])


def test_engine_rejects_unsupported_replacement_via_scalar_parity():
    """Both engines reject the same malformed geometries the same way."""
    with pytest.raises(ValueError):
        BatchSetAssociativeCache(8192, 48, 2)  # non-power-of-two block
    with pytest.raises(ValueError):
        BatchSetAssociativeCache(8192 + 32, 32, 2)  # not a multiple of set size
    with pytest.raises(ValueError):
        BatchSetAssociativeCache(8192, 32, 2, write_policy="bogus")


# --------------------------------------------------------------------- #
# deep sweeps — `pytest -m slow`
# --------------------------------------------------------------------- #

@pytest.mark.slow
@pytest.mark.parametrize("scheme", FAMILIES)
@pytest.mark.parametrize("ways", [1, 2, 4])
@pytest.mark.parametrize("write_policy", list(WritePolicy.ALL))
def test_deep_equivalence_grid(scheme, ways, write_policy):
    scalar, batch = build_pair(scheme, ways=ways, write_policy=write_policy,
                               classify=True)
    trace = list(random_accesses(40_000, 256 * 1024, write_fraction=0.25,
                                 seed=sum(map(ord, scheme)) + ways))
    assert_equivalent(scalar, batch, trace)


@pytest.mark.slow
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
@pytest.mark.parametrize("scheme", ["a2", "a2-Hp-Sk"])
@pytest.mark.parametrize("ways", [2, 4])
def test_deep_replacement_grid(policy, scheme, ways):
    scalar, batch = build_pair(scheme, ways=ways, replacement=policy,
                               write_policy=WritePolicy.WRITE_BACK_ALLOCATE,
                               classify=True)
    trace = list(random_accesses(40_000, 256 * 1024, write_fraction=0.25,
                                 seed=sum(map(ord, policy)) + ways))
    assert_equivalent(scalar, batch, trace)


@pytest.mark.slow
@pytest.mark.parametrize("policy", REPLACEMENT_POLICIES)
def test_deep_victim_equivalence(policy):
    trace = list(random_accesses(40_000, 128 * 1024, write_fraction=0.25,
                                 seed=sum(map(ord, policy))))
    scalar = VictimCache(8192, 32, ways=1, victim_entries=8,
                         replacement=policy)
    batch = BatchVictimCache(8192, 32, ways=1, victim_entries=8,
                             replacement=policy)
    ref_hits = scalar_hit_sequence(scalar, trace)
    vec_hits = batch.run(batch_of(trace))
    np.testing.assert_array_equal(ref_hits, vec_hits)
    assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats)
    assert scalar.main_hits == batch.main_hits
    assert scalar.victim_hits == batch.victim_hits


@pytest.mark.slow
@pytest.mark.parametrize("scheme", ["a2", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk"])
def test_deep_strided_sweep(scheme):
    """Every stride in a dense range agrees between the engines."""
    for stride in range(1, 257, 5):
        scalar, batch = build_pair(scheme)
        trace = list(strided_vector(stride, elements=64, sweeps=8))
        ref_hits = scalar_hit_sequence(scalar, trace)
        vec_hits = batch.run(batch_of(trace))
        assert np.array_equal(ref_hits, vec_hits), stride
        assert stats_snapshot(scalar.stats) == stats_snapshot(batch.stats), stride


# --------------------------------------------------------------------- #
# one-pass multi-configuration profiler: three-path equality
# --------------------------------------------------------------------- #

from repro.engine import MultiConfigLRUProfile, ProfileCounts  # noqa: E402

#: The (num_sets, ways) grid the profile-equality tests price out of one
#: pass per set count — fully-associative (one set) included.
PROFILE_GRID = [(num_sets, ways) for num_sets in (1, 16, 64, 128)
                for ways in (1, 2, 3, 4, 8)]


def counts_snapshot(stats):
    """The profile-comparable subset of a CacheStats."""
    return ProfileCounts.from_stats(stats)


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("write_policy", [
    WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
    WritePolicy.WRITE_BACK_ALLOCATE,
])
class TestProfileThreePathEquality:
    """Profile == batch kernel == scalar model, for every grid point.

    One :class:`MultiConfigLRUProfile` pass per set count must price every
    conventional-LRU configuration of the grid with exactly the counters
    the per-config batch kernels and the scalar models produce — under
    both write policies (the traces include stores, so this pins the
    priority-stack store handling as well as the uniform update).
    """

    def test_profile_matches_both_engines(self, trace_name, write_policy):
        trace = list(TRACES[trace_name]())
        batch = batch_of(trace)
        level_caps = {}
        for num_sets, ways in PROFILE_GRID:
            level_caps[num_sets] = max(level_caps.get(num_sets, 0), ways)
        profile = MultiConfigLRUProfile(batch, 32, level_caps,
                                        write_policy=write_policy)
        for num_sets, ways in PROFILE_GRID:
            expected = profile.miss_counts(num_sets, ways)

            kernel = BatchSetAssociativeCache(
                num_sets * ways * 32, 32, ways, write_policy=write_policy)
            kernel.run(batch)
            assert counts_snapshot(kernel.stats) == expected, (
                trace_name, write_policy, num_sets, ways)

            scalar = SetAssociativeCache(
                num_sets * ways * 32, 32, ways, write_policy=write_policy)
            for access in trace:
                scalar.access(access.address, is_write=access.is_write)
            assert counts_snapshot(scalar.stats) == expected, (
                trace_name, write_policy, num_sets, ways)
            # The study-facing ratios are the same IEEE doubles, not merely
            # close: identical integer counters divide identically.
            assert expected.miss_ratio == scalar.stats.miss_ratio
            assert expected.load_miss_ratio == scalar.stats.load_miss_ratio
