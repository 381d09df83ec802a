"""Golden regression fixtures: both engines must reproduce the seed numbers.

``tests/golden/`` holds small JSON snapshots of the Figure 1 stride sweep and
the Section 2.1 miss-ratio study, generated from the seed's scalar reference
models.  Any behavioural drift — in either the reference models or the batch
engine — fails these tests, pinning the paper-facing numbers across future
refactors.

Miss ratios are exact rationals evaluated in IEEE double precision by both
engines, so the comparison is equality, not approximation.
"""

import json
from pathlib import Path

import pytest

from repro.engine import ENGINES
from repro.experiments.figure1 import run_figure1
from repro.experiments.miss_ratio_study import run_miss_ratio_study
from repro.experiments.replacement_study import run_replacement_study
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3

GOLDEN_DIR = Path(__file__).parent / "golden"


def load_golden(name):
    with open(GOLDEN_DIR / name) as handle:
        return json.load(handle)


@pytest.mark.parametrize("engine", list(ENGINES))
def test_figure1_matches_golden(engine):
    golden = load_golden("figure1_miss_ratios.json")
    params = golden["params"]
    result = run_figure1(max_stride=params["max_stride"],
                         stride_step=params["stride_step"],
                         sweeps=params["sweeps"],
                         elements=params["elements"],
                         engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_miss_ratio_study_matches_golden(engine):
    golden = load_golden("miss_ratio_study.json")
    params = golden["params"]
    result = run_miss_ratio_study(programs=params["programs"],
                                  accesses=params["accesses"],
                                  seed=params["seed"],
                                  engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_fifo_figure1_matches_golden(engine):
    """FIFO stride sweep: pins the 2-way trace-order FIFO kernel
    (vectorized, conventional and skewed organisations) and the scalar FIFO
    policy (reference) to one committed snapshot."""
    golden = load_golden("figure1_fifo.json")
    params = golden["params"]
    result = run_figure1(max_stride=params["max_stride"],
                         stride_step=params["stride_step"],
                         sweeps=params["sweeps"],
                         elements=params["elements"],
                         replacement=params["replacement"],
                         engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_plru_miss_ratio_study_matches_golden(engine):
    """PLRU miss-ratio study: pins the PLRU kernels across every study
    organisation (the 2-way trace-order kernel on the 2-way caches, the
    set-decomposed kernel on the fully-associative one)."""
    golden = load_golden("miss_ratio_study_plru.json")
    params = golden["params"]
    result = run_miss_ratio_study(programs=params["programs"],
                                  accesses=params["accesses"],
                                  seed=params["seed"],
                                  replacement=params["replacement"],
                                  engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_skewed_plru_miss_ratio_matches_golden(engine):
    """Skewed-placement PLRU miss-ratio study: pins the 2-way trace-order
    PLRU kernel (via the skewed-XOR and skewed-I-Poly organisations) so a
    kernel regression fails without the scalar engine in the loop."""
    golden = load_golden("miss_ratio_study_plru_skewed.json")
    params = golden["params"]
    result = run_miss_ratio_study(programs=params["programs"],
                                  accesses=params["accesses"],
                                  seed=params["seed"],
                                  replacement=params["replacement"],
                                  engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_replacement_study_matches_golden(engine):
    """Replacement study (policy x organisation, victim cache included):
    pins every decomposed victim kernel and every skew-decomposed kernel to
    one committed snapshot."""
    golden = load_golden("replacement_study.json")
    params = golden["params"]
    result = run_replacement_study(programs=params["programs"],
                                   accesses=params["accesses"],
                                   seed=params["seed"],
                                   engine=engine)
    assert result.miss_ratios == golden["miss_ratios"]


def _table2_snapshot(result):
    """The goldens' view of a Table 2 run: IPC and miss ratio per cell."""
    return (
        {p: {c: result.ipc(p, c) for c in result.configurations}
         for p in result.programs},
        {p: {c: result.miss_ratio_percent(p, c) for c in result.configurations}
         for p in result.programs},
    )


@pytest.mark.parametrize("engine", list(ENGINES))
def test_table2_matches_golden(engine):
    """Table 2 IPCs and load miss ratios through the full OoO CPU path:
    both index engines must reproduce the committed snapshot exactly."""
    golden = load_golden("table2.json")
    params = golden["params"]
    result = run_table2(programs=params["programs"],
                        instructions=params["instructions"],
                        seed=params["seed"],
                        engine=engine)
    ipc, miss = _table2_snapshot(result)
    assert ipc == golden["ipc"]
    assert miss == golden["load_miss_ratio_percent"]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_table3_matches_golden(engine):
    """Table 3 view (high-conflict vs low-conflict groups) over the same
    committed per-cell numbers."""
    golden = load_golden("table3.json")
    params = golden["params"]
    table2 = run_table2(programs=params["programs"],
                        instructions=params["instructions"],
                        seed=params["seed"],
                        engine=engine)
    result = run_table3(table2_result=table2)
    assert result.bad_programs == golden["bad_programs"]
    assert result.good_programs == golden["good_programs"]
    ipc, miss = _table2_snapshot(table2)
    assert ipc == golden["ipc"]
    assert miss == golden["load_miss_ratio_percent"]


def test_goldens_are_committed():
    """The fixtures exist and cover the four Figure 1 schemes."""
    fig = load_golden("figure1_miss_ratios.json")
    assert sorted(fig["miss_ratios"]) == ["a2", "a2-Hp", "a2-Hp-Sk", "a2-Hx-Sk"]
    study = load_golden("miss_ratio_study.json")
    assert set(study["miss_ratios"]) == set(study["params"]["programs"])
    fifo = load_golden("figure1_fifo.json")
    assert fifo["params"]["replacement"] == "fifo"
    assert sorted(fifo["miss_ratios"]) == ["a2", "a2-Hp", "a2-Hp-Sk", "a2-Hx-Sk"]
    plru = load_golden("miss_ratio_study_plru.json")
    assert plru["params"]["replacement"] == "plru"
    assert set(plru["miss_ratios"]) == set(plru["params"]["programs"])
    skewed = load_golden("miss_ratio_study_plru_skewed.json")
    assert skewed["params"]["replacement"] == "plru"
    assert set(skewed["miss_ratios"]) == set(skewed["params"]["programs"])
    for row in skewed["miss_ratios"].values():
        assert "ipoly-skewed-2way" in row and "skewed-xor-2way" in row
    study = load_golden("replacement_study.json")
    assert set(study["miss_ratios"]) == {
        "conventional-2way", "skewed-ipoly-2way", "victim-direct+8"}
    for row in study["miss_ratios"].values():
        assert sorted(row) == ["fifo", "lru", "plru", "random"]
    table2 = load_golden("table2.json")
    assert set(table2["ipc"]) == set(table2["params"]["programs"])
    for row in table2["ipc"].values():
        assert sorted(row) == sorted(["16K-conv", "8K-conv", "8K-conv-pred",
                                      "8K-ipoly-noCP", "8K-ipoly-CP",
                                      "8K-ipoly-CP-pred"])
    table3 = load_golden("table3.json")
    assert set(table3["bad_programs"]) == {"tomcatv", "swim", "wave5"}
    assert set(table3["ipc"]) == set(table3["params"]["programs"])
    grid = load_golden("lru_grid_profile.json")
    expected_levels = {str(num_sets) for num_sets in grid["params"]["num_sets"]}
    assert set(grid["miss_ratios"]) == expected_levels
    assert set(grid["load_miss_ratios"]) == expected_levels


def _kernel_grid(batch, block_size, grid):
    """Each ``(num_sets, ways)`` cell of ``grid`` run on its own batch
    kernel — the per-config path the one-pass profile must agree with."""
    from repro.engine import BatchSetAssociativeCache, ProfileCounts

    results = {}
    for num_sets, ways in grid:
        cache = BatchSetAssociativeCache(num_sets * ways * block_size,
                                         block_size, ways)
        cache.run(batch)
        results[(num_sets, ways)] = ProfileCounts.from_stats(cache.stats)
    return results


@pytest.mark.parametrize("path", ["profile", "kernels"])
def test_lru_grid_profile_matches_golden(path):
    """Profiler-driven miss-ratio grid (capacities x ways): both the
    one-pass profile readout (``run_lru_grid``) and the per-config batch
    kernels must reproduce the committed snapshot exactly."""
    from repro.engine import AddressBatch, run_lru_grid
    from repro.trace.batching import cached_workload_arrays

    golden = load_golden("lru_grid_profile.json")
    params = golden["params"]
    batch = AddressBatch.from_arrays(*cached_workload_arrays(
        params["program"], length=params["accesses"], seed=params["seed"]))
    grid = [(num_sets, ways) for num_sets in params["num_sets"]
            for ways in params["ways"]]
    run = run_lru_grid if path == "profile" else _kernel_grid
    results = run(batch, params["block_size"], grid)
    miss_ratios = {
        str(num_sets): {str(ways): results[(num_sets, ways)].miss_ratio
                        for ways in params["ways"]}
        for num_sets in params["num_sets"]
    }
    load_miss_ratios = {
        str(num_sets): {str(ways): results[(num_sets, ways)].load_miss_ratio
                        for ways in params["ways"]}
        for num_sets in params["num_sets"]
    }
    assert miss_ratios == golden["miss_ratios"]
    assert load_miss_ratios == golden["load_miss_ratios"]


def test_sampled_grid_profile_matches_golden():
    """SHARDS-sampled miss-ratio grid: the sampled profile is a pure
    function of (trace, rate, seed), so each profile seed's estimates are
    pinned *exactly* — any drift in the spatial hash, the mini-cache
    scaling or the ratio readout fails here."""
    from repro.engine import AddressBatch, run_lru_grid
    from repro.trace.batching import cached_workload_arrays

    golden = load_golden("sampled_grid_profile.json")
    params = golden["params"]
    batch = AddressBatch.from_arrays(*cached_workload_arrays(
        params["program"], length=params["accesses"], seed=params["seed"]))
    grid = [(num_sets, ways) for num_sets in params["num_sets"]
            for ways in params["ways"]]
    for profile_seed in params["profile_seeds"]:
        results = run_lru_grid(batch, params["block_size"], grid,
                               profile="sampled",
                               sample_rate=params["sample_rate"],
                               profile_seed=profile_seed)
        miss_ratios = {
            str(num_sets): {str(ways): results[(num_sets, ways)].miss_ratio
                            for ways in params["ways"]}
            for num_sets in params["num_sets"]
        }
        assert miss_ratios == golden["miss_ratios"][str(profile_seed)]


@pytest.mark.parametrize("engine", list(ENGINES))
def test_holes_study_matches_golden(engine):
    """Section 3.3 hole study: pins the virtual-real Inclusion protocol —
    hole accounting included — on both engines to one committed snapshot.
    The 16 KB L2 row keeps back-invalidations dense (hole rate ~0.59), so
    the batch engine's epoch stop/rewind path is exercised, not idled."""
    from repro.experiments.holes_study import run_holes_study

    golden = load_golden("holes_study.json")
    params = golden["params"]
    result = run_holes_study(l2_sizes=params["l2_sizes"],
                             programs=params["programs"],
                             accesses=params["accesses"],
                             seed=params["seed"],
                             engine=engine)
    for size in params["l2_sizes"]:
        key = str(size)
        assert result.predicted_hole_probability[size] == (
            golden["predicted_hole_probability"][key])
        assert result.simulated_hole_rate[size] == (
            golden["simulated_hole_rate"][key])
        assert result.per_program_hole_rate[size] == (
            golden["per_program_hole_rate"][key])
        assert result.l2_misses[size] == golden["l2_misses"][key]
