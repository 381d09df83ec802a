"""The compiled kernel tier: gating, build failures, and differential
coverage of the C loops against the Python kernels and the scalar models.

The C tier (:mod:`repro.engine.cext`) serves every classifier-free 2-way
:class:`BatchSetAssociativeCache` and every :class:`BatchVictimCache` with a
direct-mapped main cache.  It must be invisible except for speed: the
Hypothesis property below hands warm caches between the tiers mid-stream
(C -> Python -> C ...) over random chunk splits and compares everything a
cache carries against an all-Python twin and the scalar model.
"""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compiled_kernels
from repro.cache.replacement import REPLACEMENT_POLICIES, RandomReplacement
from repro.cache.set_assoc import SetAssociativeCache, WritePolicy
from repro.cache.victim import VictimCache
from repro.core.index import make_index_function
from repro.engine import (
    AddressBatch,
    BatchSetAssociativeCache,
    BatchVictimCache,
    CExtError,
    cext,
    kernel_tier,
)
from repro.experiments import cli

ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------- #
# the REPRO_CEXT gate
# --------------------------------------------------------------------- #

def test_kernel_tier_is_gated_not_assumed():
    # CI pins the expected tier per matrix leg so both sides of the gate
    # are known to run somewhere: REPRO_CEXT=1 on a leg that must build
    # the C tier, =0 on a leg that must run the Python kernels.  Unset (the
    # local default) accepts whichever tier the environment offers.
    required = os.environ.get("REPRO_CEXT", "").strip()
    tier = kernel_tier()
    if required == "1":
        assert tier == "c", f"REPRO_CEXT=1 but the kernel tier is {tier!r}"
        assert cext.kernels() is not None
    elif required == "0":
        assert tier == "python: REPRO_CEXT=0"
        assert cext.kernels() is None
    else:
        assert tier == "c" or tier.startswith("python: ")


def test_bad_value_is_refused(monkeypatch):
    monkeypatch.setenv("REPRO_CEXT", "yes")
    with pytest.raises(CExtError, match="must be 0, 1 or unset, got 'yes'"):
        kernel_tier()


@pytest.fixture
def broken_source(tmp_path, monkeypatch):
    """A loader whose C source does not compile, with a fresh cache."""
    source = tmp_path / "_kernels.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(cext, "_SOURCE", str(source))
    monkeypatch.setattr(cext, "_lib", None)
    monkeypatch.setattr(cext, "_reason", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return source


def test_required_tier_failure_is_one_cli_line(broken_source, monkeypatch,
                                               capsys):
    monkeypatch.setenv("REPRO_CEXT", "1")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["replacement-study", "--accesses", "1000",
                  "--programs", "gcc"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    last = captured.err.strip().splitlines()[-1]
    assert last.startswith("repro-experiments: error: REPRO_CEXT=1 but the "
                           "C kernel tier is unavailable: ")
    assert re.search(r"'cc' failed|no C compiler", last)


def test_bad_value_is_one_cli_line(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CEXT", "on")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["critical-path"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].endswith(
        "REPRO_CEXT must be 0, 1 or unset, got 'on'")


def test_unset_falls_back_to_python_kernels(broken_source, monkeypatch):
    monkeypatch.delenv("REPRO_CEXT", raising=False)
    assert re.match(r"python: ('cc' failed|no C compiler)", kernel_tier())
    assert cext.kernels() is None
    scalar, (batch, _) = set_assoc_trio("a2-Hp-Sk", "fifo",
                                        WritePolicy.WRITE_BACK_ALLOCATE)
    trace = [(block * 32, block % 3 == 0) for block in range(0, 3000, 7)]
    hits = batch.run(batch_of(trace))
    assert hits.tolist() == [scalar.access(a, w).hit for a, w in trace]


def test_build_is_atomic_and_named_by_source_hash(tmp_path, monkeypatch):
    compiled_kernels()          # skip without a compiler
    monkeypatch.setattr(cext, "_lib", None)
    monkeypatch.setattr(cext, "_reason", None)
    monkeypatch.delenv("REPRO_CEXT", raising=False)
    # An unusable XDG cache (a file, not a directory) falls back to the
    # temporary directory.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert kernel_tier() == "c"
    built = [p.name for p in (tmp_path / "tmp").rglob("*") if p.is_file()]
    assert len(built) == 1 and re.fullmatch(r"_kernels-[0-9a-f]{16}\.so",
                                            built[0])


def test_malformed_state_table_is_refused_before_the_c_call(c_lib):
    """The C loops index the state tables directly, so a table of the
    wrong shape must raise in Python instead of being written past."""
    _, (cache, _) = set_assoc_trio("a2-Hp-Sk", "fifo",
                                   WritePolicy.WRITE_BACK_ALLOCATE)
    cache._vec_policy.stamps = np.zeros((2, 3), dtype=np.int64)
    with mock.patch.object(cext, "kernels", lambda: c_lib):
        with pytest.raises(ValueError, match="shape \\(2, 16\\)"):
            cache.run(batch_of([(0, False), (32, True)]))


def test_shared_cache_directory_is_not_trusted(tmp_path, monkeypatch):
    """A cache directory other users can write to is skipped: a library
    planted there would be loaded into the process."""
    compiled_kernels()          # skip without a compiler
    monkeypatch.setattr(cext, "_lib", None)
    monkeypatch.setattr(cext, "_reason", None)
    monkeypatch.delenv("REPRO_CEXT", raising=False)
    shared = tmp_path / "xdg" / "repro-cext"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert kernel_tier() == "c"
    assert not list(shared.iterdir())
    assert len(list((tmp_path / "tmp").rglob("*.so"))) == 1


def test_importing_the_cli_does_not_build():
    code = ("import repro.experiments.cli\n"
            "from repro.engine import cext\n"
            "assert cext._lib is None and cext._reason is None\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# --------------------------------------------------------------------- #
# differential property: C tier vs Python kernels vs scalar models
# --------------------------------------------------------------------- #

def batch_of(trace):
    addresses = np.array([a for a, _ in trace], dtype=np.uint64)
    writes = np.array([w for _, w in trace], dtype=bool)
    return AddressBatch.from_arrays(addresses, writes)


def make_policy(policy, seed):
    return RandomReplacement(seed=seed) if seed is not None else policy


def set_assoc_trio(scheme, policy, write_policy, size=1024, seed=None):
    """A scalar 2-way cache and two identically configured batch twins."""
    num_sets = size // (32 * 2)

    def index():
        return make_index_function(scheme, num_sets, ways=2, address_bits=19)

    scalar = SetAssociativeCache(size, 32, 2, index_function=index(),
                                 replacement=make_policy(policy, seed),
                                 write_policy=write_policy)
    return scalar, [
        BatchSetAssociativeCache(size, 32, 2, index_function=index(),
                                 replacement=make_policy(policy, seed),
                                 write_policy=write_policy)
        for _ in range(2)]


def victim_trio(scheme, policy, size=512, entries=4, seed=None):
    """A scalar 1-way-main victim cache and two batch twins."""
    def index():
        return make_index_function(scheme, size // 32, ways=1,
                                   address_bits=19)

    scalar = VictimCache(size, 32, ways=1, victim_entries=entries,
                         index_function=index(),
                         replacement=make_policy(policy, seed))
    return scalar, [
        BatchVictimCache(size, 32, ways=1, victim_entries=entries,
                         index_function=index(),
                         replacement=make_policy(policy, seed))
        for _ in range(2)]


def policy_tables(tables):
    """Every durable table of a VecReplacementState, comparable."""
    return (type(tables).__name__,
            getattr(tables, "stamps", np.zeros(0)).tolist(),
            getattr(tables, "bits", np.zeros(0)).tolist(),
            getattr(tables, "counter", None))


def set_assoc_state(cache):
    tables = policy_tables(cache._vec_policy) if cache._vec_policy else None
    return (cache._clock, cache._way_tags if cache._use_flat else None,
            cache._way_dirty if cache._use_flat else None,
            cache._way_used if cache._use_flat else None,
            [list(d.items()) for d in cache._sets], tables)


def victim_state(cache):
    return (cache._way_tags, cache._way_dirty, cache._victim_tags,
            cache._victim_dirty, cache._main_clock, cache._victim_clock,
            cache.main_hits, cache.victim_hits,
            policy_tables(cache._main_policy),
            policy_tables(cache._victim_policy))


def stats_of(cache):
    s = cache.stats
    return (s.loads, s.stores, s.load_misses, s.store_misses, s.evictions,
            s.writebacks)


@pytest.fixture(scope="module")
def c_lib():
    return compiled_kernels()


@st.composite
def tier_scenarios(draw):
    organisation = draw(st.sampled_from(
        ["a2", "a2-Hp", "a2-Hp-Sk", "victim-a2", "victim-a2-Hp-Sk"]))
    policy = draw(st.sampled_from(REPLACEMENT_POLICIES))
    seed = (draw(st.one_of(st.none(), st.integers(0, (1 << 64) - 1)))
            if policy == "random" else None)
    write_policy = draw(st.sampled_from(sorted(WritePolicy.ALL)))
    length = draw(st.integers(1, 400))
    span = draw(st.sampled_from([64, 256, 1024]))
    blocks = draw(st.lists(st.integers(0, span - 1), min_size=length,
                           max_size=length))
    writes = draw(st.lists(st.booleans(), min_size=length, max_size=length))
    cuts = sorted(set(draw(st.lists(st.integers(1, length), max_size=5))))
    tiers = draw(st.lists(st.sampled_from(["c", "python"]),
                          min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    trace = [(b * 32, w) for b, w in zip(blocks, writes)]
    return organisation, policy, seed, write_policy, trace, cuts, tiers


@settings(max_examples=150, deadline=None)
@given(scenario=tier_scenarios())
def test_tiers_are_interchangeable_mid_stream(c_lib, scenario):
    organisation, policy, seed, write_policy, trace, cuts, tiers = scenario
    victim = organisation.startswith("victim-")
    if victim:
        scalar, (mixed, python) = victim_trio(
            organisation[len("victim-"):], policy, seed=seed)
        state_of = victim_state
    else:
        scalar, (mixed, python) = set_assoc_trio(organisation, policy,
                                                 write_policy, seed=seed)
        state_of = set_assoc_state
    bounds = [0, *cuts, len(trace)]
    ref_hits = [scalar.access(a, w).hit for a, w in trace]
    mixed_hits, python_hits = [], []
    for tier, start, stop in zip(tiers, bounds, bounds[1:]):
        batch = batch_of(trace[start:stop])
        if not len(batch):
            continue
        with mock.patch.object(cext, "kernels",
                               lambda: c_lib if tier == "c" else None):
            mixed_hits += mixed.run(batch).tolist()
        with mock.patch.object(cext, "kernels", lambda: None):
            python_hits += python.run(batch).tolist()
        assert state_of(mixed) == state_of(python)

    assert mixed_hits == python_hits == ref_hits
    assert stats_of(mixed) == stats_of(python) == stats_of(scalar)
    if victim:
        assert (mixed.main_hits, mixed.victim_hits) == (
            scalar.main_hits, scalar.victim_hits)
        assert_tables_match_scalar(scalar._main, mixed._main_policy)
        assert_tables_match_scalar(scalar._victim, mixed._victim_policy)
    elif mixed._vec_policy is not None:
        assert_tables_match_scalar(scalar, mixed._vec_policy)
    elif mixed._use_flat:
        # Skewed LRU keeps its stamps in the cache.
        assert mixed._way_used == scalar._replacement._stamp
    else:
        # Conventional LRU keeps each set's residents in stamp order.
        for s, residents in enumerate(mixed._sets):
            frames = [(scalar._replacement._stamp[way][s], frame.block_number)
                      for way, frame in enumerate(
                          row[s] for row in scalar._frames) if frame.valid]
            assert list(residents) == [block for _, block in sorted(frames)]


def assert_tables_match_scalar(scalar_cache, tables):
    """Stamps, PLRU bits and the draw counter equal the scalar policy's."""
    reference = scalar_cache._replacement
    if hasattr(reference, "_stamp"):
        assert tables.stamps.tolist() == reference._stamp
    if hasattr(reference, "_bits"):
        assert tables.bits.tolist() == [list(map(bool, row))
                                        for row in reference._bits]
    if hasattr(reference, "_counter"):
        assert tables.counter == reference._counter
