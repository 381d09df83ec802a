"""The compiled OoO pipeline loop (``ooo_run``) against the Python loop.

The differential fuzz corpus (``test_cpu_fuzz.py``) and the Table 2/3
goldens compare the two loops on whole programs; these tests pin down the
dispatch rules (which runs, and why not), the state the C loop hands back,
and its input columns.
"""

import dataclasses

import numpy as np
import pytest
from conftest import compiled_kernels

from repro.cache.set_assoc import SetAssociativeCache
from repro.cpu import compiled
from repro.cpu.branch_predictor import BimodalBranchPredictor
from repro.cpu.dcache import DataCacheModel
from repro.cpu.fuzzer import _RESULT_FIELDS, build_fuzz_program, random_params
from repro.cpu.isa import Instruction, OpClass
from repro.cpu.processor import (OutOfOrderProcessor, ProcessorConfig,
                                 SimulationResult)
from repro.cpu.program import Program
from repro.cpu.workloads import build_program
from repro.engine import cext

VECTORIZED = ProcessorConfig(index_engine="vectorized",
                             index_scheme="a2-Hp-Sk",
                             xor_in_critical_path=True,
                             address_prediction=True)


@pytest.fixture
def c_tier(monkeypatch):
    """Force the C tier on in-process (skips without a compiler)."""
    lib = compiled_kernels()
    monkeypatch.setattr(cext, "kernels", lambda: lib)
    return lib


def _program(name="swim", length=3_000):
    return Program.from_list(name, list(build_program(name, length=length)
                                        .instructions()))


def _run(config, program, tier="auto", max_instructions=None, **dcache_kw):
    dcache = DataCacheModel(config.build_cache(), config.cache_timing(),
                            **dcache_kw)
    processor = OutOfOrderProcessor(config, cache_model=dcache)
    result = processor.run(program, max_instructions=max_instructions,
                           tier=tier)
    return processor, result


def _assert_same_run(python, c):
    (py_proc, py_result), (c_proc, c_result) = python, c
    assert py_proc.tier == "python: forced"
    assert c_proc.tier == "c"
    assert c_result == py_result
    assert list(c_result.op_counts) == list(py_result.op_counts)
    py_cache, c_cache = py_proc.dcache.cache, c_proc.dcache.cache
    assert c_cache.stats == py_cache.stats
    assert c_cache.resident_blocks() == py_cache.resident_blocks()
    for counter in ("load_accesses", "store_accesses", "merged_misses",
                    "mshr_stall_cycles"):
        assert getattr(c_proc.dcache, counter) == getattr(py_proc.dcache,
                                                          counter)
    assert (c_proc.branch_predictor.misprediction_ratio
            == py_proc.branch_predictor.misprediction_ratio)
    if py_proc.address_predictor is not None:
        for ratio in ("coverage", "accuracy"):
            assert (getattr(c_proc.address_predictor, ratio)
                    == getattr(py_proc.address_predictor, ratio))
    assert (c_proc.store_buffer.forwards, c_proc.store_buffer.stores_observed) \
        == (py_proc.store_buffer.forwards, py_proc.store_buffer.stores_observed)


@pytest.mark.parametrize("overrides", [
    dict(index_scheme="a2"),
    dict(index_scheme="a2", cache_size_bytes=16 * 1024,
         address_prediction=True),
    dict(index_scheme="a2-Hp-Sk", xor_in_critical_path=True,
         address_prediction=True),
    # Narrow machine: one port, two MSHRs, a slow bus, tiny windows.
    dict(index_scheme="a2-Hp-Sk", cache_ports=1, mshr_entries=2,
         bus_cycles_per_line=9, rob_entries=4, fetch_width=1,
         commit_width=2, int_physical_registers=33,
         fp_physical_registers=33, decode_latency=0,
         misprediction_redirect_penalty=3, xor_penalty=2,
         xor_in_critical_path=True, address_prediction=True,
         branch_predictor_entries=16, address_predictor_entries=8),
])
def test_c_loop_matches_python_loop(c_tier, overrides):
    config = ProcessorConfig(index_engine="vectorized", **overrides)
    program = _program("tomcatv")
    _assert_same_run(_run(config, program, tier="python",
                          record_stream=True),
                     _run(config, program, record_stream=True))


def test_recorded_stream_matches(c_tier):
    program = _program("gcc")
    (py_proc, _), (c_proc, _) = (
        _run(VECTORIZED, program, tier=tier, record_stream=True)
        for tier in ("python", "auto"))
    assert c_proc.tier == "c"
    addresses, is_store = c_proc.dcache.recorded_stream()
    assert (addresses, is_store) == py_proc.dcache.recorded_stream()
    assert all(type(flag) is bool for flag in is_store)
    assert len(addresses) == c_proc.dcache.cache.stats.accesses


@pytest.mark.parametrize("limit", [0, 1, 17, 2_999, 5_000])
def test_max_instructions(c_tier, limit):
    program, params = build_fuzz_program(11, random_params(11, length=3_000))
    _assert_same_run(_run(VECTORIZED, program, "python", limit),
                     _run(VECTORIZED, program, "auto", limit))


def test_a_second_run_after_c_raises(c_tier):
    processor = OutOfOrderProcessor(VECTORIZED)
    processor.run(_program(length=1_000))
    assert processor.tier == "c"
    with pytest.raises(RuntimeError) as error:
        processor.run(_program(length=1_000))
    assert "\n" not in str(error.value)
    assert "fresh OutOfOrderProcessor" in str(error.value)


def test_the_cache_continues_exactly_after_a_c_run(c_tier):
    """The C loop writes frames, LRU stamps and the clock back."""
    program = _program("swim")
    (py_proc, _), (c_proc, _) = (_run(VECTORIZED, program, tier=tier)
                                 for tier in ("python", "auto"))
    assert c_proc.tier == "c"
    rng = np.random.default_rng(3)
    for address in (rng.integers(0, 1 << 16, size=4_000) * 8).tolist():
        write = address % 3 == 0
        expected = py_proc.dcache.cache.access(address, is_write=write)
        assert c_proc.dcache.cache.access(address, is_write=write) == expected
    assert c_proc.dcache.cache.stats == py_proc.dcache.cache.stats


def test_branch_counters_start_from_the_predictor(c_tier):
    """The C loop seeds its counters from ``initial_counter``."""
    program = _program("gcc")
    runs = []
    for tier in ("python", "auto"):
        processor = OutOfOrderProcessor(VECTORIZED)
        processor.branch_predictor = BimodalBranchPredictor(
            VECTORIZED.branch_predictor_entries, initial_counter=3)
        runs.append((processor, processor.run(program, tier=tier)))
    _assert_same_run(*runs)
    default = OutOfOrderProcessor(VECTORIZED).run(program)
    assert runs[1][1].branch_misprediction_ratio \
        != default.branch_misprediction_ratio


class TestWhichLoopRuns:
    def test_vectorized_runs_c(self, c_tier):
        processor = OutOfOrderProcessor(VECTORIZED)
        assert processor.tier is None
        processor.run(_program(length=1_000))
        assert processor.tier == "c"

    def test_reference_engine_runs_python(self, c_tier):
        processor = OutOfOrderProcessor(
            dataclasses.replace(VECTORIZED, index_engine="reference"))
        processor.run(_program(length=1_000))
        assert processor.tier == "python: reference index engine"

    def test_forced_python(self, c_tier):
        processor = OutOfOrderProcessor(VECTORIZED)
        processor.run(_program(length=1_000), tier="python")
        assert processor.tier == "python: forced"
        # The Python loop keeps its state, so a second run continues.
        processor.run(_program(length=1_000))
        assert processor.tier == "python: the processor already ran"

    def test_c_tier_off(self, monkeypatch):
        monkeypatch.setenv(cext.ENV_VAR, "0")
        processor = OutOfOrderProcessor(VECTORIZED)
        processor.run(_program(length=1_000))
        assert processor.tier == f"python: {cext.ENV_VAR}=0"

    @pytest.mark.parametrize("cache_kw", [
        dict(ways=4),
        dict(ways=2, replacement="fifo"),
        dict(ways=2, write_policy="write-back-allocate"),
        dict(ways=2, classify_misses=True),
    ])
    def test_other_dcaches_run_python(self, c_tier, cache_kw):
        cache = SetAssociativeCache(size_bytes=8 * 1024, block_size=32,
                                    **cache_kw)
        processor = OutOfOrderProcessor(
            VECTORIZED, cache_model=DataCacheModel(cache,
                                                   VECTORIZED.cache_timing()))
        processor.run(_program(length=1_000))
        assert processor.tier == ("python: the dcache is not a "
                                  "classifier-free 2-way LRU write-through "
                                  "cache")

    def test_a_used_dcache_runs_python(self, c_tier):
        processor = OutOfOrderProcessor(VECTORIZED)
        processor.dcache.store(64, 0)
        processor.run(_program(length=1_000))
        assert processor.tier == "python: the dcache was already used"

    @pytest.mark.parametrize("address", [1 << 62, 1 << 64])
    def test_huge_addresses_run_python(self, c_tier, address):
        program = Program.from_list("huge", [
            Instruction(pc=4, op=OpClass.LOAD, dest=5, srcs=(1,),
                        address=address),
            Instruction(pc=8, op=OpClass.INT_ALU, dest=6, srcs=(5, 2)),
        ])
        processor = OutOfOrderProcessor(VECTORIZED)
        result = processor.run(program)
        assert processor.tier == "python: an address or pc is out of range"
        assert result.loads == 1

    @pytest.mark.parametrize("field,value", [
        ("dest", 64), ("dest", -1), ("srcs", (1, 70)), ("srcs", (-2,)),
        ("op", "vector"), ("pc", -4)])
    def test_out_of_range_fields_run_python(self, c_tier, field, value):
        """Instructions are mutable: the C loop never indexes its tables
        with a value their constructor would have refused."""
        stream = list(build_program("gcc", length=200).instructions())
        stream = [inst for inst in stream if inst.op == OpClass.INT_ALU]
        setattr(stream[3], field, value)
        processor = OutOfOrderProcessor(VECTORIZED)
        try:
            processor.run(Program.from_list("mutated", stream))
        except ValueError:
            pass  # the Python loop's own verdict on the value
        assert processor.tier.startswith("python: ")

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            OutOfOrderProcessor(VECTORIZED).run(_program(length=1_000),
                                                tier="gpu")


class TestInstructionColumns:
    def test_memoised_once_per_program(self):
        program = _program(length=1_000)
        columns = compiled.instruction_columns(program)
        assert compiled.instruction_columns(program) is columns
        assert len(columns) == 1_000
        assert compiled.instruction_columns(program, 10) is not columns

    def test_numbers_each_instruction(self):
        stream = list(build_program("gcc", length=500).instructions())
        compiled.instruction_columns(Program.from_list("gcc", stream))
        assert [inst.seq for inst in stream] == list(range(500))

    def test_columns_hold_the_stream(self):
        stream = list(build_program("swim", length=2_000).instructions())
        columns = compiled.instruction_columns(Program.from_list("s", stream))
        for i, inst in enumerate(stream):
            assert OpClass.ALL[columns.op[i]] == inst.op
            assert columns.dest[i] == (-1 if inst.dest is None else inst.dest)
            srcs = [s for s in columns.srcs[i].tolist() if s >= 0]
            assert tuple(srcs) == inst.srcs
            assert columns.pc[i] == inst.pc
            assert columns.address[i] == (inst.address
                                          if inst.op in OpClass.MEMORY else 0)
            assert bool(columns.taken[i]) == bool(inst.taken)

    @pytest.mark.parametrize("seed", range(6))
    def test_previous_stores_match_a_store_buffer_walk(self, seed):
        params = dataclasses.replace(random_params(seed, length=2_000),
                                     footprint_bytes=256)
        program, _ = build_fuzz_program(seed, params)
        stream = list(program.instructions())
        columns = compiled.instruction_columns(program)
        latest = {}
        for i, inst in enumerate(stream):
            if inst.op == OpClass.LOAD:
                assert columns.prev_store[i] == latest.get(inst.address, -1)
            elif inst.op == OpClass.STORE:
                latest[inst.address] = i
        assert any(columns.prev_store[i] >= 0 for i, inst in enumerate(stream)
                   if inst.op == OpClass.LOAD)


def test_result_fields_cover_the_simulation_result():
    """The fuzz harness compares every field of a result but its labels."""
    fields = {field.name for field in dataclasses.fields(SimulationResult)}
    assert fields - {"program", "config"} == set(_RESULT_FIELDS)
