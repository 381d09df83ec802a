"""Tests for the experiment command-line interface."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("figure1", "table2", "table3", "miss-ratio", "holes",
                        "column-assoc", "critical-path", "replacement-study"):
            args = parser.parse_args([command] if command in
                                     ("critical-path",) else [command])
            assert args.experiment == command

    def test_figure1_options(self):
        args = build_parser().parse_args(
            ["figure1", "--max-stride", "128", "--stride-step", "2",
             "--chunksize", "16", "--replacement", "plru"])
        assert args.max_stride == 128
        assert args.stride_step == 2
        assert args.chunksize == 16
        assert args.replacement == "plru"

    def test_replacement_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["miss-ratio", "--replacement", "mru"])

    @pytest.mark.parametrize("command", ["figure1", "miss-ratio",
                                         "replacement-study"])
    def test_sweep_options_parity(self, command):
        """--workers/--chunksize/--profile exist on every sweeping command."""
        args = build_parser().parse_args(
            [command, "--workers", "3", "--chunksize", "2",
             "--profile", "always"])
        assert args.workers == 3
        assert args.chunksize == 2
        assert args.profile == "always"

    def test_profile_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["miss-ratio", "--profile", "sometimes"])

    @pytest.mark.parametrize("command", ["figure1", "miss-ratio",
                                         "replacement-study", "table2",
                                         "table3"])
    def test_fault_tolerance_options_parity(self, command):
        """--timeout/--retries/--on-error/--resume exist on every sweeping
        command and default to off."""
        parser = build_parser()
        defaults = parser.parse_args([command])
        assert defaults.timeout is None
        assert defaults.retries == 0
        assert defaults.on_error == "raise"
        assert defaults.resume is None
        args = parser.parse_args(
            [command, "--timeout", "2.5", "--retries", "3",
             "--on-error", "collect", "--resume", "sweep.jsonl"])
        assert args.timeout == 2.5
        assert args.retries == 3
        assert args.on_error == "collect"
        assert args.resume == "sweep.jsonl"

    @pytest.mark.parametrize("argv", [
        ["figure1", "--workers", "-1"],
        ["miss-ratio", "--workers", "-3"],
        ["figure1", "--chunksize", "0"],
        ["table2", "--chunksize", "-2"],
        ["miss-ratio", "--workers", "two"],
        ["figure1", "--retries", "-1"],
        ["figure1", "--timeout", "0"],
        ["figure1", "--timeout", "-0.5"],
        ["table3", "--on-error", "explode"],
    ])
    def test_bad_sweep_values_rejected_at_parse_time(self, argv, capsys):
        """Invalid sweep/fault values die in argparse (clear usage error),
        never deep inside a driver."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert argv[1] in capsys.readouterr().err  # error names the flag

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["figure1", "miss-ratio",
                                         "replacement-study"])
    def test_trace_options_parity(self, command, tmp_path):
        """--trace/--trace-chunk exist on every trace-replaying command
        and default to the synthetic suite."""
        recorded = tmp_path / "recorded.ctr"
        recorded.write_bytes(b"")
        parser = build_parser()
        defaults = parser.parse_args([command])
        assert defaults.trace is None
        assert defaults.trace_chunk == 1 << 20
        args = parser.parse_args(
            [command, "--trace", str(recorded), "--trace-chunk", "4096"])
        assert args.trace == str(recorded)
        assert args.trace_chunk == 4096

    @pytest.mark.parametrize("argv", [
        ["miss-ratio", "--trace-chunk", "0"],
        ["figure1", "--trace-chunk", "-5"],
        ["replacement-study", "--trace-chunk", "many"],
    ])
    def test_bad_trace_chunk_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "--trace-chunk" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["figure1", "miss-ratio",
                                         "replacement-study"])
    def test_sampling_options_parity(self, command):
        """--sample-rate/--sample-size/--profile-seed exist on every
        profiling command and default to the documented knob values."""
        parser = build_parser()
        defaults = parser.parse_args([command])
        assert defaults.sample_rate == 0.01
        assert defaults.sample_size is None
        assert defaults.profile_seed == 0
        args = parser.parse_args(
            [command, "--engine", "vectorized", "--profile", "sampled",
             "--sample-rate", "0.05", "--sample-size", "4096",
             "--profile-seed", "7"])
        assert args.profile == "sampled"
        assert args.sample_rate == 0.05
        assert args.sample_size == 4096
        assert args.profile_seed == 7
        args = parser.parse_args(
            [command, "--engine", "vectorized", "--profile", "sampled",
             "--profile-seed", "3"])
        assert (args.sample_rate, args.sample_size, args.profile_seed) == (
            0.01, None, 3)

    @pytest.mark.parametrize("argv", [
        ["figure1", "--sample-rate", "0"],
        ["miss-ratio", "--sample-rate", "-0.1"],
        ["replacement-study", "--sample-rate", "1.5"],
        ["figure1", "--sample-rate", "lots"],
        ["miss-ratio", "--sample-size", "0"],
        ["replacement-study", "--sample-size", "-8"],
        ["figure1", "--profile-seed", "-1"],
        ["miss-ratio", "--profile-seed", "x"],
        # The reference engine has no sampled path.
        ["figure1", "--engine", "reference", "--profile", "sampled"],
        ["miss-ratio", "--profile", "sampled"],
        ["replacement-study", "--engine", "reference", "--profile",
         "sampled"],
        # Sampling knobs without --profile sampled would be ignored.
        ["figure1", "--sample-rate", "0.5"],
        ["miss-ratio", "--sample-size", "64", "--engine", "vectorized"],
        ["replacement-study", "--profile-seed", "3", "--profile", "always"],
        ["figure1", "--sample-rate", "0.5", "--engine", "vectorized",
         "--profile", "never"],
    ])
    def test_bad_sampling_values_rejected_at_parse_time(self, argv, capsys):
        """Invalid or ignored sampling knobs die in argparse (clear usage
        error), never deep inside a driver or the plan constructor, and
        never silently."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert argv[1] in capsys.readouterr().err  # error names the flag

    @pytest.mark.parametrize("argv", [
        ["holes", "--accesses", "0"],
        ["holes", "--accesses", "-40"],
        ["column-assoc", "--accesses", "0"],
        ["miss-ratio", "--accesses", "999"],
        ["miss-ratio", "--accesses", "lots"],
        ["replacement-study", "--accesses", "10"],
        ["miss-ratio", "--programs", "nosuch"],
        ["replacement-study", "--programs", "gcc", "doom"],
        ["table2", "--programs", "quake"],
        ["figure1", "--max-stride", "0"],
        ["figure1", "--stride-step", "0"],
        ["figure1", "--sweeps", "0"],
        ["table2", "--instructions", "0"],
        ["table2", "--instructions", "999"],
        ["table3", "--instructions", "-5"],
        ["holes", "--l2-kilobytes", "0"],
        ["holes", "--l2-kilobytes", "256", "100"],
        ["holes", "--l2-kilobytes", "4"],
        ["holes", "--l2-kilobytes"],
        ["figure1", "--trace", "/nonexistent/trace.ctr"],
        ["miss-ratio", "--trace", "/nonexistent/trace.ctr"],
        ["replacement-study", "--trace", "."],
    ])
    def test_bad_synthesis_inputs_rejected_at_parse_time(self, argv, capsys):
        """Trace-synthesis and driver inputs die in argparse, not in a
        driver or a sweep worker."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert argv[1] in capsys.readouterr().err  # error names the flag

    @pytest.mark.parametrize("command", ["miss-ratio", "replacement-study",
                                         "table2"])
    def test_programs_accept_every_workload(self, command):
        from repro.trace.workloads import workload_names
        args = build_parser().parse_args(
            [command, "--programs", *workload_names()])
        assert args.programs == workload_names()

    def test_holes_options(self):
        args = build_parser().parse_args(
            ["holes", "--accesses", "5000", "--l2-kilobytes", "64", "256",
             "--engine", "vectorized", "--seed", "7"])
        assert args.accesses == 5000
        assert args.l2_kilobytes == [64, 256]
        assert args.engine == "vectorized"
        assert args.seed == 7

    def test_holes_engine_is_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["holes", "--engine", "turbo"])


class TestExecution:
    def test_critical_path_runs(self, capsys):
        assert main(["critical-path"]) == 0
        out = capsys.readouterr().out
        assert "XOR-tree" in out and "CLA timing" in out

    def test_figure1_runs_small(self, capsys):
        assert main(["figure1", "--max-stride", "64", "--stride-step", "4",
                     "--sweeps", "4"]) == 0
        assert "pathological" in capsys.readouterr().out

    def test_miss_ratio_csv_output(self, capsys):
        assert main(["miss-ratio", "--accesses", "4000",
                     "--programs", "gcc", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("program,")
        assert "gcc" in out

    def test_table2_single_program(self, capsys):
        assert main(["table2", "--instructions", "2000",
                     "--programs", "swim"]) == 0
        out = capsys.readouterr().out
        assert "swim" in out and "std-dev" in out

    def test_column_assoc_runs(self, capsys):
        assert main(["column-assoc", "--accesses", "4000"]) == 0
        assert "first-probe" in capsys.readouterr().out

    @pytest.fixture()
    def recorded_trace(self, tmp_path):
        import numpy as np

        from repro.trace.stream import write_trace_v2

        rng = np.random.default_rng(5)
        path = tmp_path / "recorded.ctr"
        write_trace_v2(
            path,
            rng.integers(0, 1 << 9, size=800, dtype=np.uint64) * np.uint64(32),
            is_write=rng.random(800) < 0.3)
        return path

    def test_miss_ratio_streams_a_recorded_trace(self, recorded_trace,
                                                 capsys):
        assert main(["miss-ratio", "--trace", str(recorded_trace),
                     "--engine", "vectorized", "--trace-chunk", "97"]) == 0
        out = capsys.readouterr().out
        assert "recorded.ctr" in out
        assert "conventional-2way" in out

    def test_replacement_study_streams_a_recorded_trace(self, recorded_trace,
                                                        capsys):
        assert main(["replacement-study", "--trace",
                     str(recorded_trace)]) == 0
        out = capsys.readouterr().out
        assert "replacement sensitivity" in out

    def test_figure1_streams_a_recorded_trace(self, recorded_trace, capsys):
        assert main(["figure1", "--trace", str(recorded_trace),
                     "--engine", "vectorized"]) == 0
        assert "a2-Hp-Sk" in capsys.readouterr().out

    def test_miss_ratio_with_replacement(self, capsys):
        assert main(["miss-ratio", "--accesses", "4000", "--programs", "gcc",
                     "--engine", "vectorized", "--replacement", "fifo"]) == 0
        assert "victim-direct+8" in capsys.readouterr().out

    def test_replacement_study_runs(self, capsys):
        assert main(["replacement-study", "--accesses", "3000",
                     "--programs", "gcc", "--engine", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "replacement sensitivity" in out
        assert "skewed-ipoly-2way" in out

    def test_replacement_study_csv(self, capsys):
        assert main(["replacement-study", "--accesses", "3000",
                     "--programs", "gcc", "--engine", "vectorized",
                     "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("organisation,")

    def test_miss_ratio_with_workers_and_profile(self, capsys):
        assert main(["miss-ratio", "--accesses", "4000", "--programs", "gcc",
                     "--engine", "vectorized", "--workers", "2",
                     "--chunksize", "1", "--profile", "always"]) == 0
        out = capsys.readouterr().out
        assert "conventional-2way" in out

    def test_replacement_study_with_workers(self, capsys):
        assert main(["replacement-study", "--accesses", "3000",
                     "--programs", "gcc", "--engine", "vectorized",
                     "--workers", "2", "--profile", "always"]) == 0
        assert "replacement sensitivity" in capsys.readouterr().out


    def test_holes_runs_on_both_engines(self, capsys):
        outputs = []
        for engine in ("reference", "vectorized"):
            assert main(["holes", "--accesses", "3000",
                         "--l2-kilobytes", "64", "--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        assert "Holes per L2 miss" in outputs[0]
        # Same numbers from both engines: the table is byte-identical.
        assert outputs[0] == outputs[1]


    @pytest.mark.parametrize("argv", [
        ["holes", "--accesses", "0"],
        ["miss-ratio", "--programs", "nosuch"],
        ["figure1", "--max-stride", "0"],
        ["table2", "--instructions", "0"],
        ["table3", "--instructions", "-5"],
        ["holes", "--l2-kilobytes", "0"],
        ["figure1", "--trace", "/nonexistent"],
        ["miss-ratio", "--trace", "/nonexistent"],
        ["replacement-study", "--trace", "/nonexistent"],
        ["figure1", "--engine", "reference", "--profile", "sampled"],
        ["miss-ratio", "--sample-rate", "0.5"],
        ["replacement-study", "--sample-size", "64"],
        ["figure1", "--profile-seed", "1"],
    ])
    def test_bad_input_exits_2_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and argv[1] in errors[0]


#: Small driver runs whose output must be byte-identical under both
#: engines: every kernel the vectorized engine dispatches to, end to end.
CROSS_ENGINE_RUNS = [
    ["figure1", "--max-stride", "64"],
    *[["miss-ratio", "--accesses", "2000", "--programs", "gcc", "swim",
       "--replacement", policy] for policy in ("lru", "fifo", "random",
                                               "plru")],
    ["replacement-study", "--accesses", "2000", "--programs", "gcc", "swim"],
    ["table2", "--instructions", "1000", "--programs", "gcc"],
    ["table3", "--instructions", "1000"],
]


@pytest.mark.parametrize("argv", CROSS_ENGINE_RUNS, ids=" ".join)
def test_every_driver_prints_the_same_bytes_under_both_engines(argv, capsys):
    """The end-to-end guard of kernel routing: each driver's printed report
    is byte-identical under the reference and the vectorized engine."""
    outputs = []
    for engine in ("reference", "vectorized"):
        assert main([*argv, "--engine", engine]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].strip()
    assert outputs[0] == outputs[1]


class TestVirtualRealExample:
    """The examples/virtual_real_hierarchy.py CLI (argparse + JSON output)."""

    @pytest.fixture()
    def example(self):
        import importlib.util
        from pathlib import Path
        path = (Path(__file__).parent.parent / "examples"
                / "virtual_real_hierarchy.py")
        spec = importlib.util.spec_from_file_location("vr_example", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_json_output_and_engine_agreement(self, example, capsys):
        import json
        results = []
        for engine in ("reference", "vectorized"):
            assert example.main(["--accesses", "4000", "--engine", engine,
                                 "--json"]) == 0
            results.append(json.loads(capsys.readouterr().out))
        reference, vectorized = results
        assert reference["engine"] == "reference"
        assert vectorized["engine"] == "vectorized"
        for key in ("l1_load_miss_ratio", "l2_misses", "holes_created",
                    "hole_rate_per_l2_miss", "page_faults",
                    "alias_invalidations"):
            assert reference[key] == vectorized[key], key
        assert reference["inclusion_holds"] is True

    def test_human_readable_output(self, example, capsys):
        assert example.main(["--accesses", "2000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "hole rate per L2 miss" in out
        assert "[reference engine]" in out

    def test_custom_l2_size(self, example, capsys):
        assert example.main(["--accesses", "2000", "--l2-kilobytes", "64",
                             "--json"]) == 0
        import json
        assert json.loads(capsys.readouterr().out)["l2_bytes"] == 64 * 1024
