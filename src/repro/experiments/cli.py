"""Command-line entry point: run any of the paper's experiments from a shell.

Usage (after ``pip install -e .``)::

    python -m repro.experiments.cli figure1 --max-stride 1024 --stride-step 4
    python -m repro.experiments.cli figure1 --engine vectorized --workers 4
    python -m repro.experiments.cli table2 --instructions 12000
    python -m repro.experiments.cli table3 --instructions 12000
    python -m repro.experiments.cli miss-ratio --accesses 30000
    python -m repro.experiments.cli miss-ratio --engine vectorized
    python -m repro.experiments.cli miss-ratio --replacement plru
    python -m repro.experiments.cli replacement-study --engine vectorized
    python -m repro.experiments.cli holes --accesses 40000
    python -m repro.experiments.cli holes --engine vectorized --seed 7
    python -m repro.experiments.cli column-assoc --accesses 30000
    python -m repro.experiments.cli critical-path

Each sub-command prints the same table/histogram the corresponding benchmark
regenerates; ``--csv`` switches the tabular experiments to CSV output so the
results can be piped into other tools.  ``--engine {reference,vectorized}``
selects the scalar reference models or the bit-exact NumPy batch engine.
``figure1``, ``miss-ratio``, ``replacement-study``, ``table2`` and
``table3`` all accept ``--workers`` (fan the sweep across processes),
``--chunksize`` (tasks per worker dispatch) and the fault-tolerance knobs
``--timeout``/``--retries``/``--on-error``/``--resume`` (per-dispatch
deadlines, seeded-backoff retries, collect-instead-of-abort, and
checkpoint/resume through a sweep journal); the first three additionally
take ``--profile auto`` (the default: price two or more conventional-LRU
rows of one trace out of a one-pass multi-configuration profile, every
other row on its own kernel — bit-exact) or ``--profile sampled``
(approximate SHARDS-sampled LRU profiles, vectorized engine only;
``--sample-rate``, ``--sample-size`` and ``--profile-seed`` tune it and are
refused without it).
``--replacement {lru,fifo,random,plru}`` selects the replacement policy on
the trace-level cache experiments;
``replacement-study`` sweeps all four policies across conventional, skewed
and victim organisations at once.

``figure1``, ``miss-ratio`` and ``replacement-study`` also take ``--trace
FILE``: replay a recorded on-disk trace (packed v2 — optionally
gzip/bz2/xz/zstd-compressed — v1 binary/text, or Dinero ``.din``) instead
of the synthetic workloads, streamed in ``--trace-chunk``-access batches on
the vectorized engine so memory stays bounded for arbitrarily long traces.
A trace replays serially on every cache's exact kernel, so ``--trace``
refuses the flags it would not read: the workload shape (``--programs``,
``--accesses``, figure1's ``--max-stride``/``--stride-step``/``--sweeps``),
the sweep-execution flags and ``--profile sampled`` with its knobs.

The vectorized engine runs its 2-way and victim-cache loops as compiled C
when a C compiler is available (``REPRO_CEXT=0`` forces the Python kernels,
``REPRO_CEXT=1`` makes a missing tier a one-line error); output is
byte-identical either way.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional, Tuple

from ..cache.replacement import REPLACEMENT_POLICIES
from ..engine import ENGINE_REFERENCE, ENGINES, ON_ERROR_POLICIES, PROFILE_MODES
from ..engine.cext import ENV_VAR as CEXT_ENV_VAR, CExtError, kernel_tier
from ..trace.workloads import workload_names
from .column_assoc_study import run_column_assoc_study
from .critical_path import run_critical_path_study
from .figure1 import run_figure1
from .holes_study import run_holes_study
from .miss_ratio_study import MIN_STUDY_ACCESSES, run_miss_ratio_study
from .replacement_study import run_replacement_study
from .table2 import MIN_INSTRUCTIONS, miss_ratio_std_dev, run_table2
from .table3 import run_table3

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int, why: str = ""):
    """Argparse type: an integer >= ``minimum``, rejected in the parser (exit
    code 2, one line naming the flag) rather than deep inside a driver or a
    sweep worker."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}{why}, got {value}")
        return value
    return parse


_nonnegative_int = _int_at_least(0)
_positive_int = _int_at_least(1)
#: The miss-ratio and replacement studies refuse shorter synthetic traces.
_study_accesses = _int_at_least(MIN_STUDY_ACCESSES, " for stable ratios")
#: Table 2 and Table 3 refuse shorter instruction streams.
_instructions = _int_at_least(MIN_INSTRUCTIONS, " for stable results")


def _l2_kilobytes(text: str) -> int:
    """Argparse type: an L2 size in KB the hole model accepts — a power of
    two (power-of-two sets) no smaller than the 8 KB L1 (the model needs at
    least as many L2 sets as L1 sets)."""
    value = _int_at_least(8, " (the L1 size)")(text)
    if value & (value - 1):
        raise argparse.ArgumentTypeError(
            f"must be a power of two, got {value}")
    return value


def _existing_file(text: str) -> str:
    """Argparse type: the path of an existing regular file."""
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: {text!r}")
    return text


def _positive_float(text: str) -> float:
    """Argparse type: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _unit_rate(text: str) -> float:
    """Argparse type: a float in (0, 1] (the SHARDS sampling rate)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


#: Knobs that only mean something under ``--profile sampled``.
_SAMPLING_KNOBS = ("sample_rate", "sample_size", "profile_seed")

#: Accesses per streamed ``--trace`` batch unless ``--trace-chunk`` is given.
_TRACE_CHUNK = 1 << 20


class _DriverParser(argparse.ArgumentParser):
    """Sub-command parser that also rejects flag combinations its driver
    would silently ignore, with the same one-line usage error (exit code 2)
    as a bad value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: ``(action, default)`` of every :meth:`add_deferred` option.
        self._deferred: List[Tuple[argparse.Action, object]] = []

    def add_deferred(self, *flags: str, default: object = None,
                     **kwargs) -> None:
        """Add an option a ``--trace`` replay never reads.  It parses to
        None when absent, so the checks can tell an explicit value from
        ``default``, which is filled in after them."""
        action = self.add_argument(*flags, default=None, **kwargs)
        self._deferred.append((action, default))

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if getattr(namespace, "trace", None) is not None:
            self._check_trace(namespace)
        if getattr(namespace, "trace_chunk", None) is not None:
            self._check_trace_chunk(namespace)
        elif hasattr(namespace, "trace_chunk"):
            namespace.trace_chunk = _TRACE_CHUNK
        if hasattr(namespace, "profile"):
            self._check_sampling(namespace)
        for action, default in self._deferred:
            if getattr(namespace, action.dest) is None:
                setattr(namespace, action.dest, default)
        return namespace, extras

    def _check_trace(self, namespace: argparse.Namespace) -> None:
        given = ["--profile sampled"] if namespace.profile == "sampled" else []
        given += [action.option_strings[0] for action, _ in self._deferred
                  if getattr(namespace, action.dest) is not None]
        if given:
            self.error(f"{given[0]} does not apply to --trace (a recorded "
                       "trace replays serially on every cache's exact "
                       "kernel)")

    def _check_trace_chunk(self, namespace: argparse.Namespace) -> None:
        if namespace.trace is None:
            self.error("--trace-chunk needs --trace (it sizes the batches a "
                       "recorded trace streams in)")
        if namespace.engine == ENGINE_REFERENCE:
            self.error("--trace-chunk needs --engine vectorized (the "
                       "reference engine replays one record at a time)")

    def _check_sampling(self, namespace: argparse.Namespace) -> None:
        if namespace.profile == "sampled":
            if namespace.engine == ENGINE_REFERENCE:
                self.error("--profile sampled needs --engine vectorized (the "
                           "reference engine only runs the exact models)")
        else:
            for dest in _SAMPLING_KNOBS:
                if getattr(namespace, dest) is not None:
                    flag = "--" + dest.replace("_", "-")
                    self.error(f"{flag} needs --profile sampled")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the experiments of 'The Design and Performance "
                    "of a Conflict-Avoiding Cache' (MICRO-30, 1997).",
    )
    sub = parser.add_subparsers(dest="experiment", required=True,
                                parser_class=_DriverParser)

    def add_engine(parser_: argparse.ArgumentParser) -> None:
        parser_.add_argument("--engine", choices=list(ENGINES),
                             default="reference",
                             help="simulation engine: scalar reference models "
                                  "or the bit-exact NumPy batch engine")

    def add_replacement(parser_: argparse.ArgumentParser) -> None:
        parser_.add_argument("--replacement",
                             choices=list(REPLACEMENT_POLICIES),
                             default="lru",
                             help="replacement policy for every cache of the "
                                  "experiment (identical across engines, "
                                  "including the deterministic random policy)")

    def add_sweep_options(parser_: _DriverParser,
                          unit: str = "tasks") -> None:
        parser_.add_deferred("--workers", type=_nonnegative_int,
                             help="fan the sweep across this many processes")
        parser_.add_deferred("--chunksize", type=_positive_int,
                             help=f"{unit} per worker dispatch (amortises "
                                  "process-pool overhead on tiny tasks)")
        parser_.add_deferred("--timeout", type=_positive_float,
                             help="per-dispatch timeout in seconds (pool "
                                  "modes; a hung worker is killed and the "
                                  "task retried)")
        parser_.add_deferred("--retries", type=_nonnegative_int, default=0,
                             help="failed attempts a task may retry "
                                  "(exponential backoff with seeded jitter)")
        parser_.add_deferred("--on-error", dest="on_error",
                             choices=list(ON_ERROR_POLICIES), default="raise",
                             help="once a task exhausts its retries: abort "
                                  "the sweep, or collect a structured "
                                  "TaskFailure and finish the rest")
        parser_.add_deferred("--resume", metavar="JOURNAL",
                             help="sweep-journal path: completed tasks are "
                                  "appended as they finish and pre-loaded "
                                  "on the next run, so a killed sweep "
                                  "restarts from its last completed task")

    def add_profile(parser_: _DriverParser) -> None:
        parser_.add_argument("--profile", choices=list(PROFILE_MODES),
                             default="auto",
                             help="multi-configuration LRU profiling on the "
                                  "vectorized engine: auto (bit-exact; two "
                                  "or more conventional-LRU rows of one "
                                  "trace share a one-pass profile, every "
                                  "other row runs its own kernel) or "
                                  "sampled (approximate SHARDS-sampled LRU "
                                  "profiles)")
        parser_.add_deferred("--sample-rate", dest="sample_rate",
                             type=_unit_rate, default=0.01,
                             help="profile=sampled: spatial sampling rate in "
                                  "(0, 1] (default 0.01); 1.0 degenerates to "
                                  "the exact profile")
        parser_.add_deferred("--sample-size", dest="sample_size",
                             type=_positive_int,
                             help="profile=sampled: cap the expected sample "
                                  "to about this many accesses (fixed-size "
                                  "SHARDS; lowers the effective rate on "
                                  "long traces)")
        parser_.add_deferred("--profile-seed", dest="profile_seed",
                             type=_nonnegative_int, default=0,
                             help="profile=sampled: seed of the spatial hash "
                                  "(default 0; same seed + rate => "
                                  "bit-identical sampled results)")

    def add_trace(parser_: argparse.ArgumentParser) -> None:
        parser_.add_argument("--trace", type=_existing_file, default=None,
                             metavar="FILE",
                             help="replay this recorded trace instead of the "
                                  "synthetic workloads (packed v2, optionally "
                                  ".gz/.bz2/.xz/.zst-compressed, v1 "
                                  "binary/text, or Dinero .din)")
        parser_.add_argument("--trace-chunk", dest="trace_chunk",
                             type=_positive_int, default=None,
                             help="accesses per streamed --trace batch on "
                                  f"the vectorized engine (default "
                                  f"{_TRACE_CHUNK}; bounds memory; results "
                                  "are identical for any chunk size)")

    def add_programs(parser_: _DriverParser) -> None:
        parser_.add_deferred("--programs", nargs="*",
                             choices=workload_names(), metavar="PROGRAM",
                             help="synthetic Spec95 programs to run "
                                  "(default: all 18)")

    figure1 = sub.add_parser("figure1", help="Figure 1 stride sweep")
    figure1.add_deferred("--max-stride", type=_int_at_least(2), default=1024)
    figure1.add_deferred("--stride-step", type=_positive_int, default=4)
    figure1.add_deferred("--sweeps", type=_positive_int, default=8)
    add_sweep_options(figure1, unit="strides")
    add_engine(figure1)
    add_replacement(figure1)
    add_profile(figure1)
    add_trace(figure1)

    table2 = sub.add_parser("table2", help="Table 2 IPC / miss-ratio sweep")
    table2.add_argument("--instructions", type=_instructions, default=12_000)
    add_programs(table2)
    table2.add_argument("--csv", action="store_true")
    add_sweep_options(table2, unit="programs")
    add_engine(table2)

    table3 = sub.add_parser("table3", help="Table 3 high-conflict breakdown")
    table3.add_argument("--instructions", type=_instructions, default=12_000)
    add_sweep_options(table3, unit="programs")
    add_engine(table3)

    miss_ratio = sub.add_parser("miss-ratio", help="Section 2.1 organisation comparison")
    miss_ratio.add_deferred("--accesses", type=_study_accesses,
                            default=30_000)
    add_programs(miss_ratio)
    miss_ratio.add_argument("--csv", action="store_true")
    add_sweep_options(miss_ratio, unit="programs")
    add_engine(miss_ratio)
    add_replacement(miss_ratio)
    add_profile(miss_ratio)
    add_trace(miss_ratio)

    replacement = sub.add_parser(
        "replacement-study",
        help="replacement policy x organisation sweep (LRU practicality)")
    replacement.add_deferred("--accesses", type=_study_accesses,
                             default=20_000)
    add_programs(replacement)
    replacement.add_argument("--csv", action="store_true")
    add_sweep_options(replacement, unit="programs")
    add_engine(replacement)
    add_profile(replacement)
    add_trace(replacement)

    holes = sub.add_parser("holes", help="Section 3.3 hole model vs simulation")
    holes.add_argument("--accesses", type=_positive_int, default=40_000)
    holes.add_argument("--l2-kilobytes", nargs="+", type=_l2_kilobytes,
                       default=[256, 1024])
    holes.add_argument("--seed", type=int, default=999,
                       help="seed shared by the trace models and the "
                            "scatter-allocating page table")
    add_engine(holes)

    column = sub.add_parser("column-assoc", help="Section 3.1 column-associative study")
    column.add_argument("--accesses", type=_positive_int, default=30_000)

    sub.add_parser("critical-path", help="Section 3/3.4 hardware cost and CLA timing")
    return parser


def _run_experiment(args: argparse.Namespace) -> str:
    def fault_options(args_: argparse.Namespace) -> dict:
        return {"timeout": args_.timeout, "retries": args_.retries,
                "on_error": args_.on_error, "resume": args_.resume}

    def profile_options(args_: argparse.Namespace) -> dict:
        return {"profile": args_.profile, "sample_rate": args_.sample_rate,
                "sample_size": args_.sample_size,
                "profile_seed": args_.profile_seed}

    if args.experiment == "figure1":
        result = run_figure1(max_stride=args.max_stride, sweeps=args.sweeps,
                             stride_step=args.stride_step,
                             engine=args.engine, workers=args.workers,
                             chunksize=args.chunksize,
                             replacement=args.replacement,
                             trace=args.trace,
                             trace_chunk=args.trace_chunk,
                             **profile_options(args),
                             **fault_options(args))
        return result.render()
    if args.experiment == "table2":
        result = run_table2(programs=args.programs or None,
                            instructions=args.instructions,
                            engine=args.engine,
                            workers=args.workers,
                            chunksize=args.chunksize, **fault_options(args))
        if args.csv:
            return (result.ipc_table().render_csv()
                    + "\n" + result.miss_ratio_table().render_csv())
        stds = miss_ratio_std_dev(result)
        return (result.render()
                + f"\n\nmiss-ratio std-dev: conventional={stds['8K-conv']:.2f} "
                  f"ipoly={stds['8K-ipoly-noCP']:.2f}")
    if args.experiment == "table3":
        return run_table3(instructions=args.instructions,
                          engine=args.engine,
                          workers=args.workers,
                          chunksize=args.chunksize,
                          **fault_options(args)).render()
    if args.experiment == "miss-ratio":
        result = run_miss_ratio_study(programs=args.programs or None,
                                      accesses=args.accesses,
                                      engine=args.engine,
                                      replacement=args.replacement,
                                      workers=args.workers,
                                      chunksize=args.chunksize,
                                      **profile_options(args),
                                      trace=args.trace,
                                      trace_chunk=args.trace_chunk,
                                      **fault_options(args))
        return result.table().render_csv() if args.csv else result.render()
    if args.experiment == "replacement-study":
        result = run_replacement_study(programs=args.programs or None,
                                       accesses=args.accesses,
                                       engine=args.engine,
                                       workers=args.workers,
                                       chunksize=args.chunksize,
                                       **profile_options(args),
                                       trace=args.trace,
                                       trace_chunk=args.trace_chunk,
                                       **fault_options(args))
        return result.table().render_csv() if args.csv else result.render()
    if args.experiment == "holes":
        result = run_holes_study(l2_sizes=[kb * 1024 for kb in args.l2_kilobytes],
                                 accesses=args.accesses, seed=args.seed,
                                 engine=args.engine)
        return result.render()
    if args.experiment == "column-assoc":
        return run_column_assoc_study(accesses=args.accesses).render()
    if args.experiment == "critical-path":
        return run_critical_path_study().render()
    raise ValueError(f"unknown experiment {args.experiment!r}")  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run the experiment, print its report; returns exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if os.environ.get(CEXT_ENV_VAR, "").strip() not in ("", "0"):
        # A required (or misspelt) kernel tier fails here, in one line,
        # not inside a sweep worker; the default stays lazy.
        try:
            kernel_tier()
        except CExtError as exc:
            parser.error(str(exc))
    print(_run_experiment(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
