"""One fresh-process step of the end-to-end benchmark (see ``run.py``).

``run.py`` starts this script once per measured step, so every timed run
pays what a CLI user pays: a cold interpreter, cold trace caches and cold
memo tables.  Sub-commands::

    child.py setup                      # time importing the CLI
    child.py drive OUT --traced|--untraced -- ARGV...
                                        # run one CLI driver, write OUT (JSON)
    child.py make-trace OUT SEED ACCESSES PROGRAM...
                                        # write the packed v2 replay trace
    child.py probe OUT                  # log the host speed until killed

``drive`` times ``repro.experiments.cli.main(ARGV)`` from the call to its
rendered output (stdout is captured into a buffer, not a terminal) and writes
the output text, the wall time, the call's start and end on the system clock
and, with ``--traced``, the per-layer split of ``layers.py`` to OUT.  A
driver that raises propagates: the process exits non-zero and ``run.py``
counts the run as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup() -> None:
    window = [time.time()]
    start = time.perf_counter()
    from repro.experiments import cli

    cli.build_parser()
    elapsed = time.perf_counter() - start
    window.append(time.time())
    print(json.dumps({"setup_s": elapsed, "window": window}))


def drive(out: str, traced: bool, argv: list) -> None:
    import numpy

    from repro.experiments import cli

    tracer = None
    if traced:
        from layers import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    buffer = io.StringIO()
    root = tracer.span("experiments") if tracer else contextlib.nullcontext()
    window = [time.time()]
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer), root:
        code = cli.main(argv)
    wall = time.perf_counter() - start
    window.append(time.time())
    result = {"exit_code": code, "wall_s": wall, "window": window,
              "output": buffer.getvalue(), "numpy": numpy.__version__}
    if tracer is not None:
        result["layers"] = tracer.report(wall)
    Path(out).write_text(json.dumps(result))


def make_trace(out: str, seed: int, accesses: int, programs: list) -> None:
    """Concatenate the programs' synthetic traces into one v2 file."""
    import itertools

    from repro.trace.stream import TraceV2Writer
    from repro.trace.workloads import build_trace

    records = itertools.chain.from_iterable(
        build_trace(name, length=accesses, seed=seed)
        for name in programs)
    partial = Path(out + ".partial")
    with TraceV2Writer(partial) as writer:
        writer.append_records(records)
    partial.replace(out)


def probe(out: str) -> None:
    """Every 25 ms, run a fixed chunk of dict and integer work (the kind the
    simulators do) and log when it started and how much CPU time it took.
    CPU time leaves out preemption, so the chunk time tracks only how fast
    the CPU runs Python at that moment."""
    with open(out, "w", buffering=1) as log:
        while True:
            stamp, cpu = time.time(), time.thread_time()
            cache: dict = {}
            x = 12345
            for i in range(1500):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                key = x & 1023
                if key in cache:
                    del cache[key]
                elif len(cache) >= 256:
                    del cache[next(iter(cache))]
                cache[key] = i
            log.write(f"{stamp} {time.thread_time() - cpu}\n")
            time.sleep(0.025)


def main(argv: list) -> None:
    command, rest = argv[0], argv[1:]
    if command == "setup":
        setup()
    elif command == "drive":
        traced = rest[1] == "--traced"
        separator = rest.index("--")
        drive(rest[0], traced, rest[separator + 1:])
    elif command == "make-trace":
        make_trace(rest[0], int(rest[1]), int(rest[2]), rest[3:])
    elif command == "probe":
        probe(rest[0])
    else:
        raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
