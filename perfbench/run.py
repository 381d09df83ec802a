"""End-to-end benchmark of the experiment CLI on four paper workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload holes --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
    python3 perfbench/run.py --pin [--workload NAME]

A run first times ``setup_s``: fresh interpreters importing
``repro.experiments.cli`` and building its parser, after one untimed warm-up
that also writes the bytecode caches.  It then runs one workload's CLI driver
on the vectorized engine in a closed loop: each driver run is a fresh process
(``child.py``), started when the previous one exits, for ``--seconds``.  So
every run pays the cold trace caches a CLI user pays.  Each run's rendered
output must byte-match the sha256 pinned in ``pins.json`` from the reference
engine at the same arguments.  A run that raises, exits non-zero or
mismatches counts as failed.

Host speed.  On a shared host the same run can take 1.5x longer from one
minute to the next, which no number of repeats averages out.  So the parent
pins itself and its children to one CPU and runs a speed probe there beside
them: every 25 ms the probe times a fixed chunk of Python work by its own CPU
time.  ``norm_wall_s`` and ``setup_s`` are the measured times rescaled by
the mean probe chunk time inside each timed window, to a host whose chunk
takes :data:`PROBE_NOMINAL_S`; ``wall_s`` and ``events_per_s`` as measured
are kept in the record, ungated.  The probe takes about 5% of the CPU, which
the measured times include.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced runs.  ``--trace 1`` alternates untraced and traced runs and
reports the per-layer split of ``layers.py``: medians over the traced runs,
plus ``trace_overhead_s``, the traced minus the untraced median of
``norm_wall_s``.  The last line of stdout is the JSON result; a human
summary, with the simulated results beside the paper's values, goes to
stderr.  Each run is appended, with its seed, commit, versions and
quartiles, to ``perfbench/.work/runs.jsonl``; ``--compare`` checks two such
files against the bounds of ``BENCHMARK.json``.  ``--pin`` pins the input
variants that have no pin from the reference engine; all of them take about
30 minutes on one core.

The seed picks one of :data:`VARIANTS` input variants (``seed % VARIANTS``):
a program order, a trace seed or a page-table seed.  Variants do the same
amount of work, and each has a committed reference pin.  A reference run
costs up to 25 times a vectorized one, so pins are not made per seed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
PINS = BENCH / "pins.json"
CLI_SOURCE = ROOT / "src" / "repro" / "experiments" / "cli.py"

VARIANTS = 6
SETUP_SAMPLES = 3
#: ``norm_wall_s`` and ``setup_s`` rescale measured times to a host on which
#: the speed probe's chunk takes this long.
PROBE_NOMINAL_S = 1e-3
#: A timed child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0
#: Reference runs are slower (up to ~25x on trace-replay).
REFERENCE_TIMEOUT_S = 900.0

#: The 18 Spec95 programs of the paper's Table 2 (the miss-ratio default).
SPEC95 = ["go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl",
          "vortex", "tomcatv", "swim", "su2cor", "hydro2d", "applu", "mgrid",
          "turb3d", "apsi", "fpppp", "wave5"]
#: Replay trace: four integer and four floating-point programs, three of
#: them the paper's high-conflict ones, concatenated.
REPLAY_PROGRAMS = ["go", "gcc", "compress", "li",
                   "tomcatv", "swim", "su2cor", "wave5"]
REPLAY_ACCESSES = 125_000
TABLE2_PROGRAMS = ["gcc", "tomcatv", "swim"]
TABLE2_INSTRUCTIONS = 12_000

#: Simulated events per driver run: one access through one cache
#: configuration, or one committed instruction through one machine.
EVENTS = {
    "miss-ratio": len(SPEC95) * 30_000 * 7,
    "trace-replay": len(REPLAY_PROGRAMS) * REPLAY_ACCESSES * 4 * 3,
    "table2": len(TABLE2_PROGRAMS) * TABLE2_INSTRUCTIONS * 6,
    "holes": len(SPEC95) * 40_000 * 2,
}


def replay_trace(variant: int) -> Path:
    return WORK / f"spec8-v{variant}.ctr"


def driver_argv(workload: str, variant: int, engine: str) -> List[str]:
    """CLI arguments of one workload variant."""
    if workload == "miss-ratio":
        programs = SPEC95[:]
        random.Random(variant).shuffle(programs)
        return ["miss-ratio", "--engine", engine, "--programs", *programs]
    if workload == "trace-replay":
        trace = replay_trace(variant).relative_to(ROOT)
        return ["replacement-study", "--engine", engine, "--trace", str(trace)]
    if workload == "table2":
        programs = list(itertools.permutations(TABLE2_PROGRAMS))[variant]
        return ["table2", "--engine", engine, "--instructions",
                str(TABLE2_INSTRUCTIONS), "--programs", *programs]
    if workload == "holes":
        return ["holes", "--engine", engine, "--seed", str(1000 + variant)]
    raise ValueError(workload)


def prepare(workload: str, variant: int) -> None:
    """Write the workload's generated input, if it has one."""
    if workload != "trace-replay" or replay_trace(variant).exists():
        return
    programs = REPLAY_PROGRAMS[:]
    random.Random(variant).shuffle(programs)
    child = run_child(["make-trace", str(replay_trace(variant)),
                       str(12345 + variant), str(REPLAY_ACCESSES), *programs])
    if child["exit_code"] != 0:
        raise SystemExit("could not write the replay trace:\n"
                         + child["stderr"])


# ----------------------------------------------------------------------- #
# child processes
# ----------------------------------------------------------------------- #

def run_child(args: List[str], timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``child.py ARGS`` to completion; returns its exit code, output,
    elapsed time and peak resident set (from ``wait4``)."""
    WORK.mkdir(exist_ok=True)
    out_path = WORK / f"child-{os.getpid()}.out"
    err_path = WORK / f"child-{os.getpid()}.err"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"),
                                 *args], cwd=ROOT, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"exit_code": proc.returncode, "elapsed_s": elapsed,
              "rss_mb": usage.ru_maxrss / 1024.0,
              "stdout": out_path.read_text(errors="replace"),
              "stderr": err_path.read_text(errors="replace")}
    out_path.unlink()
    err_path.unlink()
    return result


def drive(argv: List[str], traced: bool,
          timeout: float = CHILD_TIMEOUT_S) -> dict:
    """One driver run in a fresh process."""
    result_path = WORK / f"drive-{os.getpid()}.json"
    started = time.time()
    child = run_child(["drive", str(result_path),
                       "--traced" if traced else "--untraced", "--", *argv],
                      timeout)
    sample = {"traced": traced, "rss_mb": child["rss_mb"],
              "wall_s": child["elapsed_s"], "window": [started, time.time()],
              "process_s": child["elapsed_s"], "ok": False}
    if child["exit_code"] != 0 or not result_path.exists():
        tail = child["stderr"].strip().splitlines()[-1:] or ["no output"]
        sample["error"] = f"exit {child['exit_code']}: {tail[0]}"
        result_path.unlink(missing_ok=True)
        return sample
    result = json.loads(result_path.read_text())
    result_path.unlink()
    sample.update(wall_s=result["wall_s"], window=result["window"],
                  numpy=result["numpy"],
                  output=result["output"], layers=result.get("layers"),
                  sha256=hashlib.sha256(
                      result["output"].encode()).hexdigest(),
                  ok=result["exit_code"] == 0)
    return sample


def setup_times() -> List[dict]:
    times = []
    for attempt in range(SETUP_SAMPLES + 1):
        child = run_child(["setup"])
        if child["exit_code"] != 0:
            raise SystemExit("importing the CLI failed:\n" + child["stderr"])
        if attempt:                      # the first one warms the caches
            times.append(json.loads(child["stdout"]))
    return times


# ----------------------------------------------------------------------- #
# reference pins
# ----------------------------------------------------------------------- #

def load_pins(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def reference_pin(argv: List[str]) -> dict:
    sample = drive(argv, traced=False, timeout=REFERENCE_TIMEOUT_S)
    if not sample["ok"]:
        raise SystemExit(f"reference run {argv} failed: {sample['error']}")
    return {"argv": argv, "sha256": sample["sha256"],
            "reference_wall_s": sample["wall_s"]}


def find_pin(workload: str, variant: int) -> dict:
    """The committed pin of a variant, or one made now (outside the timed
    runs) and kept in the work directory."""
    argv = driver_argv(workload, variant, "reference")
    local_path = WORK / "pins.local.json"
    for path in (PINS, local_path):
        pin = load_pins(path).get(workload, {}).get(str(variant))
        if pin and pin["argv"] == argv:
            return pin
    pins = load_pins(local_path)
    pin = pins.setdefault(workload, {})[str(variant)] = reference_pin(argv)
    local_path.write_text(json.dumps(pins, indent=1))
    return pin


def repin(workloads: List[str]) -> None:
    """Pin every variant whose committed pin is missing or was made with
    other arguments (delete ``pins.json`` to re-pin everything)."""
    pins = load_pins(PINS)
    for workload in workloads:
        for variant in range(VARIANTS):
            prepare(workload, variant)
            argv = driver_argv(workload, variant, "reference")
            pinned = pins.get(workload, {}).get(str(variant), {})
            if pinned.get("argv") == argv:
                continue
            pins.setdefault(workload, {})[str(variant)] = reference_pin(argv)
            print(f"{workload} v{variant}: "
                  f"{pins[workload][str(variant)]['reference_wall_s']:.1f} s",
                  file=sys.stderr)
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------- #
# simulated results beside the paper's values (ungated)
# ----------------------------------------------------------------------- #

def parse_table(text: str, title: str) -> Dict[str, Dict[str, float]]:
    """Rows of the rendered table that follows ``title``."""
    lines = text.splitlines()
    start = lines.index(title) + 1
    header = lines[start].split("  ")
    columns = [cell.strip() for cell in header if cell.strip()][1:]
    rows = {}
    for line in lines[start + 2:]:
        cells = [cell.strip() for cell in line.split("  ") if cell.strip()]
        if len(cells) != len(columns) + 1:
            break
        rows[cells[0]] = dict(zip(columns, map(float, cells[1:])))
    return rows


def simulated_results(workload: str, output: str) -> Dict[str, dict]:
    """Headline simulated numbers and the paper's quoted values (None where
    the paper quotes none); empty if the output does not parse."""
    try:
        return _simulated_results(workload, output)
    except (ValueError, KeyError, IndexError):
        return {}


def _simulated_results(workload: str, output: str) -> Dict[str, dict]:
    def pair(value, paper):
        return {"simulated": value, "paper": paper}

    if workload == "miss-ratio":
        average = parse_table(
            output, "Load miss ratio (%) by cache organisation")["Average"]
        return {f"average miss % {org}": pair(average[org], paper)
                for org, paper in (("conventional-2way", 13.84),
                                   ("ipoly-2way", 7.14),
                                   ("fully-associative", 6.80))}
    if workload == "table2":
        ipc = parse_table(output, "Table 2 (IPC)")["Combined average"]
        miss = parse_table(output, "Table 2 (load miss ratio %)")[
            "Combined average"]
        stds = dict(item.split("=") for item in
                    output.strip().splitlines()[-1].split(": ")[1].split())
        results = {f"combined IPC {c}": pair(v, None) for c, v in ipc.items()}
        results["combined miss % 8K-conv"] = pair(miss["8K-conv"], 16.53)
        results["combined miss % 8K-ipoly-noCP"] = pair(
            miss["8K-ipoly-noCP"], 9.68)
        results["miss % std-dev conventional"] = pair(
            float(stds["conventional"]), 18.49)
        results["miss % std-dev ipoly"] = pair(float(stds["ipoly"]), 5.16)
        return results
    if workload == "holes":
        rows = parse_table(output, "Holes per L2 miss: model vs simulation")
        results = {}
        for size, row in rows.items():
            results[f"{size} model P_H"] = pair(
                row["model P_H"], 0.031 if size == "256KB" else None)
            results[f"{size} holes per L2 miss"] = pair(
                row["simulated"], "< 0.001 (suite average)")
            results[f"{size} worst program"] = pair(
                row["worst program"], "<= 0.012")
            results[f"{size} L2 misses"] = pair(row["L2 misses"], None)
        return results
    rows = parse_table(
        output, "Load miss ratio (%) by organisation and replacement policy")
    return {f"{org} miss % {policy}": pair(value, None)
            for org, row in rows.items() for policy, value in row.items()
            if policy != "spread"}


# ----------------------------------------------------------------------- #
# statistics, records, comparison
# ----------------------------------------------------------------------- #

def summary(values: List[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def source_identity() -> dict:
    """Commit (when the checkout is a git repository) and a digest of the
    Python sources, which identifies the code either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def compare(base_path: str, new_path: str) -> int:
    """Check every end-to-end metric of NEW against BASE within the bounds
    of ``BENCHMARK.json``; returns 1 if any regressed."""
    def load(path: str) -> Dict[str, List[dict]]:
        runs: Dict[str, List[dict]] = {}
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
        return runs

    base, new = load(base_path), load(new_path)
    regressed = False
    print(f"{'workload':<13} {'metric':<18} {'base':>11} {'new':>11} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in bench_spec()["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = [r["metrics"][name]["median"] for r in base[workload]]
            cur = [r["metrics"][name]["median"] for r in new[workload]]
            old_median, new_median = statistics.median(old), \
                statistics.median(cur)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (new_median - old_median) / old_median
            spread = summary(old)
            base_spread = (spread["q3"] - spread["q1"]) / old_median
            all_better = all(sign * (c - o) < 0 for c in cur for o in old)
            if worse > bound:
                verdict, regressed = "REGRESSED", True
            elif base_spread > bound and not all_better:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "ok"
            print(f"{workload:<13} {name:<18} {old_median:>11.4g} "
                  f"{new_median:>11.4g} {new_median / old_median - 1:>+8.1%} "
                  f"{bound:>6.2f}  {verdict}")
        drift = {key for r in base[workload] for n in new[workload]
                 if r["variant"] == n["variant"]
                 for key, value in r["simulated"].items()
                 if n["simulated"].get(key) != value}
        if drift:
            print(f"{workload:<13} simulated results drifted: "
                  f"{', '.join(sorted(drift))}")
    return 1 if regressed else 0


# ----------------------------------------------------------------------- #
# one benchmark run
# ----------------------------------------------------------------------- #

def start_probe(log: Path) -> subprocess.Popen:
    """Pin this process, and so every child it starts, to one CPU, and start
    the speed probe there beside the driver runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.Popen([sys.executable, str(BENCH / "child.py"), "probe",
                             str(log)], cwd=ROOT)


def host_speed(log: Path, samples: List[dict]) -> None:
    """Set each sample's ``probe_s``: the mean probe chunk time during its
    timed window (the whole run's mean if no chunk fell inside it)."""
    chunks = []
    for line in log.read_text().splitlines():
        fields = line.split()
        if len(fields) == 2:
            chunks.append((float(fields[0]), float(fields[1])))
    if not chunks:
        raise SystemExit("the speed probe recorded nothing")
    overall = statistics.fmean(c for _, c in chunks)
    for sample in samples:
        begin, end = sample["window"]
        inside = [c for t, c in chunks if begin <= t <= end]
        sample["probe_s"] = statistics.fmean(inside) if inside else overall


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    variant = seed % VARIANTS
    prepare(workload, variant)
    pin = find_pin(workload, variant)
    argv = driver_argv(workload, variant, "vectorized")

    nproc = len(os.sched_getaffinity(0))
    probe_log = WORK / f"probe-{os.getpid()}.log"
    probe = start_probe(probe_log)
    try:
        setup = setup_times()
        # Closed loop: the next run starts when the previous one exits, and
        # only if it is expected to end within ``seconds`` (at least one
        # run, or one untraced and one traced).
        samples: List[dict] = []
        start = time.perf_counter()
        while True:
            traced = trace and len(samples) % 2 == 1
            samples.append(drive(argv, traced=traced))
            typical = statistics.median(s["process_s"] for s in samples)
            if (time.perf_counter() - start + typical > seconds
                    and len(samples) >= 1 + trace):
                break
    finally:
        probe.terminate()
        probe.wait()
    host_speed(probe_log, samples + setup)
    probe_log.unlink()

    failed = 0
    for sample in samples:
        if sample["ok"] and sample["sha256"] != pin["sha256"]:
            sample.update(ok=False, error="output differs from the "
                          "reference pin")
        failed += not sample["ok"]
        sample["norm_wall_s"] = \
            sample["wall_s"] * PROBE_NOMINAL_S / sample["probe_s"]
    untraced = [s for s in samples if not s["traced"]]
    events = EVENTS[workload]
    stats = {
        "norm_wall_s": summary([s["norm_wall_s"] for s in untraced]),
        "norm_events_per_s": summary([events / s["norm_wall_s"]
                                      for s in untraced]),
        "peak_rss_mb": summary([s["rss_mb"] for s in untraced]),
        "setup_s": summary([s["setup_s"] * PROBE_NOMINAL_S / s["probe_s"]
                            for s in setup]),
        # As measured on this host, ungated: they move with its speed.
        "wall_s": summary([s["wall_s"] for s in untraced]),
        "events_per_s": summary([events / s["wall_s"] for s in untraced]),
        "probe_chunk_s": summary([s["probe_s"] for s in untraced]),
    }
    reported = [m["name"] for m in bench_spec()["end_to_end"]]
    if trace:
        traced = [s for s in samples if s["traced"]]
        layers = [s["layers"] for s in traced if s["ok"]]
        stats = {name: summary([t[name] for t in layers] or [0.0])
                 for name in next(iter(layers), {})}
        overhead = (summary([s["norm_wall_s"] for s in traced])["median"]
                    - summary([s["norm_wall_s"] for s in untraced])["median"])
        stats["trace_overhead_s"] = {"median": overhead, "n": len(traced)}
        reported = [m["name"] for m in bench_spec()["per_layer"]]
    good = next((s for s in samples if s["ok"]), None)
    wall = summary([s["wall_s"] for s in untraced])["median"]
    record = {
        "workload": workload, "seed": seed, "variant": variant,
        "trace": int(trace), "argv": argv,
        **source_identity(),
        "python": platform.python_version(),
        "numpy": good["numpy"] if good else None,
        "nproc": nproc,
        "attempted": len(samples), "failed": failed,
        "failed_frac": failed / len(samples),
        "errors": sorted({s["error"] for s in samples if not s["ok"]}),
        "events": events,
        "metrics": stats,
        "reference": {"wall_s": pin["reference_wall_s"],
                      "engine_ratio": pin["reference_wall_s"] / wall},
        "simulated": simulated_results(workload, good["output"])
        if good else {},
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with (WORK / "runs.jsonl").open("a") as log:
        log.write(json.dumps(record) + "\n")
    record["values"] = {name: stats.get(name, {"median": 0.0})["median"]
                        for name in reported}
    return record


def report(record: dict) -> None:
    out = sys.stderr
    print(f"{record['workload']} seed {record['seed']} (variant "
          f"{record['variant']}): {record['attempted']} runs, "
          f"{record['failed']} failed; python {record['python']}, numpy "
          f"{record['numpy']}, nproc {record['nproc']}", file=out)
    for error in record["errors"]:
        print(f"  failure: {error}", file=out)
    for name, stat in record["metrics"].items():
        quartiles = (f"  [q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}]"
                     if "q1" in stat else "")
        print(f"  {name:<46} {stat['median']:>12.6g} n={stat['n']}"
              f"{quartiles}", file=out)
    ref = record["reference"]
    print(f"  reference engine {ref['wall_s']:.2f} s "
          f"({ref['engine_ratio']:.1f}x the vectorized wall time; ungated)",
          file=out)
    for name, pair in record["simulated"].items():
        paper = "" if pair["paper"] is None else f"   paper {pair['paper']}"
        print(f"  {name:<46} {pair['simulated']:>12g}{paper}", file=out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(EVENTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not CLI_SOURCE.exists():
        print(f"error: {CLI_SOURCE.relative_to(ROOT)} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.pin:
        repin([args.workload] if args.workload else sorted(EVENTS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    units = {m["name"]: m["unit"] for m in
             bench_spec()["end_to_end"] + bench_spec()["per_layer"]}
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in
                                  record["values"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
