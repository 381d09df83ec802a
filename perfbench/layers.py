"""Per-layer time split of one driver run, traced from outside ``src/``.

:func:`instrument` wraps the public entry points of each layer of the
``repro`` package — rebinding every module-level name that refers to them,
so ``from x import f`` call sites are traced too — and records a span per
call: layer, start, end, parent.  Spans stay in memory; :meth:`Tracer.report`
turns them into self times (a span's duration minus its children's), so the
layer self times plus ``experiments.other_s`` (the root span's own time) add
up to the traced wall time.

Layer names are the package's module names.  Lazy generators are timed where
their work happens: a ``build_trace`` generator is drained inside
``to_arrays`` (so its cost lands in ``trace.synth``), ``iter_trace_chunks``
gets one span per chunk pulled, and a program's instruction stream is
exhausted into a list inside a ``cpu.workloads.gen`` span before the
pipeline consumes it, which splits generation out of ``cpu.processor``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

#: Kernel names ``dispatch_strategy`` can return, plus ``column-assoc`` for
#: the column-associative cache, which has a single kernel.  Each kernel call
#: is a span named after its kernel, so a name not listed here fails the
#: traced run's accounting check as an unlisted layer.
STRATEGIES = (
    "lru-run-collapse", "lru-skewed-2way", "lru-skewed-generic", "lru-dict",
    "set-decomposed-fifo", "set-decomposed-random", "set-decomposed-plru",
    "skew-decomposed-fifo", "skew-decomposed-random", "skew-decomposed-plru",
    "generic-policy-kernel",
    "victim-decomposed-lru", "victim-decomposed-fifo",
    "victim-decomposed-random", "victim-decomposed-plru",
    "victim-generic-kernel", "column-assoc",
)

#: Span layer -> reported self-time metric.
SELF_TIME_METRICS = {
    "trace.synth": "trace.synth_s",
    "trace.ingest": "trace.ingest_s",
    "cpu.workloads.gen": "cpu.workloads.gen_s",
    "cpu.processor": "cpu.processor.run_s",
    "engine.index_vec": "engine.index_vec.s",
    "engine.hierarchy_vec": "engine.hierarchy_vec.s",
    "engine.multiconfig": "engine.multiconfig.s",
    "engine.sweep": "engine.sweep.s",
    "analysis.render": "analysis.render_s",
    "experiments": "experiments.other_s",
}
_KERNEL_LAYER = "engine.batch_cache:"


class Tracer:
    """In-memory span recorder with counters at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[list] = []     # [layer, start, end, parent index]
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.synth_keys: set = set()
        self.plan_rows: Dict[int, int] = {}

    def span(self, layer: str) -> "_Span":
        return _Span(self, layer)

    def report(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics; raises ``ValueError`` if the spans do not
        account for the traced run."""
        if self._stack or any(end is None for _, _, end, _ in self.spans):
            raise ValueError("unclosed span")
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_time: Counter = Counter()
        for index, (layer, start, end, _) in enumerate(self.spans):
            own = end - start - children[index]
            if own < -1e-6:
                raise ValueError(f"negative self time in {layer}")
            self_time[layer] += own
        unknown = set(self_time) - set(SELF_TIME_METRICS) - {
            _KERNEL_LAYER + name for name in STRATEGIES}
        if unknown:
            raise ValueError(f"unlisted layers {sorted(unknown)}")
        accounted = sum(self_time.values())
        if abs(accounted - wall_s) > 1e-3 + 1e-3 * wall_s:
            raise ValueError(f"layer self times add up to {accounted:.6f} s, "
                             f"traced wall is {wall_s:.6f} s")
        counts = self.counts

        from repro.engine.memo import memo_info

        tables = memo_info().values()
        lookups = sum(t["hits"] + t["misses"] for t in tables)
        hits = sum(t["hits"] for t in tables)
        metrics = {metric: self_time[layer]
                   for layer, metric in SELF_TIME_METRICS.items()}
        metrics.update({
            "trace.synth_calls": counts["synth_calls"],
            "trace.synth_reuse": (len(self.synth_keys) / counts["synth_calls"]
                                  if counts["synth_calls"] else 0.0),
            "trace.ingest_chunks": counts["ingest_chunks"],
            "cpu.workloads.gen_calls": counts["gen_calls"],
            "cpu.processor.us_per_instr": (
                1e6 * self_time["cpu.processor"] / counts["instructions"]
                if counts["instructions"] else 0.0),
            "engine.memo.hit_ratio": hits / lookups if lookups else 0.0,
            "engine.batch_cache.s": sum(self_time[_KERNEL_LAYER + name]
                                        for name in STRATEGIES),
            "engine.batch_cache.calls": counts["kernel_calls"],
            "engine.batch_cache.accesses": counts["kernel_accesses"],
            "engine.multiconfig.profiled_rows": counts["profiled_rows"],
            "engine.multiconfig.kernel_rows": counts["kernel_rows"],
            "traced_wall_s": wall_s,
        })
        for name in STRATEGIES:
            metrics["engine.batch_cache.s." + name] = \
                self_time[_KERNEL_LAYER + name]
        return metrics


class _Span:
    __slots__ = ("tracer", "layer", "index")

    def __init__(self, tracer: Tracer, layer: str) -> None:
        self.tracer = tracer
        self.layer = layer

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer.spans.append([self.layer, time.perf_counter(), None, parent])
        tracer._stack.append(self.index)

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()


def _rebind(original: Callable, replacement: Callable,
            skip: tuple = ()) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement`` (modules named in ``skip`` keep the original)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or name in skip or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _spanned(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(layer):
            return fn(*args, **kwargs)
    return wrapper


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public entry points so calls record spans."""
    import repro.experiments.cli  # noqa: F401  (loads every driver module)
    from repro.analysis.reporting import TableBuilder
    from repro.cpu.processor import OutOfOrderProcessor
    from repro.cpu.program import Program
    from repro.engine import batch, batch_cache, hierarchy_vec, memo, sweep
    from repro.engine.multiconfig import MultiConfigPlan
    from repro.trace import batching, stream, workloads

    for module, name, layer in (
            (batching, "to_arrays", "trace.synth"),
            (batching, "cached_workload_arrays", "trace.synth"),
            (batch, "materialise_batch", "trace.synth"),
            (memo, "cached_block_numbers", "engine.index_vec"),
            (memo, "cached_set_indices", "engine.index_vec"),
            (memo, "cached_set_index_lists", "engine.index_vec"),
            (sweep, "run_sweep", "engine.sweep")):
        original = getattr(module, name)
        _rebind(original, _spanned(tracer, layer, original))

    # Synthesis happens when the lazy trace is drained (inside to_arrays);
    # the call itself is counted, with its arguments as the trace identity.
    # The CPU instruction streams draw their addresses from build_trace too,
    # but that cost belongs to cpu.workloads.gen, so that binding is kept.
    build_trace = workloads.build_trace
    signature = inspect.signature(build_trace)

    @functools.wraps(build_trace)
    def counted_build_trace(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counts["synth_calls"] += 1
        tracer.synth_keys.add(tuple(bound.arguments.items()))
        return build_trace(*args, **kwargs)

    _rebind(build_trace, counted_build_trace, skip=("repro.cpu.workloads",))

    iter_trace_chunks = stream.iter_trace_chunks

    @functools.wraps(iter_trace_chunks)
    def traced_chunks(*args, **kwargs):
        chunks = iter_trace_chunks(*args, **kwargs)
        while True:
            with tracer.span("trace.ingest"):
                chunk = next(chunks, None)
            if chunk is None:
                return
            tracer.counts["ingest_chunks"] += 1
            yield chunk

    _rebind(iter_trace_chunks, traced_chunks)

    def kernel_run(cls) -> None:
        run = cls.run
        strategy_of = getattr(cls, "dispatch_strategy",
                              lambda self, batch: "column-assoc")

        @functools.wraps(run)
        def traced_run(self, batch):
            strategy = strategy_of(self, batch)
            counts = tracer.counts
            counts["kernel_calls"] += 1
            counts["kernel_accesses"] += len(batch)
            with tracer.span(_KERNEL_LAYER + strategy):
                return run(self, batch)

        cls.run = traced_run

    for cls in (batch_cache.BatchSetAssociativeCache,
                batch_cache.BatchColumnAssociativeCache,
                batch_cache.BatchVictimCache):
        kernel_run(cls)

    for cls in (hierarchy_vec.BatchTwoLevelHierarchy,
                hierarchy_vec.BatchVirtualRealHierarchy):
        cls.run = _spanned(tracer, "engine.hierarchy_vec", cls.run)

    plan_add, plan_run = MultiConfigPlan.add, MultiConfigPlan.run

    @functools.wraps(plan_add)
    def counted_add(self, *args, **kwargs):
        tracer.plan_rows[id(self)] = tracer.plan_rows.get(id(self), 0) + 1
        return plan_add(self, *args, **kwargs)

    @functools.wraps(plan_run)
    def traced_plan_run(self):
        # Rows not priced from a shared profile each run one kernel call.
        before = tracer.counts["kernel_calls"]
        with tracer.span("engine.multiconfig"):
            result = plan_run(self)
        kernel_rows = tracer.counts["kernel_calls"] - before
        tracer.counts["kernel_rows"] += kernel_rows
        tracer.counts["profiled_rows"] += \
            tracer.plan_rows.pop(id(self), 0) - kernel_rows
        return result

    MultiConfigPlan.add, MultiConfigPlan.run = counted_add, traced_plan_run

    instructions = Program.instructions

    @functools.wraps(instructions)
    def exhausted_instructions(self):
        with tracer.span("cpu.workloads.gen"):
            stream_ = list(instructions(self))
        tracer.counts["gen_calls"] += 1
        return iter(stream_)

    Program.instructions = exhausted_instructions

    processor_run = OutOfOrderProcessor.run

    @functools.wraps(processor_run)
    def traced_processor_run(self, *args, **kwargs):
        with tracer.span("cpu.processor"):
            result = processor_run(self, *args, **kwargs)
        tracer.counts["instructions"] += result.instructions
        return result

    OutOfOrderProcessor.run = traced_processor_run

    TableBuilder.render = _spanned(tracer, "analysis.render",
                                   TableBuilder.render)
    TableBuilder.render_csv = _spanned(tracer, "analysis.render",
                                       TableBuilder.render_csv)
