"""Experiment E-F1: Figure 1 — stride sensitivity of the indexing schemes.

The paper drives four otherwise-identical 8 KB, 32-byte-block, two-way caches
with "repeated accesses to a vector of 64 8-byte elements in which the
elements were separated by stride S", for every stride in ``1 <= S < 4096``,
and plots the frequency distribution of the resulting miss ratios per
indexing scheme.  The headline observations are:

* most strides behave well under every scheme;
* the conventional (``a2``) and skewed-XOR (``a2-Hx-Sk``) schemes are
  pathological (miss ratio > 50%) on more than 6% of strides;
* the skewed I-Poly scheme (``a2-Hp-Sk``) has no pathological strides at all.

:func:`run_figure1` reproduces the sweep and returns one
:class:`~repro.analysis.histograms.MissRatioHistogram` per scheme plus the
pathological-stride fractions.

The sweep runs on either simulation engine: ``engine="reference"`` replays
:class:`~repro.trace.record.MemoryAccess` objects through the scalar cache
model, ``engine="vectorized"`` synthesises the strided addresses directly as
NumPy arrays and drives the batch engine
(:class:`~repro.engine.batch_cache.BatchSetAssociativeCache`) — bit-exact,
an order of magnitude faster, and therefore the path of choice for the full
4096-stride sweep.  ``workers`` additionally fans the (scheme, stride) grid
across a process pool via :func:`repro.engine.sweep.run_sweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.histograms import MissRatioHistogram
from ..core.index import make_index_function
from ..engine import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    AddressBatch,
    BatchSetAssociativeCache,
    MultiConfigPlan,
    TaskFailure,
    check_engine,
    check_profile_mode,
    chunk_tasks,
    run_sweep,
)
from ..trace.batching import cached_strided_arrays
from ..trace.generators import strided_vector
from .config import INDEX_SCHEMES, PAPER_L1_8KB, CacheGeometry, build_cache
from .trace_input import stream_trace

__all__ = ["Figure1Result", "stride_miss_ratio", "run_figure1"]


@dataclass
class Figure1Result:
    """Outcome of the Figure 1 sweep."""

    geometry: CacheGeometry
    strides: int
    histograms: Dict[str, MissRatioHistogram] = field(default_factory=dict)
    miss_ratios: Dict[str, List[float]] = field(default_factory=dict)
    #: Dispatches that exhausted their retries under ``on_error="collect"``;
    #: their strides carry ``nan`` ratios and are absent from the histograms.
    failures: List[TaskFailure] = field(default_factory=list)

    def pathological_fraction(self, scheme: str, threshold: float = 0.5) -> float:
        """Fraction of strides whose miss ratio exceeds ``threshold``."""
        return self.histograms[scheme].fraction_above(threshold)

    def summary(self, threshold: float = 0.5) -> Dict[str, float]:
        """Pathological-stride fraction per scheme."""
        return {scheme: self.pathological_fraction(scheme, threshold)
                for scheme in self.histograms}

    def render(self) -> str:
        """Human-readable rendering of all histograms plus the summary."""
        parts = [h.render() for h in self.histograms.values()]
        parts.append("pathological strides (miss ratio > 50%):")
        for scheme, fraction in self.summary().items():
            parts.append(f"  {scheme:10s} {100 * fraction:6.2f}%")
        return "\n\n".join(parts)


def stride_miss_ratio(scheme: str, stride: int,
                      geometry: CacheGeometry = PAPER_L1_8KB,
                      elements: int = 64, element_size: int = 8,
                      sweeps: int = 8, address_bits: int = 19,
                      engine: str = ENGINE_REFERENCE,
                      replacement: Optional[str] = None,
                      profile: str = "auto",
                      sample_rate: float = 0.01,
                      sample_size: Optional[int] = None,
                      profile_seed: int = 0) -> float:
    """Miss ratio of one (scheme, stride) pair under the Figure 1 workload.

    ``sweeps`` controls how many times the vector is traversed; the first
    sweep's compulsory misses are amortised over the rest, as in the paper's
    "repeated accesses".  ``engine`` picks the scalar reference model or the
    bit-exact batch engine; ``replacement`` the replacement policy (``None``
    means the paper's LRU).  On the vectorized engine the task is routed
    through a :class:`~repro.engine.multiconfig.MultiConfigPlan`; ``profile``
    selects its policy (a single-configuration task stays on its exact
    kernel under ``"auto"``; ``"sampled"`` prices a conventional LRU task
    out of a SHARDS-sampled profile).
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    engine = check_engine(engine)
    profile = check_profile_mode(profile)
    if engine == ENGINE_VECTORIZED:
        # Cached per (stride, shape): each sweep worker materialises a given
        # stride's trace once even though every scheme revisits it.
        addresses, writes = cached_strided_arrays(
            stride, elements=elements, element_size=element_size, sweeps=sweeps)
        batch = AddressBatch.from_arrays(addresses, writes)

        def factory() -> BatchSetAssociativeCache:
            index_fn = make_index_function(scheme, num_sets=geometry.num_sets,
                                           ways=geometry.ways,
                                           address_bits=address_bits)
            return BatchSetAssociativeCache(
                size_bytes=geometry.size_bytes, block_size=geometry.block_size,
                ways=geometry.ways, index_function=index_fn,
                replacement=replacement)

        plan = MultiConfigPlan(profile=profile, sample_rate=sample_rate,
                               sample_size=sample_size,
                               profile_seed=profile_seed)
        plan.add("row", batch, factory)
        return plan.run()["row"].miss_ratio
    cache = build_cache(geometry, scheme, address_bits=address_bits,
                        replacement=replacement)
    for access in strided_vector(stride, elements=elements,
                                 element_size=element_size, sweeps=sweeps):
        cache.access(access.address, access.is_write)
    return cache.stats.miss_ratio


#: One (scheme, stride) work item of the sweep, with everything a worker
#: process needs to rebuild the simulation.  The trailing triple is the
#: sampled-profiling configuration ``(sample_rate, sample_size, seed)``.
_SweepTask = Tuple[str, int, CacheGeometry, int, int, int, str, Optional[str],
                   str, Tuple[float, Optional[int], int]]


def _stride_task(task: _SweepTask) -> float:
    """Module-level sweep worker (must be picklable for process pools)."""
    (scheme, stride, geometry, elements, sweeps, address_bits, engine,
     replacement, profile, sampling) = task
    sample_rate, sample_size, profile_seed = sampling
    return stride_miss_ratio(scheme, stride, geometry=geometry,
                             elements=elements, sweeps=sweeps,
                             address_bits=address_bits, engine=engine,
                             replacement=replacement, profile=profile,
                             sample_rate=sample_rate, sample_size=sample_size,
                             profile_seed=profile_seed)


def _stride_chunk_task(chunk: List[_SweepTask]) -> List[float]:
    """Chunk-level sweep worker: one dispatch simulates a run of strides.

    The Figure 1 grid is thousands of tiny tasks; dispatching them one at a
    time across a process pool is dominated by pickling/IPC overhead (the
    ROADMAP's "spawn-cost-bound" item).  Chunks amortise that cost while
    preserving result order.
    """
    return [_stride_task(task) for task in chunk]


def run_figure1(max_stride: int = 4096,
                schemes: Optional[Sequence[str]] = None,
                geometry: CacheGeometry = PAPER_L1_8KB,
                elements: int = 64, sweeps: int = 8,
                stride_step: int = 1,
                engine: str = ENGINE_REFERENCE,
                workers: Optional[int] = None,
                chunksize: Optional[int] = None,
                address_bits: int = 19,
                replacement: Optional[str] = None,
                profile: str = "auto",
                sample_rate: float = 0.01,
                sample_size: Optional[int] = None,
                profile_seed: int = 0,
                timeout: Optional[float] = None,
                retries: int = 0,
                on_error: str = "raise",
                resume: Optional[str] = None,
                trace: Optional[str] = None,
                trace_chunk: int = 1 << 20) -> Figure1Result:
    """Run the Figure 1 stride sweep.

    Parameters
    ----------
    max_stride:
        Upper bound of the stride range (exclusive); the paper uses 4096.
    schemes:
        Index schemes to evaluate (defaults to the four of Figure 1).
    stride_step:
        Evaluate every ``stride_step``-th stride — useful to subsample the
        sweep in quick runs while keeping full coverage in the benchmark.
    engine:
        ``"reference"`` (scalar models) or ``"vectorized"`` (batch engine;
        bit-exact, much faster).
    workers:
        Fan the (scheme, stride) grid across this many worker processes;
        ``None`` or 1 runs serially.
    chunksize:
        Strides simulated per worker dispatch.  Tasks are chunked *within*
        each scheme (a chunk never spans schemes), so one dispatch carries a
        contiguous run of strides instead of a single tiny task.  ``None``
        picks roughly four chunks per worker per scheme.
    replacement:
        Replacement policy name for every cache of the sweep (``None`` means
        the paper's LRU).
    profile:
        Multi-configuration profiling policy on the vectorized engine
        (``auto`` or ``sampled`` — see
        :class:`~repro.engine.multiconfig.MultiConfigPlan`); every stride is
        its own trace, so under ``"auto"`` every row runs its exact kernel
        and only ``"sampled"`` moves the conventional LRU rows onto a
        (SHARDS-sampled) profile.
    sample_rate, sample_size, profile_seed:
        SHARDS sampled-profiling knobs, used only under
        ``profile="sampled"`` (see :mod:`repro.engine.shards`): the spatial
        sampling rate in (0, 1], an optional cap on the expected number of
        sampled blocks, and the hash seed.
    timeout, retries, on_error, resume:
        Fault-tolerance knobs forwarded to
        :func:`repro.engine.sweep.run_sweep`.  The dispatched work item is a
        chunk of up to ``chunksize`` strides, so ``timeout`` bounds one such
        chunk.  Under ``on_error="collect"`` a failed chunk lands in
        ``result.failures`` and its strides read as ``nan``.  ``resume``
        names a sweep journal that is both appended to and resumed from.
    trace, trace_chunk:
        ``trace`` replaces the synthetic strided workload with one recorded
        on-disk trace (any :mod:`repro.trace.stream` format): each scheme's
        cache replays that single trace instead of the stride grid, so the
        result carries one miss ratio (and a one-sample histogram) per
        scheme.  On the vectorized engine the trace streams through all
        schemes in ``trace_chunk``-access batches.  A trace replay runs
        every cache on its exact kernel and reads none of the stride,
        sweep-execution or sampling parameters.
    """
    engine = check_engine(engine)
    profile = check_profile_mode(profile)
    schemes = list(schemes) if schemes is not None else list(INDEX_SCHEMES)
    if trace is not None:
        caches = {}
        for scheme in schemes:
            if engine == ENGINE_VECTORIZED:
                index_fn = make_index_function(
                    scheme, num_sets=geometry.num_sets, ways=geometry.ways,
                    address_bits=address_bits)
                caches[scheme] = BatchSetAssociativeCache(
                    size_bytes=geometry.size_bytes,
                    block_size=geometry.block_size, ways=geometry.ways,
                    index_function=index_fn, replacement=replacement)
            else:
                caches[scheme] = build_cache(geometry, scheme,
                                             address_bits=address_bits,
                                             replacement=replacement)
        stream_trace(caches, trace, engine, trace_chunk)
        result = Figure1Result(geometry=geometry, strides=1)
        for scheme, cache in caches.items():
            ratio = cache.stats.miss_ratio
            histogram = MissRatioHistogram(label=scheme)
            histogram.add(ratio)
            result.histograms[scheme] = histogram
            result.miss_ratios[scheme] = [ratio]
        return result
    if max_stride < 2:
        raise ValueError("max_stride must be at least 2")
    if stride_step < 1:
        raise ValueError("stride_step must be positive")
    if chunksize is not None and chunksize < 1:
        raise ValueError("chunksize must be positive")

    strides = range(1, max_stride, stride_step)
    result = Figure1Result(geometry=geometry, strides=len(strides))
    if chunksize is None:
        per_worker = max(1, (workers or 1) * 4)
        chunksize = max(1, len(strides) // per_worker)
    chunks: List[List[_SweepTask]] = []
    for scheme in schemes:
        scheme_tasks: List[_SweepTask] = [
            (scheme, stride, geometry, elements, sweeps, address_bits,
             engine, replacement, profile,
             (sample_rate, sample_size, profile_seed))
            for stride in strides
        ]
        chunks.extend(chunk_tasks(scheme_tasks, chunksize))
    chunked_ratios = run_sweep(_stride_chunk_task, chunks, workers=workers,
                               chunksize=1, timeout=timeout, retries=retries,
                               on_error=on_error, journal=resume,
                               resume=resume)
    ratios_flat: List[float] = []
    for chunk, outcome in zip(chunks, chunked_ratios):
        if isinstance(outcome, TaskFailure):
            result.failures.append(outcome)
            ratios_flat.extend([float("nan")] * len(chunk))
        else:
            ratios_flat.extend(outcome)
    per_scheme = len(strides)
    for position, scheme in enumerate(schemes):
        histogram = MissRatioHistogram(label=scheme)
        ratios = ratios_flat[position * per_scheme:(position + 1) * per_scheme]
        for ratio in ratios:
            if not math.isnan(ratio):
                histogram.add(ratio)
        result.histograms[scheme] = histogram
        result.miss_ratios[scheme] = list(ratios)
    return result
