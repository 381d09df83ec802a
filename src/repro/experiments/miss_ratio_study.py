"""Experiment E-MR: trace-level miss-ratio comparison across organisations.

Section 2.1 summarises the earlier ICS'97 study [10]: on Spec95, an 8 KB
two-way set-associative cache has an average miss ratio of 13.84%, the I-Poly
cache of the same size and associativity reduces it to 7.14%, and a
fully-associative cache of the same capacity achieves 6.80%.  The point is
that I-Poly indexing recovers almost all of the benefit of full associativity
at two-way cost.

This driver replays the synthetic workload suite through a configurable set
of cache organisations (conventional, skewed-XOR, I-Poly, prime-modulus,
fully-associative, victim and column-associative are all available) and
reports per-program and suite-average miss ratios, so the ordering
``conventional > I-Poly >= fully-associative`` — and the near-equality of the
last two — can be checked.

The study runs on either simulation engine: ``engine="reference"`` replays
the generator trace through every scalar cache model; ``engine="vectorized"``
materialises each program's trace *once* into NumPy arrays and drives the
batch engine for every organisation — set-associative in all four index
families, fully-associative, column-associative and (since the
:class:`~repro.engine.batch_cache.BatchVictimCache` kernel landed) the victim
cache, so no organisation falls back to scalar replay.  Both paths produce
identical miss ratios.  ``replacement`` selects the replacement policy the
set-associative, fully-associative and victim organisations use (the
column-associative organisation has no replacement freedom).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.metrics import arithmetic_mean
from ..analysis.reporting import TableBuilder
from ..cache.column_assoc import ColumnAssociativeCache
from ..cache.fully_assoc import FullyAssociativeCache
from ..cache.victim import VictimCache
from ..core.index import SingleSetIndexing, make_index_function
from ..engine import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    AddressBatch,
    BatchColumnAssociativeCache,
    BatchSetAssociativeCache,
    BatchVictimCache,
    MultiConfigPlan,
    TaskFailure,
    check_engine,
    check_profile_mode,
    run_sweep,
)
from ..trace.batching import cached_workload_arrays
from ..trace.workloads import build_trace, workload_names
from .config import PAPER_HASH_BITS, PAPER_L1_8KB, CacheGeometry, build_cache
from .trace_input import load_miss_ratios_percent, stream_trace, trace_label

__all__ = [
    "MIN_STUDY_ACCESSES",
    "MissRatioStudyResult",
    "default_organisations",
    "default_batch_organisations",
    "run_miss_ratio_study",
]

#: Shortest synthetic trace, per program, the miss-ratio and replacement
#: studies accept: below it the ratios are too noisy to compare.
MIN_STUDY_ACCESSES = 1_000


@dataclass
class MissRatioStudyResult:
    """Per-program miss ratios (percent) for each cache organisation."""

    accesses_per_program: int
    miss_ratios: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Programs that exhausted their retries under ``on_error="collect"``;
    #: they are excluded from the table and the averages.
    failures: List[TaskFailure] = field(default_factory=list)

    @property
    def programs(self) -> List[str]:
        """Programs replayed."""
        return list(self.miss_ratios)

    @property
    def organisations(self) -> List[str]:
        """Cache organisations compared."""
        if not self.miss_ratios:
            return []
        return list(next(iter(self.miss_ratios.values())))

    def average(self, organisation: str) -> float:
        """Suite-average miss ratio (percent) of one organisation."""
        return arithmetic_mean([self.miss_ratios[p][organisation]
                                for p in self.programs])

    def averages(self) -> Dict[str, float]:
        """Suite-average miss ratio per organisation."""
        return {org: self.average(org) for org in self.organisations}

    def table(self) -> TableBuilder:
        """Per-program table with an average row."""
        table = TableBuilder(self.organisations, row_label="program")
        for program in self.programs:
            table.add_row(program, self.miss_ratios[program])
        table.add_row("Average", self.averages())
        return table

    def render(self) -> str:
        """Render as text."""
        return self.table().render(title="Load miss ratio (%) by cache organisation")


#: The organisations of the Section 2.1 comparison, as (label, kind, params)
#: rows consumed by *both* engines' factory tables — one source of truth, so
#: the reference and vectorized studies can never drift apart structurally.
_ORGANISATION_SPECS = (
    ("conventional-2way", "set-assoc", {"scheme": "a2"}),
    ("skewed-xor-2way", "set-assoc", {"scheme": "a2-Hx-Sk"}),
    ("ipoly-2way", "set-assoc", {"scheme": "a2-Hp"}),
    ("ipoly-skewed-2way", "set-assoc", {"scheme": "a2-Hp-Sk"}),
    ("fully-associative", "fully-assoc", {}),
    ("victim-direct+8", "victim", {"ways": 1, "victim_entries": 8}),
    ("column-assoc-ipoly", "column-assoc", {}),
)


def _scalar_factory(kind: str, params: Dict, geometry: CacheGeometry,
                    replacement: Optional[str] = None) -> Callable:
    if kind == "set-assoc":
        return lambda: build_cache(geometry, params["scheme"],
                                   address_bits=PAPER_HASH_BITS,
                                   replacement=replacement)
    if kind == "fully-assoc":
        return lambda: FullyAssociativeCache(geometry.size_bytes,
                                             geometry.block_size,
                                             replacement=replacement)
    if kind == "victim":
        return lambda: VictimCache(geometry.size_bytes, geometry.block_size,
                                   ways=params["ways"],
                                   victim_entries=params["victim_entries"],
                                   replacement=replacement)
    if kind == "column-assoc":
        return lambda: ColumnAssociativeCache(
            geometry.size_bytes, geometry.block_size,
            address_bits=PAPER_HASH_BITS, replacement=replacement)
    raise ValueError(f"unknown organisation kind {kind!r}")  # pragma: no cover


def _batch_factory(kind: str, params: Dict, geometry: CacheGeometry,
                   replacement: Optional[str] = None) -> Callable:
    if kind == "set-assoc":
        def make() -> BatchSetAssociativeCache:
            index_fn = make_index_function(params["scheme"],
                                           num_sets=geometry.num_sets,
                                           ways=geometry.ways,
                                           address_bits=PAPER_HASH_BITS)
            return BatchSetAssociativeCache(
                size_bytes=geometry.size_bytes,
                block_size=geometry.block_size,
                ways=geometry.ways, index_function=index_fn,
                replacement=replacement)
        return make
    if kind == "fully-assoc":
        return lambda: BatchSetAssociativeCache(
            geometry.size_bytes, geometry.block_size,
            ways=geometry.size_bytes // geometry.block_size,
            index_function=SingleSetIndexing(), replacement=replacement)
    if kind == "victim":
        return lambda: BatchVictimCache(
            geometry.size_bytes, geometry.block_size,
            ways=params["ways"], victim_entries=params["victim_entries"],
            replacement=replacement)
    if kind == "column-assoc":
        return lambda: BatchColumnAssociativeCache(
            geometry.size_bytes, geometry.block_size,
            address_bits=PAPER_HASH_BITS, replacement=replacement)
    raise ValueError(f"unknown organisation kind {kind!r}")  # pragma: no cover


def default_organisations(geometry: CacheGeometry = PAPER_L1_8KB,
                          replacement: Optional[str] = None) -> Dict[str, Callable]:
    """Factories for the organisations compared in the Section 2.1 summary.

    Returns a mapping from label to a zero-argument callable building a fresh
    cache.  Callers can extend the mapping with victim or column-associative
    organisations (both available in :mod:`repro.cache`) for wider studies.
    """
    return {label: _scalar_factory(kind, params, geometry, replacement)
            for label, kind, params in _ORGANISATION_SPECS}


def default_batch_organisations(
        geometry: CacheGeometry = PAPER_L1_8KB,
        replacement: Optional[str] = None) -> Dict[str, Callable]:
    """Batch-engine counterparts of :func:`default_organisations`.

    Built from the same :data:`_ORGANISATION_SPECS` rows, so labels and
    parameters can never diverge between engines.  Every organisation —
    including the victim cache — now has a native batch kernel.
    """
    return {label: _batch_factory(kind, params, geometry, replacement)
            for label, kind, params in _ORGANISATION_SPECS}


def _replay_batch(cache, batch: AddressBatch) -> None:
    """Drive a cache with a batch: native `.run` or scalar replay fallback."""
    if hasattr(cache, "run"):
        cache.run(batch)
        return
    access = cache.access
    for address, is_write in zip(batch.addresses.tolist(),
                                 batch.is_write.tolist()):
        access(address, is_write=is_write)


def _program_miss_ratios(name: str, accesses: int, seed: int, engine: str,
                         organisation_map: Mapping[str, Callable],
                         profile: str = "auto",
                         sample_rate: float = 0.01,
                         sample_size: Optional[int] = None,
                         profile_seed: int = 0) -> Dict[str, float]:
    """Load miss ratio (percent) of every organisation for one program."""
    per_org: Dict[str, float] = {}
    if engine == ENGINE_VECTORIZED:
        # Sweep-wide memoisation: the materialised arrays come from the
        # process-global trace cache with stable identity, so the batch
        # engine also shares the derived block-number / set-index arrays
        # across the organisations below (and across study runs).  The plan
        # additionally routes profilable conventional-LRU rows through one
        # shared stack-distance profile when that wins (or when forced).
        batch = AddressBatch.from_arrays(
            *cached_workload_arrays(name, length=accesses, seed=seed))
        plan = MultiConfigPlan(profile=profile, sample_rate=sample_rate,
                               sample_size=sample_size,
                               profile_seed=profile_seed)
        for label, factory in organisation_map.items():
            plan.add(label, batch, factory, runner=_replay_batch)
        counts = plan.run()
        for label in organisation_map:
            per_org[label] = 100.0 * counts[label].load_miss_ratio
    else:
        for label, factory in organisation_map.items():
            cache = factory()
            for access in build_trace(name, length=accesses, seed=seed):
                cache.access(access.address, is_write=access.is_write)
            per_org[label] = 100.0 * cache.stats.load_miss_ratio
    return per_org


#: One per-program work item of the parallel study: everything a worker
#: process needs to rebuild the default organisations and replay the trace.
_StudyTask = Tuple[str, int, int, str, Optional[str], str,
                   Tuple[float, Optional[int], int]]


def _study_program_task(task: _StudyTask) -> Dict[str, float]:
    """Module-level sweep worker (must be picklable for process pools)."""
    name, accesses, seed, engine, replacement, profile, sampling = task
    sample_rate, sample_size, profile_seed = sampling
    if engine == ENGINE_VECTORIZED:
        organisation_map = default_batch_organisations(replacement=replacement)
    else:
        organisation_map = default_organisations(replacement=replacement)
    return _program_miss_ratios(name, accesses, seed, engine,
                                organisation_map, profile=profile,
                                sample_rate=sample_rate,
                                sample_size=sample_size,
                                profile_seed=profile_seed)


def run_miss_ratio_study(programs: Optional[Sequence[str]] = None,
                         accesses: int = 40_000,
                         organisations: Optional[Mapping[str, Callable]] = None,
                         seed: int = 12345,
                         engine: str = ENGINE_REFERENCE,
                         replacement: Optional[str] = None,
                         workers: Optional[int] = None,
                         chunksize: Optional[int] = None,
                         profile: str = "auto",
                         sample_rate: float = 0.01,
                         sample_size: Optional[int] = None,
                         profile_seed: int = 0,
                         timeout: Optional[float] = None,
                         retries: int = 0,
                         on_error: str = "raise",
                         resume: Optional[str] = None,
                         trace: Optional[str] = None,
                         trace_chunk: int = 1 << 20) -> MissRatioStudyResult:
    """Replay the workload suite through every organisation and collect miss ratios.

    ``engine="vectorized"`` materialises each program's trace once and runs
    the batch engine natively for every default organisation (victim cache
    included); a caller-supplied ``organisations`` mapping is honoured on
    both engines — batch caches expose ``run``, anything else is replayed
    access-at-a-time.  ``replacement`` picks the replacement policy of the
    default organisations (``None`` means the paper's LRU).

    ``workers`` fans the per-program tasks across a process pool
    (:func:`repro.engine.sweep.run_sweep`; ``chunksize`` groups programs per
    dispatch so a worker reuses its materialised traces).  A caller-supplied
    ``organisations`` mapping is not generally picklable, so it always runs
    serially.  ``profile`` selects the multi-configuration profiling policy
    of the vectorized path (``auto``/``always``/``never`` — bit-exact in
    each of those — or ``"sampled"``, which prices the conventional LRU
    rows approximately through the SHARDS profiles of
    :mod:`repro.engine.shards` at ``sample_rate``/``sample_size``/
    ``profile_seed``).

    ``timeout`` (seconds per program), ``retries``, ``on_error`` and
    ``resume`` (sweep-journal path, appended to and resumed from) are
    forwarded to :func:`repro.engine.sweep.run_sweep`; under
    ``on_error="collect"`` a failed program lands in ``result.failures``
    instead of the table.

    ``trace`` replaces the synthetic suite with one recorded on-disk trace
    (any format :mod:`repro.trace.stream` reads — packed v2, optionally
    compressed, v1 binary/text, or Dinero ``.din``): the study then has a
    single row, labelled with the trace's file name.  On the vectorized
    engine the trace streams through every organisation in
    ``trace_chunk``-access batches, so memory stays bounded regardless of
    trace length, with counters bit-identical to an in-memory replay.
    """
    engine = check_engine(engine)
    profile = check_profile_mode(profile)
    if trace is not None:
        caches = {
            label: factory() for label, factory in
            (organisations if organisations is not None else
             (default_batch_organisations(replacement=replacement)
              if engine == ENGINE_VECTORIZED else
              default_organisations(replacement=replacement))).items()}
        total = stream_trace(caches, trace, engine, trace_chunk)
        result = MissRatioStudyResult(accesses_per_program=total)
        result.miss_ratios[trace_label(trace)] = load_miss_ratios_percent(caches)
        return result
    if accesses < MIN_STUDY_ACCESSES:
        raise ValueError(f"accesses should be at least {MIN_STUDY_ACCESSES} "
                         "for stable ratios")
    program_list = list(programs) if programs is not None else workload_names()

    result = MissRatioStudyResult(accesses_per_program=accesses)
    if organisations is not None:
        organisation_map = dict(organisations)
        for name in program_list:
            result.miss_ratios[name] = _program_miss_ratios(
                name, accesses, seed, engine, organisation_map,
                profile=profile, sample_rate=sample_rate,
                sample_size=sample_size, profile_seed=profile_seed)
        return result

    tasks: List[_StudyTask] = [
        (name, accesses, seed, engine, replacement, profile,
         (sample_rate, sample_size, profile_seed))
        for name in program_list
    ]
    per_program = run_sweep(_study_program_task, tasks, workers=workers,
                            chunksize=chunksize, timeout=timeout,
                            retries=retries, on_error=on_error,
                            journal=resume, resume=resume)
    for name, per_org in zip(program_list, per_program):
        if isinstance(per_org, TaskFailure):
            result.failures.append(per_org)
            continue
        result.miss_ratios[name] = per_org
    return result
