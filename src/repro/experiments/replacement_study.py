"""Experiment E-RP: replacement policy x cache organisation sweep.

The paper's central trade-off is about *placement*, but placement interacts
with *replacement*: a conflict-avoiding (skewed, pseudo-randomly indexed)
cache cannot implement true per-set LRU cheaply, because the candidate
frames of one block live in different sets of every bank and no small
per-set state covers them.  The practical alternatives are the policies a
skewed cache *can* implement — FIFO counters, tree-PLRU bits, or a
pseudo-random pick.  This study quantifies what those alternatives cost, by
sweeping every replacement policy across three organisations at equal data
capacity:

* a conventional two-way set-associative cache (``a2``), where true LRU is
  cheap — the baseline cost of abandoning it;
* the paper's skewed I-Poly cache (``a2-Hp-Sk``), where LRU is the
  impractical policy the ablation replaces;
* a direct-mapped cache with a victim buffer, where replacement only
  matters inside the tiny fully-associative buffer.

If the skewed organisation's miss ratio is (nearly) policy-insensitive
while the conventional one degrades without LRU, the paper's position —
that giving up true LRU is a small price for conflict-avoiding placement —
is supported by this reproduction.

Both engines run the study; the vectorized path uses the replacement-aware
batch kernels (including :class:`~repro.engine.batch_cache.BatchVictimCache`)
and produces bit-identical ratios to the scalar models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.metrics import arithmetic_mean
from ..analysis.reporting import TableBuilder
from ..cache.replacement import REPLACEMENT_POLICIES
from ..engine import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    AddressBatch,
    MultiConfigPlan,
    TaskFailure,
    check_engine,
    check_profile_mode,
    run_sweep,
)
from ..trace.batching import cached_workload_arrays
from ..trace.workloads import build_trace, workload_names
from .config import PAPER_L1_8KB, CacheGeometry
from .miss_ratio_study import (
    MIN_STUDY_ACCESSES,
    _batch_factory,
    _replay_batch,
    _scalar_factory,
)
from .trace_input import load_miss_ratios_percent, stream_trace, trace_label

__all__ = [
    "ReplacementStudyResult",
    "run_replacement_study",
]

#: The organisations swept against every policy: (label, kind, params) rows
#: consumed by the same factory tables as the miss-ratio study.
_STUDY_ORGANISATIONS = (
    ("conventional-2way", "set-assoc", {"scheme": "a2"}),
    ("skewed-ipoly-2way", "set-assoc", {"scheme": "a2-Hp-Sk"}),
    ("victim-direct+8", "victim", {"ways": 1, "victim_entries": 8}),
)


@dataclass
class ReplacementStudyResult:
    """Suite-average load miss ratios (percent) per organisation x policy."""

    accesses_per_program: int
    programs: List[str] = field(default_factory=list)
    policies: List[str] = field(default_factory=list)
    #: ``miss_ratios[organisation][policy]`` -> suite-average percent.
    miss_ratios: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Programs that exhausted their retries under ``on_error="collect"``;
    #: the averages cover the surviving programs only.
    failures: List[TaskFailure] = field(default_factory=list)

    @property
    def organisations(self) -> List[str]:
        """Organisations swept."""
        return list(self.miss_ratios)

    def policy_spread(self, organisation: str) -> float:
        """Worst-minus-best miss ratio across policies (percentage points).

        The organisation's *replacement sensitivity*: how much choosing the
        wrong (or the only implementable) policy can cost.
        """
        values = self.miss_ratios[organisation].values()
        return max(values) - min(values)

    def lru_penalty(self, organisation: str, policy: str) -> float:
        """Miss-ratio cost (percentage points) of ``policy`` versus LRU."""
        row = self.miss_ratios[organisation]
        return row[policy] - row["lru"]

    def table(self) -> TableBuilder:
        """Organisation x policy table with a spread column."""
        table = TableBuilder(self.policies + ["spread"],
                             row_label="organisation")
        for organisation in self.organisations:
            row = dict(self.miss_ratios[organisation])
            row["spread"] = self.policy_spread(organisation)
            table.add_row(organisation, row)
        return table

    def render(self) -> str:
        """Render as text, with the replacement-sensitivity summary."""
        lines = [self.table().render(
            title="Load miss ratio (%) by organisation and replacement policy")]
        lines.append("")
        lines.append("replacement sensitivity (max - min across policies):")
        for organisation in self.organisations:
            lines.append(f"  {organisation:20s} "
                         f"{self.policy_spread(organisation):6.2f} pp")
        return "\n".join(lines)


#: One per-program work item of the parallel study (picklable primitives
#: only; the geometry is rebuilt from its defining numbers).
_StudyTask = Tuple[str, int, int, str, Tuple[str, ...], Tuple[int, int, int],
                   str, Tuple[float, Optional[int], int]]


def _program_policy_ratios(task: _StudyTask) -> Dict[str, Dict[str, float]]:
    """Module-level sweep worker: one program's organisation x policy grid."""
    (name, accesses, seed, engine, policy_list, geometry_tuple, profile,
     sampling) = task
    sample_rate, sample_size, profile_seed = sampling
    geometry = CacheGeometry(size_bytes=geometry_tuple[0],
                             block_size=geometry_tuple[1],
                             ways=geometry_tuple[2])
    factory = (_batch_factory if engine == ENGINE_VECTORIZED
               else _scalar_factory)
    ratios: Dict[str, Dict[str, float]] = {
        label: {} for label, _, _ in _STUDY_ORGANISATIONS}
    if engine == ENGINE_VECTORIZED:
        # One materialisation per (program, length, seed) per process —
        # every (organisation, policy) pair below reuses the cached
        # arrays, and with them the memoised per-scheme index arrays.  The
        # plan routes the profilable rows (conventional LRU) through the
        # one-pass stack-distance profiler when that wins (or when forced).
        batch = AddressBatch.from_arrays(
            *cached_workload_arrays(name, length=accesses, seed=seed))
        plan = MultiConfigPlan(profile=profile, sample_rate=sample_rate,
                               sample_size=sample_size,
                               profile_seed=profile_seed)
        for label, kind, params in _STUDY_ORGANISATIONS:
            for policy in policy_list:
                plan.add((label, policy), batch,
                         factory(kind, params, geometry, policy),
                         runner=_replay_batch)
        counts = plan.run()
        for label, _, _ in _STUDY_ORGANISATIONS:
            for policy in policy_list:
                ratios[label][policy] = (
                    100.0 * counts[(label, policy)].load_miss_ratio)
    else:
        for label, kind, params in _STUDY_ORGANISATIONS:
            for policy in policy_list:
                cache = factory(kind, params, geometry, policy)()
                for access in build_trace(name, length=accesses, seed=seed):
                    cache.access(access.address, is_write=access.is_write)
                ratios[label][policy] = 100.0 * cache.stats.load_miss_ratio
    return ratios


def run_replacement_study(programs: Optional[Sequence[str]] = None,
                          accesses: int = 40_000,
                          policies: Optional[Sequence[str]] = None,
                          geometry: CacheGeometry = PAPER_L1_8KB,
                          seed: int = 12345,
                          engine: str = ENGINE_REFERENCE,
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
                          trace_chunk: int = 1 << 20,
                          ) -> ReplacementStudyResult:
    """Sweep replacement policy x organisation over the workload suite.

    Replays every program's trace through each (organisation, policy) pair
    and reports suite-average load miss ratios.  ``engine="vectorized"``
    materialises each trace once and drives the batch kernels; both engines
    produce identical numbers.  ``workers`` fans the per-program tasks
    across a process pool (``chunksize`` groups programs per dispatch so a
    worker reuses its materialised traces); ``profile`` selects the
    multi-configuration profiling policy of the vectorized LRU and FIFO rows
    (``auto``/``always``/``never`` — bit-exact — or ``sampled``, which prices
    the LRU rows approximately via SHARDS spatial sampling at ``sample_rate``
    / ``sample_size`` / ``profile_seed``; FIFO rows stay exact).
    ``timeout``/``retries``/``on_error``/``resume`` are forwarded to
    :func:`repro.engine.sweep.run_sweep`; under ``on_error="collect"`` a
    failed program lands in ``result.failures`` and the averages cover the
    surviving programs.

    ``trace`` replaces the synthetic suite with one recorded on-disk trace
    (any :mod:`repro.trace.stream` format); the reported ratios are then
    that single trace's, not suite averages.  On the vectorized engine the
    trace streams through the whole (organisation, policy) grid in
    ``trace_chunk``-access batches — bounded memory, bit-identical counters.
    """
    engine = check_engine(engine)
    profile = check_profile_mode(profile)
    policy_list = list(policies) if policies is not None else list(REPLACEMENT_POLICIES)
    for policy in policy_list:
        if policy not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement policy {policy!r}; expected one of "
                f"{sorted(REPLACEMENT_POLICIES)}")
    if trace is not None:
        factory = (_batch_factory if engine == ENGINE_VECTORIZED
                   else _scalar_factory)
        caches = {
            (label, policy): factory(kind, params, geometry, policy)()
            for label, kind, params in _STUDY_ORGANISATIONS
            for policy in policy_list}
        total = stream_trace(caches, trace, engine, trace_chunk)
        ratios = load_miss_ratios_percent(caches)
        result = ReplacementStudyResult(accesses_per_program=total,
                                        programs=[trace_label(trace)],
                                        policies=policy_list)
        for label, _, _ in _STUDY_ORGANISATIONS:
            result.miss_ratios[label] = {
                policy: ratios[(label, policy)] for policy in policy_list}
        return result
    if accesses < MIN_STUDY_ACCESSES:
        raise ValueError(f"accesses should be at least {MIN_STUDY_ACCESSES} "
                         "for stable ratios")
    program_list = list(programs) if programs is not None else workload_names()

    result = ReplacementStudyResult(accesses_per_program=accesses,
                                    programs=program_list,
                                    policies=policy_list)
    tasks: List[_StudyTask] = [
        (name, accesses, seed, engine, tuple(policy_list),
         (geometry.size_bytes, geometry.block_size, geometry.ways), profile,
         (sample_rate, sample_size, profile_seed))
        for name in program_list
    ]
    per_program = run_sweep(_program_policy_ratios, tasks, workers=workers,
                            chunksize=chunksize, timeout=timeout,
                            retries=retries, on_error=on_error,
                            journal=resume, resume=resume)
    # Accumulate per-program ratios, then average per (organisation, policy).
    per_pair: Dict[str, Dict[str, List[float]]] = {
        label: {policy: [] for policy in policy_list}
        for label, _, _ in _STUDY_ORGANISATIONS
    }
    for ratios in per_program:
        if isinstance(ratios, TaskFailure):
            result.failures.append(ratios)
            continue
        for label, _, _ in _STUDY_ORGANISATIONS:
            for policy in policy_list:
                per_pair[label][policy].append(ratios[label][policy])
    for label, _, _ in _STUDY_ORGANISATIONS:
        result.miss_ratios[label] = {
            policy: arithmetic_mean(per_pair[label][policy])
            for policy in policy_list
        }
    return result
