"""Experiment E-T2: Table 2 — IPC and load miss ratio per program and configuration.

Table 2 of the paper reports, for each of the 18 Spec95 programs, the IPC and
load miss ratio of six machine configurations:

====================  =============================================================
Column                Machine
====================  =============================================================
``16K-conv``          16 KB two-way conventional cache
``8K-conv``           8 KB two-way conventional cache
``8K-conv-pred``      8 KB conventional + memory address prediction
``8K-ipoly-noCP``     8 KB skewed I-Poly, XOR stage *not* on the critical path
``8K-ipoly-CP``       8 KB skewed I-Poly, XOR stage on the critical path (+1 cycle)
``8K-ipoly-CP-pred``  as above + memory address prediction
====================  =============================================================

plus arithmetic-mean miss ratios and geometric-mean IPCs for the integer
suite, the floating-point suite and the combination.  The conclusions also
quote the standard deviation of miss ratios across the suite (18.49
conventional vs 5.16 I-Poly), which :func:`miss_ratio_std_dev` reproduces.

The programs here are the synthetic Spec95-like models of
:mod:`repro.cpu.workloads`; see DESIGN.md for the substitution argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from typing import Tuple

from ..analysis.metrics import arithmetic_mean, geometric_mean, std_deviation
from ..analysis.reporting import TableBuilder
from ..cpu.processor import OutOfOrderProcessor, ProcessorConfig, SimulationResult
from ..cpu.workloads import build_program, program_names
from ..engine.sweep import TaskFailure, run_sweep
from ..trace.workloads import FP_PROGRAMS, INTEGER_PROGRAMS
from .config import TABLE2_CONFIGS

__all__ = ["MIN_INSTRUCTIONS", "Table2Result", "run_table2",
           "miss_ratio_std_dev"]

#: Table 2/3 refuse shorter instruction streams (unstable IPC and miss ratios).
MIN_INSTRUCTIONS = 1_000

#: Columns that report IPC (the others report miss ratio).
IPC_COLUMNS: List[str] = list(TABLE2_CONFIGS)


@dataclass
class Table2Result:
    """Per-program, per-configuration results of the Table 2 experiment."""

    instructions_per_program: int
    results: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)
    #: Programs that exhausted their retries under ``on_error="collect"``;
    #: they are absent from the tables and the suite averages.
    failures: List[TaskFailure] = field(default_factory=list)

    @property
    def programs(self) -> List[str]:
        """Programs simulated, in insertion order."""
        return list(self.results)

    @property
    def configurations(self) -> List[str]:
        """Configuration labels (Table 2 columns)."""
        if not self.results:
            return []
        first = next(iter(self.results.values()))
        return list(first)

    def ipc(self, program: str, configuration: str) -> float:
        """IPC of one (program, configuration) cell."""
        return self.results[program][configuration].ipc

    def miss_ratio_percent(self, program: str, configuration: str) -> float:
        """Load miss ratio (percent) of one cell."""
        return self.results[program][configuration].load_miss_ratio_percent

    def ipc_table(self) -> TableBuilder:
        """IPC per program and configuration, plus the paper's average rows."""
        table = TableBuilder(self.configurations, row_label="program")
        for program in self.programs:
            table.add_row(program, {cfg: self.ipc(program, cfg)
                                    for cfg in self.configurations})
        for label, names in self._groups().items():
            table.add_row(label, {
                cfg: geometric_mean([self.ipc(p, cfg) for p in names])
                for cfg in self.configurations
            })
        return table

    def miss_ratio_table(self) -> TableBuilder:
        """Load miss ratio (percent) per program/configuration plus averages."""
        table = TableBuilder(self.configurations, row_label="program")
        for program in self.programs:
            table.add_row(program, {cfg: self.miss_ratio_percent(program, cfg)
                                    for cfg in self.configurations})
        for label, names in self._groups().items():
            table.add_row(label, {
                cfg: arithmetic_mean([self.miss_ratio_percent(p, cfg) for p in names])
                for cfg in self.configurations
            })
        return table

    def _groups(self) -> Dict[str, List[str]]:
        ints = [p for p in self.programs if p in INTEGER_PROGRAMS]
        fps = [p for p in self.programs if p in FP_PROGRAMS]
        groups: Dict[str, List[str]] = {}
        if ints:
            groups["Int average"] = ints
        if fps:
            groups["Fp average"] = fps
        groups["Combined average"] = self.programs
        return groups

    def render(self) -> str:
        """Render both tables as text."""
        return (self.ipc_table().render(title="Table 2 (IPC)")
                + "\n\n"
                + self.miss_ratio_table().render(title="Table 2 (load miss ratio %)"))


#: One per-program work item of the parallel Table 2 sweep: everything a
#: worker process needs to rebuild the program and run every configuration.
_Table2Task = Tuple[str, int, int, str, Tuple[Tuple[str, tuple], ...]]


def _table2_program_task(task: _Table2Task) -> Dict[str, SimulationResult]:
    """Module-level sweep worker (must be picklable for process pools)."""
    name, instructions, seed, engine, config_items = task
    per_config: Dict[str, SimulationResult] = {}
    for label, override_items in config_items:
        merged = dict(override_items)
        merged.setdefault("index_engine", engine)
        processor = OutOfOrderProcessor(ProcessorConfig(**merged))
        program = build_program(name, length=instructions, seed=seed)
        per_config[label] = processor.run(program)
    return per_config


def run_table2(programs: Optional[Sequence[str]] = None,
               instructions: int = 30_000,
               configurations: Optional[Mapping[str, dict]] = None,
               seed: int = 2027,
               engine: str = "reference",
               workers: Optional[int] = None,
               chunksize: Optional[int] = None,
               timeout: Optional[float] = None,
               retries: int = 0,
               on_error: str = "raise",
               resume: Optional[str] = None) -> Table2Result:
    """Simulate every (program, configuration) pair of Table 2.

    ``instructions`` scales the per-program run length; the paper simulates
    100 M committed instructions per benchmark, which is far beyond what a
    pure-Python model can afford, but the synthetic programs reach their
    steady-state behaviour within a few tens of thousands of instructions.

    The processor pipeline is inherently sequential, so ``engine`` does not
    change *what* is simulated: ``"vectorized"`` swaps the I-Poly placement
    function for the engine's table-accelerated, bit-exact equivalent
    (:class:`~repro.engine.tabulated.TabulatedIPolyIndexing`), producing
    identical IPCs and miss ratios faster.

    ``workers`` fans the per-program tasks (each simulating all six machine
    configurations for one program) across a process pool via
    :func:`repro.engine.sweep.run_sweep` — programs are independent
    simulations, so the results are identical to the serial run in any
    ``workers``/``chunksize`` combination.  ``chunksize`` groups programs
    per worker dispatch.

    ``timeout`` (seconds per program), ``retries``, ``on_error`` and
    ``resume`` (sweep-journal path, appended to and resumed from) are
    forwarded to :func:`repro.engine.sweep.run_sweep`; under
    ``on_error="collect"`` a failed program lands in ``result.failures``
    instead of the tables.
    """
    if instructions < MIN_INSTRUCTIONS:
        raise ValueError(f"instructions should be at least {MIN_INSTRUCTIONS} "
                         "for stable results")
    from ..engine import check_engine
    engine = check_engine(engine)
    program_list = list(programs) if programs is not None else program_names()
    config_map = dict(configurations) if configurations is not None else dict(TABLE2_CONFIGS)
    # Freeze the configuration overrides into tuples so the per-program
    # tasks are hashable, compact and unambiguously picklable.
    config_items = tuple((label, tuple(overrides.items()))
                         for label, overrides in config_map.items())

    tasks: List[_Table2Task] = [
        (name, instructions, seed, engine, config_items)
        for name in program_list
    ]
    per_program = run_sweep(_table2_program_task, tasks, workers=workers,
                            chunksize=chunksize, timeout=timeout,
                            retries=retries, on_error=on_error,
                            journal=resume, resume=resume)
    result = Table2Result(instructions_per_program=instructions)
    for name, per_config in zip(program_list, per_program):
        if isinstance(per_config, TaskFailure):
            result.failures.append(per_config)
            continue
        result.results[name] = per_config
    return result


def miss_ratio_std_dev(result: Table2Result,
                       conventional: str = "8K-conv",
                       ipoly: str = "8K-ipoly-noCP") -> Dict[str, float]:
    """Standard deviation of per-program miss ratios for two configurations.

    Reproduces the conclusions' claim that I-Poly indexing reduces the
    cross-suite standard deviation of miss ratios (18.49 -> 5.16 in the
    paper); the reproduction checks the *direction and rough magnitude* of
    that reduction.
    """
    conventional_values = [result.miss_ratio_percent(p, conventional)
                           for p in result.programs]
    ipoly_values = [result.miss_ratio_percent(p, ipoly) for p in result.programs]
    return {
        conventional: std_deviation(conventional_values),
        ipoly: std_deviation(ipoly_values),
    }
