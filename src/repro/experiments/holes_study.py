"""Experiment E-HOLE: Inclusion holes — analytical model versus simulation.

Section 3.3 argues that the holes punched into L1 by Inclusion maintenance
are rare enough to ignore.  Two quantitative claims are made:

* the analytical model (equations vii-ix) gives ``P_H ~= 0.031`` for an 8 KB
  L1 backed by a 256 KB L2 with 32-byte lines — "slightly more than 3% of L2
  misses will result in the creation of a hole";
* whole-Spec95 simulations with an 8 KB two-way skewed I-Poly L1 over a 1 MB
  conventional two-way L2 show that the percentage of L2 misses creating a
  hole "averaged less than 0.1% and was never greater than 1.2%".

This driver measures the hole rate with the
:class:`~repro.cache.virtual_real.VirtualRealHierarchy` simulator across a
sweep of L2 sizes and compares it with :class:`~repro.models.holes.HoleModel`.
Note that the analytical model assumes direct-mapped levels and completely
uncorrelated indices, so it is an *upper-bound-flavoured* estimate; the
simulated two-way hierarchy typically sits below it, which is exactly the
relationship the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.reporting import TableBuilder
from ..cache.set_assoc import WritePolicy
from ..cache.virtual_real import VirtualRealHierarchy
from ..engine import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    AddressBatch,
    batch_virtual_real_like,
    check_engine,
)
from ..memory.paging import PageTable
from ..models.holes import HoleModel
from ..trace.workloads import build_trace, build_trace_arrays, workload_names
from .config import PAPER_HASH_BITS, CacheGeometry, build_cache

__all__ = ["HoleStudyResult", "run_holes_study"]


@dataclass
class HoleStudyResult:
    """Hole statistics per L2 size (bytes)."""

    l1_geometry: CacheGeometry
    accesses_per_program: int
    predicted_hole_probability: Dict[int, float] = field(default_factory=dict)
    simulated_hole_rate: Dict[int, float] = field(default_factory=dict)
    per_program_hole_rate: Dict[int, Dict[str, float]] = field(default_factory=dict)
    l2_misses: Dict[int, int] = field(default_factory=dict)

    @property
    def l2_sizes(self) -> List[int]:
        """The L2 sizes swept, in bytes."""
        return list(self.predicted_hole_probability)

    def max_program_hole_rate(self, l2_size: int) -> float:
        """Worst per-program hole rate for one L2 size."""
        rates = self.per_program_hole_rate.get(l2_size, {})
        return max(rates.values()) if rates else 0.0

    def table(self) -> TableBuilder:
        """Summary table: model P_H vs simulated hole rate per L2 size."""
        table = TableBuilder(["model P_H", "simulated", "worst program", "L2 misses"],
                             row_label="L2 size")
        for size in self.l2_sizes:
            table.add_row(f"{size // 1024}KB", {
                "model P_H": self.predicted_hole_probability[size],
                "simulated": self.simulated_hole_rate[size],
                "worst program": self.max_program_hole_rate(size),
                "L2 misses": self.l2_misses[size],
            })
        return table

    def render(self) -> str:
        """Render the summary table."""
        return self.table().render(precision=4,
                                   title="Holes per L2 miss: model vs simulation")


def run_holes_study(l2_sizes: Sequence[int] = (256 * 1024, 1024 * 1024),
                    programs: Optional[Sequence[str]] = None,
                    accesses: int = 30_000,
                    l1_geometry: CacheGeometry = CacheGeometry(8 * 1024),
                    page_size: int = 4096,
                    seed: int = 999,
                    engine: str = ENGINE_REFERENCE) -> HoleStudyResult:
    """Measure hole rates over a sweep of L2 sizes.

    The L1 is a skewed I-Poly cache indexed by virtual addresses; the L2 is a
    conventional two-way cache indexed by physical addresses obtained from a
    scatter-allocating page table, so the two indices are uncorrelated as the
    analytical model assumes.

    ``engine="vectorized"`` runs each program through
    :class:`~repro.engine.hierarchy_vec.BatchVirtualRealHierarchy` —
    batched translation, miss-stream composition and all — instead of the
    per-access scalar protocol; both engines produce identical counters, so
    the reported hole rates are the same numbers, just faster.
    """
    engine = check_engine(engine)
    program_list = list(programs) if programs is not None else workload_names()
    result = HoleStudyResult(l1_geometry=l1_geometry,
                             accesses_per_program=accesses)

    for l2_size in l2_sizes:
        model = HoleModel(l1_bytes=l1_geometry.size_bytes, l2_bytes=l2_size,
                          block_size=l1_geometry.block_size)
        result.predicted_hole_probability[l2_size] = model.hole_probability

        total_holes = 0
        total_l2_misses = 0
        per_program: Dict[str, float] = {}
        for name in program_list:
            page_table = PageTable(page_size=page_size, allocation="scatter",
                                   seed=seed)
            l1 = build_cache(l1_geometry, "a2-Hp-Sk",
                             address_bits=PAPER_HASH_BITS)
            l2 = build_cache(CacheGeometry(l2_size,
                                           block_size=l1_geometry.block_size,
                                           ways=2),
                             "a2", write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
            hierarchy = VirtualRealHierarchy(l1, l2,
                                             translate=page_table.translate,
                                             page_size=page_size)
            if engine == ENGINE_VECTORIZED:
                batch_vr = batch_virtual_real_like(hierarchy, page_table)
                # Fresh writable arrays, deliberately not the read-only
                # trace cache: read-only arrays switch on the engine memo's
                # set-index lists, which cost memory and save no time here.
                batch_vr.run(AddressBatch.from_arrays(*build_trace_arrays(
                    name, length=accesses, seed=seed)))
                hierarchy = batch_vr
            else:
                for access in build_trace(name, length=accesses, seed=seed):
                    hierarchy.access(access.address, is_write=access.is_write)
            per_program[name] = hierarchy.hole_rate_per_l2_miss
            total_holes += hierarchy.l2_misses_causing_holes
            total_l2_misses += hierarchy.l2.stats.misses

        result.per_program_hole_rate[l2_size] = per_program
        result.simulated_hole_rate[l2_size] = (
            total_holes / total_l2_misses if total_l2_misses else 0.0)
        result.l2_misses[l2_size] = total_l2_misses
    return result
