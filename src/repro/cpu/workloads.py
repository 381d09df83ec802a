"""Synthetic Spec95-like programs for the processor-level experiments.

The IPC experiments of Tables 2 and 3 need full dynamic instruction streams,
not just address traces.  Each of the 18 modelled programs is generated as a
probabilistic (but fully deterministic, seeded) mix of:

* memory instructions whose addresses come from the trace-level workload
  model of the same program (:mod:`repro.trace.workloads`), so the cache
  behaviour of the instruction stream matches the trace-level studies;
* integer and floating-point computation whose operation mix reflects whether
  the original program is an integer or floating-point code;
* conditional branches with a per-program bias, so the bimodal predictor's
  misprediction ratio lands in a realistic band (higher for the irregular
  integer codes, lower for the loop-dominated floating-point codes).

Dependences are created by drawing source registers from the most recently
written destinations, which yields dependence chains of realistic length —
in particular, computation regularly consumes load results, so load misses
stall the core and the cache organisation visibly moves IPC, exactly the
effect the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..trace.generators import _SplitMix64
from ..trace.workloads import WORKLOADS, build_trace
from .isa import FP_REGS, INT_REGS, Instruction, OpClass
from .program import Program

__all__ = ["InstructionMix", "INSTRUCTION_MIXES", "build_program", "program_names"]


@dataclass(frozen=True)
class InstructionMix:
    """Operation mix and branch behaviour of one synthetic program.

    The fractions are relative weights; memory operations take their
    load/store split from the underlying address trace rather than from this
    mix.
    """

    memory_fraction: float
    branch_fraction: float
    fp_fraction: float
    complex_int_fraction: float = 0.03
    fp_div_fraction: float = 0.02
    branch_flip_rate: float = 0.08
    dependency_window: int = 6

    def __post_init__(self) -> None:
        total = self.memory_fraction + self.branch_fraction
        if not 0.0 < self.memory_fraction < 1.0:
            raise ValueError("memory_fraction must be in (0, 1)")
        if total >= 1.0:
            raise ValueError("memory + branch fractions must leave room for ALU work")
        if not 0.0 <= self.fp_fraction <= 1.0:
            raise ValueError("fp_fraction must be in [0, 1]")
        if not 0.0 <= self.branch_flip_rate <= 0.5:
            raise ValueError("branch_flip_rate must be in [0, 0.5]")
        if self.dependency_window < 1:
            raise ValueError("dependency_window must be positive")


_INT_MIX = InstructionMix(memory_fraction=0.36, branch_fraction=0.17,
                          fp_fraction=0.0, branch_flip_rate=0.09)
_FP_MIX = InstructionMix(memory_fraction=0.38, branch_fraction=0.08,
                         fp_fraction=0.55, branch_flip_rate=0.04)

#: Per-program instruction mixes.  Programs keep the integer/floating-point
#: template of their suite with small per-program adjustments to branch
#: predictability (the irregular codes — go, gcc, compress — mispredict more).
INSTRUCTION_MIXES: Dict[str, InstructionMix] = {
    "go":       InstructionMix(0.32, 0.20, 0.0, branch_flip_rate=0.16),
    "m88ksim":  InstructionMix(0.34, 0.18, 0.0, branch_flip_rate=0.05),
    "gcc":      InstructionMix(0.34, 0.19, 0.0, branch_flip_rate=0.11),
    "compress": InstructionMix(0.38, 0.16, 0.0, branch_flip_rate=0.11),
    "li":       InstructionMix(0.36, 0.18, 0.0, branch_flip_rate=0.07),
    "ijpeg":    InstructionMix(0.34, 0.12, 0.0, branch_flip_rate=0.08),
    "perl":     InstructionMix(0.36, 0.18, 0.0, branch_flip_rate=0.08),
    "vortex":   InstructionMix(0.38, 0.16, 0.0, branch_flip_rate=0.07),
    "tomcatv":  InstructionMix(0.40, 0.07, 0.55, branch_flip_rate=0.03),
    "swim":     InstructionMix(0.40, 0.06, 0.55, branch_flip_rate=0.02),
    "su2cor":   InstructionMix(0.38, 0.08, 0.55, branch_flip_rate=0.04),
    "hydro2d":  InstructionMix(0.38, 0.08, 0.55, branch_flip_rate=0.04),
    "applu":    InstructionMix(0.36, 0.07, 0.60, branch_flip_rate=0.03),
    "mgrid":    InstructionMix(0.36, 0.06, 0.60, branch_flip_rate=0.02),
    "turb3d":   InstructionMix(0.34, 0.08, 0.55, branch_flip_rate=0.04),
    "apsi":     InstructionMix(0.36, 0.09, 0.55, branch_flip_rate=0.05),
    "fpppp":    InstructionMix(0.30, 0.04, 0.70, fp_div_fraction=0.04,
                               branch_flip_rate=0.02),
    "wave5":    InstructionMix(0.38, 0.08, 0.55, branch_flip_rate=0.04),
}


def program_names() -> List[str]:
    """Names of all synthetic programs (same set as the trace workloads)."""
    return list(INSTRUCTION_MIXES)


def _instruction_stream(name: str, length: int, seed: int) -> Iterator[Instruction]:
    mix = INSTRUCTION_MIXES[name]
    rng = _SplitMix64(seed or 1)
    # Memory addresses follow the trace-level model of the same program; the
    # trace is drawn lazily so arbitrarily long programs stay cheap.
    accesses = build_trace(name, length=length, seed=seed + 17)

    # Registers 0-3 (integer) and 32-35 (floating point) act as long-lived
    # "base" registers: they are never used as destinations, so reads from
    # them are always ready.  This models the stable base/induction registers
    # real loop code keeps around and gives the stream realistic ILP — without
    # them every instruction would chain on the previous few results and the
    # core could never approach the paper's IPC range.
    base_int = [0, 1, 2, 3]
    base_fp = [INT_REGS, INT_REGS + 1, INT_REGS + 2, INT_REGS + 3]
    recent_int: List[int] = list(base_int)
    recent_fp: List[int] = list(base_fp)
    int_dest_cursor = len(base_int)
    fp_dest_cursor = INT_REGS + len(base_fp)

    mem_cut = int(mix.memory_fraction * 1_000_000)
    branch_cut = mem_cut + int(mix.branch_fraction * 1_000_000)
    # Per-branch-site bias: an array of "usually taken?" flags.
    branch_sites = 64
    site_bias = [(rng.next() & 1) == 0 for _ in range(branch_sites)]

    def pick_src(pool: List[int], base_pool: List[int],
                 recent_chance: int = 50) -> int:
        """Pick a source: sometimes a recent result, otherwise a base register."""
        if rng.below(100) < recent_chance:
            window = pool[-mix.dependency_window:]
            return window[rng.below(len(window))]
        return base_pool[rng.below(len(base_pool))]

    def next_int_dest() -> int:
        nonlocal int_dest_cursor
        dest = int_dest_cursor
        int_dest_cursor += 1
        if int_dest_cursor >= INT_REGS:
            int_dest_cursor = len(base_int)
        return dest

    def next_fp_dest() -> int:
        nonlocal fp_dest_cursor
        dest = fp_dest_cursor
        fp_dest_cursor += 1
        if fp_dest_cursor >= INT_REGS + FP_REGS:
            fp_dest_cursor = INT_REGS + len(base_fp)
        return dest

    # One shared tuple per distinct source-register list: a materialised
    # stream holds only a few hundred distinct ones (569 in 12k gcc
    # instructions), so interning here keeps a shared stream small.
    interned_srcs: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    emitted = 0
    pc = 0x0040_0000
    while emitted < length:
        draw = rng.below(1_000_000)
        pc += 4
        if draw < mem_cut:
            try:
                access = next(accesses)
            except StopIteration:  # pragma: no cover - trace sized to length
                accesses = build_trace(name, length=length, seed=seed + 31)
                access = next(accesses)
            if access.is_write:
                use_fp_data = mix.fp_fraction > 0 and rng.below(100) < 60
                data_src = pick_src(recent_fp if use_fp_data else recent_int,
                                    base_fp if use_fp_data else base_int)
                inst = Instruction(pc=access.pc or pc, op=OpClass.STORE,
                                   srcs=(pick_src(recent_int, base_int,
                                                  recent_chance=20), data_src),
                                   address=access.address, size=access.size)
            else:
                use_fp = mix.fp_fraction > 0 and rng.below(100) < 50
                dest = next_fp_dest() if use_fp else next_int_dest()
                # Load addresses come overwhelmingly from stable base
                # registers, so the load itself rarely waits on computation.
                inst = Instruction(pc=access.pc or pc, op=OpClass.LOAD,
                                   dest=dest,
                                   srcs=(pick_src(recent_int, base_int,
                                                  recent_chance=20),),
                                   address=access.address, size=access.size)
                (recent_fp if use_fp else recent_int).append(dest)
        elif draw < branch_cut:
            site = rng.below(branch_sites)
            taken = site_bias[site]
            if rng.below(1_000_000) < int(mix.branch_flip_rate * 1_000_000):
                taken = not taken
            inst = Instruction(pc=0x0041_0000 + site * 4, op=OpClass.BRANCH,
                               srcs=(pick_src(recent_int, base_int,
                                              recent_chance=40),), taken=taken)
        else:
            use_fp = rng.below(1_000_000) < int(mix.fp_fraction * 1_000_000)
            if use_fp:
                roll = rng.below(1_000_000)
                if roll < int(mix.fp_div_fraction * 1_000_000):
                    op = OpClass.FP_DIV
                elif roll < int(mix.fp_div_fraction * 1_000_000) + 5_000:
                    op = OpClass.FP_SQRT
                elif roll < 500_000:
                    op = OpClass.FP_MUL
                else:
                    op = OpClass.FP_ADD
                dest = next_fp_dest()
                inst = Instruction(pc=pc, op=op, dest=dest,
                                   srcs=(pick_src(recent_fp, base_fp),
                                         pick_src(recent_fp, base_fp)))
                recent_fp.append(dest)
            else:
                roll = rng.below(1_000_000)
                if roll < int(mix.complex_int_fraction * 1_000_000):
                    op = OpClass.INT_MUL
                elif roll < int(mix.complex_int_fraction * 1_000_000) + 3_000:
                    op = OpClass.INT_DIV
                else:
                    op = OpClass.INT_ALU
                dest = next_int_dest()
                inst = Instruction(pc=pc, op=op, dest=dest,
                                   srcs=(pick_src(recent_int, base_int),
                                         pick_src(recent_int, base_int)))
                recent_int.append(dest)
        # Keep the recent-destination pools bounded.
        if len(recent_int) > 4 * mix.dependency_window:
            del recent_int[: 2 * mix.dependency_window]
        if len(recent_fp) > 4 * mix.dependency_window:
            del recent_fp[: 2 * mix.dependency_window]
        emitted += 1
        inst.srcs = interned_srcs.setdefault(inst.srcs, inst.srcs)
        yield inst


def build_program(name: str, length: int = 50_000, seed: int = 2027) -> Program:
    """Build the synthetic program model for the named Spec95 benchmark."""
    if name not in INSTRUCTION_MIXES:
        raise ValueError(f"unknown program {name!r}; known: {', '.join(INSTRUCTION_MIXES)}")
    if name not in WORKLOADS:
        raise ValueError(f"program {name!r} has no trace-level workload model")
    if length < 1:
        raise ValueError("length must be positive")
    return Program(name, lambda: _instruction_stream(name, length, seed),
                   length_hint=length)
