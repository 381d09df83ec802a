"""Synthetic Spec95-like workload models (trace level).

The paper evaluates 18 Spec95 programs.  Those binaries and their traces are
not available here, so each program is replaced by a *workload model*: a
parameterised mixture of access patterns whose conflict structure mirrors the
behaviour the paper reports for that program.

Each model mixes three components:

``hot``
    A small working set (well under the 8 KB L1) accessed repeatedly —
    produces hits regardless of the index function.
``stream``
    A never-reused streaming sweep at block granularity — produces capacity /
    compulsory misses that *no* index function (or doubling of the cache) can
    remove.  Its share of the mix sets the floor miss ratio (what the paper's
    16 KB conventional column shows, net of that cache's remaining conflicts).
``medium``
    A looping sweep over a working set between 8 KB and 16 KB — capacity
    misses in the 8 KB caches regardless of indexing, hits once the cache is
    doubled.  Its share reproduces the gap between the paper's 8 KB and 16 KB
    conventional columns for the low-conflict programs.
``conflict``
    Several small arrays whose bases are separated by a large power of two
    and which are swept in lock-step.  Under conventional placement all the
    arrays' corresponding lines land in the same set and thrash; under
    I-Poly (and, largely, skewed-XOR) placement they spread out and hit.
    Its share sets the *conflict* miss ratio — the gap between the paper's
    conventional and I-Poly columns.

The per-program component fractions below are derived directly from Table 2's
8 KB conventional and I-Poly miss-ratio columns, so the synthetic suite
reproduces the *structure* of the paper's results: tomcatv, swim and wave5
are the three high-conflict programs, everything else is dominated by misses
that indexing cannot fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from .generators import _SplitMix64
from .record import MemoryAccess

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "HIGH_CONFLICT_PROGRAMS",
    "LOW_CONFLICT_PROGRAMS",
    "INTEGER_PROGRAMS",
    "FP_PROGRAMS",
    "build_trace",
    "build_trace_arrays",
    "workload_names",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Mixture description of one synthetic program.

    Attributes
    ----------
    name:
        Spec95 program the model stands in for.
    conflict_fraction:
        Share of accesses drawn from the conflict component (the part of the
        miss ratio that I-Poly indexing eliminates).
    stream_fraction:
        Share of accesses drawn from the streaming component (misses no index
        function can remove).
    conflict_arrays:
        Number of lock-step arrays in the conflict component; more arrays
        means more pressure per set under conventional placement.
    hot_bytes:
        Size of the hot working set.
    is_fp:
        Whether the original program belongs to the floating-point suite.
    write_fraction:
        Fraction of hot-component accesses that are stores.
    """

    name: str
    conflict_fraction: float
    stream_fraction: float
    medium_fraction: float = 0.0
    conflict_arrays: int = 4
    hot_bytes: int = 2048
    is_fp: bool = False
    write_fraction: float = 0.25

    def __post_init__(self) -> None:
        for label, value in (("conflict_fraction", self.conflict_fraction),
                             ("stream_fraction", self.stream_fraction),
                             ("medium_fraction", self.medium_fraction)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")
        if self.conflict_fraction + self.stream_fraction + self.medium_fraction > 1.0:
            raise ValueError("component fractions must sum to at most 1")
        if self.conflict_arrays < 3:
            raise ValueError("conflict component needs at least 3 arrays to "
                             "defeat 2-way associativity")
        if self.hot_bytes < 64:
            raise ValueError("hot_bytes too small to be meaningful")


def _spec(name: str, conv8_miss: float, ipoly8_miss: float, conv16_miss: float,
          is_fp: bool, conflict_arrays: int = 4,
          write_fraction: float = 0.25) -> WorkloadSpec:
    """Derive mixture fractions from the paper's Table 2 miss-ratio columns.

    ``conflict`` is the part of the 8 KB miss ratio that I-Poly indexing
    removes; ``stream`` is the part that not even the 16 KB cache removes;
    ``medium`` is the capacity part that doubling the cache removes (only
    meaningful for the low-conflict programs, where the 16 KB column is below
    the I-Poly column).
    """
    conflict = max(0.0, (conv8_miss - ipoly8_miss) / 100.0)
    stream = max(0.0, min(ipoly8_miss, conv16_miss, conv8_miss) / 100.0)
    medium = max(0.0, min(ipoly8_miss, conv8_miss) / 100.0 - stream)
    return WorkloadSpec(name=name, conflict_fraction=round(conflict, 4),
                        stream_fraction=round(stream, 4),
                        medium_fraction=round(medium, 4),
                        conflict_arrays=conflict_arrays, is_fp=is_fp,
                        write_fraction=write_fraction)


#: The 18 Spec95 programs of Table 2, modelled from its 16 KB conventional,
#: 8 KB conventional and 8 KB I-Poly miss-ratio columns.
WORKLOADS: Dict[str, WorkloadSpec] = {
    "go":       _spec("go", 10.87, 10.60, 5.45, is_fp=False),
    "m88ksim":  _spec("m88ksim", 2.62, 2.62, 1.41, is_fp=False),
    "gcc":      _spec("gcc", 10.01, 10.01, 5.63, is_fp=False),
    "compress": _spec("compress", 13.63, 13.63, 12.96, is_fp=False,
                      write_fraction=0.35),
    "li":       _spec("li", 8.01, 7.10, 4.72, is_fp=False),
    "ijpeg":    _spec("ijpeg", 3.72, 2.17, 0.94, is_fp=False),
    "perl":     _spec("perl", 9.47, 9.47, 4.52, is_fp=False),
    "vortex":   _spec("vortex", 8.37, 7.87, 4.97, is_fp=False, write_fraction=0.35),
    "tomcatv":  _spec("tomcatv", 54.45, 19.67, 35.14, is_fp=True, conflict_arrays=5),
    "swim":     _spec("swim", 66.62, 8.85, 29.56, is_fp=True, conflict_arrays=5),
    "su2cor":   _spec("su2cor", 14.69, 14.66, 13.74, is_fp=True),
    "hydro2d":  _spec("hydro2d", 17.23, 17.22, 15.40, is_fp=True),
    "applu":    _spec("applu", 6.16, 6.16, 5.54, is_fp=True),
    "mgrid":    _spec("mgrid", 5.05, 5.05, 4.91, is_fp=True),
    "turb3d":   _spec("turb3d", 6.05, 5.38, 4.67, is_fp=True),
    "apsi":     _spec("apsi", 15.19, 13.36, 10.03, is_fp=True),
    "fpppp":    _spec("fpppp", 2.66, 2.47, 1.09, is_fp=True),
    "wave5":    _spec("wave5", 42.76, 14.67, 27.72, is_fp=True, conflict_arrays=5),
}

#: The three programs the paper singles out as having high conflict miss
#: ratios (Table 3's "bad" set).
HIGH_CONFLICT_PROGRAMS: List[str] = ["tomcatv", "swim", "wave5"]

#: The remaining fifteen programs (Table 3's "good" set).
LOW_CONFLICT_PROGRAMS: List[str] = [
    name for name in WORKLOADS if name not in HIGH_CONFLICT_PROGRAMS
]

INTEGER_PROGRAMS: List[str] = [n for n, s in WORKLOADS.items() if not s.is_fp]
FP_PROGRAMS: List[str] = [n for n, s in WORKLOADS.items() if s.is_fp]


def workload_names() -> List[str]:
    """Names of all modelled programs, in the paper's Table 2 order."""
    return list(WORKLOADS)


#: Component layout shared by :func:`build_trace` and
#: :func:`build_trace_arrays`.  The hot region is offset by 1 KB so that,
#: under conventional indexing, it occupies different sets from the conflict
#: component (which sits at the bottom of its arrays); the measured conflict
#: misses then come only from the conflict component itself.
_HOT_BASE = 0x0010_0400
#: Stream component: block-strided, never reused.
_STREAM_BASE = 0x4000_0000
#: Conflict component: ``conflict_arrays`` arrays swept in lock-step over a
#: footprint small enough to be cached.  Arrays are spaced one way-capacity
#: (4 KB for the paper's 8 KB 2-way cache) apart: under conventional indexing
#: of the 8 KB cache every array's element i lands in the same set and the
#: arrays thrash, while a 16 KB conventional cache separates alternate arrays
#: into two set groups and removes part (but not all) of the conflicts —
#: mirroring the partial relief Table 2 shows for doubling the cache size.
_CONFLICT_BASE = 0x0100_0000
_CONFLICT_SPACING = 4 * 1024
#: 32 * 8 B = 256 B per array keeps the conflict working set (and its reuse
#: distance, once the stream component is interleaved) well inside an 8 KB
#: cache, so these accesses hit under any conflict-avoiding placement and
#: miss only under conventional placement, where all the arrays collide in
#: the same handful of sets.
_CONFLICT_ELEMENTS = 32
_MEDIUM_BASE = 0x0200_0000
#: Every draw picks from ``[0, _DRAW_BOUND)``; fractions become thresholds.
_DRAW_BOUND = 1_000_000


@dataclass(frozen=True)
class _WorkloadGeometry:
    """Per-(workload, block size) constants of the component mixture."""

    block_size: int
    conflict_arrays: int
    #: Hot component: a small array of 8-byte slots reused forever.
    hot_slots: int
    #: Medium component: a block-strided loop sized so that its *reuse
    #: distance* (its own blocks plus the stream blocks interleaved between
    #: two visits, plus the hot and conflict sets) lands between the 8 KB and
    #: 16 KB capacities.  It then thrashes in the 8 KB caches under LRU
    #: whatever the index function, but fits — and hits — once the cache is
    #: doubled, reproducing the 8 KB-vs-16 KB gap of the low-conflict
    #: programs.
    medium_blocks: int
    #: A component draw below ``conflict_threshold`` picks the conflict
    #: component, then stream, then medium; anything else is hot.
    conflict_threshold: int
    stream_threshold: int
    medium_threshold: int
    #: A hot access's second draw below this makes it a store.
    write_threshold: int

    @classmethod
    def of(cls, spec: WorkloadSpec, block_size: int) -> "_WorkloadGeometry":
        hot_slots = max(8, spec.hot_bytes // 8)
        hot_blocks = (hot_slots * 8 + block_size - 1) // block_size
        conflict_blocks = (spec.conflict_arrays * _CONFLICT_ELEMENTS * 8
                           + block_size - 1) // block_size
        reuse_target = (14 * 1024) // block_size   # aim between 8 KB and 16 KB
        if spec.medium_fraction > 0:
            dilution = 1.0 + spec.stream_fraction / spec.medium_fraction
            available = max(16, reuse_target - hot_blocks - conflict_blocks)
            medium_blocks = max(16, int(available / dilution))
        else:
            medium_blocks = 16
        conflict = int(spec.conflict_fraction * _DRAW_BOUND)
        stream = conflict + int(spec.stream_fraction * _DRAW_BOUND)
        medium = stream + int(spec.medium_fraction * _DRAW_BOUND)
        return cls(block_size=block_size,
                   conflict_arrays=spec.conflict_arrays,
                   hot_slots=hot_slots, medium_blocks=medium_blocks,
                   conflict_threshold=conflict, stream_threshold=stream,
                   medium_threshold=medium,
                   write_threshold=int(spec.write_fraction * _DRAW_BOUND))


def _checked_spec(name: str, length: int) -> WorkloadSpec:
    """The named workload's spec; ``ValueError`` for bad arguments."""
    try:
        spec = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}"
        ) from None
    if length < 1:
        raise ValueError("length must be positive")
    return spec


class _WorkloadState:
    """Mutable per-component cursors used while generating a workload trace."""

    def __init__(self, geometry: _WorkloadGeometry, seed: int) -> None:
        self.geometry = geometry
        self.rng = _SplitMix64(seed or 1)
        self.hot_cursor = 0
        self.stream_cursor = 0
        self.medium_cursor = 0
        self.conflict_cursor = 0
        self.conflict_array = 0

    def next_hot(self) -> MemoryAccess:
        geometry = self.geometry
        address = _HOT_BASE + (self.hot_cursor % geometry.hot_slots) * 8
        self.hot_cursor += 1
        is_write = self.rng.below(_DRAW_BOUND) < geometry.write_threshold
        return MemoryAccess(address=address, is_write=is_write, pc=0x100, size=8)

    def next_stream(self) -> MemoryAccess:
        block_size = self.geometry.block_size
        address = _STREAM_BASE + self.stream_cursor * block_size
        self.stream_cursor += 1
        return MemoryAccess(address=address, is_write=False, pc=0x200,
                            size=block_size)

    def next_medium(self) -> MemoryAccess:
        geometry = self.geometry
        address = (_MEDIUM_BASE
                   + (self.medium_cursor % geometry.medium_blocks)
                   * geometry.block_size)
        self.medium_cursor += 1
        return MemoryAccess(address=address, is_write=False, pc=0x280,
                            size=geometry.block_size)

    def next_conflict(self) -> MemoryAccess:
        address = (_CONFLICT_BASE
                   + self.conflict_array * _CONFLICT_SPACING
                   + (self.conflict_cursor % _CONFLICT_ELEMENTS) * 8)
        self.conflict_array += 1
        if self.conflict_array >= self.geometry.conflict_arrays:
            self.conflict_array = 0
            self.conflict_cursor += 1
        return MemoryAccess(address=address, is_write=False,
                            pc=0x300 + 8 * self.conflict_array, size=8)


def build_trace(name: str, length: int = 100_000, block_size: int = 32,
                seed: int = 12345) -> Iterator[MemoryAccess]:
    """Generate ``length`` accesses of the named synthetic workload.

    The trace is a probabilistic interleaving of the workload's hot, stream
    and conflict components, using a deterministic PRNG so identical
    arguments always produce identical traces.  This generator is the
    reference oracle; :func:`build_trace_arrays` produces the same
    addresses and store mask as NumPy columns.
    """
    geometry = _WorkloadGeometry.of(_checked_spec(name, length), block_size)
    state = _WorkloadState(geometry, seed)
    for _ in range(length):
        draw = state.rng.below(_DRAW_BOUND)
        if draw < geometry.conflict_threshold:
            yield state.next_conflict()
        elif draw < geometry.stream_threshold:
            yield state.next_stream()
        elif draw < geometry.medium_threshold:
            yield state.next_medium()
        else:
            yield state.next_hot()


def build_trace_arrays(name: str, length: int = 100_000, block_size: int = 32,
                       seed: int = 12345):
    """``(addresses, is_write)`` of :func:`build_trace` as NumPy columns.

    Byte-identical to ``to_arrays(build_trace(...))`` (``uint64`` addresses,
    ``bool`` store mask) but built from whole-array operations, with no
    per-access object:

    1. The PRNG stream is counter based, so its draws are computed in bulk.
       Each access takes one *component* draw; a hot access takes a second,
       *write* draw right after it.  ``2 * length`` draws cover the all-hot
       worst case.
    2. A draw is a write draw exactly when the draw before it was a hot
       component draw.  Inside each maximal run of hot-valued draws,
       component and write draws therefore alternate from the run's start,
       so a run-start scan plus a parity test finds every component draw.
    3. Each component's cursor is the access's rank among its component's
       accesses, from which the addresses follow in closed form.
    """
    import numpy as np

    from ..core.splitmix import splitmix64_stream

    geometry = _WorkloadGeometry.of(_checked_spec(name, length), block_size)
    draws = splitmix64_stream(seed or 1, 2 * length) % np.uint64(_DRAW_BOUND)
    hot = draws >= geometry.medium_threshold
    index = np.arange(draws.size)
    starts = hot.copy()
    starts[1:] &= ~hot[:-1]
    run_start = np.maximum.accumulate(np.where(starts, index, 0))
    hot_component = hot & ((index - run_start) % 2 == 0)
    is_component = np.ones(draws.size, dtype=bool)
    is_component[1:] = ~hot_component[:-1]
    positions = np.flatnonzero(is_component)[:length]

    component = np.searchsorted(
        np.array([geometry.conflict_threshold, geometry.stream_threshold,
                  geometry.medium_threshold], dtype=np.uint64),
        draws[positions], side="right")
    addresses = np.empty(length, dtype=np.uint64)
    is_write = np.zeros(length, dtype=bool)

    def cursors(which: int):
        mask = component == which
        return mask, np.arange(np.count_nonzero(mask), dtype=np.uint64)

    mask, k = cursors(0)
    arrays = np.uint64(geometry.conflict_arrays)
    addresses[mask] = (np.uint64(_CONFLICT_BASE)
                       + k % arrays * np.uint64(_CONFLICT_SPACING)
                       + k // arrays % np.uint64(_CONFLICT_ELEMENTS)
                       * np.uint64(8))
    mask, k = cursors(1)
    addresses[mask] = (np.uint64(_STREAM_BASE)
                       + k * np.uint64(block_size))
    mask, k = cursors(2)
    addresses[mask] = (np.uint64(_MEDIUM_BASE)
                       + k % np.uint64(geometry.medium_blocks)
                       * np.uint64(block_size))
    mask, k = cursors(3)
    addresses[mask] = (np.uint64(_HOT_BASE)
                       + k % np.uint64(geometry.hot_slots) * np.uint64(8))
    is_write[mask] = draws[positions[mask] + 1] < geometry.write_threshold
    return addresses, is_write
