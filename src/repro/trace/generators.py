"""Synthetic address-trace generators.

These generators produce the reference patterns the paper's analysis is built
on:

* :func:`strided_vector` — the Figure 1 experiment: repeated sweeps over a
  fixed-length vector whose elements are separated by a configurable stride.
* :func:`multi_array_sweep` — simultaneous streaming through several arrays
  whose base addresses may collide under conventional indexing (the classic
  tomcatv/swim pattern).
* :func:`matrix_traversal` — row- or column-major walks of a 2-D array,
  where column-major walks of power-of-two-sized rows are the textbook
  pathological stride.
* :func:`tiled_matrix_multiply` — the blocked kernel the conclusions mention:
  tiling introduces conflicts that depend on array dimensions, which an
  I-Poly cache removes.
* :func:`pointer_chase` — a deterministic pseudo-random dependent-load chain,
  modelling the low-conflict pointer-heavy behaviour of the integer codes.
* :func:`random_accesses` — uniform random references over a footprint.

Every generator is deterministic: randomness comes from an explicit seed via
a SplitMix64 stream so experiments are exactly reproducible.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from ..core.splitmix import SplitMix64 as _SplitMix64
from .record import MemoryAccess

__all__ = [
    "strided_vector",
    "multi_array_sweep",
    "matrix_traversal",
    "tiled_matrix_multiply",
    "pointer_chase",
    "random_accesses",
    "interleave",
]


def strided_vector(
    stride: int,
    elements: int = 64,
    element_size: int = 8,
    sweeps: int = 4,
    base: int = 0,
    is_write: bool = False,
    pc_base: int = 0x1000,
) -> Iterator[MemoryAccess]:
    """Repeatedly sweep a vector of ``elements`` entries separated by ``stride``.

    This reproduces the Figure 1 workload: 64 eight-byte elements separated
    by stride ``S`` (in units of elements), accessed repeatedly.  The first
    sweep incurs compulsory misses; subsequent sweeps reveal whether the
    placement function maps the stream onto distinct sets.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if elements < 1 or sweeps < 1:
        raise ValueError("elements and sweeps must be positive")
    step = stride * element_size
    for _ in range(sweeps):
        for i in range(elements):
            yield MemoryAccess(address=base + i * step, is_write=is_write,
                               pc=pc_base, size=element_size)


def multi_array_sweep(
    num_arrays: int = 3,
    elements: int = 2048,
    element_size: int = 8,
    array_spacing: Optional[int] = None,
    sweeps: int = 2,
    stride: int = 1,
    base: int = 0,
    write_last: bool = True,
    pc_base: int = 0x2000,
) -> Iterator[MemoryAccess]:
    """Stream through several arrays in lock-step (``a[i] op b[i] -> c[i]``).

    When ``array_spacing`` is a multiple of the cache way-capacity the arrays'
    corresponding elements collide under conventional indexing on every
    iteration — the dominant source of conflict misses in tomcatv, swim and
    wave5.  The default spacing of 64 KB (a power of two) triggers exactly
    that behaviour for the paper's 8 KB and 16 KB caches.
    """
    if num_arrays < 1:
        raise ValueError("num_arrays must be positive")
    if array_spacing is None:
        array_spacing = 64 * 1024
    step = stride * element_size
    for _ in range(sweeps):
        for i in range(elements):
            for a in range(num_arrays):
                address = base + a * array_spacing + i * step
                is_write = write_last and a == num_arrays - 1
                yield MemoryAccess(address=address, is_write=is_write,
                                   pc=pc_base + 8 * a, size=element_size)


def matrix_traversal(
    rows: int,
    cols: int,
    element_size: int = 8,
    order: str = "column",
    passes: int = 1,
    base: int = 0,
    pc_base: int = 0x3000,
) -> Iterator[MemoryAccess]:
    """Walk a ``rows x cols`` row-major matrix in row- or column-major order.

    A column-major walk touches addresses separated by ``cols * element_size``
    — a large power-of-two stride whenever ``cols`` is a power of two, which
    is the canonical conventional-indexing disaster.
    """
    if order not in ("row", "column"):
        raise ValueError("order must be 'row' or 'column'")
    if rows < 1 or cols < 1 or passes < 1:
        raise ValueError("rows, cols and passes must be positive")
    row_bytes = cols * element_size
    for _ in range(passes):
        if order == "row":
            for r in range(rows):
                for c in range(cols):
                    yield MemoryAccess(base + r * row_bytes + c * element_size,
                                       pc=pc_base, size=element_size)
        else:
            for c in range(cols):
                for r in range(rows):
                    yield MemoryAccess(base + r * row_bytes + c * element_size,
                                       pc=pc_base, size=element_size)


def tiled_matrix_multiply(
    n: int = 64,
    tile: int = 16,
    element_size: int = 8,
    base_a: int = 0,
    base_b: Optional[int] = None,
    base_c: Optional[int] = None,
    pc_base: int = 0x4000,
) -> Iterator[MemoryAccess]:
    """Blocked ``C = A x B`` reference stream for square ``n x n`` matrices.

    Tiling is the standard locality optimisation, but as the paper's
    conclusions note it introduces conflicts that depend on the matrix
    dimensions; with power-of-two ``n`` the tiles of A, B and C collide under
    conventional placement.  The generator emits the loads of A and B and the
    load+store of C for every multiply-accumulate in a three-level blocked
    loop nest.
    """
    if n < 1 or tile < 1:
        raise ValueError("n and tile must be positive")
    if tile > n:
        tile = n
    matrix_bytes = n * n * element_size
    if base_b is None:
        base_b = base_a + matrix_bytes
    if base_c is None:
        base_c = base_b + matrix_bytes

    def element(base: int, row: int, col: int) -> int:
        return base + (row * n + col) * element_size

    for ii in range(0, n, tile):
        for jj in range(0, n, tile):
            for kk in range(0, n, tile):
                for i in range(ii, min(ii + tile, n)):
                    for j in range(jj, min(jj + tile, n)):
                        yield MemoryAccess(element(base_c, i, j), pc=pc_base,
                                           size=element_size)
                        for k in range(kk, min(kk + tile, n)):
                            yield MemoryAccess(element(base_a, i, k),
                                               pc=pc_base + 8, size=element_size)
                            yield MemoryAccess(element(base_b, k, j),
                                               pc=pc_base + 16, size=element_size)
                        yield MemoryAccess(element(base_c, i, j), is_write=True,
                                           pc=pc_base + 24, size=element_size)


def pointer_chase(
    nodes: int = 4096,
    node_size: int = 64,
    hops: int = 10000,
    base: int = 0,
    seed: int = 1,
    pc_base: int = 0x5000,
) -> Iterator[MemoryAccess]:
    """Follow a deterministic pseudo-random cycle through ``nodes`` records.

    The permutation is built from a seeded shuffle, so the stream is a single
    long dependent chain with essentially no spatial regularity — the
    behaviour that dominates pointer-heavy integer codes and that no indexing
    function can improve (misses are capacity/compulsory, not conflict).
    """
    if nodes < 2 or hops < 1:
        raise ValueError("nodes must be >= 2 and hops >= 1")
    rng = _SplitMix64(seed)
    order = list(range(nodes))
    for i in range(nodes - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    successor = [0] * nodes
    for i in range(nodes):
        successor[order[i]] = order[(i + 1) % nodes]
    current = order[0]
    for _ in range(hops):
        yield MemoryAccess(base + current * node_size, pc=pc_base, size=8)
        current = successor[current]


def random_accesses(
    count: int,
    footprint_bytes: int,
    element_size: int = 8,
    write_fraction: float = 0.3,
    base: int = 0,
    seed: int = 7,
    pc_base: int = 0x6000,
) -> Iterator[MemoryAccess]:
    """Uniform random references across a footprint, with a store fraction."""
    if count < 1 or footprint_bytes < element_size:
        raise ValueError("count must be positive and footprint >= element_size")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be within [0, 1]")
    rng = _SplitMix64(seed)
    slots = footprint_bytes // element_size
    threshold = int(write_fraction * 1_000_000)
    for _ in range(count):
        slot = rng.below(slots)
        is_write = rng.below(1_000_000) < threshold
        yield MemoryAccess(base + slot * element_size, is_write=is_write,
                           pc=pc_base, size=element_size)


def interleave(traces: Sequence[Iterator[MemoryAccess]],
               chunk: int = 1) -> Iterator[MemoryAccess]:
    """Round-robin interleave several traces, ``chunk`` accesses at a time.

    Useful for modelling interleaved accesses to independent data structures
    (e.g. the virtual-alias experiment, or mixing a strided stream with a
    pointer chase).  Exhausted traces drop out; iteration ends when all are
    exhausted.
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    active: List[Iterator[MemoryAccess]] = [iter(t) for t in traces]
    while active:
        still_active: List[Iterator[MemoryAccess]] = []
        for trace in active:
            emitted = 0
            exhausted = False
            while emitted < chunk:
                try:
                    yield next(trace)
                except StopIteration:
                    exhausted = True
                    break
                emitted += 1
            if not exhausted:
                still_active.append(trace)
        active = still_active
