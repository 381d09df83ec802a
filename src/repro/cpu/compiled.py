"""The compiled out-of-order timing model (``ooo_run`` of the C tier).

:meth:`~repro.cpu.processor.OutOfOrderProcessor.run` is the oracle; this
module runs the same loop as C (``ooo_run`` in
:file:`repro/engine/_kernels.c`) whenever it can serve the processor, and
says why not otherwise.  It serves a processor that has not run yet, on the
vectorized index engine, with the C tier on (:func:`repro.engine.cext.kernels`)
and an unused :class:`~repro.cpu.dcache.DataCacheModel` over the paper's L1:
a classifier-free 2-way LRU write-through / no-allocate
:class:`~repro.cache.set_assoc.SetAssociativeCache`.

The C loop never evaluates a placement function or a hash table: the
addresses of a trace-driven stream are fixed before the run, so each memory
instruction's block and set in each way are computed up front
(:func:`repro.engine.index_vec.vectorize_index`), and so is the latest
earlier store to the same address, which is all store forwarding needs.
The config-independent columns are built once per program and shared by
every machine it runs on (:meth:`~repro.cpu.program.Program.memoised`).

After the run, the result, the cache's statistics, frames and LRU stamps,
the four :class:`DataCacheModel` counters (and its recorded stream), and
the predictor and store-buffer statistics are what the Python loop leaves.
The pipeline's timing state and the predictors' tables are not written
back, which is why the processor then refuses a second run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

import numpy as np

from ..cache.replacement import LRUReplacement
from ..cache.set_assoc import SetAssociativeCache, WritePolicy
from ..engine import cext
from ..engine.index_vec import vectorize_index
from ..engine.skew_decompose import _c_indices, _ptr
from .dcache import DataCacheModel
from .isa import FP_REGS, INT_REGS, OpClass
from .program import Program

if TYPE_CHECKING:  # pragma: no cover - the processor imports this module
    from .processor import OutOfOrderProcessor, SimulationResult

__all__ = ["InstructionColumns", "instruction_columns", "run_compiled"]

#: Op code of each class in the columns (``OP_*`` in ``_kernels.c``).
_OP_CODE = {op: code for code, op in enumerate(OpClass.ALL)}
#: ``cfg[]`` and ``io[]`` slot counts of ``ooo_run``.
_N_CFG, _N_IO = 22, 14
#: Addresses stay below this so the stride predictor's sums fit in int64.
_ADDRESS_LIMIT = 1 << 62


@dataclass(frozen=True)
class InstructionColumns:
    """A program's instruction stream as the arrays ``ooo_run`` reads."""

    op: np.ndarray          # int8 op code (index in OpClass.ALL)
    dest: np.ndarray        # int8 destination register, -1 for none
    srcs: np.ndarray        # (n, k) int8 source registers, -1 padded
    address: np.ndarray     # int64, 0 for non-memory instructions
    pc: np.ndarray          # int64
    taken: np.ndarray       # uint8 branch outcome
    prev_store: np.ndarray  # int64 latest earlier store to the address, or -1
    #: Instructions per op class, in first-seen order (the result's view).
    op_counts: Dict[str, int]
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __len__(self) -> int:
        return self.op.shape[0]

    def placement(self, cache: SetAssociativeCache
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each address's block and its set in ways 0 and 1 of ``cache``.

        Memoised per placement (index function ``cache_key`` and block
        size), so machines with the same cache share one computation.
        """
        fn = cache.index_function
        key = (fn.cache_key, cache.block_size)
        if key[0] is not None and key in self._memo:
            return self._memo[key]
        if cache.block_size not in self._memo:
            self._memo[cache.block_size] = (
                self.address >> (cache.block_size.bit_length() - 1))
        blocks = self._memo[cache.block_size]
        index = vectorize_index(fn)
        sets = [_c_indices(index.way_indices(blocks, way).astype(np.int64),
                           cache.num_sets, len(self))
                for way in range(2 if fn.is_skewed else 1)]
        placed = (blocks, sets[0], sets[-1])
        if key[0] is not None:
            self._memo[key] = placed
        return placed


def instruction_columns(program: Program, max_instructions: Optional[int] = None
                        ) -> Union[InstructionColumns, str]:
    """The columns of ``program``'s first ``max_instructions`` instructions.

    Returns a one-line reason instead when the stream holds values the C
    loop cannot represent (the Python loop then runs and raises on, or
    handles, them).  Like the Python loop, numbers each instruction's
    ``seq``.  The full stream's columns are memoised on the program.
    """
    if max_instructions is None:
        return program.memoised("ooo-columns",
                                lambda: _build_columns(program, None))
    return _build_columns(program, max_instructions)


def _build_columns(program: Program, max_instructions: Optional[int]
                   ) -> Union[InstructionColumns, str]:
    stream = list(islice(program.instructions(), max_instructions))
    n = len(stream)
    for seq, inst in enumerate(stream):
        inst.seq = seq
    # Instructions validate their fields when built, but they are mutable,
    # and the C loop indexes its tables with these values: check again.
    memory = OpClass.MEMORY
    try:
        address = np.fromiter((inst.address if inst.op in memory else 0
                               for inst in stream), np.int64, n)
        pc = np.fromiter((inst.pc for inst in stream), np.int64, n)
    except OverflowError:
        return "an address or pc is out of range"
    if n and (address.min() < 0 or address.max() >= _ADDRESS_LIMIT
              or pc.min() < 0):
        return "an address or pc is out of range"
    op = np.fromiter((_OP_CODE.get(inst.op, -1) for inst in stream),
                     np.int8, n)
    if n and op.min() < 0:
        return "an unknown op class"
    # A stream holds few distinct source tuples (the generators intern
    # them): pad each once and gather the rows by tuple id.
    ids: Dict[tuple, int] = {}
    rows = np.fromiter((ids.setdefault(inst.srcs, len(ids))
                        for inst in stream), np.intp, n)
    registers = range(INT_REGS + FP_REGS)
    if not (all(reg in registers for srcs in ids for reg in srcs)
            and all(inst.dest is None or inst.dest in registers
                    for inst in stream)):
        return "a register number is out of range"
    width = max(map(len, ids), default=0)
    table = np.array([(srcs + (-1,) * width)[:width] for srcs in ids],
                     dtype=np.int8).reshape(len(ids), width)
    return InstructionColumns(
        op=op,
        dest=np.fromiter((-1 if inst.dest is None else inst.dest
                          for inst in stream), np.int8, n),
        srcs=table[rows],
        address=address,
        pc=pc,
        taken=np.fromiter((bool(inst.taken) for inst in stream), np.uint8, n),
        prev_store=_previous_stores(op, address),
        op_counts=_op_counts(op),
    )


def _previous_stores(op: np.ndarray, address: np.ndarray) -> np.ndarray:
    """For each load, the latest earlier store to its address, or -1.

    Memory instructions are stably sorted by address; a running maximum of
    ``store index + 1`` offset by the address group keeps each group's
    maximum inside the group.
    """
    n = op.shape[0]
    result = np.full(n, -1, dtype=np.int64)
    memory = np.flatnonzero((op == _OP_CODE[OpClass.LOAD])
                            | (op == _OP_CODE[OpClass.STORE]))
    if not memory.size:
        return result
    order = memory[np.argsort(address[memory], kind="stable")]
    keys = address[order]
    group = np.concatenate(([0], np.cumsum(keys[1:] != keys[:-1])))
    is_store = op[order] == _OP_CODE[OpClass.STORE]
    offset = group * (n + 1)
    latest = np.maximum.accumulate(np.where(is_store, order + 1, 0) + offset)
    # Inclusive of the element itself: a load adds 0, a store maps to itself.
    result[order] = latest - offset - 1
    return result


def _ineligible(processor: "OutOfOrderProcessor") -> Optional[str]:
    """Why the C loop cannot serve ``processor`` (``None`` when it can)."""
    dcache = processor.dcache
    cache = dcache.cache
    if (type(dcache) is not DataCacheModel
            or type(cache) is not SetAssociativeCache or cache.ways != 2
            or type(cache.replacement) is not LRUReplacement
            or cache.write_policy != WritePolicy.WRITE_THROUGH_NO_ALLOCATE
            or cache._classifier is not None):
        return ("the dcache is not a classifier-free 2-way LRU "
                "write-through cache")
    if cache._clock or dcache.load_accesses or dcache.store_accesses:
        return "the dcache was already used"
    return None


def _functional_units(pool) -> Tuple[np.ndarray, np.ndarray]:
    """``fu[4 * op]`` = latency, repeat, first slot and count in ``units``.

    Every op class has a serving unit: a :class:`FunctionalUnitPool` needs
    a timing for each class its units serve, and its units serve all ten.
    """
    units = pool.units
    fu = np.zeros((len(OpClass.ALL), 4), dtype=np.int64)
    slots = []
    for code, op in enumerate(OpClass.ALL):
        serving = [i for i, unit in enumerate(units) if unit.serves(op)]
        timing = pool.timing(op)
        fu[code] = (timing.latency, timing.repeat, len(slots), len(serving))
        slots.extend(serving)
    return fu, np.array(slots or [0], dtype=np.int64)


def run_compiled(processor: "OutOfOrderProcessor", program: Program,
                 max_instructions: Optional[int]
                 ) -> Tuple[Optional["SimulationResult"], str]:
    """Run ``processor`` on ``program`` in C: ``(result, "c")``.

    Returns ``(None, "python: <reason>")`` without touching anything when
    the C loop cannot serve this run.
    """
    lib = cext.kernels()
    if lib is None:
        return None, cext.kernel_tier()
    reason = _ineligible(processor)
    if reason is None:
        columns = instruction_columns(program, max_instructions)
        if isinstance(columns, str):
            reason = columns
    if reason is not None:
        return None, f"python: {reason}"

    cfg = processor.config
    dcache = processor.dcache
    cache = dcache.cache
    num_sets = cache.num_sets
    n = len(columns)
    blocks, s0, s1 = columns.placement(cache)
    fu, units = _functional_units(processor.fu_pool)
    timing = dcache.timing
    predictor = processor.address_predictor
    params = np.array([
        cfg.fetch_width, cfg.commit_width, cfg.rob_entries,
        cfg.int_physical_registers, cfg.fp_physical_registers,
        cfg.decode_latency, cfg.misprediction_redirect_penalty,
        processor.branch_predictor.entries,
        processor.branch_predictor.initial_counter,
        predictor.entries if predictor else 0,
        predictor.confidence_threshold if predictor else 0,
        timing.hit_time, timing.miss_penalty,
        timing.xor_penalty if timing.xor_in_critical_path else 0,
        timing.ports, timing.mshr_entries, timing.bus_cycles_per_line,
        processor.store_buffer.forward_latency,
        columns.srcs.shape[1], INT_REGS, INT_REGS + FP_REGS,
        len(processor.fu_pool.units),
    ], dtype=np.int64)
    assert params.shape == (_N_CFG,)
    tags = np.full((2, num_sets), -1, dtype=np.int64)
    used = np.zeros((2, num_sets), dtype=np.int64)
    filled = np.zeros((2, num_sets), dtype=np.int64)
    io = np.zeros(_N_IO, dtype=np.int64)
    cached = np.zeros(n, dtype=np.uint8)
    status = lib.ooo_run(
        n, _ptr(params), _ptr(fu), _ptr(units), _ptr(columns.op),
        _ptr(columns.dest), _ptr(columns.srcs), _ptr(columns.address),
        _ptr(columns.pc), _ptr(columns.taken), _ptr(blocks), _ptr(s0),
        _ptr(s1), _ptr(columns.prev_store), _ptr(tags[0]), _ptr(tags[1]),
        _ptr(used[0]), _ptr(used[1]), _ptr(filled[0]), _ptr(filled[1]),
        _ptr(io), _ptr(cached))
    if status != 0:
        raise MemoryError("the C pipeline loop could not allocate its state")
    (clock, cycles, forwarded, load_accesses, merged, mshr_stall,
     load_misses, store_misses, evictions, bp_predictions,
     bp_mispredictions, ap_lookups, ap_confident, ap_correct) = io.tolist()

    is_store = columns.op == _OP_CODE[OpClass.STORE]
    stores = int(np.count_nonzero(is_store))
    _write_back_cache(cache, tags, used, filled, clock)
    stats = cache.stats
    stats.loads += load_accesses
    stats.stores += stores
    stats.load_misses += load_misses
    stats.store_misses += store_misses
    stats.evictions += evictions
    dcache.load_accesses += load_accesses
    dcache.store_accesses += stores
    dcache.merged_misses += merged
    dcache.mshr_stall_cycles += mshr_stall
    if dcache.records_stream:
        accessed = cached.astype(bool)
        dcache.recorded_addresses.extend(columns.address[accessed].tolist())
        dcache.recorded_is_store.extend(is_store[accessed].tolist())
    branch = processor.branch_predictor
    branch.predictions += bp_predictions
    branch.mispredictions += bp_mispredictions
    if predictor is not None:
        predictor.lookups += ap_lookups
        predictor.confident_predictions += ap_confident
        predictor.correct_predictions += ap_correct
    processor.store_buffer.stores_observed += stores
    processor.store_buffer.forwards += forwarded
    return processor._result(program, dict(columns.op_counts), cycles,
                             forwarded), "c"


def _write_back_cache(cache: SetAssociativeCache, tags: np.ndarray,
                      used: np.ndarray, filled: np.ndarray, clock: int) -> None:
    """Install the C loop's final frames and LRU stamps in the scalar cache."""
    policy = cache.replacement
    for way in range(2):
        frames = cache._frames[way]
        valid = np.flatnonzero(tags[way] >= 0)
        for set_index, block, filled_at, used_at in zip(
                valid.tolist(), tags[way, valid].tolist(),
                filled[way, valid].tolist(), used[way, valid].tolist()):
            frame = frames[set_index]
            frame.fill(block, filled_at)
            frame.last_used_at = used_at
            policy.on_fill(way, set_index, used_at)
    cache._clock = clock


def _op_counts(op: np.ndarray) -> Dict[str, int]:
    """Instructions per op class, keyed in first-seen order like the loop."""
    codes, first, counts = np.unique(op, return_index=True, return_counts=True)
    order = np.argsort(first)
    return {OpClass.ALL[int(codes[i])]: int(counts[i]) for i in order}
