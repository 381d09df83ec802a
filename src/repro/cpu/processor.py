"""Out-of-order superscalar processor model (the paper's Section 4 machine).

The model is a trace-driven timing simulator: it walks the committed dynamic
instruction stream in program order and computes, for every instruction, the
cycles at which it is fetched, dispatched, issued, completed and committed,
subject to the machine's resource limits:

* 4-wide fetch, dispatch and commit;
* a 32-entry reorder buffer;
* two physical register files (integer and floating point) of 64 registers,
  allocated at dispatch and released at commit;
* the Table 1 functional units with their latencies and repeat rates;
* a 2K-entry bimodal branch predictor — a misprediction stalls fetch until
  the branch resolves;
* a lockup-free, 2-cycle-hit, write-through/no-write-allocate L1 data cache
  with 8 MSHRs and a 20-cycle miss penalty to an infinite L2 over a 64-bit
  bus (modelled by :class:`~repro.cpu.dcache.DataCacheModel`);
* store-buffer forwarding for loads that depend on buffered stores; memory
  dependences are otherwise speculated perfectly (ARB-style), matching the
  paper's machine;
* optionally, the 1K-entry tagless stride address predictor, which lets a
  confidently-and-correctly predicted load start its cache access in parallel
  with its address computation — removing both the XOR-in-critical-path
  penalty and one cycle of effective hit time.

Dependences between instructions are honoured through register ready times
(renaming removes all false dependences, so only true RAW dependences carry
timing).  The approach — a single in-order pass with resource state carried
in "next free" structures — reproduces the first-order behaviour of an
out-of-order core at a small fraction of the cost of an event-driven model,
which is what makes the Table 2 sweep (18 programs x 6 configurations)
practical in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Optional, Tuple

from ..cache.set_assoc import SetAssociativeCache, WritePolicy
from ..core.index import make_index_function
from .address_predictor import StrideAddressPredictor
from .branch_predictor import BimodalBranchPredictor
from .dcache import DataCacheModel, DataCacheTiming
from .functional_units import FunctionalUnitPool
from .isa import Instruction, OpClass, is_fp_register
from .lsq import StoreForwardingBuffer
from .program import Program
from .resources import ThroughputLimiter, WindowResource

__all__ = ["ProcessorConfig", "SimulationResult", "OutOfOrderProcessor"]


@dataclass(frozen=True)
class ProcessorConfig:
    """Configuration of the modelled machine (defaults follow the paper)."""

    fetch_width: int = 4
    commit_width: int = 4
    rob_entries: int = 32
    int_physical_registers: int = 64
    fp_physical_registers: int = 64
    branch_predictor_entries: int = 2048
    decode_latency: int = 1
    misprediction_redirect_penalty: int = 1

    # L1 data cache geometry and placement scheme.
    cache_size_bytes: int = 8 * 1024
    cache_block_size: int = 32
    cache_ways: int = 2
    index_scheme: str = "a2"
    index_address_bits: int = 19
    #: "reference" evaluates the placement function with scalar GF(2)
    #: division; "vectorized" swaps in the engine's table-accelerated,
    #: bit-exact equivalent (same IPC and miss ratios, faster simulation).
    index_engine: str = "reference"

    # Cache timing.
    cache_hit_time: int = 2
    cache_miss_penalty: int = 20
    xor_in_critical_path: bool = False
    xor_penalty: int = 1
    cache_ports: int = 2
    mshr_entries: int = 8
    bus_cycles_per_line: int = 4

    # Memory address prediction.
    address_prediction: bool = False
    address_predictor_entries: int = 1024

    def __post_init__(self) -> None:
        if self.fetch_width < 1 or self.commit_width < 1:
            raise ValueError("pipeline widths must be positive")
        if self.rob_entries < 1:
            raise ValueError("rob_entries must be positive")
        if self.int_physical_registers < 32 or self.fp_physical_registers < 32:
            raise ValueError("physical register files must cover the architectural state")
        if self.decode_latency < 0 or self.misprediction_redirect_penalty < 0:
            raise ValueError("latencies must be non-negative")
        if self.index_engine not in ("reference", "vectorized"):
            raise ValueError(
                f"unknown index_engine {self.index_engine!r}; "
                "expected 'reference' or 'vectorized'"
            )
        # Cache geometry: surface impossible configurations at construction
        # instead of deep inside build_cache() mid-experiment (the same
        # uniform validation the cache classes themselves apply).
        if self.cache_block_size < 1 or self.cache_block_size & (self.cache_block_size - 1):
            raise ValueError("cache_block_size must be a positive power of two")
        if self.cache_ways < 1:
            raise ValueError("cache_ways must be at least 1")
        if self.cache_size_bytes < self.cache_block_size * self.cache_ways:
            raise ValueError("cache must hold at least one set")
        if self.cache_size_bytes % (self.cache_block_size * self.cache_ways):
            raise ValueError(
                "cache_size_bytes must be a multiple of cache_block_size * "
                f"cache_ways ({self.cache_block_size * self.cache_ways}), "
                f"got {self.cache_size_bytes}"
            )
        num_sets = self.cache_size_bytes // (self.cache_block_size * self.cache_ways)
        if num_sets & (num_sets - 1):
            raise ValueError(f"number of sets must be a power of two, got {num_sets}")
        # Predictor tables are direct-mapped on power-of-two masks; their
        # classes validate too, but only when the predictor is built —
        # with address_prediction=False a bad entry count would otherwise
        # lurk until someone flips prediction on.
        for label, entries in (("branch_predictor_entries",
                                self.branch_predictor_entries),
                               ("address_predictor_entries",
                                self.address_predictor_entries)):
            if entries < 1 or entries & (entries - 1):
                raise ValueError(f"{label} must be a positive power of two")
        # Cache timing: DataCacheTiming applies its own uniform validation;
        # constructing it here surfaces degenerate port/MSHR/latency values
        # at config construction time.
        self.cache_timing()

    def cache_timing(self) -> DataCacheTiming:
        """The :class:`DataCacheTiming` implied by this configuration."""
        return DataCacheTiming(
            hit_time=self.cache_hit_time,
            miss_penalty=self.cache_miss_penalty,
            xor_in_critical_path=self.xor_in_critical_path,
            xor_penalty=self.xor_penalty,
            ports=self.cache_ports,
            mshr_entries=self.mshr_entries,
            bus_cycles_per_line=self.bus_cycles_per_line,
        )

    def build_cache(self) -> SetAssociativeCache:
        """Construct the L1 data cache described by this configuration."""
        num_sets = self.cache_size_bytes // (self.cache_block_size * self.cache_ways)
        index_fn = make_index_function(self.index_scheme, num_sets=num_sets,
                                       ways=self.cache_ways,
                                       address_bits=self.index_address_bits)
        if self.index_engine == "vectorized":
            # Local import: the cpu layer stays importable without pulling
            # the batch engine in unless the fast index path is requested.
            from ..engine.tabulated import tabulate_index_function
            index_fn = tabulate_index_function(index_fn)
        return SetAssociativeCache(
            size_bytes=self.cache_size_bytes,
            block_size=self.cache_block_size,
            ways=self.cache_ways,
            index_function=index_fn,
            write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
        )


@dataclass
class SimulationResult:
    """Aggregate outcome of simulating one program on one configuration."""

    program: str
    config: ProcessorConfig
    instructions: int
    cycles: int
    load_miss_ratio: float
    store_miss_ratio: float
    branch_misprediction_ratio: float
    address_prediction_coverage: float
    address_prediction_accuracy: float
    loads: int
    stores: int
    branches: int
    forwarded_loads: int
    op_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def load_miss_ratio_percent(self) -> float:
        """Load miss ratio expressed in percent (as in the paper's tables)."""
        return 100.0 * self.load_miss_ratio


class OutOfOrderProcessor:
    """Timing model of the 4-way out-of-order core."""

    def __init__(self, config: Optional[ProcessorConfig] = None,
                 cache_model: Optional[DataCacheModel] = None) -> None:
        self.config = config or ProcessorConfig()
        if cache_model is None:
            cache_model = DataCacheModel(self.config.build_cache(),
                                         self.config.cache_timing())
        self.dcache = cache_model
        self.branch_predictor = BimodalBranchPredictor(
            self.config.branch_predictor_entries)
        self.address_predictor = (
            StrideAddressPredictor(self.config.address_predictor_entries)
            if self.config.address_prediction else None
        )
        self.fu_pool = FunctionalUnitPool()
        self.store_buffer = StoreForwardingBuffer()

        self._fetch = ThroughputLimiter(self.config.fetch_width, "fetch")
        self._commit = ThroughputLimiter(self.config.commit_width, "commit")
        self._rob = WindowResource(self.config.rob_entries, "rob")
        self._int_regs = WindowResource(self.config.int_physical_registers, "int-prf")
        self._fp_regs = WindowResource(self.config.fp_physical_registers, "fp-prf")
        # Cycle before which fetch may not proceed (raised by mispredictions).
        self._fetch_floor = 0

    # ------------------------------------------------------------------ #

    def run(self, program: Program,
            max_instructions: Optional[int] = None) -> SimulationResult:
        """Simulate ``program`` and return aggregate statistics.

        The simulation is fully deterministic: the model draws no randomness
        of its own (every stochastic choice lives in the program generator),
        so running the same program on a freshly built processor always
        produces identical results — the property the differential fuzz
        harness (:mod:`repro.cpu.fuzzer`) depends on and audits.
        """
        if max_instructions is not None and max_instructions < 0:
            raise ValueError("max_instructions must be non-negative")
        cfg = self.config
        reg_ready: Dict[int, int] = {}
        last_commit = 0
        forwarded = 0
        op_counts: Dict[str, int] = {}

        # The loop runs once per dynamic instruction, so everything it calls
        # is bound to a local first.
        ready_get = reg_ready.get
        count_get = op_counts.get
        fetch_record = self._fetch.record
        commit_record = self._commit.record
        rob_earliest = self._rob.earliest_acquire
        rob_acquire = self._rob.acquire
        int_regs, fp_regs = self._int_regs, self._fp_regs
        execute = self._execute
        dcache_store = self.dcache.store
        record_store = self.store_buffer.record_store
        decode_latency = cfg.decode_latency
        STORE = OpClass.STORE

        stream = islice(program.instructions(), max_instructions)
        for seq, inst in enumerate(stream):
            inst.seq = seq
            op = inst.op
            dest = inst.dest
            op_counts[op] = count_get(op, 0) + 1

            fetch_cycle = fetch_record(self._fetch_floor)
            dispatch_cycle = rob_earliest(fetch_cycle + decode_latency)
            if dest is not None:
                regfile = fp_regs if is_fp_register(dest) else int_regs
                dispatch_cycle = regfile.earliest_acquire(dispatch_cycle)

            operands_ready = dispatch_cycle
            for src in inst.srcs:
                ready = ready_get(src, 0)
                if ready > operands_ready:
                    operands_ready = ready

            complete, was_forwarded = execute(inst, op, operands_ready)
            if was_forwarded:
                forwarded += 1

            last_commit = commit_record(max(complete + 1, last_commit))

            rob_acquire(dispatch_cycle, last_commit)
            if dest is not None:
                regfile.acquire(dispatch_cycle, last_commit)
                reg_ready[dest] = complete
            if op == STORE:
                # The store drains to the write-through cache after commit.
                dcache_store(inst.address, last_commit)
                record_store(seq, inst.address, complete, last_commit)

        cache_stats = self.dcache.cache.stats
        return SimulationResult(
            program=program.name,
            config=cfg,
            instructions=sum(op_counts.values()),
            cycles=last_commit,
            load_miss_ratio=cache_stats.load_miss_ratio,
            store_miss_ratio=(cache_stats.store_misses / cache_stats.stores
                              if cache_stats.stores else 0.0),
            branch_misprediction_ratio=self.branch_predictor.misprediction_ratio,
            address_prediction_coverage=(self.address_predictor.coverage
                                         if self.address_predictor else 0.0),
            address_prediction_accuracy=(self.address_predictor.accuracy
                                         if self.address_predictor else 0.0),
            loads=op_counts.get(OpClass.LOAD, 0),
            stores=op_counts.get(STORE, 0),
            branches=op_counts.get(OpClass.BRANCH, 0),
            forwarded_loads=forwarded,
            op_counts=op_counts,
        )

    # ------------------------------------------------------------------ #

    def _execute(self, inst: Instruction, op: str,
                 operands_ready: int) -> Tuple[int, bool]:
        """Issue one instruction of class ``op``; returns ``(complete, forwarded)``.

        ``complete`` is also the cycle dependents may use the result.  A
        mispredicted branch raises the fetch floor through
        :meth:`_redirect_fetch`, which the next fetch in :meth:`run` reads.
        """
        if op == OpClass.LOAD:
            return self._execute_load(inst, operands_ready)
        _, complete = self.fu_pool.issue(op, operands_ready)
        if (op == OpClass.BRANCH
                and not self.branch_predictor.update(inst.pc, inst.taken)):
            self._redirect_fetch(complete
                                 + self.config.misprediction_redirect_penalty)
        return complete, False

    def _execute_load(self, inst: Instruction,
                      operands_ready: int) -> Tuple[int, bool]:
        addr_start, addr_done = self.fu_pool.issue(OpClass.LOAD, operands_ready)

        predicted_ok = False
        if self.address_predictor is not None:
            prediction = self.address_predictor.predict(inst.pc)
            correct = self.address_predictor.update(inst.pc, inst.address)
            predicted_ok = prediction.usable and correct

        forwarded_ready = self.store_buffer.forward(inst.seq, inst.address, addr_done)
        if forwarded_ready is not None:
            return forwarded_ready, True

        if predicted_ok:
            # The speculative access was launched with the predicted line in
            # parallel with the address computation; the verification against
            # the real address happens when the add completes, so the data is
            # usable no earlier than that.
            timing = self.dcache.load(inst.address, addr_start,
                                      predicted_index_available=True)
            ready = max(timing.ready_cycle, addr_done)
        else:
            timing = self.dcache.load(inst.address, addr_done,
                                      predicted_index_available=False)
            ready = timing.ready_cycle
        return ready, False

    # ------------------------------------------------------------------ #

    def _redirect_fetch(self, cycle: int) -> None:
        # Fetch may not proceed past a mispredicted branch until it resolves.
        self._fetch_floor = max(self._fetch_floor, cycle)
