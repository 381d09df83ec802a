"""Vectorized batch simulation engine.

The scalar models in :mod:`repro.cache` process one
:class:`~repro.trace.record.MemoryAccess` at a time and are the behavioural
reference; this package is the fast path.  It materialises traces into NumPy
arrays (:class:`AddressBatch`), computes placement indices for whole arrays
at once (:mod:`repro.engine.index_vec`, including a precomputed
GF(2)-remainder lookup table for I-Poly hashing), and simulates
set-associative, skewed and column-associative caches over address batches
(:mod:`repro.engine.batch_cache`) with bit-exact
:class:`~repro.cache.stats.CacheStats` agreement — enforced by the
differential suite in ``tests/test_engine_equivalence.py``.  The 2-way and
victim-cache loops also run as compiled C, built on first use and loaded
through :mod:`ctypes` (:mod:`repro.engine.cext`; ``REPRO_CEXT`` selects the
tier and :func:`kernel_tier` reports it).

:mod:`repro.engine.tabulated` accelerates the scalar I-Poly function itself
for the sequential processor simulator, :mod:`repro.engine.replay` replays
the recorded data-cache access stream of a processor simulation through the
batch kernels (bit-exact against the scalar L1 — the CPU leg of the
equivalence story, exercised by the :mod:`repro.cpu.fuzzer` harness), and
:mod:`repro.engine.sweep` fans experiment sweeps across
``concurrent.futures`` workers fault-tolerantly (per-task timeouts, seeded
retry backoff, ``on_error="collect"`` :class:`TaskFailure` slots, mid-sweep
pool rebuild with process→thread→serial degradation, and checkpoint/resume
through :mod:`repro.engine.checkpoint`; :mod:`repro.engine.faults` is the
deterministic chaos harness that proves those paths bit-exact).
:mod:`repro.engine.multiconfig` prices whole conventional-LRU
capacity/associativity sweeps out of single stack-distance /
all-associativity trace passes (``MultiConfigPlan`` partitions a sweep's
tasks into profilable and kernel-run configurations; drivers expose the
policy as ``profile={"auto", "sampled"}``, where ``"auto"`` is exact and
``"sampled"`` prices LRU groups approximately through the SHARDS
spatial-sampling profiles of :mod:`repro.engine.shards` at
``--sample-rate``/``--sample-size``/``--profile-seed``).

Experiment drivers expose the choice as ``engine={"reference", "vectorized"}``
(CLI: ``--engine``); :data:`ENGINES` names the valid values.
"""

from .batch import AddressBatch, materialise_batch
from .cext import CExtError, kernel_tier
from .checkpoint import SweepJournal, task_digest
from .batch_cache import (
    BatchColumnAssociativeCache,
    BatchSetAssociativeCache,
    BatchVictimCache,
)
from .hierarchy_vec import (
    BatchTwoLevelHierarchy,
    BatchVirtualRealHierarchy,
    HierarchyBatchResult,
    MissStream,
    batch_hierarchy_like,
    batch_virtual_real_like,
)
from .index_vec import GF2RemainderTable, VectorizedIndex, vectorize_index
from .memo import (
    cached_block_numbers,
    cached_set_index_lists,
    cached_set_indices,
    memo_clear,
    memo_info,
)
from .multiconfig import (
    PROFILE_MODES,
    MultiConfigLRUProfile,
    MultiConfigPlan,
    MultiConfigProfileBuilder,
    ProfileCounts,
    StackDistanceBuilder,
    StackDistanceProfile,
    check_profile_mode,
    profile_cache_clear,
    profile_cache_info,
    run_lru_grid,
)
from .shards import (
    SampledMultiConfigLRUProfile,
    SampledMultiConfigProfileBuilder,
    SampledStackDistanceBuilder,
    SampledStackDistanceProfile,
)
from .replacement_vec import (
    VecReplacementState,
    make_vec_replacement,
    splitmix64_array,
)
from .replay import ReplayOutcome, batch_cache_like, replay_access_stream
from .set_decompose import group_by_set, run_decomposed_policy
from .skew_decompose import run_skew_decomposed_policy, run_victim_decomposed
from .sweep import (
    ON_ERROR_POLICIES,
    SweepError,
    TaskFailure,
    backoff_delays,
    chunk_tasks,
    run_sweep,
)
from .tabulated import TabulatedIPolyIndexing, tabulate_index_function
from .translate_vec import (
    BatchTranslationResult,
    BatchTranslator,
    batch_page_frames,
    batch_translate,
    run_tlb_kernel,
)

__all__ = [
    "ENGINES",
    "ENGINE_REFERENCE",
    "ENGINE_VECTORIZED",
    "check_engine",
    "kernel_tier",
    "CExtError",
    "AddressBatch",
    "materialise_batch",
    "BatchSetAssociativeCache",
    "BatchColumnAssociativeCache",
    "BatchVictimCache",
    "BatchTwoLevelHierarchy",
    "BatchVirtualRealHierarchy",
    "HierarchyBatchResult",
    "MissStream",
    "batch_hierarchy_like",
    "batch_virtual_real_like",
    "BatchTranslator",
    "BatchTranslationResult",
    "batch_page_frames",
    "batch_translate",
    "run_tlb_kernel",
    "VecReplacementState",
    "make_vec_replacement",
    "splitmix64_array",
    "group_by_set",
    "run_decomposed_policy",
    "run_skew_decomposed_policy",
    "run_victim_decomposed",
    "cached_block_numbers",
    "cached_set_indices",
    "cached_set_index_lists",
    "memo_info",
    "memo_clear",
    "PROFILE_MODES",
    "check_profile_mode",
    "ProfileCounts",
    "StackDistanceProfile",
    "StackDistanceBuilder",
    "MultiConfigLRUProfile",
    "MultiConfigProfileBuilder",
    "SampledStackDistanceProfile",
    "SampledStackDistanceBuilder",
    "SampledMultiConfigLRUProfile",
    "SampledMultiConfigProfileBuilder",
    "MultiConfigPlan",
    "run_lru_grid",
    "profile_cache_info",
    "profile_cache_clear",
    "ReplayOutcome",
    "batch_cache_like",
    "replay_access_stream",
    "GF2RemainderTable",
    "VectorizedIndex",
    "vectorize_index",
    "run_sweep",
    "chunk_tasks",
    "ON_ERROR_POLICIES",
    "SweepError",
    "TaskFailure",
    "backoff_delays",
    "SweepJournal",
    "task_digest",
    "TabulatedIPolyIndexing",
    "tabulate_index_function",
]

#: The behavioural reference: scalar models, one access at a time.
ENGINE_REFERENCE = "reference"
#: The batch engine of this package.
ENGINE_VECTORIZED = "vectorized"
#: Valid values of every driver's ``engine`` parameter.
ENGINES = (ENGINE_REFERENCE, ENGINE_VECTORIZED)


def check_engine(engine: str) -> str:
    """Validate an ``engine`` parameter value, returning it normalised."""
    label = str(engine).strip().lower()
    if label not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return label
