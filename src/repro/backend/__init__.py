"""Data-layout synthesis, code generation and pluggable execution.

Layer map::

    plan.py            physical plans, incl. group-by + fused multi-plan
                       bundles (MultiBatchPlan) and their fingerprints
    layout.py          Section 4.4 layout switches
    codegen_python.py  specialized Python kernels (views / root-scan split)
    codegen_cpp.py     specialized C++ kernels
    compile_cpp.py     g++ driver with content-hash binary caching
    base.py            the ExecutionBackend protocol and Kernel artifact
    executors.py       EngineBackend / PythonKernelBackend / CppKernelBackend
    column_store.py    ColumnStore: shared per-database columnar arrays
    numpy_backend.py   NumpyBackend: columnar ndarray evaluation
    registry.py        name → backend resolution (cpp→python fallback)
    cache.py           KernelCache + on-disk kernel-source persistence
    parallel.py        ShardedBackend: K-way sharded evaluation
"""

from repro.backend.base import (
    ExecutionBackend,
    Kernel,
    block_ranges,
    merge_group_results,
    merge_results,
    merge_vectors,
    run_plan,
)
from repro.backend.cache import (
    CacheStats,
    KernelCache,
    clear_kernel_sources,
    default_kernel_cache,
    kernel_source_dir,
    load_kernel_source,
    store_kernel_source,
)
from repro.backend.executors import (
    DEFAULT_BLOCK_SIZE,
    CppKernelBackend,
    EngineBackend,
    PythonKernelBackend,
    tree_from_plan,
)
from repro.backend.layout import (
    FIGURE_7B_LADDER,
    LAYOUT_ARRAYS,
    LAYOUT_BASELINE,
    LAYOUT_HASH_TRIE,
    LAYOUT_RECORDS,
    LAYOUT_SCALARIZED,
    LAYOUT_SORTED,
    LayoutOptions,
)
from repro.backend.column_store import (
    ColumnStore,
    clear_column_stores,
    column_store,
    column_store_stats,
    evict_column_store,
    peek_column_store,
    reset_column_store_stats,
)
from repro.backend.numpy_backend import (
    DeltaGroupState,
    DeltaVectorState,
    NumpyBackend,
    PreparedLayout,
    canonical_group_keys,
    check_delta,
    check_group_coding,
    finish_fold,
    fold_group_state,
    fold_vector_state,
    remap_group_partials,
    serve_group_state,
    serve_vector_state,
)
from repro.backend.parallel import DEFAULT_SHARDS, ShardedBackend, shard_database
from repro.backend.process_pool import (
    DEFAULT_PROCESS_WORKERS,
    ProcessKernelExecutor,
    TaskNotPicklable,
    WorkerError,
    default_process_workers,
    executor_mode_from_env,
    shared_process_executor,
)
from repro.backend.plan import (
    BatchPlan,
    MultiBatchPlan,
    NodePlan,
    build_batch_plan,
    prepare_data,
)
from repro.backend.registry import (
    BackendResolutionError,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)

__all__ = [
    "BackendResolutionError", "BatchPlan", "CacheStats", "ColumnStore",
    "CppKernelBackend", "DEFAULT_BLOCK_SIZE", "DEFAULT_PROCESS_WORKERS",
    "DEFAULT_SHARDS", "DeltaGroupState", "DeltaVectorState",
    "EngineBackend", "ExecutionBackend",
    "FIGURE_7B_LADDER", "Kernel", "KernelCache", "LAYOUT_ARRAYS",
    "LAYOUT_BASELINE", "LAYOUT_HASH_TRIE", "LAYOUT_RECORDS",
    "LAYOUT_SCALARIZED", "LAYOUT_SORTED", "LayoutOptions",
    "MultiBatchPlan", "NodePlan", "NumpyBackend", "PreparedLayout",
    "ProcessKernelExecutor", "PythonKernelBackend", "ShardedBackend",
    "TaskNotPicklable", "WorkerError", "available_backends", "block_ranges",
    "build_batch_plan", "canonical_group_keys", "check_delta",
    "check_group_coding", "clear_column_stores", "clear_kernel_sources",
    "column_store", "column_store_stats", "default_kernel_cache",
    "default_process_workers", "evict_column_store",
    "executor_mode_from_env", "finish_fold", "fold_group_state", "fold_vector_state",
    "get_backend", "kernel_source_dir",
    "load_kernel_source", "merge_group_results", "merge_results",
    "merge_vectors", "peek_column_store", "prepare_data",
    "register_backend", "remap_group_partials", "run_plan",
    "reset_column_store_stats", "serve_group_state",
    "serve_vector_state", "shard_database",
    "shared_process_executor", "store_kernel_source", "tree_from_plan",
    "unregister_backend",
]
