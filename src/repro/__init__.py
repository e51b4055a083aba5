"""IFAQ — Multi-layer Optimizations for End-to-End Data Analytics.

A from-scratch Python reproduction of the CGO 2020 paper by Shaikhha,
Schleich, Ghita and Olteanu.  The package provides:

* :mod:`repro.ir` — the IFAQ core language (D-IFAQ / S-IFAQ AST),
* :mod:`repro.interp` — the reference interpreter,
* :mod:`repro.opt` — high-level optimizations (Figure 4a-e, i),
* :mod:`repro.typing` — schema specialization and the S-IFAQ type checker,
* :mod:`repro.aggregates` — aggregate batch extraction, join trees,
  pushdown, view merging, multi-aggregate iteration, tries,
* :mod:`repro.backend` — data-layout synthesis, Python/C++ codegen, and
  the pluggable execution layer (backend registry, kernel cache,
  sharded parallel evaluation),
* :mod:`repro.db` — the relational substrate,
* :mod:`repro.ml` — linear regression / regression trees on top of IFAQ,
  plus materialize-then-learn baselines,
* :mod:`repro.data` — synthetic Retailer and Favorita generators,
* :mod:`repro.serving` — the asyncio aggregate-serving layer with
  per-fingerprint request coalescing.

The commonly used entry points are re-exported here::

    from repro import IFAQCompiler, ShardedBackend, get_backend

ML estimators import numpy, so they load lazily on first access
(``repro.IFAQLinearRegression``).
"""

from repro.aggregates import (
    AggregateBatch,
    AggregateSpec,
    build_join_tree,
    covar_batch,
)
from repro.aggregates import compute_groupby, compute_groupby_many
from repro.backend import (
    ColumnStore,
    CppKernelBackend,
    EngineBackend,
    ExecutionBackend,
    Kernel,
    KernelCache,
    LayoutOptions,
    MultiBatchPlan,
    NumpyBackend,
    PythonKernelBackend,
    ShardedBackend,
    available_backends,
    column_store,
    default_kernel_cache,
    get_backend,
    register_backend,
)
from repro.compiler import CompilationArtifacts, IFAQCompiler
from repro.db import Database, JoinQuery, Relation, RelationSchema
from repro.serving import (
    AggregateRequest,
    AggregateService,
    DeadlineExceeded,
    GroupByRequest,
    MultiGroupByRequest,
    QueueFull,
    ServiceStats,
)

__version__ = "1.7.0"

#: lazily imported ML entry points (numpy-backed)
_LAZY_ML = {
    "IFAQLinearRegression",
    "IFAQRegressionTree",
    "ScikitStyleLinearRegression",
    "TensorFlowStyleLinearRegression",
    "materialize_to_matrix",
    "rmse",
}

__all__ = [
    "AggregateBatch", "AggregateRequest", "AggregateService", "AggregateSpec",
    "ColumnStore", "CompilationArtifacts", "CppKernelBackend",
    "Database", "DeadlineExceeded", "EngineBackend", "ExecutionBackend",
    "GroupByRequest", "IFAQCompiler", "JoinQuery", "Kernel", "KernelCache",
    "LayoutOptions", "MultiBatchPlan", "MultiGroupByRequest", "NumpyBackend",
    "PythonKernelBackend", "QueueFull", "Relation", "RelationSchema",
    "ServiceStats", "ShardedBackend", "__version__",
    "available_backends", "build_join_tree", "column_store",
    "compute_groupby", "compute_groupby_many", "covar_batch",
    "default_kernel_cache", "get_backend", "register_backend",
    *sorted(_LAZY_ML),
]


def __getattr__(name: str):
    if name in _LAZY_ML:
        import repro.ml as _ml

        return getattr(_ml, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
