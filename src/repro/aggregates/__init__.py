"""Aggregate-query optimizations (paper Section 4.3)."""

from repro.aggregates.batch import (
    COUNT,
    AggregateBatch,
    AggregateSpec,
    covar_batch,
    variance_batch,
)
from repro.aggregates.engine import (
    apply_predicates,
    compute_batch_materialized,
    compute_batch_merged,
    compute_batch_mode,
    compute_batch_pushdown,
    compute_batch_trie,
    compute_groupby,
    compute_groupby_many,
    compute_groupby_tree,
)
from repro.aggregates.extract import (
    ExtractionResult,
    extract_aggregates,
    extract_program_aggregates,
    match_aggregate,
    remove_dead_inits,
)
from repro.aggregates.join_tree import (
    JoinTreeError,
    JoinTreeNode,
    build_join_tree,
    reroot,
)

__all__ = [
    "COUNT", "AggregateBatch", "AggregateSpec", "ExtractionResult",
    "JoinTreeError", "JoinTreeNode", "apply_predicates", "build_join_tree",
    "compute_batch_materialized", "compute_batch_merged",
    "compute_batch_mode", "compute_batch_pushdown", "compute_batch_trie",
    "compute_groupby", "compute_groupby_many", "compute_groupby_tree",
    "covar_batch", "extract_aggregates", "extract_program_aggregates",
    "match_aggregate", "remove_dead_inits", "reroot", "variance_batch",
]
