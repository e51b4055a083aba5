"""Declarations of the end-to-end benchmark: workloads, metrics, constants.

``BENCHMARK.json`` at the repository root mirrors ``WORKLOADS``,
``END_TO_END`` and ``PER_LAYER`` (``benchmark_json()`` regenerates it; the
smoke test fails when the two drift).  Everything the driver's schema has
no key for — which metric applies where, tail percentiles, dataset
scales, the open-loop rate — is fixed here and nowhere else.
"""

from __future__ import annotations

#: This benchmark defines the baseline; it claims no gain.
CLAIM = None

SEED_DEFAULT = 1
RUN_SECONDS = 10
#: full set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: service / process pools are pinned to the sandbox's two cores
WORKERS = 2
#: logical serving clients (coroutines on the one event-loop thread)
CLIENTS = 8

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

# -- workloads ----------------------------------------------------------------
# ``tail`` is the percentile reported as op_tail_ms: the highest one that
# keeps >= 10 samples beyond it at the seed commit's op counts; lower on
# serve_read, where everything above p80 is multi-group-bys and covar
# batches whose latencies differ 15-35 % between seeds (README).
# ``sizes`` are the full-run constants, ``smoke`` the tiny g++-free ones.

WORKLOADS = {
    "train_lr": {
        "why": "LR through IFAQCompiler on numpy: the only workload where opt/typing/extract/plan/interp do a large share; group-by and delta kernels idle",
        "primary_op": "warm re-train of an already-compiled feature subset (kernel-cache hit)",
        "cold_op": "first train of a new feature subset, against an empty kernel cache and column store",
        "tail": 75,
        "sizes": {"scale": 0.2, "features": 10, "warm_per_cold": 2},
        "smoke": {"scale": 0.01, "features": 4, "warm_per_cold": 1},
    },
    "train_tree": {
        "why": "depth-4 CART on numpy: delta-filtered fused group-bys do nearly all the work and the frontend none; mirror image of train_lr",
        "primary_op": "warm refit of one tree per dataset (favorita + retailer) with another max_thresholds",
        "cold_op": "the same pair of fits against a fresh KernelCache and new feature subsets",
        "tail": 75,
        "sizes": {"scale": 0.1, "depth": 4, "retailer_features": 8, "favorita_features": 5, "warm_per_cold": 2},
        "smoke": {"scale": 0.01, "depth": 2, "retailer_features": 3, "favorita_features": 3, "warm_per_cold": 1},
    },
    "train_cpp": {
        "why": "the paper's g++ backend with warm binaries: isolates codegen_cpp/compile_cpp/CppKernelBackend; numpy-side changes must not move it",
        "primary_op": "one cycle: LR fit on favorita + LR fit on retailer + interpreted tree fit on favorita, all on cached binaries",
        "cold_op": "the same cycle against an empty binary cache (g++ for every kernel)",
        "tail": 75,
        "sizes": {"backend": "cpp", "scale": 0.05, "retailer_features": 8, "tree_depth": 1, "tree_features": 2},
        "smoke": {"backend": "python", "scale": 0.01, "retailer_features": 3, "tree_depth": 1, "tree_features": 2},
    },
    "serve_read": {
        "why": "AggregateService read mix over two databases: per-request overhead, coalescing, view cache and fusion dominate; training frontends idle",
        "primary_op": "one read request of the mix arriving at the fixed open-loop rate, timed from its due time",
        "cold_op": "one pass of first requests: every plan fingerprint of both freshly registered databases answered once",
        "tail": 75,
        "sizes": {"scale": 0.5, "closed_share": 0.3, "rate_rps": 100.0, "grid": 1000, "covar_subsets": 4},
        "smoke": {"scale": 0.01, "closed_share": 0.3, "rate_rps": 400.0, "grid": 50, "covar_subsets": 2},
    },
    "serve_ingest": {
        "why": "the same service and read mix with 1 op in 25 an append: writer barrier, extend_relation, delta folds and full view recomputes beside reads",
        "primary_op": "one AggregateService.ingest (append until every maintained view is fresh)",
        "cold_op": "one pass of first requests: every plan fingerprint of both freshly registered databases answered once",
        "tail": 75,
        "sizes": {"scale": 0.25, "grid": 1000, "covar_subsets": 4, "ingest_every": 25, "ingest_rows": 20},
        "smoke": {"scale": 0.01, "grid": 50, "covar_subsets": 2, "ingest_every": 10, "ingest_rows": 3},
    },
    "scan_sharded": {
        "why": "LR covar batch through ShardedBackend(python, 2 shards, process): the only workload with pool dispatch, pickling and canonical merge on the blocking path",
        "primary_op": "one sharded execute on a warm pool",
        "cold_op": "first execute on a fresh pool (ships plan and database, workers compile)",
        "tail": 90,
        "sizes": {"scale": 0.3},
        "smoke": {"scale": 0.01},
    },
}

#: read mix of the serving workloads (shares sum to 1)
READ_MIX = {"groupby": 0.20, "groupby_filtered": 0.60, "multi_filtered": 0.15, "covar": 0.05}
ZIPF_S = 1.1
#: requests per block of exact READ_MIX shares, split over the two databases
MIX_BLOCK = 40

# -- end-to-end metrics -------------------------------------------------------
# (name, unit, better, bound, meaning).  Every workload reports every one.

END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median over SETUP_REPS full set-ups of everything before the first timed op"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "completed ops / wall time of the measured phase"),
    ("op_p50_ms", "ms", "lower", 0.25,
     "median latency of the workload's primary op"),
    ("op_tail_ms", "ms", "lower", 0.25,
     "the workload's fixed tail percentile of the primary op"),
    ("cold_op_p50_ms", "ms", "lower", 0.25,
     "median latency of ops whose plan fingerprint is new to every cache"),
    ("peak_rss_mb", "MB", "lower", 0.20,
     "peak resident memory of the benchmark process plus live pool workers"),
]

# -- per-layer metrics --------------------------------------------------------
# (name, unit, better, should move).  Timings are medians per call unless
# the name says otherwise; counts are per op so that they do not depend on
# how many ops fit into the run.  A layer a workload never enters reports 0.

PER_LAYER = [
    ("opt.optimize_s", "s", "lower", "cold_op_p50_ms, op_p50_ms on train_lr"),
    ("opt.ir_nodes_out", "count", "lower", "every later frontend stage on train_lr"),
    ("typing.specialize_s", "s", "lower", "op_p50_ms on train_lr"),
    ("typing.typecheck_s", "s", "lower", "op_p50_ms on train_lr"),
    ("aggregates.extract_s", "s", "lower", "op_p50_ms on train_lr"),
    ("aggregates.batch_size", "count", "lower", "execute time on train_lr"),
    ("aggregates.join_tree_s", "s", "lower", "op_p50_ms on train_lr"),
    ("backend.plan.build_s", "s", "lower", "cold_op_p50_ms on train_lr, train_tree"),
    ("backend.plan.fingerprint_us", "us", "lower", "op_p50_ms on serve_read (hashed per submit)"),
    ("backend.cache.hits_per_op", "count", "higher", "op_p50_ms everywhere"),
    ("backend.cache.misses_per_op", "count", "lower", "cold_op_p50_ms on train_*"),
    ("backend.cache.compile_s", "s", "lower", "cold_op_p50_ms on train_*; setup_s on train_cpp"),
    ("backend.cache.hit_us", "us", "lower", "op_p50_ms everywhere"),
    ("backend.codegen_cpp.generate_s", "s", "lower", "setup_s on train_cpp"),
    ("backend.codegen_cpp.source_bytes", "count", "lower", "g++ time on train_cpp"),
    ("backend.compile_cpp.gxx_s", "s", "lower", "setup_s, cold_op_p50_ms on train_cpp"),
    ("backend.compile_cpp.binaries_built", "count", "lower", "setup_s on train_cpp"),
    ("backend.executors.cpp_write_data_s", "s", "lower", "op_p50_ms, ops_per_s on train_cpp"),
    ("backend.executors.cpp_binary_run_s", "s", "lower", "op_p50_ms, ops_per_s on train_cpp"),
    ("backend.executors.cpp_runs_per_op", "count", "lower", "op_p50_ms on train_cpp"),
    ("backend.column_store.first_run_s", "s", "lower", "setup_s, cold_op_p50_ms on numpy workloads"),
    ("backend.column_store.approx_bytes", "count", "lower", "peak_rss_mb"),
    ("backend.column_store.builds_per_op", "count", "lower", "op_tail_ms on serve_*"),
    ("backend.column_store.hits_per_op", "count", "higher", "op_p50_ms on numpy workloads"),
    ("backend.column_store.memo_invalidations_per_ingest", "count", "lower", "op_p50_ms on serve_ingest"),
    ("backend.column_store.extend_s", "s", "lower", "op_p50_ms on serve_ingest"),
    ("backend.column_store.delta_extends_per_ingest", "count", "higher", "op_p50_ms on serve_ingest"),
    ("backend.numpy_backend.execute_s", "s", "lower", "op_p50_ms on train_lr"),
    ("backend.numpy_backend.groupby_s", "s", "lower", "cold_op_p50_ms on serve_*"),
    ("backend.numpy_backend.groupby_filtered_s", "s", "lower", "op_tail_ms on serve_read"),
    ("backend.numpy_backend.groupby_many_s", "s", "lower", "op_p50_ms on train_tree; op_tail_ms on serve_read"),
    ("backend.numpy_backend.delta_s", "s", "lower", "op_p50_ms on serve_ingest"),
    ("backend.numpy_backend.rows_per_s", "1/s", "higher", "op_p50_ms on train_tree, serve_*"),
    ("backend.parallel.execute_s", "s", "lower", "op_p50_ms, ops_per_s on scan_sharded"),
    ("backend.parallel.shard_retries_per_op", "count", "lower", "op_tail_ms on scan_sharded"),
    ("backend.process_pool.spawn_s", "s", "lower", "setup_s on scan_sharded"),
    ("backend.process_pool.first_dispatch_s", "s", "lower", "setup_s, cold_op_p50_ms on scan_sharded"),
    ("backend.process_pool.warm_dispatch_s", "s", "lower", "op_p50_ms on scan_sharded"),
    ("backend.process_pool.speedup_vs_single", "ratio", "higher", "ops_per_s on scan_sharded"),
    ("interp.residual_s", "s", "lower", "op_p50_ms on train_lr"),
    ("ml.tree.nodes_per_fit", "count", "higher", "work per op on train_tree, train_cpp"),
    ("ml.tree.groupby_calls_per_fit", "count", "lower", "op_p50_ms on train_tree, train_cpp"),
    ("ml.tree_vectorized_fit_s", "s", "lower", "guards the default tree path no workload times"),
    ("db.append_rows_s", "s", "lower", "op_p50_ms on serve_ingest"),
    ("db.apply_predicates_s", "s", "lower", "op_p50_ms on train_cpp"),
    ("serving.runs_per_request", "ratio", "lower", "ops_per_s on serve_*"),
    ("serving.coalesced_share", "ratio", "higher", "ops_per_s on serve_*"),
    ("serving.fused_share", "ratio", "higher", "ops_per_s on serve_*"),
    ("serving.view_hit_share", "ratio", "higher", "ops_per_s, op_p50_ms on serve_*"),
    ("serving.coalesce_rate", "ratio", "higher", "ops_per_s on serve_*"),
    ("serving.queue_wait_mean_ms", "ms", "lower", "op_p50_ms on serve_read"),
    ("serving.queue_wait_max_ms", "ms", "lower", "op_tail_ms on serve_read"),
    ("serving.overhead_ms", "ms", "lower", "op_p50_ms on serve_read"),
    ("serving.read_p50_ms", "ms", "lower", "ops_per_s on serve_*"),
    ("serving.read_p99_ms", "ms", "lower", "op_tail_ms on serve_read"),
    ("serving.open_p50_ms", "ms", "lower", "latency at the fixed arrival rate on serve_read"),
    ("serving.open_p95_ms", "ms", "lower", "latency at the fixed arrival rate on serve_read"),
    ("serving.gen_late_ms", "ms", "lower", "trust in serving.open_* on serve_read"),
    ("serving.ingest_delta_runs_per_ingest", "count", "higher", "op_p50_ms on serve_ingest"),
    ("serving.ingest_full_recomputes_per_ingest", "count", "lower", "op_p50_ms on serve_ingest"),
    ("serving.ingest_delta_s", "s", "lower", "op_p50_ms on serve_ingest"),
    ("serving.ingest_full_s", "s", "lower", "op_p50_ms on serve_ingest"),
    ("trace.ops_per_s", "1/s", "higher", "against ops_per_s: the tracing overhead"),
    ("trace.spans_per_op", "count", "lower", "tracing overhead"),
    ("trace.layer_coverage", "ratio", "higher", "share of traced op wall time inside layer spans"),
]

END_TO_END_NAMES = [m[0] for m in END_TO_END]
PER_LAYER_NAMES = [m[0] for m in PER_LAYER]
UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
