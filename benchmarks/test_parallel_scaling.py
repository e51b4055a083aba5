"""Process-pool sharding vs threads on the Figure-5 covar workload.

Each worker count times ``mode="process"`` (a dedicated
:class:`ProcessKernelExecutor`) against ``mode="thread"`` over the same
compiled kernel and asserts bit identity with single-shot execution.
Skips on single-core hosts — there the pool can only lose, and the
number measured would be pickling overhead, not GIL escape (see
``require_multicore``).
"""

import pytest

from benchmarks.conftest import load_dataset, require_multicore
from repro.aggregates import build_join_tree, covar_batch
from repro.backend import (
    KernelCache,
    ProcessKernelExecutor,
    PythonKernelBackend,
    ShardedBackend,
)
from repro.backend.layout import LAYOUT_SORTED
from repro.backend.plan import build_batch_plan
from repro.bench import emit, emit_header, emit_shard_timings, record_extra_info

WORKER_COUNTS = [2, 4]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.benchmark(group="process-sharded-covar")
def test_process_sharded_covar(benchmark, workers):
    require_multicore(workers)
    ds = load_dataset("retailer", "small")
    batch = covar_batch(ds.features, label=ds.label)
    tree = build_join_tree(ds.db.schema(), ds.query.relations, stats=ds.db.statistics())
    plan = build_batch_plan(ds.db, tree, batch)

    inner = PythonKernelBackend()
    kernel = KernelCache().get_or_compile(inner, plan, LAYOUT_SORTED)
    single = inner.execute(kernel, ds.db)

    pool = ProcessKernelExecutor(workers=workers)
    try:
        backend = ShardedBackend(
            inner=inner, shards=workers, mode="process", executor=pool
        )
        backend.execute(kernel, ds.db)  # warm worker registration
        sharded = benchmark.pedantic(
            lambda: backend.execute(kernel, ds.db),
            rounds=3, iterations=1, warmup_rounds=1,
        )
        assert sharded == single  # bit identity, not approx

        emit_header(f"Process-sharded covar — retailer [small] W={workers}")
        emit_shard_timings(backend.last_shard_seconds)
        emit(f"  {len(batch)} aggregates over "
             f"{ds.db.relation(plan.root.relation).tuple_count()} root rows")
        record_extra_info(
            benchmark,
            workers=workers,
            shard_seconds=backend.last_shard_seconds,
            inner_backend=inner.name,
        )
    finally:
        pool.shutdown()
