"""``scan_sharded``: the LR covar batch through a two-worker process pool."""

from __future__ import annotations

from repro import KernelCache, ShardedBackend, get_backend
from repro.aggregates import build_join_tree, covar_batch
from repro.backend import ProcessKernelExecutor, build_batch_plan
from repro.backend.layout import LAYOUT_SORTED
from repro.data import favorita

import e2e_spec as spec
from e2e_harness import Run, median, now


def scan_sharded(run: Run) -> None:
    tr = run.tracer
    pool = None
    spawn_s, first_s = [], []
    try:
        for _rep in range(run.setup_reps):
            if pool is not None:
                pool.shutdown()
            with run.timed_setup():
                ds = favorita(scale=run.sizes["scale"], seed=run.seed)
                tree = build_join_tree(ds.db.schema(), ds.query.relations, stats=dict(ds.db.statistics()))
                plan = build_batch_plan(ds.db, tree, covar_batch(ds.features, label=ds.label))
                t0 = now()
                pool = ProcessKernelExecutor(workers=spec.WORKERS)
                spawn_s.append(now() - t0)
                backend = ShardedBackend(inner="python", shards=spec.WORKERS, mode="process", executor=pool)
                cache = KernelCache()
                kernel = cache.get_or_compile(backend, plan, LAYOUT_SORTED)
                # The first dispatch ships plan and database and lets each
                # worker compile: the cold op.
                t0 = now()
                with tr.span("op", op="cold"):
                    backend.execute(kernel, ds.db)
                first_s.append(now() - t0)
        run.cold_ms.extend(s * 1e3 for s in first_s)

        results, overhead, retries = [], [], []

        def execute(_group, _position):
            t0 = now()
            results.append(backend.execute(kernel, ds.db))
            # what an execute costs beyond the slower shard's own compute
            overhead.append(now() - t0 - max(backend.last_shard_seconds, default=0.0))
            retries.append(backend.last_retries)

        run.loop(execute)
    finally:
        if pool is not None:
            pool.shutdown()

    # Oracle: sharded results are bit-identical to single-shot execution.
    single = get_backend("python")
    single_kernel = cache.get_or_compile(single, plan, LAYOUT_SORTED)
    t0 = now()
    reference = single.execute(single_kernel, ds.db)
    single_s = now() - t0
    for result in results:
        run.check(result == reference, "sharded result differs from single-shot")

    run.layer.update({
        "backend.parallel.shard_retries_per_op": sum(retries) / max(1, len(results)),
        "backend.process_pool.spawn_s": median(spawn_s),
        "backend.process_pool.first_dispatch_s": median(first_s),
        "backend.process_pool.warm_dispatch_s": median(overhead),
        "backend.process_pool.speedup_vs_single": single_s / (median(run.op_ms) / 1e3) if run.op_ms else 0.0,
    })
