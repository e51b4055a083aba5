"""ProcessKernelExecutor + process-mode ShardedBackend.

The load-bearing property is the bit-identity contract: block layout
depends only on the data and the block size — never on the shard or
worker count — and partials merge in canonical block order, so every
``(shards, workers)`` combination must reproduce the single-shot result
with ``==`` on float dictionaries (bit identity, not ``approx``).
"""

from __future__ import annotations

import copy
import threading

import pytest

from repro.aggregates import build_join_tree, covar_batch, variance_batch
from repro.backend import (
    KernelCache,
    NumpyBackend,
    ProcessKernelExecutor,
    PythonKernelBackend,
    ShardedBackend,
    TaskNotPicklable,
    WorkerError,
    build_batch_plan,
    default_process_workers,
    executor_mode_from_env,
    peek_column_store,
)
from repro.backend.layout import LAYOUT_SORTED
from repro.ml.regression_tree import Condition

FEATURES = ["cityf", "price"]
LABEL = "units"


def plain_plan(db, query):
    tree = build_join_tree(db.schema(), query.relations, stats=db.statistics())
    return build_batch_plan(db, tree, covar_batch(FEATURES, label=LABEL))


def groupby_plan(db, query, attr="price"):
    tree = build_join_tree(db.schema(), query.relations, stats=db.statistics())
    return build_batch_plan(db, tree, variance_batch(LABEL), group_attr=attr)


PRICE_PREDICATES = {"I": [Condition("price", "<=", 25.0)]}


class ExplodingBackend(NumpyBackend):
    """Raises inside the worker process — tests error propagation."""

    def run_groupby(self, kernel, db, predicates=None):
        raise ValueError("exploded in worker")


class LockedBackend(NumpyBackend):
    """Cannot cross the process boundary — tests the pickle gate."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._lock = threading.Lock()


@pytest.fixture(scope="module")
def pool():
    executor = ProcessKernelExecutor(workers=2)
    yield executor
    executor.shutdown()


class TestRunKernel:
    """Whole-run tasks: the serving layer's unit of work."""

    def test_plain_matches_in_process(self, pool, int_star_db, int_star_query):
        plan = plain_plan(int_star_db, int_star_query)
        backend = NumpyBackend()
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        want = backend.execute(kernel, int_star_db)
        got, seconds = pool.run_kernel(
            backend, int_star_db, plan, LAYOUT_SORTED
        ).result()
        assert got == want
        assert seconds >= 0

    @pytest.mark.parametrize("predicates", [None, PRICE_PREDICATES])
    def test_groupby_matches_in_process(
        self, pool, int_star_db, int_star_query, predicates
    ):
        plan = groupby_plan(int_star_db, int_star_query)
        backend = NumpyBackend()
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        want = backend.run_groupby(kernel, int_star_db, predicates)
        got, _ = pool.run_kernel(
            backend,
            int_star_db,
            plan,
            LAYOUT_SORTED,
            predicates=predicates,
        ).result()
        assert got == want

    def test_token_registration_is_stable(self, pool, int_star_db):
        assert pool.db_token(int_star_db) == pool.db_token(int_star_db)

    def test_eviction_then_rerun_reregisters(
        self, pool, int_star_db, int_star_query
    ):
        plan = plain_plan(int_star_db, int_star_query)
        backend = NumpyBackend()
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        want = backend.execute(kernel, int_star_db)
        first, _ = pool.run_kernel(
            backend, int_star_db, plan, LAYOUT_SORTED
        ).result()
        pool.evict_database(int_star_db)
        second, _ = pool.run_kernel(
            backend, int_star_db, plan, LAYOUT_SORTED
        ).result()
        assert first == want == second


class TestShardedProcessBitIdentity:
    """Every (shards, workers) combination reproduces single-shot."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_python_plain(self, pool, int_star_db, int_star_query, shards):
        plan = plain_plan(int_star_db, int_star_query)
        inner = PythonKernelBackend(block_size=16)
        kernel = inner.compile_plan(plan, LAYOUT_SORTED)
        single = inner.execute(kernel, int_star_db)
        sharded = ShardedBackend(
            inner=inner, shards=shards, mode="process", executor=pool
        )
        assert sharded.execute(kernel, int_star_db) == single

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_numpy_plain(self, pool, int_star_db, int_star_query, shards):
        plan = plain_plan(int_star_db, int_star_query)
        inner = NumpyBackend(block_size=16)
        kernel = inner.compile_plan(plan, LAYOUT_SORTED)
        single = inner.execute(kernel, int_star_db)
        sharded = ShardedBackend(
            inner=inner, shards=shards, mode="process", executor=pool
        )
        assert sharded.execute(kernel, int_star_db) == single

    @pytest.mark.parametrize("shards", [1, 2, 5])
    @pytest.mark.parametrize("predicates", [None, PRICE_PREDICATES])
    def test_numpy_groupby(
        self, pool, int_star_db, int_star_query, shards, predicates
    ):
        plan = groupby_plan(int_star_db, int_star_query)
        inner = NumpyBackend(block_size=16)
        kernel = inner.compile_plan(plan, LAYOUT_SORTED)
        single = inner.run_groupby(kernel, int_star_db, predicates)
        sharded = ShardedBackend(
            inner=inner, shards=shards, mode="process", executor=pool
        )
        assert sharded.run_groupby(kernel, int_star_db, predicates) == single

    def test_worker_count_does_not_change_results(
        self, int_star_db, int_star_query
    ):
        plan = groupby_plan(int_star_db, int_star_query)
        inner = NumpyBackend(block_size=16)
        kernel = inner.compile_plan(plan, LAYOUT_SORTED)
        single = inner.run_groupby(kernel, int_star_db)
        for workers in (1, 3):
            one = ProcessKernelExecutor(workers=workers)
            try:
                sharded = ShardedBackend(
                    inner=inner, shards=4, mode="process", executor=one
                )
                assert sharded.run_groupby(kernel, int_star_db) == single
            finally:
                one.shutdown()

    @pytest.mark.parametrize("inner_cls", [NumpyBackend, PythonKernelBackend])
    def test_plain_runs_prepare_nothing_in_parent(
        self, pool, int_star_db, int_star_query, monkeypatch, inner_cls
    ):
        """Process-mode plain runs leave all preparation to the workers:
        no ``prepare`` call and no column store in this process."""
        inner = inner_cls(block_size=16)
        kernel = inner.compile_plan(plain_plan(int_star_db, int_star_query), LAYOUT_SORTED)
        want = inner.execute(kernel, copy.deepcopy(int_star_db))
        calls = []
        original = inner_cls.prepare

        def counting_prepare(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        # Patched on the class, after the pool forked its workers: an
        # instance attribute would make the backend unpicklable, and the
        # run would silently fold on threads instead.
        monkeypatch.setattr(inner_cls, "prepare", counting_prepare)
        sharded = ShardedBackend(inner=inner, shards=2, mode="process", executor=pool)
        assert sharded.execute(kernel, int_star_db) == want
        assert sharded.run_maintained(kernel, int_star_db)[0] == want
        assert calls == []
        assert peek_column_store(int_star_db) is None

    def test_records_shard_timings(self, pool, int_star_db, int_star_query):
        plan = plain_plan(int_star_db, int_star_query)
        inner = PythonKernelBackend(block_size=16)
        sharded = ShardedBackend(
            inner=inner, shards=3, mode="process", executor=pool
        )
        kernel = sharded.compile_plan(plan, LAYOUT_SORTED)
        sharded.execute(kernel, int_star_db)
        assert len(sharded.last_shard_seconds) == 3
        assert all(s >= 0 for s in sharded.last_shard_seconds)


class TestFallbackAndErrors:
    def test_opaque_predicate_falls_back_to_threads(
        self, pool, int_star_db, int_star_query
    ):
        plan = groupby_plan(int_star_db, int_star_query)
        inner = NumpyBackend(block_size=16)
        kernel = inner.compile_plan(plan, LAYOUT_SORTED)
        predicates = {"I": [lambda row: row["price"] <= 25.0]}
        single = inner.run_groupby(kernel, int_star_db, predicates)
        sharded = ShardedBackend(
            inner=inner, shards=3, mode="process", executor=pool
        )
        # Lambdas don't pickle; the sharded backend silently degrades
        # to its thread path and still answers bit-identically.
        assert sharded.run_groupby(kernel, int_star_db, predicates) == single

    def test_unpicklable_backend_raises_task_not_picklable(
        self, pool, int_star_db, int_star_query
    ):
        plan = plain_plan(int_star_db, int_star_query)
        backend = LockedBackend()
        with pytest.raises(TaskNotPicklable):
            pool.run_kernel(
                backend, int_star_db, plan, LAYOUT_SORTED
            ).result()

    def test_worker_exception_keeps_type_and_carries_traceback(
        self, pool, int_star_db, int_star_query
    ):
        plan = groupby_plan(int_star_db, int_star_query)
        with pytest.raises(ValueError, match="exploded in worker") as info:
            pool.run_kernel(
                ExplodingBackend(), int_star_db, plan, LAYOUT_SORTED
            ).result()
        assert isinstance(info.value.__cause__, WorkerError)
        assert "exploded in worker" in str(info.value.__cause__)

    def test_pool_survives_worker_death(self, int_star_db, int_star_query):
        plan = plain_plan(int_star_db, int_star_query)
        backend = NumpyBackend()
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        want = backend.execute(kernel, int_star_db)
        one = ProcessKernelExecutor(workers=1)
        try:
            one._handles[0].process.kill()
            one._handles[0].process.join(timeout=5)
            with pytest.raises(WorkerError):
                one.run_kernel(
                    backend, int_star_db, plan, LAYOUT_SORTED
                ).result()
            # The dead slot was respawned in place: the pool still works.
            got, _ = one.run_kernel(
                backend, int_star_db, plan, LAYOUT_SORTED
            ).result()
            assert got == want
        finally:
            one.shutdown()

    def test_submit_is_not_a_generic_executor(self, pool):
        with pytest.raises(NotImplementedError):
            pool.submit(sum, [1, 2])


class TestSpilledSourceBootstrap:
    def test_workers_bootstrap_from_spilled_sources(
        self, tmp_path, monkeypatch, int_star_db, int_star_query
    ):
        monkeypatch.setenv("IFAQ_KERNEL_CACHE_DIR", str(tmp_path))
        plan = plain_plan(int_star_db, int_star_query)
        backend = PythonKernelBackend(block_size=16)
        cache = KernelCache()
        kernel = cache.get_or_compile(backend, plan, LAYOUT_SORTED)
        want = backend.execute(kernel, int_star_db)
        spilled = list(tmp_path.glob("kernel_*.py"))
        assert spilled, "parent compile should spill the kernel source"
        # A pool created *now* forks workers that warm-load that spill.
        one = ProcessKernelExecutor(workers=1)
        try:
            got, _ = one.run_kernel(
                backend, int_star_db, plan, LAYOUT_SORTED
            ).result()
            assert got == want
        finally:
            one.shutdown()


class TestEnvConfiguration:
    def test_executor_mode_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("IFAQ_EXECUTOR", raising=False)
        assert executor_mode_from_env() == "thread"

    @pytest.mark.parametrize(
        "raw,expect",
        [("thread", "thread"), ("threads", "thread"),
         ("process", "process"), ("Processes", "process")],
    )
    def test_executor_mode_normalization(self, monkeypatch, raw, expect):
        monkeypatch.setenv("IFAQ_EXECUTOR", raw)
        assert executor_mode_from_env() == expect

    def test_executor_mode_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("IFAQ_EXECUTOR", "gpu")
        with pytest.raises(ValueError):
            executor_mode_from_env()

    def test_worker_count_from_env(self, monkeypatch):
        monkeypatch.setenv("IFAQ_PROC_WORKERS", "3")
        assert default_process_workers() == 3
        monkeypatch.setenv("IFAQ_PROC_WORKERS", "0")
        with pytest.raises(ValueError):
            default_process_workers()

    def test_sharded_mode_from_env(self, monkeypatch):
        monkeypatch.setenv("IFAQ_EXECUTOR", "process")
        backend = ShardedBackend(inner=NumpyBackend(), shards=2)
        assert backend.mode == "process"
        assert ":process]" in backend.name

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ShardedBackend(inner=NumpyBackend(), shards=2, mode="gpu")


class SleepingBackend(NumpyBackend):
    """Wedges inside the worker — tests shutdown escalation."""

    def run_groupby(self, kernel, db, predicates=None):
        import time

        time.sleep(60)
        return super().run_groupby(kernel, db, predicates)


class TestShutdownEscalation:
    def test_hung_worker_is_reclaimed(self, int_star_db, int_star_query):
        """close() must reclaim workers even when one is stuck mid-task.

        The worker never reads the cooperative shutdown message (it is
        wedged in the kernel run), so shutdown escalates: grace join →
        terminate → kill.  The old order (proxy pool first) deadlocked
        here — the proxy thread sat in conn.recv() forever.
        """
        import time

        plan = groupby_plan(int_star_db, int_star_query)
        one = ProcessKernelExecutor(workers=1, shutdown_grace=0.2)
        future = one.run_kernel(
            SleepingBackend(), int_star_db, plan, LAYOUT_SORTED
        )
        deadline = time.monotonic() + 10
        while not one._free.empty() and time.monotonic() < deadline:
            time.sleep(0.01)  # wait until the proxy dispatched the task
        process = one._handles[0].process
        started = time.monotonic()
        one.shutdown(wait=True)
        assert time.monotonic() - started < 10
        assert not process.is_alive()
        with pytest.raises(WorkerError):
            future.result(timeout=10)

    def test_kill_worker_is_public_fault_surface(self, int_star_db, int_star_query):
        plan = plain_plan(int_star_db, int_star_query)
        backend = NumpyBackend()
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        want = backend.execute(kernel, int_star_db)
        one = ProcessKernelExecutor(workers=1)
        try:
            one.kill_worker(0)
            with pytest.raises(WorkerError):
                one.run_kernel(
                    backend, int_star_db, plan, LAYOUT_SORTED
                ).result()
            got, _ = one.run_kernel(
                backend, int_star_db, plan, LAYOUT_SORTED
            ).result()
            assert got == want  # respawned in place, bit-identical
        finally:
            one.shutdown()

    def test_shutdown_grace_from_env(self, monkeypatch):
        from repro.backend.process_pool import default_shutdown_grace

        monkeypatch.setenv("IFAQ_SHUTDOWN_GRACE", "1.5")
        assert default_shutdown_grace() == 1.5
        monkeypatch.setenv("IFAQ_SHUTDOWN_GRACE", "-3")
        assert default_shutdown_grace() == 0.0
        monkeypatch.delenv("IFAQ_SHUTDOWN_GRACE")
        assert default_shutdown_grace() == 5.0
