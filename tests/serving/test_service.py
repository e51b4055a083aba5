"""The async serving layer: coalescing, fusion, hooks, stats, errors.

Driven with ``asyncio.run`` from synchronous tests (no pytest-asyncio
dependency).  The bit-identity tests use ``==`` on result dictionaries:
aggregate values are floats, so dictionary equality *is* bit identity.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.aggregates import build_join_tree, covar_batch, variance_batch
from repro.aggregates.engine import compute_batch_mode, compute_groupby
from repro.backend import KernelCache, NumpyBackend, column_store, peek_column_store
from repro.ml.regression_tree import Condition
from repro.serving import (
    AggregateRequest,
    AggregateService,
    DatabaseNotRegistered,
    GroupByRequest,
    MultiGroupByRequest,
    predicate_key,
)

FEATURES = ["cityf", "price"]
LABEL = "units"


class CountingNumpyBackend(NumpyBackend):
    """Numpy backend that counts kernel executions (not compiles)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.execute_calls = 0
        self.groupby_calls = 0
        self.groupby_many_calls = 0

    def execute(self, kernel, db, predicates=None):
        self.execute_calls += 1
        return super().execute(kernel, db, predicates)

    def run_groupby(self, kernel, db, predicates=None):
        self.groupby_calls += 1
        return super().run_groupby(kernel, db, predicates)

    def run_groupby_many(self, kernel, db, predicates=None):
        self.groupby_many_calls += 1
        return super().run_groupby_many(kernel, db, predicates)

    # Maintained runs are kernel executions too (the service prefers
    # them when the backend speaks the delta protocol).
    def run_maintained(self, kernel, db, predicates=None):
        self.execute_calls += 1
        return super().run_maintained(kernel, db, predicates)

    def run_groupby_maintained(self, kernel, db, predicates=None):
        self.groupby_calls += 1
        return super().run_groupby_maintained(kernel, db, predicates)


def make_service(**kwargs):
    kwargs.setdefault("backend", CountingNumpyBackend())
    kwargs.setdefault("kernel_cache", KernelCache())
    return AggregateService(**kwargs)


def serve(coro):
    return asyncio.run(coro)


def join_tree(db, query):
    return build_join_tree(db.schema(), query.relations, stats=dict(db.statistics()))


class TestRequestExecution:
    def test_plain_request_matches_engine(self, int_star_db, int_star_query):
        batch = covar_batch(FEATURES, label=LABEL)

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                return await svc.submit(AggregateRequest("star", batch))

        result = serve(run())
        expected = compute_batch_mode(
            int_star_db, join_tree(int_star_db, int_star_query), batch, "trie"
        )
        assert set(result) == set(expected)
        for name, value in expected.items():
            assert result[name] == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("backend", ["engine", "numpy"])
    def test_groupby_request_matches_compute_groupby(
        self, backend, int_star_db, int_star_query
    ):
        batch = variance_batch(LABEL)

        async def run():
            async with make_service(backend=backend) as svc:
                svc.register_database("star", int_star_db)
                return await svc.submit(GroupByRequest("star", batch, "price"))

        result = serve(run())
        expected = compute_groupby(
            int_star_db,
            join_tree(int_star_db, int_star_query),
            batch,
            "price",
            backend=backend,
            kernel_cache=KernelCache(),
        )
        assert result == expected  # float lists: == is bit identity

    def test_multi_groupby_request(self, int_star_db, int_star_query):
        batch = variance_batch(LABEL)
        attrs = ("price", "cityf")

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                return await svc.submit(MultiGroupByRequest("star", batch, attrs))

        result = serve(run())
        assert set(result) == set(attrs)
        tree = join_tree(int_star_db, int_star_query)
        for attr in attrs:
            expected = compute_groupby(
                int_star_db, tree, batch, attr,
                backend="numpy", kernel_cache=KernelCache(),
            )
            assert result[attr] == expected

    def test_plain_request_with_predicates(self, int_star_db, int_star_query):
        batch = covar_batch(FEATURES, label=LABEL)
        preds = {"I": [Condition("price", "<=", 25.0)]}

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                return await svc.submit(AggregateRequest("star", batch, predicates=preds))

        result = serve(run())
        expected = compute_batch_mode(
            int_star_db, join_tree(int_star_db, int_star_query), batch, "trie",
            predicates=preds,
        )
        for name, value in expected.items():
            assert result[name] == pytest.approx(value, rel=1e-12)


class TestCoalescing:
    def test_concurrent_identical_requests_run_once(self, int_star_db):
        batch = variance_batch(LABEL)
        backend = CountingNumpyBackend()

        async def run():
            async with make_service(backend=backend) as svc:
                svc.register_database("star", int_star_db)
                results = await svc.submit_many(
                    GroupByRequest("star", batch, "price") for _ in range(16)
                )
                return results, svc.stats

        results, stats = serve(run())
        assert stats.requests == 16
        assert stats.coalesced == 15
        assert stats.runs == 1
        first = results[0]
        assert all(r == first for r in results)

    def test_coalesced_results_bit_identical_to_sequential(
        self, int_star_db, int_star_query
    ):
        batch = variance_batch(LABEL)

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                return await svc.submit_many(
                    GroupByRequest("star", batch, "cityf") for _ in range(8)
                )

        results = serve(run())
        sequential = compute_groupby(
            int_star_db, join_tree(int_star_db, int_star_query), batch, "cityf",
            backend="numpy", kernel_cache=KernelCache(),
        )
        for r in results:
            assert r == sequential

    def test_waiters_get_private_copies(self, int_star_db):
        batch = variance_batch(LABEL)

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                return await svc.submit_many(
                    GroupByRequest("star", batch, "price") for _ in range(2)
                )

        a, b = serve(run())
        assert a == b
        a[next(iter(a))][0] += 1.0
        assert a != b  # mutating one response does not leak into the other

    def test_coalesce_disabled_runs_every_request(self, int_star_db):
        batch = variance_batch(LABEL)

        async def run():
            async with make_service(coalesce=False, fuse=False) as svc:
                svc.register_database("star", int_star_db)
                await svc.submit_many(
                    GroupByRequest("star", batch, "price") for _ in range(4)
                )
                return svc.stats

        stats = serve(run())
        assert stats.runs == 4
        assert stats.coalesced == 0

    def test_predicates_distinguish_requests(self, int_star_db, int_star_query):
        batch = variance_batch(LABEL)
        low = {"I": [Condition("price", "<=", 20.0)]}
        low_twin = {"I": [Condition("price", "<=", 20.0)]}  # distinct objects
        high = {"I": [Condition("price", "<=", 40.0)]}
        assert predicate_key(low) == predicate_key(low_twin)
        assert predicate_key(low) != predicate_key(high)

        async def run():
            async with make_service(fuse=False) as svc:
                svc.register_database("star", int_star_db)
                results = await svc.submit_many(
                    [
                        GroupByRequest("star", batch, "price", predicates=low),
                        GroupByRequest("star", batch, "price", predicates=low_twin),
                        GroupByRequest("star", batch, "price", predicates=high),
                    ]
                )
                return results, svc.stats

        (r_low, r_twin, r_high), stats = serve(run())
        # Structurally equal predicates coalesced; different ones did not.
        assert stats.runs == 2
        assert r_low == r_twin
        tree = join_tree(int_star_db, int_star_query)
        for preds, result in ((low, r_low), (high, r_high)):
            assert result == compute_groupby(
                int_star_db, tree, batch, "price",
                predicates=preds, backend="numpy", kernel_cache=KernelCache(),
            )


class TestFusion:
    def test_queued_groupbys_fuse_into_one_run(self, int_star_db, int_star_query):
        batch = variance_batch(LABEL)

        async def run():
            # One worker: the first request occupies it while the rest
            # queue, so the drain fuses them into one MultiBatchPlan.
            async with make_service(max_workers=1) as svc:
                svc.register_database("star", int_star_db)
                results = await svc.submit_many(
                    [
                        GroupByRequest("star", batch, "price"),
                        GroupByRequest("star", batch, "cityf"),
                        GroupByRequest("star", batch, "item"),
                    ]
                )
                return results, svc.stats

        results, stats = serve(run())
        # All three requests were queued when the worker drained, so
        # they fused into a single MultiBatchPlan execution.
        assert stats.fused_runs == 1
        assert stats.fused_requests == 3
        assert stats.runs == 1
        tree = join_tree(int_star_db, int_star_query)
        for attr, result in zip(("price", "cityf", "item"), results):
            assert result == compute_groupby(
                int_star_db, tree, batch, attr,
                backend="numpy", kernel_cache=KernelCache(),
            )

    def test_fusion_respects_predicate_identity(self, int_star_db):
        batch = variance_batch(LABEL)
        preds = {"I": [Condition("price", "<=", 25.0)]}

        async def run():
            async with make_service(max_workers=1) as svc:
                svc.register_database("star", int_star_db)
                await svc.submit_many(
                    [
                        GroupByRequest("star", batch, "price"),
                        GroupByRequest("star", batch, "cityf", predicates=preds),
                        GroupByRequest("star", batch, "item"),
                    ]
                )
                return svc.stats

        stats = serve(run())
        # The unfiltered pair fuses; the δ-filtered request must not
        # join their bundle and runs on its own.
        assert stats.fused_runs == 1
        assert stats.fused_requests == 2
        assert stats.runs == 2


class TestLifecycleAndStats:
    def test_register_twice_requires_replace(self, int_star_db):
        """Re-registering the *same* object is an idempotent no-op; a
        different database under a taken name still requires replace."""
        from repro.db import Database

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                generation = svc._dbs["star"].generation
                svc.register_database("star", int_star_db)
                assert svc.stats.reregistrations == 1
                assert svc._dbs["star"].generation == generation
                other = Database.of(
                    int_star_db.relation("S"),
                    int_star_db.relation("R"),
                    int_star_db.relation("I"),
                )
                with pytest.raises(ValueError, match="already registered"):
                    svc.register_database("star", other)
                svc.register_database("star", int_star_db, replace=True)

        serve(run())

    def test_replace_does_not_coalesce_onto_stale_inflight_run(self, int_star_db):
        """A request arriving after register_database(replace=True) must
        not join an execution still running against the old database."""
        from repro.db import Database, Relation

        batch = variance_batch(LABEL)
        old_sales = int_star_db.relation("S")
        small_db = Database.of(
            Relation(old_sales.schema, dict(list(old_sales.data.items())[:50])),
            int_star_db.relation("R"),
            int_star_db.relation("I"),
        )
        run_started = threading.Event()
        release = threading.Event()

        class SlowBackend(CountingNumpyBackend):
            def run_groupby(self, kernel, db, predicates=None):
                run_started.set()
                assert release.wait(5)
                return super().run_groupby(kernel, db, predicates)

            def run_groupby_maintained(self, kernel, db, predicates=None):
                run_started.set()
                assert release.wait(5)
                return super().run_groupby_maintained(kernel, db, predicates)

        backend = SlowBackend()

        async def run():
            async with make_service(backend=backend, max_workers=1) as svc:
                svc.register_database("star", int_star_db)
                req = GroupByRequest("star", batch, "price")
                first = asyncio.ensure_future(svc.submit(req))
                while not run_started.is_set():
                    await asyncio.sleep(0.005)
                # Swap the database while the first run is mid-flight.
                svc.register_database("star", small_db, replace=True)
                second = asyncio.ensure_future(svc.submit(req))
                await asyncio.sleep(0.01)  # let the second request enqueue
                release.set()
                return await first, await second

        old_result, new_result = serve(run())
        assert backend.groupby_calls == 2  # no coalescing across the swap
        assert old_result != new_result
        count = lambda res: sum(v[0] for v in res.values())  # noqa: E731
        assert count(old_result) == 200 and count(new_result) == 50

    def test_eviction_blocks_new_requests_and_fires_hooks(self, int_star_db):
        batch = variance_batch(LABEL)
        events: list[tuple[str, str]] = []

        async def run():
            async with make_service() as svc:
                svc.add_hooks(
                    on_register=lambda name, db: events.append(("register", name)),
                    on_evict=lambda name, db: events.append(("evict", name)),
                )
                svc.register_database("star", int_star_db)
                await svc.submit(GroupByRequest("star", batch, "price"))
                assert svc.evict_database("star")
                assert not svc.evict_database("star")
                with pytest.raises(DatabaseNotRegistered):
                    await svc.submit(GroupByRequest("star", batch, "price"))

        serve(run())
        assert events == [("register", "star"), ("evict", "star")]

    def test_eviction_drops_column_store(self, int_star_db):
        batch = variance_batch(LABEL)

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                await svc.submit(GroupByRequest("star", batch, "price"))
                assert peek_column_store(int_star_db) is not None
                svc.evict_database("star")
                assert peek_column_store(int_star_db) is None

        serve(run())

    def test_errors_propagate_to_all_waiters(self, int_star_db):
        bad = variance_batch("no_such_attribute")

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                return await asyncio.gather(
                    *(
                        svc.submit(GroupByRequest("star", bad, "price"))
                        for _ in range(3)
                    ),
                    return_exceptions=True,
                )

        outcomes = serve(run())
        assert len(outcomes) == 3
        assert all(isinstance(o, Exception) for o in outcomes)

    def test_stats_dict_reports_column_store_bytes(self, int_star_db):
        batch = variance_batch(LABEL)

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                await svc.submit(GroupByRequest("star", batch, "price"))
                return svc.stats_dict()

        report = serve(run())
        assert report["service"]["requests"] == 1
        assert report["kernel_cache"]["misses"] >= 1
        store = report["databases"]["star"]["column_store"]
        assert store is not None and store["approx_bytes"] > 0

    def test_submit_after_close_raises(self, int_star_db):
        batch = variance_batch(LABEL)

        async def run():
            svc = make_service()
            svc.register_database("star", int_star_db)
            await svc.close()
            with pytest.raises(RuntimeError, match="closed"):
                await svc.submit(GroupByRequest("star", batch, "price"))

        serve(run())

    def test_unknown_request_type_raises(self, int_star_db):
        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                await svc.submit(object())  # type: ignore[arg-type]

        with pytest.raises((TypeError, AttributeError)):
            serve(run())

    def test_only_thread_executor_accepted(self):
        # Kernels run on the service's thread pool only; worker
        # processes belong to a process-mode ShardedBackend.
        with pytest.raises(ValueError, match="executor"):
            AggregateService(backend=NumpyBackend(), executor="process")


class TestStoreBudget:
    """Automatic ColumnStore LRU trimming under a byte budget."""

    def test_over_budget_trims_coldest_store(self, int_star_db, int_star_query):
        from repro.db import Database

        batch = variance_batch(LABEL)
        twin_db = Database(dict(int_star_db.relations))

        async def run():
            # coalesce=False keeps no views, so the repeat request below
            # really runs against "a" instead of hitting its view.
            async with make_service(
                store_budget_bytes=1, coalesce=False
            ) as svc:
                svc.register_database("a", int_star_db)
                svc.register_database("b", twin_db)
                first = await svc.submit(GroupByRequest("a", batch, "price"))
                await svc.submit(GroupByRequest("b", batch, "price"))
                # "a" is now the LRU registration and over budget: its
                # whole store was trimmed, the hot one ("b") survives.
                assert peek_column_store(int_star_db) is None
                assert peek_column_store(twin_db) is not None
                trims = svc.stats.store_trims
                again = await svc.submit(GroupByRequest("a", batch, "price"))
                # The run rebuilt "a"'s store lazily; "a" is now the hot
                # registration, so the post-run trim kept it.
                assert peek_column_store(int_star_db) is not None
                assert svc.stats.view_hits == 0
                return first, again, trims

        first, again, trims = serve(run())
        assert trims >= 1
        fresh = compute_groupby(
            int_star_db, join_tree(int_star_db, int_star_query), batch, "price",
            backend="numpy", kernel_cache=KernelCache(),
        )
        assert first == again == fresh

    def test_no_budget_means_no_trims(self, int_star_db):
        batch = variance_batch(LABEL)

        async def run():
            async with make_service() as svc:
                svc.register_database("a", int_star_db)
                await svc.submit(GroupByRequest("a", batch, "price"))
                return svc.stats.store_trims, peek_column_store(int_star_db)

        trims, store = serve(run())
        assert trims == 0
        assert store is not None
