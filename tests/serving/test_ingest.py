"""Streaming ingest through the service: maintained materialized views.

Every correctness assertion compares the served result after
``ingest`` against a *from-scratch* recompute of the same kernel on a
deep copy of the mutated database (its own fresh column store) with
``==`` — bit identity, exactly like the backend delta tests.

These tests run under both executor modes: the CI process-executor job
re-runs them with ``IFAQ_EXECUTOR=process`` (``-k ingest``), where
views are created without delta state (worker runs can't ship it back)
and the first ingest re-establishes state parent-side.
"""

from __future__ import annotations

import asyncio
import copy

import pytest

from repro.aggregates import build_join_tree, covar_batch, variance_batch
from repro.backend import (
    KernelCache,
    NumpyBackend,
    build_batch_plan,
)
from repro.backend.layout import LAYOUT_SORTED
from repro.ml.regression_tree import Condition
from repro.serving import (
    AggregateRequest,
    AggregateService,
    DatabaseNotRegistered,
    GroupByRequest,
)

FEATURES = ["cityf", "price"]
LABEL = "units"

PRICE_PREDICATES = {"I": [Condition("price", "<=", 25.0)]}
#: a root (S) predicate cutting both the fixture's and the appended rows
UNITS_PREDICATES = {"S": [Condition("units", ">", 5.0), Condition("units", "<=", 1010.0)]}


def make_service(**kwargs):
    kwargs.setdefault("backend", NumpyBackend(block_size=16))
    kwargs.setdefault("kernel_cache", KernelCache())
    return AggregateService(**kwargs)


def serve(coro):
    return asyncio.run(coro)


def sale_rows(start, count):
    return [
        (i % 12, i % 5, 1000.0 + i * 0.5) for i in range(start, start + count)
    ]


class Oracle:
    """From-scratch recomputes with the *service's* plans, so the float
    association matches and ``==`` is a fair bit-identity check."""

    def __init__(self, db, query):
        self.db = db
        self.tree = build_join_tree(
            db.schema(), query.relations, stats=dict(db.statistics())
        )
        self.backend = NumpyBackend(block_size=16)
        self.plans = {}

    def _kernel(self, batch, group_attr):
        key = (batch, group_attr)
        plan = self.plans.get(key)
        if plan is None:
            plan = self.plans[key] = build_batch_plan(
                self.db, self.tree, batch, group_attr=group_attr
            )
        return self.backend.compile_plan(plan, LAYOUT_SORTED)

    def plain(self, batch, predicates=None):
        return self.backend.execute(
            self._kernel(batch, None), copy.deepcopy(self.db), predicates
        )

    def groupby(self, batch, attr, predicates=None):
        return self.backend.run_groupby(
            self._kernel(batch, attr), copy.deepcopy(self.db), predicates
        )


class TestIngestCorrectness:
    def test_groupby_view_stays_fresh_across_ingests(
        self, int_star_db, int_star_query
    ):
        batch = variance_batch(LABEL)
        oracle = Oracle(int_star_db, int_star_query)
        req = GroupByRequest("star", batch, "units")  # groups grow per append

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                first = await svc.submit(req)
                assert first == oracle.groupby(batch, "units")
                start = 0
                for size in (17, 120):
                    report = await svc.ingest("star", "S", sale_rows(start, size))
                    assert report["pure_append"] and report["rows"] == size
                    served = await svc.submit(req)
                    assert served == oracle.groupby(batch, "units")
                    start += size
                return svc.stats

        stats = serve(run())
        assert stats.ingests == 2 and stats.ingest_rows == 137
        assert stats.view_hits >= 2  # post-ingest submits served from the view
        # Thread executor: both ingests fold deltas.  Process executor:
        # the first ingest re-establishes state, the second folds.
        assert stats.delta_runs >= 1
        assert stats.delta_runs + stats.full_recomputes == 2

    def test_plain_view_stays_fresh(self, int_star_db, int_star_query):
        batch = covar_batch(FEATURES, label=LABEL)
        oracle = Oracle(int_star_db, int_star_query)
        req = AggregateRequest("star", batch)

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                await svc.submit(req)
                await svc.ingest("star", "S", sale_rows(0, 64))
                await svc.ingest("star", "S", sale_rows(64, 9))
                return await svc.submit(req), svc.stats

        served, stats = serve(run())
        assert served == oracle.plain(batch)
        assert stats.delta_runs >= 1

    def test_predicate_groupby_view_maintained(
        self, int_star_db, int_star_query
    ):
        batch = variance_batch(LABEL)
        oracle = Oracle(int_star_db, int_star_query)
        req = GroupByRequest("star", batch, "price", predicates=PRICE_PREDICATES)

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                await svc.submit(req)
                await svc.ingest("star", "S", sale_rows(0, 55))
                return await svc.submit(req)

        assert serve(run()) == oracle.groupby(batch, "price", PRICE_PREDICATES)

    def test_non_root_ingest_recomputes_fully(
        self, int_star_db, int_star_query
    ):
        """Appending to a relation that is *not* the view's plan root
        changes child aggregates for existing root rows — inexpressible
        as a root-tail delta, so the view must take the full-recompute
        path and still serve correctly.  (Group-by plans reroot at the
        grouping attribute's owner, so a ``units`` group-by is rooted at
        S and an append to I is a non-root change for it.)"""
        batch = variance_batch(LABEL)
        oracle = Oracle(int_star_db, int_star_query)
        req = GroupByRequest("star", batch, "units")

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                await svc.submit(req)
                # New item ids 12/13: joinable once sales reference them.
                report = await svc.ingest("star", "I", [(12, 60.5), (13, 77.25)])
                assert report["pure_append"]
                assert report["full_recomputes"] >= 1 and report["delta_runs"] == 0
                await svc.ingest("star", "S", [(12, 0, 2000.0), (13, 1, 2001.0)])
                return await svc.submit(req), svc.stats

        served, stats = serve(run())
        assert served == oracle.groupby(batch, "units")
        assert stats.full_recomputes >= 1

    def test_multiplicity_bump_falls_back_and_serves_correctly(
        self, int_star_db, int_star_query
    ):
        batch = variance_batch(LABEL)
        oracle = Oracle(int_star_db, int_star_query)
        req = GroupByRequest("star", batch, "price")
        dup = tuple(next(iter(int_star_db.relation("S").data)).values())

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                await svc.submit(req)
                report = await svc.ingest("star", "S", [dup])
                assert not report["pure_append"]
                return await svc.submit(req)

        assert serve(run()) == oracle.groupby(batch, "price")


class TestIngestMechanics:
    def test_ingest_unregistered_database_raises(self, int_star_db):
        async def run():
            async with make_service() as svc:
                with pytest.raises(DatabaseNotRegistered):
                    await svc.ingest("nope", "S", sale_rows(0, 1))

        serve(run())

    def test_ingest_waits_for_inflight_runs(self, int_star_db, int_star_query):
        """The writer barrier: an ingest issued while a run is in flight
        applies after it, and the run's waiter still gets a pre-ingest
        answer."""
        import threading

        batch = variance_batch(LABEL)
        oracle = Oracle(int_star_db, int_star_query)
        started = threading.Event()
        release = threading.Event()

        class SlowBackend(NumpyBackend):
            def run_groupby_maintained(self, kernel, db, predicates=None):
                out = super().run_groupby_maintained(kernel, db, predicates)
                started.set()
                assert release.wait(5)
                return out

        expected_before = oracle.groupby(batch, "units")

        async def run():
            async with make_service(
                backend=SlowBackend(block_size=16), executor="thread"
            ) as svc:
                svc.register_database("star", int_star_db)
                req = GroupByRequest("star", batch, "units")
                inflight = asyncio.ensure_future(svc.submit(req))
                while not started.is_set():
                    await asyncio.sleep(0.005)
                ingest = asyncio.ensure_future(
                    svc.ingest("star", "S", sale_rows(0, 30))
                )
                await asyncio.sleep(0.02)
                assert not ingest.done()  # writer parked behind the reader
                release.set()
                old = await inflight
                await ingest
                new = await svc.submit(req)
                return old, new

        old, new = serve(run())
        assert old == expected_before
        assert new == oracle.groupby(batch, "units")
        assert old != new

    def test_filtered_plain_view_folds_each_ingest(self, int_star_db, int_star_query):
        """Plain δ results are maintained views like group-bys: every
        ingest into the root folds only the appended rows, under a
        dimension predicate and a root predicate alike."""
        batch = covar_batch(FEATURES, label=LABEL)
        offset = 0  # appended rows stay distinct across both rounds
        for predicates in (PRICE_PREDICATES, UNITS_PREDICATES):
            oracle = Oracle(int_star_db, int_star_query)
            req = AggregateRequest("star", batch, predicates=predicates)

            async def run():
                # Thread executor: worker-process runs ship no delta state.
                async with make_service(executor="thread") as svc:
                    svc.register_database("star", int_star_db)
                    await svc.submit(req)
                    reports = [
                        await svc.ingest("star", "S", sale_rows(offset, 17)),
                        await svc.ingest("star", "S", sale_rows(offset + 17, 40)),
                    ]
                    return reports, await svc.submit(req), svc.stats.view_hits

            reports, served, view_hits = serve(run())
            offset += 57
            assert [r["delta_runs"] for r in reports] == [1, 1]
            assert all(r["full_recomputes"] == 0 for r in reports)
            assert view_hits == 1
            assert served == oracle.plain(batch, predicates)

    def test_version_vector_keys_prevent_stale_coalescing(
        self, int_star_db, int_star_query
    ):
        """Two requests that straddle an ingest must not share a run.
        With views disabled (coalesce=False exercises the raw path) the
        service runs each; with coalescing on, the version vector in the
        key separates them."""
        batch = variance_batch(LABEL)

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                req = GroupByRequest("star", batch, "price")
                before = await svc.submit(req)
                key_before = (
                    "star",
                    svc._dbs["star"].generation,
                    int_star_db.version_vector(),
                )
                await svc.ingest("star", "S", sale_rows(0, 40))
                key_after = (
                    "star",
                    svc._dbs["star"].generation,
                    int_star_db.version_vector(),
                )
                assert key_before != key_after
                after = await svc.submit(req)
                return before, after

        before, after = serve(run())
        assert before != after  # appended units shift every price group

    def test_stats_dict_reports_views_and_ingests(
        self, int_star_db, int_star_query
    ):
        batch = variance_batch(LABEL)

        async def run():
            async with make_service() as svc:
                svc.register_database("star", int_star_db)
                await svc.submit(GroupByRequest("star", batch, "price"))
                await svc.ingest("star", "S", sale_rows(0, 10))
                await svc.ingest("star", "S", sale_rows(10, 10))
                return svc.stats_dict()

        report = serve(run())
        assert report["databases"]["star"]["views"] == 1
        service = report["service"]
        assert service["ingests"] == 2 and service["ingest_rows"] == 20
        assert service["delta_runs"] + service["full_recomputes"] == 2
        assert "delta_speedup" in service
