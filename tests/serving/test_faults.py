"""Fault tolerance: deadlines, admission, retries, breakers, injection.

Every scenario here is **deterministic**: faults fire on counted
schedules (:mod:`repro.serving.faults`), in-flight runs block on events
the test releases (never bare sleeps), breakers take fake clocks, and
retry backoff uses ``base_delay=0`` so recovery is immediate.  The
recovery contract is bit identity — kernels are pure, so a retried or
degraded run must ``==`` the clean result.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future

import pytest

from repro.aggregates import variance_batch
from repro.aggregates.engine import compute_groupby
from repro.backend import (
    KernelCache,
    NumpyBackend,
    ProcessKernelExecutor,
    WorkerError,
    build_batch_plan,
    run_plan,
)
from repro.aggregates import build_join_tree
from repro.serving import (
    AggregateRequest,
    AggregateService,
    CircuitBreaker,
    DeadlineExceeded,
    Every,
    Fail,
    FaultSchedule,
    FaultyBackend,
    FaultyExecutor,
    GroupByRequest,
    Hold,
    KillWorker,
    QueueFull,
    RetryPolicy,
    Sometimes,
    TransientError,
)
from repro.serving.service import _WriteBarrier

LABEL = "units"
NO_BACKOFF = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def make_service(**kwargs):
    kwargs.setdefault("backend", NumpyBackend())
    kwargs.setdefault("kernel_cache", KernelCache())
    return AggregateService(**kwargs)


def faulty_service(schedule: FaultSchedule, **kwargs):
    kwargs.setdefault("retry_policy", NO_BACKOFF)
    kwargs["backend"] = FaultyBackend(NumpyBackend(), schedule)
    kwargs.setdefault("kernel_cache", KernelCache())
    return AggregateService(**kwargs)


def serve(coro):
    return asyncio.run(coro)


def expected_groupby(db, query, attr="price"):
    tree = build_join_tree(db.schema(), query.relations, stats=dict(db.statistics()))
    return compute_groupby(
        db, tree, variance_batch(LABEL), attr,
        backend="numpy", kernel_cache=KernelCache(),
    )


async def wait_until(predicate, timeout=10.0):
    """Poll ``predicate`` without blocking the loop (bounded, no races:
    the condition is monotonic — once true it stays true)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.005)


class InlinePool:
    """A synchronous stand-in for ProcessKernelExecutor.

    Exposes the same ``run_kernel`` future surface, runs the task
    in-process, and stays deterministic/cheap — the seam FaultyExecutor
    and the breaker tests need without real worker processes.
    """

    workers = 1

    def __init__(self) -> None:
        self.cache = KernelCache()
        self.calls = 0

    def run_kernel(self, backend, db, plan, layout, predicates=None):
        self.calls += 1
        future: Future = Future()
        try:
            kernel = self.cache.get_or_compile(backend, plan, layout)
            future.set_result((run_plan(backend, kernel, db, predicates), 0.0))
        except BaseException as exc:  # noqa: BLE001 — mirror the pool
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, **_kw):
        pass


# -- policy units ------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        now = [0.0]
        brk = CircuitBreaker("process", failure_threshold=3, reset_seconds=10.0,
                             clock=lambda: now[0])
        for _ in range(2):
            brk.record_failure()
        assert brk.state == "closed" and brk.allow()
        brk.record_failure()
        assert brk.state == "open" and brk.trips == 1
        assert not brk.allow()  # reset period not elapsed
        now[0] = 10.0
        assert brk.allow()  # the probe
        assert brk.state == "half_open"
        brk.record_success()
        assert brk.state == "closed" and brk.recoveries == 1
        assert brk.failures == 0

    def test_half_open_failure_reopens(self):
        now = [0.0]
        brk = CircuitBreaker("process", failure_threshold=1, reset_seconds=5.0,
                             clock=lambda: now[0])
        brk.record_failure()
        assert brk.state == "open"
        now[0] = 5.0
        assert brk.allow() and brk.state == "half_open"
        brk.record_failure()
        assert brk.state == "open" and brk.trips == 2
        assert not brk.allow()  # clock at 5.0, reopened at 5.0
        assert [tuple(t) for t in brk.transitions] == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "open"),
        ]

    def test_transition_callback(self):
        seen = []
        brk = CircuitBreaker("thread", failure_threshold=1,
                             on_transition=lambda *t: seen.append(t))
        brk.record_failure()
        assert seen == [("thread", "closed", "open")]


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=0.3,
                             jitter=0.5, seed=7)
        a = [policy.delay(k, policy.rng()) for k in (1, 2, 3, 4)]
        b = [policy.delay(k, policy.rng()) for k in (1, 2, 3, 4)]
        assert a == b  # same seed, same schedule
        assert all(d <= 0.3 * 1.5 for d in a)

    def test_zero_base_means_immediate(self):
        rng = NO_BACKOFF.rng()
        assert NO_BACKOFF.delay(1, rng) == 0.0
        assert NO_BACKOFF.delay(2, rng) == 0.0


class TestSchedules:
    def test_counted_firing_and_log(self):
        schedule = FaultSchedule().on("op", Fail(), at=(1, 3))
        assert schedule.fire("op") == []
        assert len(schedule.fire("op")) == 1
        assert schedule.fire("op") == []
        assert len(schedule.fire("op")) == 1
        assert [(op, i) for op, i, _ in schedule.log] == [("op", 1), ("op", 3)]
        assert schedule.count("op") == 4

    def test_sometimes_is_seed_deterministic(self):
        assert [Sometimes(0.5, seed=3)(i) for i in range(20)] == [
            Sometimes(0.5, seed=3)(i) for i in range(20)
        ]

    def test_every(self):
        every = Every(3, start=1)
        assert [i for i in range(10) if every(i)] == [1, 4, 7]


# -- deadlines ---------------------------------------------------------------


class TestDeadlines:
    def test_deadline_while_in_flight(self, int_star_db):
        release = threading.Event()
        schedule = FaultSchedule().on("run_groupby", Hold(release), at=0)
        batch = variance_batch(LABEL)

        async def run():
            async with faulty_service(schedule, max_workers=1) as svc:
                svc.register_database("star", int_star_db)
                with pytest.raises(DeadlineExceeded) as err:
                    await svc.submit(
                        GroupByRequest("star", batch, "price"), deadline=0.05
                    )
                assert "in flight" in str(err.value)
                release.set()
                await svc.drain()
                return svc.stats

        stats = serve(run())
        assert stats.deadline_timeouts == 1
        # The run still completed (threads can't be interrupted) with
        # zero remaining waiters — counted as wasted work.
        assert stats.abandoned_runs == 1
        assert stats.completed == 1

    def test_deadline_while_queued_cancels_the_run(self, int_star_db):
        release = threading.Event()
        schedule = FaultSchedule().on("run_groupby", Hold(release), at=0)
        batch = variance_batch(LABEL)

        async def run():
            async with faulty_service(schedule, max_workers=1, fuse=False) as svc:
                svc.register_database("star", int_star_db)
                first = asyncio.ensure_future(
                    svc.submit(GroupByRequest("star", batch, "price"))
                )
                await wait_until(lambda: schedule.count("run_groupby") >= 1)
                with pytest.raises(DeadlineExceeded) as err:
                    await svc.submit(
                        GroupByRequest("star", batch, "cityf"), deadline=0.05
                    )
                assert "queued" in str(err.value)
                release.set()
                await first
                await svc.drain()
                return svc.stats, schedule

        stats, schedule = serve(run())
        assert stats.deadline_timeouts == 1
        # The abandoned queued unit was discarded before dispatch: only
        # the held run ever reached the backend.
        assert stats.cancelled_queued == 1
        assert schedule.count("run_groupby") == 1
        assert stats.runs == 1

    def test_request_level_deadline_field(self, int_star_db):
        release = threading.Event()
        schedule = FaultSchedule().on("run_groupby", Hold(release), at=0)
        batch = variance_batch(LABEL)

        async def run():
            async with faulty_service(schedule, max_workers=1) as svc:
                svc.register_database("star", int_star_db)
                with pytest.raises(DeadlineExceeded):
                    await svc.submit(
                        GroupByRequest("star", batch, "price", deadline=0.05)
                    )
                release.set()
                await svc.drain()

        serve(run())

    def test_coalesced_waiters_have_independent_deadlines(self, int_star_db):
        release = threading.Event()
        schedule = FaultSchedule().on("run_groupby", Hold(release), at=0)
        batch = variance_batch(LABEL)

        async def run():
            async with faulty_service(schedule, max_workers=1) as svc:
                svc.register_database("star", int_star_db)
                request = GroupByRequest("star", batch, "price")
                patient = asyncio.ensure_future(svc.submit(request))
                await wait_until(lambda: schedule.count("run_groupby") >= 1)
                with pytest.raises(DeadlineExceeded):
                    await svc.submit(request, deadline=0.05)
                assert not patient.done()  # its run was not cancelled
                release.set()
                return await patient, svc.stats

        result, stats = serve(run())
        assert result == expected_groupby(
            *_db_query(int_star_db)
        )
        assert stats.coalesced == 1
        assert stats.abandoned_runs == 0  # a live waiter consumed the run

    def test_no_deadline_by_default(self, int_star_db, int_star_query):
        batch = variance_batch(LABEL)

        async def run():
            async with make_service() as svc:
                assert svc.default_deadline is None
                svc.register_database("star", int_star_db)
                return await svc.submit(GroupByRequest("star", batch, "price"))

        assert serve(run()) == expected_groupby(int_star_db, int_star_query)


def _db_query(db):
    from repro.db import JoinQuery

    return db, JoinQuery(("S", "R", "I"))


# -- bounded admission -------------------------------------------------------


class TestAdmission:
    def test_reject_policy_raises_queue_full(self, int_star_db):
        release = threading.Event()
        schedule = FaultSchedule().on("run_groupby", Hold(release), at=0)
        batch = variance_batch(LABEL)

        async def run():
            async with faulty_service(
                schedule, max_workers=1, fuse=False, max_queue_depth=1
            ) as svc:
                svc.register_database("star", int_star_db)
                held = asyncio.ensure_future(
                    svc.submit(GroupByRequest("star", batch, "price"))
                )
                await wait_until(lambda: schedule.count("run_groupby") >= 1)
                queued = asyncio.ensure_future(
                    svc.submit(GroupByRequest("star", batch, "cityf"))
                )
                await wait_until(lambda: svc._dbs["star"].queued >= 1)
                with pytest.raises(QueueFull):
                    await svc.submit(
                        AggregateRequest("star", variance_batch("price"))
                    )
                release.set()
                return await held, await queued, svc.stats

        first, second, stats = serve(run())
        db, query = _db_query(int_star_db)
        assert first == expected_groupby(db, query, "price")
        assert second == expected_groupby(db, query, "cityf")
        assert stats.queue_rejections == 1

    def test_wait_policy_parks_until_slot_frees(self, int_star_db):
        release = threading.Event()
        schedule = FaultSchedule().on("run_groupby", Hold(release), at=0)
        batch = variance_batch(LABEL)

        async def run():
            async with faulty_service(
                schedule, max_workers=1, fuse=False,
                max_queue_depth=1, queue_policy="wait",
            ) as svc:
                svc.register_database("star", int_star_db)
                held = asyncio.ensure_future(
                    svc.submit(GroupByRequest("star", batch, "price"))
                )
                await wait_until(lambda: schedule.count("run_groupby") >= 1)
                queued = asyncio.ensure_future(
                    svc.submit(GroupByRequest("star", batch, "cityf"))
                )
                await wait_until(lambda: svc._dbs["star"].queued >= 1)
                parked = asyncio.ensure_future(
                    svc.submit(AggregateRequest("star", variance_batch("price")))
                )
                await asyncio.sleep(0.02)
                assert not parked.done()  # over cap: waiting, not rejected
                release.set()
                await asyncio.gather(held, queued, parked)
                return svc.stats

        stats = serve(run())
        assert stats.queue_rejections == 0
        assert stats.completed == 3

    def test_wait_policy_respects_deadline(self, int_star_db):
        release = threading.Event()
        schedule = FaultSchedule().on("run_groupby", Hold(release), at=0)
        batch = variance_batch(LABEL)

        async def run():
            async with faulty_service(
                schedule, max_workers=1, fuse=False,
                max_queue_depth=1, queue_policy="wait",
            ) as svc:
                svc.register_database("star", int_star_db)
                held = asyncio.ensure_future(
                    svc.submit(GroupByRequest("star", batch, "price"))
                )
                await wait_until(lambda: schedule.count("run_groupby") >= 1)
                queued = asyncio.ensure_future(
                    svc.submit(GroupByRequest("star", batch, "cityf"))
                )
                await wait_until(lambda: svc._dbs["star"].queued >= 1)
                with pytest.raises(DeadlineExceeded) as err:
                    await svc.submit(
                        AggregateRequest("star", variance_batch("price")),
                        deadline=0.05,
                    )
                assert "admission" in str(err.value)
                release.set()
                await asyncio.gather(held, queued)
                return svc.stats

        stats = serve(run())
        assert stats.deadline_timeouts == 1
        assert stats.completed == 2


# -- retries -----------------------------------------------------------------


class TestRetries:
    def test_transient_failure_retried_bit_identical(self, int_star_db, int_star_query):
        schedule = FaultSchedule().on("run_groupby", Fail(TransientError), at=0)
        batch = variance_batch(LABEL)

        async def run():
            async with faulty_service(schedule) as svc:
                svc.register_database("star", int_star_db)
                result = await svc.submit(GroupByRequest("star", batch, "price"))
                return result, svc.stats

        result, stats = serve(run())
        assert result == expected_groupby(int_star_db, int_star_query)
        assert stats.retries == 1
        assert stats.retry_exhausted == 0
        assert stats.errors == 0
        assert len(schedule.log) == 1

    def test_retry_budget_exhausts_and_propagates(self, int_star_db):
        schedule = FaultSchedule().on(
            "run_groupby", Fail(TransientError, "still down"), at=lambda i: True
        )
        batch = variance_batch(LABEL)

        async def run():
            async with faulty_service(
                schedule, retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
            ) as svc:
                svc.register_database("star", int_star_db)
                with pytest.raises(TransientError):
                    await svc.submit(GroupByRequest("star", batch, "price"))
                return svc.stats

        stats = serve(run())
        assert stats.retries == 1  # one backoff before giving up
        assert stats.retry_exhausted == 1
        assert stats.errors == 1
        assert schedule.count("run_groupby") == 2

    def test_non_transient_errors_never_retry(self, int_star_db):
        schedule = FaultSchedule().on(
            "run_groupby", Fail(ValueError, "bad batch"), at=0
        )
        batch = variance_batch(LABEL)

        async def run():
            async with faulty_service(schedule) as svc:
                svc.register_database("star", int_star_db)
                with pytest.raises(ValueError):
                    await svc.submit(GroupByRequest("star", batch, "price"))
                return svc.stats

        stats = serve(run())
        assert stats.retries == 0
        assert stats.retry_exhausted == 0
        assert schedule.count("run_groupby") == 1  # exactly one attempt


# -- circuit breakers / degradation -----------------------------------------


class TestDegradation:
    def test_breaker_trips_and_runs_degrade_to_thread(self, int_star_db, int_star_query):
        schedule = FaultSchedule().on(
            "run_kernel", Fail(WorkerError, "pool down"), at=lambda i: True
        )
        executor = FaultyExecutor(InlinePool(), schedule)
        batch = variance_batch(LABEL)

        async def run():
            async with make_service(
                executor=executor,
                retry_policy=NO_BACKOFF,
                breaker=CircuitBreaker("process", failure_threshold=1, reset_seconds=60.0),
            ) as svc:
                svc.register_database("star", int_star_db)
                first = await svc.submit(GroupByRequest("star", batch, "price"))
                second = await svc.submit(GroupByRequest("star", batch, "cityf"))
                return first, second, svc.stats

        first, second, stats = serve(run())
        # Degraded runs are bit-identical to the clean path.
        assert first == expected_groupby(int_star_db, int_star_query, "price")
        assert second == expected_groupby(int_star_db, int_star_query, "cityf")
        assert stats.breaker_state == "open"
        assert ("process", "closed", "open") in [
            tuple(t) for t in stats.breaker_transitions
        ]
        assert stats.retries == 1      # first request: process fail → retry
        assert stats.degraded_runs == 2  # both answered on threads
        # Second request skipped the open process stage entirely.
        assert schedule.count("run_kernel") == 1

    def test_half_open_probe_recovers(self, int_star_db, int_star_query):
        schedule = FaultSchedule().on("run_kernel", Fail(WorkerError), at=0)
        pool = InlinePool()
        executor = FaultyExecutor(pool, schedule)
        batch = variance_batch(LABEL)

        async def run():
            async with make_service(
                executor=executor,
                retry_policy=NO_BACKOFF,
                breaker=CircuitBreaker("process", failure_threshold=1, reset_seconds=0.0),
            ) as svc:
                svc.register_database("star", int_star_db)
                result = await svc.submit(GroupByRequest("star", batch, "price"))
                return result, svc.stats, svc._breaker

        result, stats, breaker = serve(run())
        assert result == expected_groupby(int_star_db, int_star_query)
        # Fail → open; reset=0 elapses immediately, so the retry itself
        # is the half-open probe; it succeeds and closes the breaker.
        assert breaker.trips == 1 and breaker.recoveries == 1
        assert stats.breaker_state == "closed"
        assert stats.degraded_runs == 0  # the probe ran at process level
        assert pool.calls == 1

    def test_thread_breaker_degrades_to_inline(self, int_star_db, int_star_query):
        schedule = FaultSchedule().on("run_groupby", Fail(TransientError), at=0)
        batch = variance_batch(LABEL)

        async def run():
            # Pinned to the thread executor: this test is about the
            # thread → inline rung of the ladder, regardless of any
            # IFAQ_EXECUTOR=process override in the environment.
            async with faulty_service(
                schedule,
                executor="thread",
                thread_breaker=CircuitBreaker("thread", failure_threshold=1, reset_seconds=60.0),
            ) as svc:
                svc.register_database("star", int_star_db)
                result = await svc.submit(GroupByRequest("star", batch, "price"))
                return result, svc.stats

        result, stats = serve(run())
        assert result == expected_groupby(int_star_db, int_star_query)
        assert stats.thread_breaker_state == "open"
        assert stats.degraded_runs == 1  # answered inline on the loop
        assert stats.retries == 1

    def test_reliability_section_in_stats(self, int_star_db):
        async def run():
            async with make_service(
                max_queue_depth=4, queue_policy="wait", default_deadline=9.0
            ) as svc:
                svc.register_database("star", int_star_db)
                return svc.stats_dict()

        report = serve(run())
        section = report["reliability"]
        assert section["default_deadline"] == 9.0
        assert section["max_queue_depth"] == 4
        assert section["queue_policy"] == "wait"
        assert section["retry"]["max_attempts"] >= 1
        assert section["breakers"]["process"]["state"] == "closed"
        assert section["breakers"]["thread"]["state"] == "closed"


# -- write barrier under cancellation ---------------------------------------


class TestWriteBarrierCancellation:
    def test_cancelled_writer_reopens_the_gate(self):
        async def run():
            barrier = _WriteBarrier()
            await barrier.reader_enter()  # an active reader keeps idle clear
            writer = asyncio.ensure_future(barrier.writer_enter())
            await asyncio.sleep(0)  # writer closed the gate, awaits idle
            writer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await writer
            barrier.reader_exit()
            # The gate must be open again: a fresh reader enters at once.
            await asyncio.wait_for(barrier.reader_enter(), timeout=1.0)
            barrier.reader_exit()

        serve(run())

    def test_cancelled_ingest_does_not_wedge_submits(self, int_star_db, int_star_query):
        release = threading.Event()
        schedule = FaultSchedule().on("run_groupby", Hold(release), at=0)
        batch = variance_batch(LABEL)

        async def run():
            async with faulty_service(schedule, max_workers=1) as svc:
                svc.register_database("star", int_star_db)
                held = asyncio.ensure_future(
                    svc.submit(GroupByRequest("star", batch, "price"))
                )
                await wait_until(lambda: schedule.count("run_groupby") >= 1)
                ingest = asyncio.ensure_future(
                    svc.ingest("star", "S", [(0, 0, 1.0)])
                )
                await asyncio.sleep(0.02)  # writer is parked at the barrier
                ingest.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await ingest
                release.set()
                await held
                # The barrier reopened: new submissions still answer.
                return await svc.submit(GroupByRequest("star", batch, "cityf"))

        result = serve(run())
        assert result == expected_groupby(int_star_db, int_star_query, "cityf")


# -- real process pool + injected worker kills -------------------------------


class TestProcessFaults:
    def test_worker_kill_retried_bit_identical(self, int_star_db, int_star_query):
        schedule = FaultSchedule().on("run_kernel", KillWorker(0), at=0)
        pool = ProcessKernelExecutor(workers=1)
        executor = FaultyExecutor(pool, schedule)
        batch = variance_batch(LABEL)

        async def run():
            async with make_service(
                executor=executor, retry_policy=NO_BACKOFF
            ) as svc:
                svc.register_database("star", int_star_db)
                result = await svc.submit(GroupByRequest("star", batch, "price"))
                return result, svc.stats

        try:
            result, stats = serve(run())
        finally:
            pool.shutdown()
        # The kill produced the organic WorkerError, the pool respawned
        # the worker, and the retry recomputed the same pure fold.
        assert result == expected_groupby(int_star_db, int_star_query)
        assert stats.retries == 1
        assert stats.errors == 0
        assert stats.degraded_runs == 0  # recovered at process level
