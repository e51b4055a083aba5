"""The async aggregate-serving layer.

:class:`AggregateService` puts the plan → kernel → cache → backend
stack behind an asyncio front end, which is what the ROADMAP's
millions-of-users path needs: many concurrent clients asking for
aggregates over a handful of registered databases, where most of the
traffic repeats a small set of plan fingerprints.

The service exploits that repetition twice:

* **Coalescing** — concurrent requests with the same *(database, plan
  fingerprint, δ predicates)* key execute **once**: the first request
  creates an in-flight entry, every later arrival (queued *or already
  running* — databases are immutable between executions, so joining a
  running execution is safe) awaits the same future, and the single
  kernel run fans its result back out to all waiters.
* **Fusion** — queued group-by requests over the same database with
  the same δ predicates but *different* fingerprints are bundled into
  one :class:`~repro.backend.plan.MultiBatchPlan` when a worker picks
  them up, so backends share predicate masks and (for members with
  equal ``scan_fingerprint``) the bottom-up value pass.  Fusion is
  load-adaptive: an idle service dispatches immediately with no
  batching window, a saturated one drains compatible requests in
  bulk.

Kernel execution is blocking (numpy folds, generated kernels, g++
binaries), so it is offloaded to the service's bounded thread pool.
A backend whose folds should run in worker processes is a
process-mode :class:`~repro.backend.parallel.ShardedBackend`; the
service hands it work like any other backend.  Kernel
compilation goes through the shared
:class:`~repro.backend.cache.KernelCache` (single-flight, so raced
fingerprints compile once) and columnar state through the shared
per-database :class:`~repro.backend.column_store.ColumnStore`.

Every request runs down one path: :meth:`AggregateService._run` picks
the backend entry point from the plan's shape (plain, group-by or
fused multi-plan) and the run kind (delta fold onto a maintained
state, maintained run, plain run), with the request's δ predicates
pushed into the backend's scans — plain batches exactly like
group-bys, so no filtered copy of a database is ever built.

Registered databases also take **streaming ingest**
(:meth:`AggregateService.ingest`): appended rows extend the shared
column store in place and every cached per-fingerprint result — a
maintained materialized view holding backend delta state — is
refreshed by folding only the appended block range when the append is
delta-eligible (pure append to the view's plan root on a
delta-capable backend), falling back to a full recompute otherwise.
A per-database writer barrier keeps readers off the store while it
mutates, and coalescing keys carry the database's relation-version
vector so requests straddling an ingest never share a run.

**Overload**: every request can carry a relative **deadline**,
enforced while queued and in flight (:class:`DeadlineExceeded`);
queued units abandoned by all their waiters are cancelled before
dispatch so they never occupy a pool slot.  Per-database **bounded
admission** caps the pending-run queue (:class:`QueueFull`
backpressure, or parked waits under the ``"wait"`` policy).  A run
that raises is final: its exception reaches every waiter of that run,
and the next request runs afresh.  Recovery from a dead worker process
lives below the service, in a process-mode sharded backend's shard
resubmission.  Every timeout, rejection and error is visible in
:class:`ServiceStats`.
"""

from __future__ import annotations

import asyncio
import os
from collections import deque
from time import perf_counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

# Unused here, but the end-to-end benchmark spans this module attribute.
from repro.aggregates.engine import apply_predicates  # noqa: F401
from repro.aggregates.join_tree import JoinTreeNode, build_join_tree
from repro.backend.base import run_plan
from repro.backend.cache import KernelCache, default_kernel_cache
from repro.backend.column_store import evict_column_store, peek_column_store
from repro.backend.layout import LAYOUT_SORTED, LayoutOptions
from repro.backend.plan import BatchPlan, MultiBatchPlan, build_batch_plan
from repro.backend.registry import get_backend
from repro.db.database import Database
from repro.serving.requests import (
    AggregateRequest,
    GroupByRequest,
    MultiGroupByRequest,
    Request,
    predicate_key,
)
from repro.serving.stats import ServiceStats

#: Default worker-pool width: one kernel execution per core.
DEFAULT_SERVICE_WORKERS = max(1, os.cpu_count() or 1)

#: Ceiling on group-by requests fused into one kernel run.
MAX_FUSE = 16


#: Ceiling on maintained materialized views per registration.
MAX_VIEWS_PER_DB = 64


class DatabaseNotRegistered(KeyError):
    """The request names a database the service does not know."""


class DeadlineExceeded(TimeoutError):
    """The request's deadline expired before a result was produced.

    Raised to the waiter only: a run already in flight keeps executing
    (threads cannot be interrupted) and its result feeds any remaining
    waiters, but a run *all* of whose waiters have gone is cancelled
    before dispatch.
    """


class QueueFull(RuntimeError):
    """Admission control rejected the request: the target database's
    pending-run queue is at its cap (``queue_policy="reject"``)."""


class _WriteBarrier:
    """A readers-writer gate for one registered database.

    Kernel runs are readers: any number proceed concurrently.  An
    ingest is the writer: it closes the gate (new runs queue), waits
    for the running readers to drain, mutates the database and its
    column store, refreshes the maintained views, then reopens the
    gate.  Everything happens on the event loop, so no locks — just
    two events and a counter.
    """

    def __init__(self) -> None:
        self._gate = asyncio.Event()
        self._gate.set()
        self._idle = asyncio.Event()
        self._idle.set()
        self._running = 0

    async def reader_enter(self) -> None:
        # Cancellation-safe: a reader cancelled while parked at the
        # closed gate has mutated nothing, so nothing to unwind.
        while not self._gate.is_set():
            await self._gate.wait()
        self._running += 1
        self._idle.clear()

    def reader_exit(self) -> None:
        self._running -= 1
        if self._running == 0:
            self._idle.set()

    async def writer_enter(self) -> None:
        self._gate.clear()
        try:
            await self._idle.wait()
        except BaseException:
            # A writer cancelled while waiting for readers to drain
            # must reopen the gate, or every later reader *and* writer
            # wedges forever.  Ingests serialize on the registration's
            # write_lock, so no other writer can hold the gate closed.
            self._gate.set()
            raise

    def writer_exit(self) -> None:
        self._gate.set()


@dataclass
class _View:
    """One maintained materialized view: a cached result kept fresh.

    ``state`` is the backend's maintained delta state
    (:class:`~repro.backend.numpy_backend.DeltaVectorState` /
    ``DeltaGroupState``) when the run that produced ``result`` captured
    one; ingest uses it to fold appended rows in instead of
    recomputing.  View objects are replaced wholesale on refresh, so a
    concurrent reader sees either the old or the new view, never a
    half-updated one.
    """

    plan: BatchPlan
    fingerprint: str
    pred_key: tuple
    predicates: Any
    result: Any
    state: Any = None


@dataclass
class _Registration:
    """One registered database: its join tree and plan memos."""

    name: str
    db: Database
    tree: JoinTreeNode
    #: monotonic per-service registration generation.  Part of the
    #: coalescing key: after ``register_database(replace=True)`` a new
    #: request must never join an in-flight execution that is still
    #: running against the replaced database.
    generation: int = 0
    #: (batch, group_attr) → BatchPlan;  (batch, group_attrs) → MultiBatchPlan
    plans: dict = field(default_factory=dict)
    #: (fingerprint, pred_key) → maintained materialized view
    views: dict[tuple, _View] = field(default_factory=dict)
    #: readers-writer gate serializing ingests against kernel runs
    barrier: _WriteBarrier = field(default_factory=_WriteBarrier)
    #: serializes concurrent ingest() calls for this database
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: pending (queued, not yet dispatched) execution units — the
    #: quantity bounded admission caps per database
    queued: int = 0
    #: submissions parked by the "wait" admission policy, woken FIFO
    #: one per freed slot
    queue_waiters: deque = field(default_factory=deque)


@dataclass
class _Inflight:
    """One deduplicated unit of work and the waiters attached to it."""

    key: tuple
    plan: BatchPlan | MultiBatchPlan
    fingerprint: str
    registration: _Registration
    predicates: Any
    pred_key: tuple
    future: asyncio.Future
    enqueued: float
    #: waiters currently attached (the creator plus coalesced joiners);
    #: decremented when a waiter's deadline expires or it is cancelled
    waiters: int = 1
    #: True once a dispatcher has taken this entry into a batch
    started: bool = False
    #: True when every waiter left before dispatch: the entry is
    #: discarded by the next _take_batch instead of occupying a slot
    abandoned: bool = False


def _copy_result(plan: BatchPlan | MultiBatchPlan, result):
    """A private copy per waiter, so one client mutating its response
    cannot corrupt another's (values are shared floats — bit-identical)."""
    if isinstance(plan, MultiBatchPlan):
        return {attr: {k: list(v) for k, v in groups.items()} for attr, groups in result.items()}
    if plan.is_groupby:
        return {k: list(v) for k, v in result.items()}
    return dict(result)


def _fusable(entry: _Inflight) -> bool:
    """Single group-by entries fuse; plain and multi entries run alone."""
    return not isinstance(entry.plan, MultiBatchPlan) and entry.plan.is_groupby


class AggregateService:
    """Serve aggregate requests over registered databases, coalesced
    per plan fingerprint.

    Parameters
    ----------
    backend:
        Registered backend name or :class:`ExecutionBackend` instance;
        resolved once at construction (the ``cpp`` → ``python``
        toolchain fallback happens here, never per request).
    kernel_cache:
        Shared :class:`KernelCache`; defaults to the process-wide one.
    layout:
        :class:`LayoutOptions` every kernel is compiled under.
    max_workers:
        Concurrent kernel executions (the bounded thread pool).
    executor:
        Must be ``"thread"``, the only execution mode.
    coalesce / fuse:
        Feature switches; turning both off forces one kernel run per
        request.  At most :data:`MAX_FUSE` group-by requests are
        bundled into one fused run.
    default_deadline:
        Service-wide relative deadline in seconds (positive) applied
        to requests that carry none of their own (``None``: no
        deadline).
    max_queue_depth / queue_policy:
        Bounded admission: at most ``max_queue_depth`` pending
        execution units per database (``None``: unbounded).  Over-cap
        submissions raise :class:`QueueFull` under ``"reject"`` (the
        default) or park until a slot frees under ``"wait"`` — still
        subject to the deadline.

    Every waiter gets a private copy of its result, so one client
    mutating its response cannot corrupt another's.  A run that raises
    fails every waiter coalesced or fused onto it; nothing reruns it.
    """

    def __init__(
        self,
        backend: Any = "numpy",
        *,
        kernel_cache: KernelCache | None = None,
        layout: LayoutOptions = LAYOUT_SORTED,
        max_workers: int = DEFAULT_SERVICE_WORKERS,
        executor: str = "thread",
        coalesce: bool = True,
        fuse: bool = True,
        default_deadline: float | None = None,
        max_queue_depth: int | None = None,
        queue_policy: str = "reject",
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if executor != "thread":
            raise ValueError(f"executor must be 'thread', got {executor!r}")
        self.backend = get_backend(backend)
        self.kernel_cache = kernel_cache if kernel_cache is not None else default_kernel_cache()
        self.layout = layout
        self.coalesce = coalesce
        self.fuse = fuse
        probe = getattr(self.backend, "supports_delta", None)
        #: whether the backend speaks the maintained/delta-run protocol
        self._delta_backend = bool(callable(probe) and probe())
        self.stats = ServiceStats()
        if default_deadline is not None and not default_deadline > 0:
            raise ValueError(
                f"default_deadline must be > 0 seconds, got {default_deadline}"
            )
        self.default_deadline = default_deadline
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.max_queue_depth = max_queue_depth
        if queue_policy not in ("reject", "wait"):
            raise ValueError(
                f"queue_policy must be 'reject' or 'wait', got {queue_policy!r}"
            )
        self.queue_policy = queue_policy
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="ifaq-serve"
        )
        self._sem = asyncio.Semaphore(max_workers)
        self._dbs: dict[str, _Registration] = {}
        self._generation = 0
        self._inflight: dict[tuple, _Inflight] = {}
        self._pending: deque[_Inflight] = deque()
        self._tasks: set[asyncio.Task] = set()
        self._register_hooks: list[Callable[[str, Database], None]] = []
        self._evict_hooks: list[Callable[[str, Database], None]] = []
        self._closed = False

    # -- database registration / eviction ---------------------------------

    def register_database(self, name: str, db: Database, *, replace: bool = False) -> None:
        """Register ``db`` under ``name`` and plan its join tree once.

        The tree spans every relation, rooted at the largest one (the
        fact table).  Registered databases are assumed
        immutable while registered — the same contract every prepared
        layout and column store already relies on.  Registration hooks
        (:meth:`add_hooks`) fire after the tree is built.
        """
        existing = self._dbs.get(name)
        if existing is not None and not replace:
            if existing.db is db:
                # Idempotent re-registration: the exact database object
                # is already live — keep its plans, maintained views and
                # delta states rather than rebuilding the registration.
                self.stats.reregistrations += 1
                return
            raise ValueError(
                f"database {name!r} is already registered; pass replace=True"
            )
        tree = build_join_tree(
            db.schema(), tuple(db.relations), stats=dict(db.statistics())
        )
        self._generation += 1
        self._dbs[name] = _Registration(
            name=name, db=db, tree=tree, generation=self._generation
        )
        for hook in self._register_hooks:
            hook(name, db)

    def evict_database(self, name: str) -> bool:
        """Unregister ``name``; returns whether it was registered.

        Drops the registration's plan memos and the database's shared
        :class:`ColumnStore`, so a long-lived service
        rotating databases does not accumulate dead columnar copies —
        the eager half of the ROADMAP eviction item.  Requests already
        in flight finish against the evicted database; new submissions
        raise :class:`DatabaseNotRegistered`.  Eviction hooks fire
        after the store is dropped.
        """
        reg = self._dbs.pop(name, None)
        if reg is None:
            return False
        evict_column_store(reg.db)
        for hook in self._evict_hooks:
            hook(name, reg.db)
        return True

    def add_hooks(
        self,
        on_register: Callable[[str, Database], None] | None = None,
        on_evict: Callable[[str, Database], None] | None = None,
    ) -> None:
        """Attach observers for registration/eviction (cache warmers,
        metrics exporters, store pre-builders)."""
        if on_register is not None:
            self._register_hooks.append(on_register)
        if on_evict is not None:
            self._evict_hooks.append(on_evict)

    def databases(self) -> tuple[str, ...]:
        return tuple(self._dbs)

    # -- request submission -------------------------------------------------

    async def submit(self, request: Request, *, deadline: float | None = None):
        """Answer one request; concurrent identical requests coalesce.

        Returns (a private copy of) the backend result:
        ``{name: value}`` for plain batches, ``{group: [values]}`` for
        group-bys, ``{attr: {group: [values]}}`` for multi-group-bys.
        Exceptions raised by planning or execution propagate to every
        coalesced waiter.

        ``deadline`` is a relative budget in seconds covering the whole
        request — admission wait, queueing and execution.  Explicit
        argument > ``request.deadline`` > the service default.  On
        expiry the *waiter* is cancelled with :class:`DeadlineExceeded`
        (coalesced peers keep waiting on their own budgets), and a
        queued unit abandoned by every waiter is cancelled before it
        can occupy a pool slot.  Over-cap submissions raise
        :class:`QueueFull` under the ``"reject"`` admission policy.
        """
        if self._closed:
            raise RuntimeError("AggregateService is closed")
        reg = self._dbs.get(request.database)
        if reg is None:
            raise DatabaseNotRegistered(
                f"database {request.database!r} is not registered "
                f"(registered: {', '.join(self._dbs) or 'none'})"
            )
        loop = asyncio.get_running_loop()
        if deadline is None:
            deadline = getattr(request, "deadline", None)
        if deadline is None:
            deadline = self.default_deadline
        deadline_at = loop.time() + deadline if deadline is not None else None
        plan = self._plan_for(reg, request)
        fingerprint = plan.fingerprint(self.layout, self.backend.kernel_key)
        pred_key = predicate_key(request.predicates)
        # The registration generation keeps requests arriving after a
        # replace/evict+re-register from coalescing onto executions
        # still running against the previous database; the relation
        # version vector does the same across ingests, so stale and
        # fresh requests never share a run.
        key = (reg.name, reg.generation, reg.db.version_vector(), fingerprint, pred_key)

        self.stats.requests += 1
        fp_stats = self.stats.fingerprint(fingerprint)
        fp_stats.requests += 1

        if self.coalesce:
            view = reg.views.get((fingerprint, pred_key))
            if view is not None:
                # Maintained materialized view: ingest refreshes it
                # under the write barrier, so the cached result is the
                # current answer — no kernel run at all.
                self.stats.view_hits += 1
                return _copy_result(plan, view.result)
            existing = self._inflight.get(key)
            if existing is not None:
                self.stats.coalesced += 1
                fp_stats.coalesced += 1
                existing.waiters += 1
                return await self._await_entry(existing, deadline_at, loop)

        await self._admit(reg, deadline_at, loop)
        entry = _Inflight(
            key=key,
            plan=plan,
            fingerprint=fingerprint,
            registration=reg,
            predicates=request.predicates,
            pred_key=pred_key,
            future=loop.create_future(),
            enqueued=loop.time(),
        )
        if self.coalesce:
            self._inflight[key] = entry
        reg.queued += 1
        self._pending.append(entry)
        task = asyncio.ensure_future(self._dispatch())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return await self._await_entry(entry, deadline_at, loop)

    async def _await_entry(self, entry: _Inflight, deadline_at: float | None, loop):
        """Await one unit's future under the waiter's deadline.

        The future is shielded (it is shared by every coalesced
        waiter), so one waiter timing out never cancels the run for the
        others — it just detaches.  When the *last* waiter of a
        still-queued unit detaches, the unit is abandoned and the next
        dispatcher discards it instead of running it.
        """
        try:
            if deadline_at is None:
                result = await asyncio.shield(entry.future)
            else:
                remaining = deadline_at - loop.time()
                result = await asyncio.wait_for(
                    asyncio.shield(entry.future), max(0.0, remaining)
                )
        except (asyncio.TimeoutError, TimeoutError):
            if entry.future.done() and entry.future.exception() is not None:
                # The run itself failed with a TimeoutError-shaped
                # exception: that is an execution error, not our
                # deadline — propagate it untranslated.
                raise
            self._detach_waiter(entry)
            self.stats.deadline_timeouts += 1
            raise DeadlineExceeded(
                f"request exceeded its deadline while "
                f"{'in flight' if entry.started else 'queued'} "
                f"(fingerprint {entry.fingerprint[:12]}…)"
            ) from None
        except asyncio.CancelledError:
            self._detach_waiter(entry)
            raise
        return _copy_result(entry.plan, result)

    def _detach_waiter(self, entry: _Inflight) -> None:
        entry.waiters -= 1
        if entry.waiters <= 0 and not entry.started and not entry.abandoned:
            entry.abandoned = True

    async def _admit(self, reg: _Registration, deadline_at, loop) -> None:
        """Bounded admission: hold the per-database queue under the cap.

        ``"reject"`` answers over-cap submissions immediately with
        :class:`QueueFull` — backpressure the client can act on.
        ``"wait"`` parks the submission until a slot frees (FIFO, one
        wake per freed slot), still bounded by the deadline.
        """
        cap = self.max_queue_depth
        if cap is None or reg.queued < cap:
            return
        if self.queue_policy == "reject":
            self.stats.queue_rejections += 1
            raise QueueFull(
                f"database {reg.name!r} has {reg.queued} queued runs "
                f"(cap {cap}); retry later or raise max_queue_depth"
            )
        while reg.queued >= cap:
            waiter = loop.create_future()
            reg.queue_waiters.append(waiter)
            try:
                if deadline_at is None:
                    await waiter
                else:
                    await asyncio.wait_for(waiter, max(0.0, deadline_at - loop.time()))
            except (asyncio.TimeoutError, TimeoutError):
                self.stats.deadline_timeouts += 1
                raise DeadlineExceeded(
                    f"request exceeded its deadline while parked at "
                    f"database {reg.name!r}'s admission queue (cap {cap})"
                ) from None
            finally:
                if waiter in reg.queue_waiters:
                    reg.queue_waiters.remove(waiter)

    def _queue_release(self, reg: _Registration) -> None:
        """One pending unit left the queue: free the slot and wake the
        first live parked submission, if any."""
        reg.queued -= 1
        while reg.queue_waiters:
            waiter = reg.queue_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                break

    async def submit_many(self, requests: Iterable[Request]) -> list:
        """Submit requests concurrently and gather their results in order."""
        return list(await asyncio.gather(*(self.submit(r) for r in requests)))

    # -- streaming ingest ----------------------------------------------------

    async def ingest(self, database: str, relation: str, rows: Iterable[tuple]) -> dict:
        """Append ``rows`` to ``relation`` of ``database`` and keep every
        maintained view fresh.

        The ingest is a *writer* on the registration's barrier: it
        waits for running kernel executions to drain (queued ones hold
        at the gate), then — off the event loop — appends the rows,
        extends (pure append) or invalidates (key collisions) the
        shared column store, and refreshes every maintained view, plain
        and group-by, with or without δ predicates: incrementally via
        the backend's delta protocol when the appended relation is the
        view's plan root and a delta state exists, by full recompute
        otherwise.  Requests submitted while the writer holds the
        barrier either serve from a view (pre- or post-refresh object,
        never a torn one) or queue until the gate reopens.

        Returns a report dict: ``rows``, ``relation``, ``pure_append``,
        ``delta_runs``, ``full_recomputes``, ``delta_seconds``,
        ``full_seconds``.
        """
        if self._closed:
            raise RuntimeError("AggregateService is closed")
        reg = self._dbs.get(database)
        if reg is None:
            raise DatabaseNotRegistered(
                f"database {database!r} is not registered "
                f"(registered: {', '.join(self._dbs) or 'none'})"
            )
        rows = list(rows)
        loop = asyncio.get_running_loop()
        async with reg.write_lock:
            await reg.barrier.writer_enter()
            try:
                report = await loop.run_in_executor(
                    None, self._apply_ingest, reg, relation, rows
                )
            finally:
                reg.barrier.writer_exit()
        self.stats.ingests += 1
        self.stats.ingest_rows += report["rows"]
        self.stats.delta_runs += report["delta_runs"]
        self.stats.full_recomputes += report["full_recomputes"]
        self.stats.delta_seconds_total += report["delta_seconds"]
        self.stats.full_seconds_total += report["full_seconds"]
        return report

    def _apply_ingest(self, reg: _Registration, relation: str, rows: list) -> dict:
        """Blocking half of :meth:`ingest` (runs off the event loop)."""
        delta = reg.db.append_rows(relation, rows)
        store = peek_column_store(reg.db)
        if store is not None:
            if delta.pure_append:
                store.extend_relation(relation)
            else:
                store.invalidate_relation(relation)
        # Plan memos are kept: plans stay valid under appends, and a
        # stable plan keeps the fingerprint — and with it the view key
        # and every coalescing key — stable across ingests.
        report = {
            "rows": len(rows),
            "relation": relation,
            "pure_append": delta.pure_append,
            "delta_runs": 0,
            "full_recomputes": 0,
            "delta_seconds": 0.0,
            "full_seconds": 0.0,
        }
        self._refresh_views(reg, relation, delta.pure_append, report)
        return report

    def _refresh_views(
        self, reg: _Registration, relation: str, pure_append: bool, report: dict
    ) -> None:
        """Bring every maintained view up to date after an append.

        A view refreshes incrementally when the append was pure, the
        appended relation is the view's plan root (appends to non-root
        relations change join results for *existing* root rows, which
        a root-tail delta cannot express), the backend speaks the delta
        protocol, and the view holds a state.  Anything else — and any
        delta run the backend rejects (state fingerprint mismatch,
        rebuilt store) — falls back to one timed full recompute, which
        also re-establishes the delta state for the next ingest.
        """
        for key, view in list(reg.views.items()):
            started = perf_counter()
            refreshed = None
            if (
                pure_append
                and view.state is not None
                and view.plan.root.relation == relation
            ):
                try:
                    refreshed = self._run(view.plan, reg.db, view.predicates, view.state)
                except ValueError:
                    refreshed = None  # stale/foreign state: recompute
            if refreshed is not None:
                result, state = refreshed
                report["delta_runs"] += 1
                report["delta_seconds"] += perf_counter() - started
            else:
                result, state = self._run(view.plan, reg.db, view.predicates)
                report["full_recomputes"] += 1
                report["full_seconds"] += perf_counter() - started
            reg.views[key] = replace(view, result=result, state=state)

    def _store_view(self, entry: _Inflight, result, state) -> None:
        """Cache one completed single-entry run as a maintained view.

        Plain and group-by results are kept with or without δ
        predicates (the backend folds δ in its scans, so a delta run
        under the same predicates maintains them in place); ``state``
        is the run's maintained delta state, None where the run
        captured none.  Fused and multi runs capture no state and are
        skipped.
        """
        if not self.coalesce or isinstance(entry.plan, MultiBatchPlan):
            return
        reg = entry.registration
        key = (entry.fingerprint, entry.pred_key)
        if key not in reg.views and len(reg.views) >= MAX_VIEWS_PER_DB:
            reg.views.pop(next(iter(reg.views)))
        reg.views[key] = _View(
            plan=entry.plan,
            fingerprint=entry.fingerprint,
            pred_key=entry.pred_key,
            predicates=entry.predicates,
            result=result,
            state=state,
        )

    # -- planning -----------------------------------------------------------

    def _plan_for(self, reg: _Registration, request: Request) -> BatchPlan | MultiBatchPlan:
        """Request → plan, memoized per registration.

        Plans (and the distinct-key statistics ordering their children)
        are built once per (batch, group attribute) and reused by every
        later request, so steady-state submission cost is one
        fingerprint hash, not a planning pass.
        """
        if isinstance(request, AggregateRequest):
            return self._single_plan(reg, request.batch, None)
        if isinstance(request, GroupByRequest):
            return self._single_plan(reg, request.batch, request.group_attr)
        if isinstance(request, MultiGroupByRequest):
            memo_key = (request.batch, request.group_attrs)
            plan = reg.plans.get(memo_key)
            if plan is None:
                plan = MultiBatchPlan(
                    [
                        self._single_plan(reg, request.batch, attr)
                        for attr in request.group_attrs
                    ]
                )
                reg.plans[memo_key] = plan
            return plan
        raise TypeError(
            f"unsupported request type {type(request).__name__}; expected "
            "AggregateRequest, GroupByRequest or MultiGroupByRequest"
        )

    def _single_plan(
        self, reg: _Registration, batch, group_attr: str | None
    ) -> BatchPlan:
        memo_key = (batch, group_attr)
        plan = reg.plans.get(memo_key)
        if plan is None:
            plan = build_batch_plan(reg.db, reg.tree, batch, group_attr=group_attr)
            reg.plans[memo_key] = plan
        return plan

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(self) -> None:
        """Run one unit of queued work under the worker-pool bound."""
        async with self._sem:
            batch = self._take_batch()
            if not batch:
                return  # an earlier dispatcher drained our entry into its fused run
            loop = asyncio.get_running_loop()
            now = loop.time()
            for entry in batch:
                self.stats.record_queue_latency(now - entry.enqueued)
            reg, predicates = batch[0].registration, batch[0].predicates
            barrier = reg.barrier
            await barrier.reader_enter()
            try:
                # One run on the thread pool: an exception is final and
                # fans out to every waiter of the batch below.
                plan = (
                    batch[0].plan if len(batch) == 1
                    else MultiBatchPlan([entry.plan for entry in batch])
                )
                result, state = await loop.run_in_executor(
                    self._executor, self._run, plan, reg.db, predicates
                )
                if len(batch) == 1:
                    entry = batch[0]
                    if isinstance(entry.plan, MultiBatchPlan):
                        result = dict(zip(entry.plan.group_attr, result))
                    results = [result]
                    self.stats.fingerprint(entry.fingerprint).runs += 1
                else:
                    results = result
                    self.stats.fused_runs += 1
                    self.stats.fused_requests += len(batch)
                    # Fused work is attributed to the member request
                    # fingerprints only: every drained combination has
                    # its own MultiBatchPlan fingerprint, and counting
                    # those would grow per_fingerprint without bound.
                    for entry in batch:
                        self.stats.fingerprint(entry.fingerprint).fused += 1
                self.stats.runs += 1
            except Exception as exc:  # noqa: BLE001 — fan the failure out
                for entry in batch:
                    if not entry.future.done():
                        entry.future.set_exception(exc)
                    if entry.waiters <= 0:
                        # Every waiter already timed out: consume the
                        # exception so the abandoned future doesn't log
                        # "exception was never retrieved" at GC time.
                        entry.future.exception()
                self.stats.errors += len(batch)
            else:
                for entry, result in zip(batch, results):
                    if not entry.future.done():
                        entry.future.set_result(result)
                    if entry.waiters <= 0:
                        # The run finished, but every waiter had already
                        # timed out after it started — wasted work worth
                        # counting (the result still warms caches/views).
                        self.stats.abandoned_runs += 1
                self.stats.completed += len(batch)
                if len(batch) == 1:
                    # Views are stored before reader_exit, so an ingest
                    # waiting on the barrier sees them and keeps them
                    # fresh from its very first append.
                    self._store_view(batch[0], results[0], state)
            finally:
                barrier.reader_exit()
                for entry in batch:
                    self._inflight.pop(entry.key, None)

    def _take_batch(self) -> list[_Inflight]:
        """Pop the oldest live pending entry plus every fusable peer.

        Entries abandoned by all of their waiters (deadline expired
        while queued) are discarded here — they never occupy the pool
        slot this dispatcher holds.  Every entry that leaves the queue,
        whether dispatched or discarded, releases its admission slot.

        Fusable: queued single group-by entries over the same
        registration with the same δ predicates (fingerprints already
        differ — identical ones coalesced at submit).  Under load this
        drains whole bursts into one :class:`MultiBatchPlan` run; when
        idle a batch is just the one entry, with zero added latency.
        """
        first: _Inflight | None = None
        while self._pending:
            candidate = self._pending.popleft()
            if candidate.abandoned:
                self._discard(candidate)
                continue
            first = candidate
            break
        if first is None:
            return []
        first.started = True
        self._queue_release(first.registration)
        batch = [first]
        if self.fuse and _fusable(first):
            keep: deque[_Inflight] = deque()
            for entry in self._pending:
                if entry.abandoned:
                    self._discard(entry)
                elif (
                    len(batch) < MAX_FUSE
                    and _fusable(entry)
                    and entry.registration is first.registration
                    and entry.pred_key == first.pred_key
                ):
                    entry.started = True
                    self._queue_release(entry.registration)
                    batch.append(entry)
                else:
                    keep.append(entry)
            self._pending = keep
        return batch

    def _discard(self, entry: _Inflight) -> None:
        """Drop a queued unit whose waiters all left before dispatch."""
        self._queue_release(entry.registration)
        self._inflight.pop(entry.key, None)
        if not entry.future.done():
            entry.future.cancel()
        self.stats.cancelled_queued += 1

    # -- blocking execution (worker threads, ingest) ------------------------

    def _run(self, plan: BatchPlan | MultiBatchPlan, db: Database, predicates, prev=None):
        """One blocking run of ``plan``: ``(result, maintained state | None)``.

        A delta fold onto ``prev`` when given; otherwise a maintained
        run when the backend speaks the delta protocol (the state lets
        the next ingest fold only the appended rows); otherwise a plain
        run.  The plan's shape picks the backend method.
        """
        kernel = self.kernel_cache.get_or_compile(self.backend, plan, self.layout)
        if isinstance(plan, MultiBatchPlan) or (prev is None and not self._delta_backend):
            return run_plan(self.backend, kernel, db, predicates), None
        if plan.is_groupby:
            if prev is not None:
                return self.backend.run_groupby_delta(kernel, db, prev, predicates)
            return self.backend.run_groupby_maintained(kernel, db, predicates)
        if prev is not None:
            return self.backend.run_delta(kernel, db, prev, predicates)
        return self.backend.run_maintained(kernel, db, predicates)

    # -- reporting / lifecycle ----------------------------------------------

    def stats_dict(self) -> dict:
        """One JSON-friendly report: service counters, kernel-cache
        counters, and per-database column-store size estimates."""
        databases = {}
        for name, reg in self._dbs.items():
            store = peek_column_store(reg.db)
            databases[name] = {
                "relations": len(reg.db.relations),
                "plans": len(reg.plans),
                "views": len(reg.views),
                "column_store": store.stats() if store is not None else None,
            }
        return {
            "service": self.stats.as_dict(),
            "kernel_cache": self.kernel_cache.stats.as_dict(),
            "databases": databases,
            "reliability": {
                "default_deadline": self.default_deadline,
                "max_queue_depth": self.max_queue_depth,
                "queue_policy": self.queue_policy,
            },
        }

    async def drain(self) -> None:
        """Wait until every queued and running request has resolved."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def close(self) -> None:
        """Drain in-flight work and release the worker pool."""
        self._closed = True
        await self.drain()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AggregateService":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()
