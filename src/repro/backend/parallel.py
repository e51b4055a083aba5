"""Sharded parallel execution of aggregate batches.

:class:`ShardedBackend` wraps any inner :class:`ExecutionBackend` and
partitions the *root* relation of the plan into K shards.  Batch
aggregates are Σ-folds over the root rows (child views only ever join
*towards* the root), so per-shard partial vectors merge exactly with
the ring monoid ``v_add`` from :mod:`repro.runtime.rings` — the merge
law ``Σ_{r ∈ R} f(r) = ⊕_k Σ_{r ∈ R_k} f(r)`` for any partition
``R = ⊎ R_k``.

Two execution paths:

* **Block path** (kernels flagged ``supports_blocks`` — the
  generated-Python backend's plain kernels and every numpy kernel):
  the inner backend's one block protocol drives every run.  The parent
  cuts the root rows into canonical blocks
  (:func:`~repro.backend.base.block_ranges`), the inner
  ``prepare(kernel, db, predicates, base)`` evaluates shared read-only
  state once, ``run_block(kernel, state, lo, hi)`` folds one block into
  a partial (a vector, or a per-group partial for group-bys), and
  :func:`~repro.backend.numpy_backend.finish_fold` folds the partials
  in canonical block order into a maintained state and serves it.  A
  single-shot run is that fold with no previous state; a delta run
  folds only the blocks a root append touched onto the previous one.
  No per-shard databases or layouts are ever built.
* **Sub-database path** (engine, C++): the root relation is split into
  K contiguous sub-relations and the inner backend runs once per shard
  (the C++ binary in parallel subprocesses that release the GIL).
  Partial dictionaries merge with ``v_add`` in shard order.

Threads versus processes is only *where* the blocks fold.  Shards run
on **threads** by default, or on **worker processes** with
``mode="process"`` (default taken from the ``IFAQ_EXECUTOR``
environment variable): each shard's ``(canonical block index, range)``
list goes to a :class:`~repro.backend.process_pool.ProcessKernelExecutor`
worker, which re-resolves the kernel from the spilled source cache,
prepares its own copy and folds the same blocks a thread would.  Tasks
that cannot cross the process boundary (opaque predicate callables,
unpicklable inner backends) silently fold on threads instead.

Per-shard wall-clock timings are recorded on ``last_shard_seconds`` for
the benchmark reports.

**The shard bit-identity contract** (pinned by
``tests/backend/test_parallel.py``, ``tests/backend/test_process_pool.py``
and ``tests/properties/test_shard_merge.py``): on the block path, the
block layout is a function of *the data and the kernel's block size
only* — never of the shard count, worker count or thread schedule — and
block partials are folded left-to-right in canonical block order.
Because single-shot execution folds the same blocks in the same order,
sharded results are **bit-identical** (``==``, not approximately equal)
to single-shot results for every ``K``.  The sub-database path
guarantees the ring merge law but not bit identity (float folds
reassociate across shard boundaries).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.backend.base import (
    ExecutionBackend,
    Kernel,
    block_ranges,
    merge_group_results,
    merge_results,
    require_groupby,
    require_plain,
)
from repro.backend.numpy_backend import (
    canonical_group_keys,
    check_delta,
    finish_fold,
    remap_group_partials,
)
from repro.backend.layout import LayoutOptions
from repro.backend.plan import BatchPlan
from repro.db.database import Database
from repro.db.relation import Relation

#: Default shard count: one per core (the hardware-saturation target).
DEFAULT_SHARDS = max(1, os.cpu_count() or 1)

#: Per-shard WorkerError resubmissions tolerated on the process block
#: path before the failure propagates.
SHARD_RETRIES = 2


def shard_database(db: Database, root_relation: str, shards: int) -> list[Database]:
    """Split ``root_relation`` into ≤ ``shards`` contiguous sub-relations.

    Every other relation is shared by reference (child views are built
    per shard from the full dimension tables, which is exactly what the
    merge law requires).  Empty shards are dropped, so fewer databases
    than requested may be returned for tiny relations.
    """
    rel = db.relation(root_relation)
    out: list[Database] = []
    for chunk in _chunk(list(rel.data.items()), shards):
        relations = dict(db.relations)
        relations[root_relation] = Relation(rel.schema, dict(chunk))
        out.append(Database(relations))
    return out


def _chunk(seq: list, k: int) -> list[list]:
    """Split ``seq`` into ≤ k contiguous non-empty chunks."""
    if not seq:
        return []
    k = max(1, min(k, len(seq)))
    base, extra = divmod(len(seq), k)
    chunks, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        if size:
            chunks.append(seq[start:start + size])
            start += size
    return chunks


def default_shard_mode() -> str:
    """Shard execution mode from ``IFAQ_EXECUTOR`` (thread by default)."""
    from repro.backend.process_pool import executor_mode_from_env

    return executor_mode_from_env()


@dataclass
class ShardedBackend(ExecutionBackend):
    """Run any inner backend over K shards of the root relation."""

    inner: str | ExecutionBackend = "python"
    shards: int = DEFAULT_SHARDS
    #: "thread" or "process"; default from ``IFAQ_EXECUTOR``
    mode: str = field(default_factory=default_shard_mode)
    #: process pool override; defaults to the shared process-wide pool
    executor: object | None = field(default=None, repr=False)
    context: dict = field(default_factory=dict)

    #: wall-clock seconds per shard of the most recent execution
    last_shard_seconds: list[float] = field(default_factory=list, repr=False)
    #: shard resubmissions performed by the most recent scatter
    last_retries: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.mode not in ("thread", "process"):
            raise ValueError(
                f"mode must be 'thread' or 'process', got {self.mode!r}"
            )
        if isinstance(self.inner, str):
            from repro.backend.registry import get_backend

            self.inner = get_backend(self.inner, **self.context)

    # -- ExecutionBackend ------------------------------------------------

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"sharded[{self.inner.name}x{self.shards}:{self.mode}]"

    @property
    def kernel_key(self) -> str:
        # Kernels are the inner backend's kernels: cache entries are
        # shared between sharded and single-shot execution.
        return self.inner.kernel_key

    def compile_plan(self, plan: BatchPlan, layout: LayoutOptions) -> Kernel:
        return self.inner.compile_plan(plan, layout)

    def compile_multi(self, mplan, layout: LayoutOptions, members) -> Kernel:
        # Delegate so the bundle carries the inner backend's fusion
        # metadata (kernel keys are shared, so the same cached multi
        # kernel serves sharded and single-shot execution).
        return self.inner.compile_multi(mplan, layout, members)

    # -- entry points -----------------------------------------------------

    def execute(self, kernel: Kernel, db: Database, predicates=None) -> dict[str, float]:
        if kernel.meta.get("supports_blocks"):
            require_plain(kernel)
            return self._fold(kernel, db, predicates)[0]
        result = self._subdatabases(
            kernel,
            db,
            lambda shard: self.inner.execute(kernel, shard, predicates),
            merge_results,
        )
        return result or kernel.result_dict([0.0] * kernel.plan.num_aggregates)

    def run_groupby(self, kernel: Kernel, db: Database, predicates=None) -> dict:
        if kernel.meta.get("supports_blocks"):
            require_groupby(kernel)
            return self._fold(kernel, db, predicates)[0]
        return self._subdatabases(
            kernel,
            db,
            lambda shard: self.inner.run_groupby(kernel, shard, predicates),
            merge_group_results,
        )

    def supports_delta(self) -> bool:
        """Delta runs are guarded against the inner backend's column-store
        layout, so only inners that keep one (numpy) support them."""
        probe = getattr(self.inner, "supports_delta", None)
        return callable(probe) and bool(probe())

    def run_maintained(self, kernel: Kernel, db: Database, predicates=None):
        """Full sharded run that also returns the maintained state."""
        require_plain(kernel)
        return self._fold(kernel, db, predicates)

    def run_delta(self, kernel: Kernel, db: Database, state, predicates=None):
        """Fold the appended root rows into a maintained plain result,
        sharding the delta blocks like any other run."""
        require_plain(kernel)
        return self._fold(kernel, db, predicates, state)

    def run_groupby_maintained(self, kernel: Kernel, db: Database, predicates=None):
        """Full sharded group-by run returning the maintained state."""
        require_groupby(kernel)
        return self._fold(kernel, db, predicates)

    def run_groupby_delta(self, kernel: Kernel, db: Database, state, predicates=None):
        """Fold appended root rows into a maintained group-by result."""
        require_groupby(kernel)
        return self._fold(kernel, db, predicates, state)

    # -- block path (bit-identical to single-shot) -----------------------

    def _fold(self, kernel: Kernel, db: Database, predicates=None, prev=None):
        """Canonical ranges → :meth:`_fold_ranges` → finish.

        The parent prepares nothing for a plain run: the row count comes
        from the database, and in process mode only workers prepare.
        """
        inner = self.inner
        if prev is not None:
            check_delta(kernel, prev, inner.prepared_layout(kernel, db), db)
        n_rows = len(db.relation(kernel.plan.root.relation).data)
        ranges = block_ranges(
            n_rows, inner.block_size, prev.n_rows if prev is not None else 0
        )
        partials = self._fold_ranges(kernel, db, list(enumerate(ranges)), predicates)
        group_keys = (
            inner.prepared_layout(kernel, db).group_keys
            if kernel.plan.is_groupby
            else None
        )
        return finish_fold(
            kernel, prev, partials, ranges, n_rows, inner.block_size, group_keys
        )

    def _fold_ranges(self, kernel: Kernel, db: Database, indexed, predicates=None):
        """Fold ``[(canonical index, (lo, hi)), ...]`` across the shards;
        return the partials in canonical block order.

        Process mode ships each shard's block list to a pool worker;
        thread mode — and any task that cannot cross the process
        boundary (opaque predicate callables, unpicklable inner
        backends) — prepares once here and folds on shard threads.
        Either way the partials equal those of an in-line fold.
        """
        from repro.backend.process_pool import TaskNotPicklable

        self.last_retries = 0
        if not indexed:
            self.last_shard_seconds = []
            return []
        assignments = _chunk(indexed, self.shards)
        outputs = None
        if self.mode == "process":
            try:
                outputs = self._scatter(kernel, db, assignments, predicates)
            except TaskNotPicklable:
                pass  # threads still work
        remote = outputs is not None
        if not remote:
            inner = self.inner
            state, _ = inner.prepare(kernel, db, predicates, indexed[0][1][0])
            outputs = _on_threads(
                lambda blocks: [
                    (idx, inner.run_block(kernel, state, lo, hi))
                    for idx, (lo, hi) in blocks
                ],
                assignments,
            )
        self.last_shard_seconds = [seconds for _, seconds in outputs]
        by_index = {idx: part for partials, _ in outputs for idx, part in partials}
        ordered = [by_index[idx] for idx, _ in indexed]
        if remote and kernel.plan.is_groupby:
            # Workers rebuild their stores from the pickled database, so
            # their group codes follow a fresh build's coding: re-index
            # onto this process's (possibly delta-extended) coding.
            layout = self.inner.prepared_layout(kernel, db)
            plan = kernel.plan
            fresh = canonical_group_keys(
                layout.store, plan.root.relation, plan.group_attr
            )
            ordered = remap_group_partials(ordered, fresh, layout.group_keys)
        return ordered

    def _scatter(self, kernel: Kernel, db: Database, assignments, predicates):
        """Each shard's block list on a pool worker: ``[(partials,
        worker seconds), ...]`` in shard order."""
        from repro.backend.process_pool import WorkerError, shared_process_executor
        from repro.serving.requests import predicate_key

        pool = self.executor if self.executor is not None else shared_process_executor()
        pred_key = predicate_key(predicates)

        def submit(blocks):
            return pool.run_blocks(
                self.inner, db, kernel.plan, kernel.layout, blocks,
                predicates=predicates, pred_key=pred_key,
            )

        futures = [submit(blocks) for blocks in assignments]
        outputs = []
        for blocks, future in zip(assignments, futures):
            attempts = 0
            while True:
                try:
                    outputs.append(future.result())
                    break
                except WorkerError:
                    # A worker died mid-shard; the pool respawned it in
                    # place.  Resubmitting the same canonical block list
                    # is safe — blocks are a pure function of data and
                    # block size, and the merge stays in canonical block
                    # order, so the recovered run is bit-identical.
                    attempts += 1
                    if attempts > SHARD_RETRIES:
                        raise
                    self.last_retries += 1
                    future = submit(blocks)
        return outputs

    # -- sub-database path (engine / C++) --------------------------------

    def _subdatabases(self, kernel: Kernel, db: Database, run, merge):
        """``run`` once per contiguous root shard on threads; ``merge``
        the shard results in shard order."""
        shard_dbs = shard_database(db, kernel.plan.root.relation, self.shards)
        outputs = _on_threads(run, shard_dbs)
        self.last_shard_seconds = [seconds for _, seconds in outputs]
        return merge([result for result, _ in outputs])


def _on_threads(fn, items: list) -> list[tuple]:
    """``[(fn(item), seconds), ...]`` with one thread per item."""

    def timed(item):
        started = time.perf_counter()
        return fn(item), time.perf_counter() - started

    if len(items) <= 1:
        return [timed(item) for item in items]
    with ThreadPoolExecutor(max_workers=len(items)) as pool:
        return list(pool.map(timed, items))
