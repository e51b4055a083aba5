"""Deterministic fault injection for the serving and executor tests.

Testing failure handling with real crashes and wall-clock races makes
suites flaky; this module injects faults **on a counted schedule**
instead.  A :class:`FaultSchedule` maps operation names to actions that
fire at specific invocation indices — the 0th ``run_groupby``, every
``run_blocks`` — so a test states exactly which run fails or which
worker dies, and reruns reproduce the same fault sequence.

Two wrappers apply schedules to the real stack:

* :class:`FaultyBackend` wraps any
  :class:`~repro.backend.base.ExecutionBackend` and consults the
  schedule before each kernel-run entry point (``execute``,
  ``run_groupby``, the maintained/delta variants, …).  Actions can
  raise (:class:`Fail`) or block on an event the test controls
  (:class:`Hold`) — the deterministic way to pin "deadline expires
  while the run is in flight".
* :class:`FaultyExecutor` wraps a
  :class:`~repro.backend.process_pool.ProcessKernelExecutor` and
  injects faults into ``run_blocks``, the sharded backend's dispatch:
  :class:`KillWorker` kills a real pool worker immediately before
  dispatch (the next round-trip raises the organic
  :class:`~repro.backend.process_pool.WorkerError` and the pool
  respawns), :class:`Fail` resolves the returned future with an
  injected exception without touching the pool.

Every fired fault is appended to ``schedule.log`` as ``(op, index,
action)`` so tests assert on exactly what was injected.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from repro.backend.base import ExecutionBackend, Kernel
from repro.backend.layout import LayoutOptions
from repro.backend.plan import BatchPlan
from repro.db.database import Database


# -- actions ----------------------------------------------------------------


@dataclass(frozen=True)
class Fail:
    """Raise (or resolve a future with) an injected exception.

    ``exc`` is an exception *factory* (class or zero-arg callable) so
    every firing produces a fresh instance.
    """

    exc: Callable[[], BaseException]
    message: str = "injected fault"

    def make(self) -> BaseException:
        try:
            return self.exc(self.message)
        except TypeError:
            return self.exc()


@dataclass(frozen=True)
class Hold:
    """Block the operation until the test sets ``event``.

    The deterministic replacement for sleeps: the test decides exactly
    when the in-flight run resumes.  ``timeout`` bounds the wait so a
    broken test fails loudly instead of wedging the suite.
    """

    event: threading.Event
    timeout: float = 30.0

    def wait(self) -> None:
        if not self.event.wait(self.timeout):
            raise RuntimeError(
                f"Hold fault was never released within {self.timeout}s"
            )


@dataclass(frozen=True)
class KillWorker:
    """Kill one real pool worker immediately before dispatching."""

    index: int = 0


Action = Any  # Fail | Hold | KillWorker


class FaultSchedule:
    """Counter-based fault schedule shared by the wrappers below.

    ``on(op, action, at=...)`` arms ``action`` for operation ``op`` at
    invocation indices ``at`` — an int, an iterable of ints, or a
    predicate ``index -> bool``.  ``fire(op)`` advances the op's
    counter and returns the actions armed for the current index.
    Counters are guarded by a lock because backend ops fire from worker
    threads.
    """

    def __init__(self) -> None:
        self._rules: dict[str, list[tuple[Any, Action]]] = {}
        self._counts: Counter = Counter()
        self._lock = threading.Lock()
        #: every fired fault, as (op, invocation index, action)
        self.log: list[tuple[str, int, Action]] = []

    def on(self, op: str, action: Action, *, at: Any = 0) -> "FaultSchedule":
        if isinstance(at, int):
            matcher: Any = frozenset((at,))
        elif callable(at):
            matcher = at
        else:
            matcher = frozenset(at)
        self._rules.setdefault(op, []).append((matcher, action))
        return self

    def count(self, op: str) -> int:
        """How many times ``op`` has fired so far."""
        with self._lock:
            return self._counts[op]

    def fire(self, op: str) -> list[Action]:
        with self._lock:
            index = self._counts[op]
            self._counts[op] += 1
            fired = [
                action
                for matcher, action in self._rules.get(op, ())
                if (matcher(index) if callable(matcher) else index in matcher)
            ]
            for action in fired:
                self.log.append((op, index, action))
        return fired


def _perform_blocking(actions: list[Action]) -> None:
    """Apply backend-side actions (runs on a worker thread, never the
    event loop): holds block, failures raise."""
    for action in actions:
        if isinstance(action, Hold):
            action.wait()
        elif isinstance(action, Fail):
            raise action.make()
        else:
            raise TypeError(f"unsupported backend fault action {action!r}")


# -- backend wrapper --------------------------------------------------------


class FaultyBackend(ExecutionBackend):
    """An :class:`ExecutionBackend` that injects scheduled faults.

    Every kernel-run entry point consults the schedule under its own
    operation name before delegating to ``inner``; everything else
    (the block protocol, the ``supports_delta`` probe, layout caches)
    passes straight through via ``__getattr__``, so the wrapper is
    transparent to the sharded backend, the column store and the
    service's delta probe.

    Holds a ``threading.Event`` when :class:`Hold` actions are armed,
    so it deliberately does **not** cross the process boundary — a
    process-mode sharded backend wrapping a ``FaultyBackend`` folds on
    threads instead via ``TaskNotPicklable``.
    """

    def __init__(self, inner: ExecutionBackend, schedule: FaultSchedule) -> None:
        self.inner = inner
        self.schedule = schedule
        self._unpicklable = threading.Lock()  # keep it off the pipe on purpose

    # Delegate identity so cached kernels are shared with the clean path.
    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def kernel_key(self) -> str:
        return self.inner.kernel_key

    def __getattr__(self, attr: str):
        return getattr(self.__dict__["inner"], attr)

    def _apply(self, op: str) -> None:
        _perform_blocking(self.schedule.fire(op))

    def compile_plan(self, plan: BatchPlan, layout: LayoutOptions) -> Kernel:
        self._apply("compile_plan")
        return self.inner.compile_plan(plan, layout)

    def compile_multi(self, mplan, layout: LayoutOptions, members) -> Kernel:
        self._apply("compile_multi")
        return self.inner.compile_multi(mplan, layout, members)

    def execute(self, kernel: Kernel, db: Database, predicates=None) -> dict[str, float]:
        self._apply("execute")
        return self.inner.execute(kernel, db, predicates)

    def run_groupby(self, kernel: Kernel, db: Database, predicates=None) -> dict:
        self._apply("run_groupby")
        return self.inner.run_groupby(kernel, db, predicates)

    def run_groupby_many(self, kernel: Kernel, db: Database, predicates=None):
        self._apply("run_groupby_many")
        return self.inner.run_groupby_many(kernel, db, predicates)

    def run_maintained(self, kernel: Kernel, db: Database, predicates=None):
        self._apply("execute")
        return self.inner.run_maintained(kernel, db, predicates)

    def run_groupby_maintained(self, kernel: Kernel, db: Database, predicates=None):
        self._apply("run_groupby")
        return self.inner.run_groupby_maintained(kernel, db, predicates)

    def run_delta(self, kernel: Kernel, db: Database, state, predicates=None):
        self._apply("run_delta")
        return self.inner.run_delta(kernel, db, state, predicates)

    def run_groupby_delta(self, kernel: Kernel, db: Database, state, predicates=None):
        self._apply("run_groupby_delta")
        return self.inner.run_groupby_delta(kernel, db, state, predicates)


# -- executor wrapper -------------------------------------------------------


class FaultyExecutor:
    """A fault-injecting wrapper around a process kernel executor.

    Exposes the same ``run_blocks`` future surface the sharded backend
    uses, so it drops in wherever a
    :class:`~repro.backend.process_pool.ProcessKernelExecutor` does.
    The ``op`` name is ``"run_blocks"``.

    * :class:`KillWorker` — kills a *real* worker of the wrapped pool
      first, then dispatches normally: the task lands on the dead
      worker, the round-trip raises the organic
      :class:`~repro.backend.process_pool.WorkerError`, and the pool
      respawns the worker — the failure the sharded backend's shard
      resubmission absorbs.
    * :class:`Fail` — resolves the returned future with the injected
      exception without touching the pool (no respawn cost).

    Slow-kernel scenarios belong on :class:`FaultyBackend` (whose
    holds block worker threads); :class:`Hold` is rejected here.
    """

    def __init__(self, inner, schedule: FaultSchedule) -> None:
        self.inner = inner
        self.schedule = schedule

    def __getattr__(self, attr: str):
        return getattr(self.__dict__["inner"], attr)

    def _fault(self, op: str):
        """Returns a pre-failed future, or None to dispatch normally."""
        from concurrent.futures import Future

        for action in self.schedule.fire(op):
            if isinstance(action, Fail):
                future: Future = Future()
                future.set_exception(action.make())
                return future
            if isinstance(action, KillWorker):
                self.inner.kill_worker(action.index)
            else:
                raise TypeError(f"unsupported executor fault action {action!r}")
        return None

    def run_blocks(self, *args, **kwargs):
        return self._fault("run_blocks") or self.inner.run_blocks(*args, **kwargs)
