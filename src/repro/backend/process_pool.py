"""Process-pool kernel execution: escaping the GIL.

Every other layer of the stack — generated kernels, the numpy folds,
the sharded block merge, the serving coalescer — runs inside one Python
process, so a 16-core host serves aggregates no faster than a 1-core
one.  :class:`ProcessKernelExecutor` is the missing layer: a pool of
long-lived worker *processes* that fold per-shard block ranges for a
process-mode :class:`~repro.backend.parallel.ShardedBackend` while the
parent only plans, cuts blocks and merges.

**What crosses the process boundary, and when**

* *Once per (worker, object):* the backend instance and each database —
  workers keep them registered by token, so steady-state traffic never
  re-pickles a database.  Tokens are weakly keyed by database identity
  exactly like the :func:`~repro.backend.column_store.column_store`
  registry; when the parent's database is collected, an eviction rides
  along with the next task so workers drop their copy too.
* *Once per (worker, fingerprint):* the kernel.  Workers do **not**
  receive compiled kernels (generated modules don't pickle); they
  receive the :class:`~repro.backend.plan.BatchPlan` and re-resolve it
  through their own :class:`~repro.backend.cache.KernelCache`.  For the
  generated-Python backend that compile warm-starts from the source the
  parent spilled under ``IFAQ_KERNEL_CACHE_DIR`` (see
  :func:`~repro.backend.cache.load_kernel_source`) — the worker
  *re-execs the spilled source* instead of regenerating it, which is
  the whole worker-bootstrap contract.  The parent's current spill
  directory travels with every task so per-test overrides propagate.
* *Per task:* a fingerprint-sized descriptor (plan reference, δ
  predicates, the shard's block ranges) and the partials coming back.
  A task folds its block ranges through the backend's ``prepare`` /
  ``run_block`` protocol.  δ predicates are applied inside the
  backend's own scans (numpy masks, filtered inputs elsewhere) —
  workers keep no filtered copies.

**Bit identity.**  A worker executes the *same* prepared fold over the
*same* block ranges the parent would have executed single-shot: data
arrays are rebuilt deterministically from the pickled database (dict
order is preserved by pickle, codings are deterministic), blocks are a
function of data and block size only, and the parent merges partials in
canonical block order.  Process-sharded results are therefore
bit-identical to single-shot for every shard and worker count — the
same contract the thread path pins.

**When threads still win.**  Process execution pays pickling (one-time
per database), per-task pipe round-trips, and worker-side re-prepare of
columnar state.  For micro-batches over small databases, or for
backends that already escape the GIL on their own (the C++ backend runs
subprocess binaries), the thread executor is faster; processes win when
kernels are CPU-bound Python/numpy work that saturates the GIL.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import pickle
import queue
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Sequence

from repro.backend.base import ExecutionBackend
from repro.backend.cache import KernelCache
from repro.backend.layout import LayoutOptions
from repro.backend.plan import BatchPlan
from repro.db.database import Database

#: Default pool width: one kernel-executing process per core.
DEFAULT_PROCESS_WORKERS = max(1, os.cpu_count() or 1)


def default_process_workers() -> int:
    """Pool width from ``IFAQ_PROC_WORKERS``, defaulting to the core count."""
    raw = os.environ.get("IFAQ_PROC_WORKERS")
    if not raw:
        return DEFAULT_PROCESS_WORKERS
    workers = int(raw)
    if workers < 1:
        raise ValueError(f"IFAQ_PROC_WORKERS must be >= 1, got {workers}")
    return workers


#: Default seconds a shutdown waits for workers to exit cleanly before
#: escalating to terminate()/kill().
DEFAULT_SHUTDOWN_GRACE = 5.0


#: Worker start method.  Fork is preferred because workers inherit the
#: imported stack (numpy, the codegen modules) instead of re-importing
#: it, making worker startup milliseconds instead of seconds.
START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class TaskNotPicklable(TypeError):
    """The task (backend, database or plan) cannot cross the process
    boundary; callers fall back to in-process execution."""


class WorkerError(RuntimeError):
    """Carries a worker-side traceback; the original exception is
    re-raised in the parent with this as its ``__cause__``."""


# -- worker side ------------------------------------------------------------


class _WorkerState:
    """Everything one worker process keeps between tasks."""

    def __init__(self) -> None:
        self.backends: dict[int, ExecutionBackend] = {}
        self.dbs: dict[int, Database] = {}
        self.kernels = KernelCache(capacity=64)
        #: (db_token, fingerprint, pred_key) → prepared block state
        self.prepared: OrderedDict = OrderedDict()

    def drop_database(self, token: int) -> None:
        self.dbs.pop(token, None)
        for key in [k for k in self.prepared if k[0] == token]:
            self.prepared.pop(key, None)


def _reset_forked_globals() -> None:
    """Re-arm process-wide state a forked child inherited mid-flight.

    Module-level locks (the column-store registry, the default kernel
    cache) may have been held by a parent thread at fork time; a child
    touching them would deadlock.  The child never shares this state
    with the parent anyway, so replace it wholesale.
    """
    import importlib

    # importlib, not ``from repro.backend import column_store``: the
    # package re-exports a function under the submodule's name.
    cs = importlib.import_module("repro.backend.column_store")
    cache_mod = importlib.import_module("repro.backend.cache")
    cs._STORES_LOCK = threading.RLock()
    cs._STORES.clear()
    cache_mod._DEFAULT_CACHE = KernelCache()


def _set_kernel_dir(kernel_dir: str | None) -> None:
    if kernel_dir is None:
        os.environ.pop("IFAQ_KERNEL_CACHE_DIR", None)
    else:
        os.environ["IFAQ_KERNEL_CACHE_DIR"] = kernel_dir


def _run_task(state: _WorkerState, task: tuple) -> Any:
    btok, dtok, plan, layout, predicates, pred_key, blocks = task
    backend = state.backends[btok]
    db = state.dbs[dtok]
    kernel = state.kernels.get_or_compile(backend, plan, layout)
    # A full preparation serves any block range — delta ranges too — so
    # it is memoized per (database, kernel, δ) and reused.
    memo_key = (dtok, kernel.fingerprint, pred_key)
    prepared = state.prepared.get(memo_key)
    if prepared is None:
        prepared, _n_rows = backend.prepare(kernel, db, predicates)
        state.prepared[memo_key] = prepared
        while len(state.prepared) > 16:
            state.prepared.popitem(last=False)
    return [
        (idx, backend.run_block(kernel, prepared, lo, hi))
        for idx, (lo, hi) in blocks
    ]


def _worker_main(conn, forked: bool) -> None:
    if forked:
        _reset_forked_globals()
    state = _WorkerState()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        except Exception as exc:  # noqa: BLE001 — undecodable message
            # The bytes were fully consumed before unpickling failed
            # (e.g. a class the worker's snapshot predates), so the
            # pipe is still in sync: report and keep serving.
            try:
                conn.send(
                    ("err", None, f"{type(exc).__name__}: {exc}",
                     traceback.format_exc())
                )
                continue
            except (BrokenPipeError, OSError):
                break
        if msg[0] == "shutdown":
            break
        _msg_kind, kernel_dir, registrations, task = msg
        started = time.perf_counter()
        try:
            _set_kernel_dir(kernel_dir)
            for reg in registrations:
                if reg[0] == "db":
                    state.dbs[reg[1]] = reg[2]
                elif reg[0] == "backend":
                    state.backends[reg[1]] = reg[2]
                elif reg[0] == "evict_db":
                    state.drop_database(reg[1])
            result = _run_task(state, task)
            reply = ("ok", result, time.perf_counter() - started)
        except BaseException as exc:  # noqa: BLE001 — everything goes back
            tb = traceback.format_exc()
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = None
            reply = ("err", payload, f"{type(exc).__name__}: {exc}", tb)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# -- parent side ------------------------------------------------------------


class _WorkerHandle:
    """One worker process plus what the parent knows it has registered."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.dbs: set[int] = set()
        self.backends: set[int] = set()


class ProcessKernelExecutor:
    """A pool of kernel-executing worker processes.

    Its one task kind is :meth:`run_blocks` (per-shard block ranges,
    the sharded backend's unit), which returns a future resolved by a
    parent proxy thread doing one pipe round-trip per task.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        shutdown_grace: float = DEFAULT_SHUTDOWN_GRACE,
    ) -> None:
        self.workers = workers if workers is not None else default_process_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.shutdown_grace = shutdown_grace
        self._ctx = mp.get_context(START_METHOD)
        self._handles: list[_WorkerHandle] = []
        # Spawn eagerly, before callers start worker threads: forking a
        # process while sibling threads hold locks is how GIL-escape
        # projects deadlock.
        for i in range(self.workers):
            self._handles.append(self._spawn(f"ifaq-kernel-worker-{i}"))
        self._free: queue.Queue[_WorkerHandle] = queue.Queue()
        for handle in self._handles:
            self._free.put(handle)
        self._proxy = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="ifaq-proc-proxy"
        )
        # Reentrant: database weakref callbacks fire from whatever
        # thread triggers collection, possibly one already holding it.
        self._lock = threading.RLock()
        self._next_token = 0
        #: id(db) → (weakref, token, version vector); weakly keyed like
        #: the column store, retired when the version vector moves
        self._db_tokens: dict[int, tuple[weakref.ref, int, tuple]] = {}
        #: id(backend) → (backend, token); strong — backends are tiny
        self._backend_tokens: dict[int, tuple[ExecutionBackend, int]] = {}
        #: tokens of collected databases not yet evicted from every worker
        self._dead_tokens: set[int] = set()
        self._closed = False

    def _spawn(self, name: str) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, START_METHOD == "fork"),
            daemon=True,
            name=name,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker in place so one crash doesn't shrink
        the pool; the fresh process re-registers lazily on first use."""
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        fresh = self._spawn(handle.process.name)
        handle.process = fresh.process
        handle.conn = fresh.conn
        handle.dbs = set()
        handle.backends = set()

    def kill_worker(self, index: int = 0) -> None:
        """Kill one worker process outright (SIGKILL) — the fault-
        injection surface :class:`~repro.serving.faults.KillWorker`
        uses.

        The dead worker is *not* respawned here: the next task routed
        to its handle observes the broken pipe, raises the organic
        :class:`WorkerError`, and respawns it — exactly the crash
        sequence retry logic must absorb.
        """
        if not self._handles:
            return
        handle = self._handles[index % len(self._handles)]
        handle.process.kill()
        handle.process.join(timeout=5)

    # -- registration tokens ----------------------------------------------

    def _token(self) -> int:
        self._next_token += 1
        return self._next_token

    def db_token(self, db: Database) -> int:
        """The pool-wide token for ``db``; registered lazily per worker.

        Tokens are **version-aware**: a registration remembers the
        database's ingest version vector, so after ``append_rows`` the
        stale worker pickles are retired and the next task ships the
        mutated database under a fresh token — streaming ingest
        propagates to workers without explicit eviction calls.
        """
        with self._lock:
            entry = self._db_tokens.get(id(db))
            version = db.version_vector()
            if entry is not None and entry[0]() is db:
                if entry[2] == version:
                    return entry[1]
                # Same object, new data: retire the old worker copies.
                if any(entry[1] in h.dbs for h in self._handles):
                    self._dead_tokens.add(entry[1])
            token = self._token()
            key = id(db)

            def _on_collect(_ref, *, _self=weakref.ref(self), _key=key, _token=token):
                self_ = _self()
                if self_ is None:
                    return
                with self_._lock:
                    self_._db_tokens.pop(_key, None)
                    self_._dead_tokens.add(_token)

            self._db_tokens[key] = (weakref.ref(db, _on_collect), token, version)
            return token

    def _backend_token(self, backend: ExecutionBackend) -> int:
        with self._lock:
            entry = self._backend_tokens.get(id(backend))
            if entry is not None:
                return entry[1]
            token = self._token()
            self._backend_tokens[id(backend)] = (backend, token)
            return token

    # -- task submission ---------------------------------------------------

    def run_blocks(
        self,
        backend: ExecutionBackend,
        db: Database,
        plan: BatchPlan,
        layout: LayoutOptions,
        blocks: Sequence[tuple[int, tuple[int, int]]],
        *,
        predicates=None,
        pred_key: tuple = (),
    ) -> Future:
        """One shard's block ranges on a worker, through the backend's
        ``prepare`` / ``run_block`` protocol (plain or group-by alike).

        ``blocks`` is ``[(canonical_index, (lo, hi)), ...]``; resolves
        to ``([(canonical_index, partial), ...], worker_seconds)`` so
        the caller can merge every shard's partials in canonical block
        order — the bit-identity contract."""
        if self._closed:
            raise RuntimeError("ProcessKernelExecutor is closed")
        btok = self._backend_token(backend)
        dtok = self.db_token(db)
        task = (btok, dtok, plan, layout, predicates, pred_key, tuple(blocks))
        return self._proxy.submit(self._round_trip, btok, backend, dtok, db, task)

    def _round_trip(self, btok, backend, dtok, db, task):
        handle = self._free.get()
        try:
            registrations: list[tuple] = []
            with self._lock:
                for token in sorted(self._dead_tokens & handle.dbs):
                    registrations.append(("evict_db", token))
                    handle.dbs.discard(token)
                    if not any(token in h.dbs for h in self._handles):
                        self._dead_tokens.discard(token)
            if btok not in handle.backends:
                registrations.append(("backend", btok, backend))
            if dtok not in handle.dbs:
                registrations.append(("db", dtok, db))
            kernel_dir = os.environ.get("IFAQ_KERNEL_CACHE_DIR")
            try:
                handle.conn.send(("run", kernel_dir, registrations, task))
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                # Connection.send pickles before writing, so nothing hit
                # the pipe: the worker is still in sync and the caller
                # can fall back to in-process execution.
                raise TaskNotPicklable(
                    f"task cannot cross the process boundary: {exc}"
                ) from exc
            reply = handle.conn.recv()
            handle.backends.add(btok)
            handle.dbs.add(dtok)
        except (EOFError, OSError, BrokenPipeError) as exc:
            exitcode = handle.process.exitcode
            if not self._closed:
                self._respawn(handle)
            raise WorkerError(
                f"kernel worker {handle.process.name} died mid-task "
                f"(exitcode {exitcode})"
            ) from exc
        finally:
            self._free.put(handle)
        if reply[0] == "err":
            _tag, payload, summary, tb = reply
            cause = WorkerError(f"in kernel worker:\n{tb}")
            if payload is not None:
                try:
                    exc = pickle.loads(payload)
                except Exception:
                    exc = None
                if isinstance(exc, BaseException):
                    raise exc from cause
            raise WorkerError(summary) from cause
        _tag, result, seconds = reply
        return result, seconds

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Stop the pool, escalating until every worker is reclaimed.

        Workers get a cooperative shutdown message and ``shutdown_grace``
        seconds (default :data:`DEFAULT_SHUTDOWN_GRACE`) to exit;
        survivors are ``terminate()``d, then ``kill()``ed, each with a
        short re-join.
        Workers are reaped *before* the proxy pool is shut down: a proxy
        thread blocked in ``conn.recv()`` on a hung worker only unblocks
        once that worker dies, so the old order (proxy first) could wait
        forever.  ``close()`` therefore always reclaims its workers.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            try:
                handle.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        grace = self.shutdown_grace if wait else 0.0
        deadline = time.monotonic() + grace
        for handle in self._handles:
            if grace:
                handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for handle in self._handles:  # escalation 1: SIGTERM
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in self._handles:
            if handle.process.is_alive():
                handle.process.join(timeout=1.0)
        for handle in self._handles:  # escalation 2: SIGKILL
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
        for handle in self._handles:
            try:
                handle.conn.close()
            except OSError:
                pass
        self._proxy.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __del__(self) -> None:  # best-effort: daemon workers die anyway
        try:
            if not self._closed:
                self.shutdown(wait=False)
        except Exception:
            pass


# -- shared pool / env selection --------------------------------------------

_SHARED: ProcessKernelExecutor | None = None
_SHARED_LOCK = threading.Lock()


def shared_process_executor() -> ProcessKernelExecutor:
    """The process-wide pool (lazily spawned, reaped at exit).

    Sharded backends share this one pool instead of each spawning their
    own — pools of pools oversubscribe the host.
    """
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None or _SHARED._closed:
            _SHARED = ProcessKernelExecutor()
        return _SHARED


@atexit.register
def _shutdown_shared() -> None:
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is not None:
            _SHARED.shutdown(wait=False)
            _SHARED = None


def executor_mode_from_env() -> str:
    """``IFAQ_EXECUTOR`` normalized to ``"thread"`` or ``"process"``."""
    mode = (os.environ.get("IFAQ_EXECUTOR") or "thread").strip().lower()
    if mode in ("", "thread", "threads"):
        return "thread"
    if mode in ("process", "processes"):
        return "process"
    raise ValueError(f"IFAQ_EXECUTOR must be 'thread' or 'process', got {mode!r}")
