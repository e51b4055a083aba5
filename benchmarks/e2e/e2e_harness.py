"""Shared machinery of the end-to-end benchmark.

* :func:`hermetic_env` — a fresh per-run directory for ``TMPDIR`` and
  ``IFAQ_KERNEL_CACHE_DIR``; must run **before** ``repro`` is imported
  (the C++ binary cache path is fixed at import time).
* :class:`Tracer` — in-memory spans (name, start, end, parent, op id)
  recorded from the benchmark's side of each layer boundary, and
  :func:`instrument`, which wraps a layer's public callable in a span.
* :class:`Run` — what one ``(workload, seed, seconds, trace)`` run
  accumulates, and the result line it turns into.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import gc
import itertools
import json
import multiprocessing
import os
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import e2e_spec as spec

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]

now = time.perf_counter


# -- hermetic caches ------------------------------------------------------------


def hermetic_env() -> Path:
    """Create ``out/run-*/`` and point every on-disk cache at it.

    ``<TMPDIR>/ifaq-cpp-cache`` (g++ binaries) and the spilled kernel
    sources then start empty, so set-up time never depends on what an
    earlier run left in ``/tmp``.  Pool workers inherit the environment.
    """
    if "repro" in sys.modules:
        raise RuntimeError("hermetic_env() must run before repro is imported")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=out))
    tmp = run_dir / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    os.environ["IFAQ_KERNEL_CACHE_DIR"] = str(run_dir / "kernels")
    tempfile.tempdir = None  # re-read TMPDIR
    return run_dir


def require_program() -> None:
    """Exit non-zero where there is no program to measure (a directory
    holding only the benchmark's own files), before anything is written."""
    if not (REPO_ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"e2e benchmark: {REPO_ROOT}/src/repro is missing; nothing to measure")


def import_repro() -> None:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import repro  # noqa: F401


# -- statistics -----------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def fingerprint_us(plan, backend, calls: int = 200) -> float:
    """Mean microseconds of one ``BatchPlan.fingerprint`` (hashed per submit)."""
    from repro.backend.layout import LAYOUT_SORTED

    started = now()
    for _ in range(calls):
        plan.fingerprint(LAYOUT_SORTED, backend.kernel_key)
    return (now() - started) / calls * 1e6


def clear_caches() -> None:
    """Empty every process-wide cache a set-up fills: column stores, g++
    binaries, spilled kernel sources, the default kernel cache."""
    from repro.backend import clear_column_stores
    from repro.backend.cache import clear_kernel_sources, default_kernel_cache
    from repro.backend.compile_cpp import clear_binary_cache

    clear_column_stores()
    clear_binary_cache()
    clear_kernel_sources()
    default_kernel_cache().clear()


def release_memory() -> None:
    """Collect cycles and hand freed heap back to the OS.

    Between set-ups only: freed column stores otherwise stay resident in
    malloc arenas, and whether the next set-up can reuse them depends on
    which arena its pool threads get, which made peak RSS double in about
    one run in five.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to trim


def peak_rss_mb() -> float:
    """Peak resident set (``VmHWM``) of this process plus its live pool
    workers, from procfs."""

    def hwm_kb(pid) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            return 0  # a worker that exited between listing and reading

    pids = ["self"] + [child.pid for child in multiprocessing.active_children()]
    return sum(hwm_kb(pid) for pid in pids) / 1024.0


# -- tracing --------------------------------------------------------------------

_current: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)


class Span:
    """One timed interval; also its own context manager."""

    __slots__ = ("tracer", "id", "name", "op", "parent", "start", "end", "_token")

    def __init__(self, tracer, name, op):
        self.tracer = tracer
        self.name = name
        self.op = op
        self.id = next(tracer._ids)

    def __enter__(self):
        parent = _current.get()
        self.parent = parent.id if parent is not None else None
        if self.op is None and parent is not None:
            self.op = parent.op
        self._token = _current.set(self)
        self.start = now()
        return self

    def __exit__(self, *_exc):
        self.end = now()
        _current.reset(self._token)
        self.tracer.spans.append(self)
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``enabled``; a disabled tracer costs one call.

    Parent links follow :mod:`contextvars`, so concurrent coroutines each
    get their own span stack.  Work the service hands to a pool thread
    starts a new root there (``run_in_executor`` does not carry context):
    such spans have no parent but still count for their layer.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._null = nullcontext()

    def span(self, name: str, op=None):
        return Span(self, name, op) if self.enabled else self._null

    def seconds(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def count(self, name: str, window: tuple[int, int] | None = None) -> int:
        """Spans called ``name``; ``window`` restricts to the spans finished
        between two ``len(tracer.spans)`` readings."""
        spans = self.spans if window is None else self.spans[window[0] : window[1]]
        return sum(1 for s in spans if s.name == name)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the part child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += max(0.0, s.seconds - child_time.get(s.id, 0.0))
        return dict(out)

    def dump(self, path: Path, workload: str) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        payload = {
            "workload": workload,
            "unit": "seconds since the first span",
            "self_seconds": {k: round(v, 6) for k, v in sorted(self.self_seconds().items())},
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "op": s.op,
                    "parent": s.parent,
                    "start": round(s.start - origin, 6),
                    "end": round(s.end - origin, 6),
                }
                for s in sorted(self.spans, key=lambda s: s.id)
            ],
        }
        path.write_text(json.dumps(payload) + "\n")


def instrument(tracer: Tracer, owner, attr: str, span_name: str):
    """Wrap ``owner.attr`` in a span; returns the undo callable.

    ``owner`` is a class (method) or the module whose namespace the
    caller resolves the function through.  A target that a refactor
    moved raises here, so a traced run never silently loses a layer.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(span_name):
            return original(*args, **kwargs)

    setattr(owner, attr, traced)
    return lambda: setattr(owner, attr, original)


@contextmanager
def layer_spans(tracer: Tracer):
    """Span every layer boundary the workloads cross without calling it
    themselves (kernel cache, backends, column store, database)."""
    if not tracer.enabled:
        yield
        return
    import repro.backend.executors as executors
    import repro.serving.service as service
    from repro.backend.cache import KernelCache
    from repro.backend.column_store import ColumnStore
    from repro.backend.compile_cpp import CompiledKernel
    from repro.backend.numpy_backend import NumpyBackend
    from repro.backend.parallel import ShardedBackend
    from repro.db.database import Database

    original_lookup = KernelCache.get_or_compile

    def get_or_compile(self, backend, plan, layout):
        before = self.stats.misses
        with tracer.span("backend.cache.lookup") as span:
            kernel = original_lookup(self, backend, plan, layout)
        span.name = "backend.cache.miss" if self.stats.misses > before else "backend.cache.hit"
        return kernel

    KernelCache.get_or_compile = get_or_compile
    undo = [lambda: setattr(KernelCache, "get_or_compile", original_lookup)]
    for owner, attr, name in (
        (NumpyBackend, "execute", "backend.numpy_backend.execute"),
        (NumpyBackend, "run_maintained", "backend.numpy_backend.execute"),
        (NumpyBackend, "run_groupby", "backend.numpy_backend.groupby"),
        (NumpyBackend, "run_groupby_maintained", "backend.numpy_backend.groupby"),
        (NumpyBackend, "run_groupby_many", "backend.numpy_backend.groupby_many"),
        (NumpyBackend, "run_delta", "backend.numpy_backend.delta"),
        (NumpyBackend, "run_groupby_delta", "backend.numpy_backend.delta"),
        (ShardedBackend, "execute", "backend.parallel.execute"),
        (ColumnStore, "extend_relation", "backend.column_store.extend"),
        (Database, "append_rows", "db.append_rows"),
        (CompiledKernel, "run_lines", "backend.executors.cpp_binary_run"),
        (executors.CppKernelBackend, "run_groupby_many", "backend.executors.cpp_groupby_many"),
        (executors, "write_binary_data", "backend.executors.cpp_write_data"),
        (executors, "generate_cpp_kernel", "backend.codegen_cpp.generate"),
        (executors, "compile_kernel", "backend.compile_cpp.compile"),
        (executors, "apply_predicates", "db.apply_predicates"),
        (service, "apply_predicates", "db.apply_predicates"),
    ):
        undo.append(instrument(tracer, owner, attr, name))
    try:
        yield
    finally:
        for restore in reversed(undo):
            restore()


# -- one run --------------------------------------------------------------------


class Run:
    """State and results of one ``(workload, seed, seconds, trace)`` run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.spec = spec.WORKLOADS[workload]
        self.sizes = self.spec["smoke" if smoke else "sizes"]
        self.setup_reps = 1 if smoke else spec.SETUP_REPS
        self.tracer = Tracer(trace)
        self.setup_seconds: list[float] = []
        #: latencies of the primary op / of cold ops, milliseconds
        self.op_ms: list[float] = []
        self.cold_ms: list[float] = []
        #: ops attempted / failed in the measured phase, and its wall time
        self.attempted = 0
        self.failed = 0
        self.measured_ops = 0
        self.measured_seconds = 0.0
        self.rss_mb = 0.0
        #: the measured phase's slice of ``tracer.spans``
        self.window = (0, 0)
        self.layer: dict[str, float] = {}
        self.notes: dict[str, object] = {}

    # -- collection --------------------------------------------------------

    @contextmanager
    def timed_setup(self):
        """Times one full set-up against empty caches; call it
        ``setup_reps`` times, having dropped every reference to the
        previous one."""
        clear_caches()
        release_memory()  # the previous set-up must not inflate peak RSS
        started = now()
        yield
        self.setup_seconds.append(now() - started)

    @contextmanager
    def measured(self):
        """Wraps the measured phase: wall time, span window, peak memory."""
        first = len(self.tracer.spans)
        started = now()
        yield
        self.measured_seconds = now() - started
        self.window = (first, len(self.tracer.spans))
        self.rss_mb = peak_rss_mb()

    def loop(self, op, group_size: int = 1, start_group=lambda: None, first_is_cold: bool = False) -> None:
        """The measured phase of a single-client workload.

        Calls ``op(group, position)`` for whole groups of ``group_size``
        ops until the time is up (whole groups, so that per-op counts are
        exact ratios).  With ``first_is_cold`` the first op of a group is
        a cold op, the rest sample the primary op.
        """
        deadline = now() + self.seconds
        with self.measured():
            while now() < deadline:
                group = start_group()
                for position in range(group_size):
                    self.attempted += 1
                    started = now()
                    with self.tracer.span("op", op=self.measured_ops):
                        op(group, position)
                    cold = first_is_cold and position == 0
                    (self.cold_ms if cold else self.op_ms).append((now() - started) * 1e3)
                    self.measured_ops += 1

    def fail(self, why: str) -> None:
        self.failed += 1
        self.notes.setdefault("failures", []).append(why)

    def check(self, ok: bool, why: str) -> None:
        if not ok:
            self.fail(why)

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": median(self.setup_seconds),
            "ops_per_s": self.measured_ops / self.measured_seconds if self.measured_seconds else 0.0,
            "op_p50_ms": median(self.op_ms),
            "op_tail_ms": percentile(self.op_ms, self.spec["tail"]),
            "cold_op_p50_ms": median(self.cold_ms),
            "peak_rss_mb": self.rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        tr = self.tracer
        ops = max(1, self.measured_ops)
        layer = dict.fromkeys(spec.PER_LAYER_NAMES, 0.0)
        for name, span in (
            ("backend.cache.compile_s", "backend.cache.miss"),
            ("backend.codegen_cpp.generate_s", "backend.codegen_cpp.generate"),
            ("backend.executors.cpp_write_data_s", "backend.executors.cpp_write_data"),
            ("backend.executors.cpp_binary_run_s", "backend.executors.cpp_binary_run"),
            ("backend.column_store.extend_s", "backend.column_store.extend"),
            ("backend.numpy_backend.delta_s", "backend.numpy_backend.delta"),
            ("backend.parallel.execute_s", "backend.parallel.execute"),
            ("db.append_rows_s", "db.append_rows"),
            ("db.apply_predicates_s", "db.apply_predicates"),
        ):
            layer[name] = median(tr.seconds(span))
        layer["backend.cache.hit_us"] = median(tr.seconds("backend.cache.hit")) * 1e6
        layer["trace.ops_per_s"] = self.end_to_end()["ops_per_s"]
        layer["trace.spans_per_op"] = (self.window[1] - self.window[0]) / ops
        self_seconds = tr.self_seconds()
        op_wall = sum(tr.seconds("op"))
        if op_wall:
            layer["trace.layer_coverage"] = 1.0 - self_seconds.get("op", 0.0) / op_wall
        layer.update(self.layer)
        unknown = set(layer) - set(spec.PER_LAYER_NAMES)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
        return layer

    def result(self) -> dict:
        values = self.per_layer() if self.tracer.enabled else self.end_to_end()
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": float(value), "unit": spec.UNITS[name]}
                for name, value in values.items()
            },
        }
