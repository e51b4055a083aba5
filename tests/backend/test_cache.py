"""Kernel cache: fingerprints, hit/miss accounting, compile-once identity,
single-flight concurrent compiles, cross-process source persistence."""

import math
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.aggregates import build_join_tree, covar_batch, variance_batch
from repro.backend import (
    EngineBackend,
    KernelCache,
    PythonKernelBackend,
    build_batch_plan,
    clear_kernel_sources,
    kernel_source_dir,
    load_kernel_source,
)
from repro.backend.layout import LAYOUT_ARRAYS, LAYOUT_SORTED
from repro.backend.plan import MultiBatchPlan
from repro.compiler import IFAQCompiler
from repro.data import star_schema
from repro.ml.programs import linear_regression_bgd


def make_plan(db, query):
    batch = covar_batch(["cityf", "price"], label="units")
    tree = build_join_tree(db.schema(), query.relations, stats=db.statistics())
    return build_batch_plan(db, tree, batch)


class TestFingerprint:
    def test_stable_across_rebuilds(self, int_star_db, int_star_query):
        p1 = make_plan(int_star_db, int_star_query)
        p2 = make_plan(int_star_db, int_star_query)
        assert p1.fingerprint(LAYOUT_SORTED, "python") == p2.fingerprint(
            LAYOUT_SORTED, "python"
        )

    def test_distinguishes_layout_and_backend(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        fps = {
            plan.fingerprint(LAYOUT_SORTED, "python"),
            plan.fingerprint(LAYOUT_ARRAYS, "python"),
            plan.fingerprint(LAYOUT_SORTED, "cpp"),
            plan.fingerprint(LAYOUT_SORTED, "engine:trie"),
        }
        assert len(fps) == 4


#: the (layout, backend) grid the fingerprint tests distinguish
FINGERPRINT_GRID = [
    (LAYOUT_SORTED, "python"),
    (LAYOUT_ARRAYS, "python"),
    (LAYOUT_SORTED, "cpp"),
    (LAYOUT_SORTED, "engine:trie"),
    (None, ""),
]


def make_multi_plan(db, query):
    tree = build_join_tree(db.schema(), query.relations, stats=db.statistics())
    return MultiBatchPlan(
        [
            build_batch_plan(db, tree, variance_batch("units"), group_attr=attr)
            for attr in ("cityf", "price")
        ]
    )


class TestFingerprintMemo:
    """Plans are immutable once built, so fingerprints are memoized per
    (layout, backend); a memoized value must equal a fresh plan's."""

    def test_memoized_equals_fresh(self, int_star_db, int_star_query):
        for make in (make_plan, make_multi_plan):
            memoized = make(int_star_db, int_star_query)
            for layout, backend in FINGERPRINT_GRID * 2:  # second pass: memo hits
                fresh = make(int_star_db, int_star_query)
                assert memoized.fingerprint(layout, backend) == fresh.fingerprint(
                    layout, backend
                )

    def test_memo_survives_pickle(self, int_star_db, int_star_query):
        for make in (make_plan, make_multi_plan):
            plan = make(int_star_db, int_star_query)
            for layout, backend in FINGERPRINT_GRID:
                plan.fingerprint(layout, backend)
            clone = pickle.loads(pickle.dumps(plan))
            assert clone == plan
            for layout, backend in FINGERPRINT_GRID:
                assert clone.fingerprint(layout, backend) == make(
                    int_star_db, int_star_query
                ).fingerprint(layout, backend)


class CountingBackend(PythonKernelBackend):
    """A Python backend that counts compile_plan calls."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.compile_calls = 0

    def compile_plan(self, plan, layout):
        self.compile_calls += 1
        return super().compile_plan(plan, layout)


class TestKernelCache:
    def test_hit_miss_accounting(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        cache = KernelCache()
        backend = CountingBackend()
        k1 = cache.get_or_compile(backend, plan, LAYOUT_SORTED)
        k2 = cache.get_or_compile(backend, plan, LAYOUT_SORTED)
        assert k1 is k2
        assert backend.compile_calls == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_different_layouts_are_different_entries(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        cache = KernelCache()
        backend = CountingBackend()
        cache.get_or_compile(backend, plan, LAYOUT_SORTED)
        cache.get_or_compile(backend, plan, LAYOUT_ARRAYS)
        assert backend.compile_calls == 2
        assert len(cache) == 2

    def test_capacity_eviction(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        cache = KernelCache(capacity=1)
        backend = CountingBackend()
        cache.get_or_compile(backend, plan, LAYOUT_SORTED)
        cache.get_or_compile(backend, plan, LAYOUT_ARRAYS)
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        # The evicted layout recompiles.
        cache.get_or_compile(backend, plan, LAYOUT_SORTED)
        assert backend.compile_calls == 3

    def test_clear_resets_stats(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        cache = KernelCache()
        cache.get_or_compile(CountingBackend(), plan, LAYOUT_SORTED)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 0


class SlowCountingBackend(CountingBackend):
    """Compilation takes long enough that racers genuinely overlap."""

    def compile_plan(self, plan, layout):
        time.sleep(0.05)
        return super().compile_plan(plan, layout)


class TestSingleFlightCompilation:
    """Racing get_or_compile on one fingerprint compiles exactly once:
    the first thread builds, the rest wait on its result (the serving
    layer fans identical requests into the cache from worker threads)."""

    def test_same_fingerprint_raced_compiles_once(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        cache = KernelCache()
        backend = SlowCountingBackend()
        barrier = threading.Barrier(8)

        def race():
            barrier.wait()
            return cache.get_or_compile(backend, plan, LAYOUT_SORTED)

        with ThreadPoolExecutor(max_workers=8) as pool:
            kernels = [f.result() for f in [pool.submit(race) for _ in range(8)]]

        assert backend.compile_calls == 1
        assert all(k is kernels[0] for k in kernels)
        assert cache.stats.misses == 1
        # The 7 non-builders either waited on the in-progress compile
        # or arrived after it finished; none compiled.
        assert cache.stats.hits + cache.stats.coalesced_compiles >= 7

    def test_failed_compile_releases_waiters(self, int_star_db, int_star_query):
        plan = make_plan(int_star_db, int_star_query)
        cache = KernelCache()

        class FlakyBackend(SlowCountingBackend):
            def compile_plan(self, plan, layout):
                if self.compile_calls == 0:
                    self.compile_calls += 1
                    time.sleep(0.02)
                    raise RuntimeError("first compile fails")
                return super().compile_plan(plan, layout)

        backend = FlakyBackend()
        barrier = threading.Barrier(4)
        outcomes = []

        def race():
            barrier.wait()
            try:
                return cache.get_or_compile(backend, plan, LAYOUT_SORTED)
            except RuntimeError as exc:
                return exc

        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = [f.result() for f in [pool.submit(race) for _ in range(4)]]

        # The failing builder raised; a waiter retried as the new
        # builder and succeeded, so no thread deadlocked.
        errors = [o for o in outcomes if isinstance(o, RuntimeError)]
        kernels = [o for o in outcomes if not isinstance(o, RuntimeError)]
        assert len(errors) == 1
        assert kernels and all(k is kernels[0] for k in kernels)
        assert cache.lookup(plan.fingerprint(LAYOUT_SORTED, backend.kernel_key)) is kernels[0]


class TestSourcePersistence:
    """Generated Python sources spill to disk keyed by fingerprint, so a
    fresh process (fresh KernelCache) skips codegen on warm starts."""

    def _compile(self, db, query):
        backend = PythonKernelBackend()
        return backend.compile_plan(make_plan(db, query), LAYOUT_SORTED)

    def test_cold_then_warm(self, int_star_db, int_star_query, monkeypatch, tmp_path):
        monkeypatch.setenv("IFAQ_KERNEL_CACHE_DIR", str(tmp_path))
        cold = self._compile(int_star_db, int_star_query)
        assert cold.meta["source_cached"] is False
        assert load_kernel_source(cold.fingerprint) == cold.source
        # A second compile (new backend, no in-memory cache) is warm.
        warm = self._compile(int_star_db, int_star_query)
        assert warm.meta["source_cached"] is True
        assert warm.source == cold.source

    def test_warm_kernel_executes_identically(
        self, int_star_db, int_star_query, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("IFAQ_KERNEL_CACHE_DIR", str(tmp_path))
        cold = self._compile(int_star_db, int_star_query)
        warm = self._compile(int_star_db, int_star_query)
        backend = PythonKernelBackend()
        assert backend.execute(cold, int_star_db) == backend.execute(warm, int_star_db)

    def test_clear_removes_spilled_sources(
        self, int_star_db, int_star_query, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("IFAQ_KERNEL_CACHE_DIR", str(tmp_path))
        assert kernel_source_dir() == tmp_path
        kernel = self._compile(int_star_db, int_star_query)
        assert clear_kernel_sources() >= 1
        assert load_kernel_source(kernel.fingerprint) is None

    def test_untrusted_default_dir_disables_persistence(
        self, int_star_db, int_star_query, monkeypatch, tmp_path
    ):
        """A default spill dir writable by others is never exec'd from
        (or written to) — compilation just runs cold."""
        import tempfile

        monkeypatch.delenv("IFAQ_KERNEL_CACHE_DIR", raising=False)
        monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
        kernel = self._compile(int_star_db, int_star_query)  # creates 0700 dir
        kernel_source_dir().chmod(0o777)
        assert load_kernel_source(kernel.fingerprint) is None
        again = self._compile(int_star_db, int_star_query)
        assert again.meta["source_cached"] is False
        assert again.source == kernel.source


class TestCompilerIntegration:
    """The compile()-time kernel is the executed kernel (no rebuilds)."""

    def _setup(self):
        ds = star_schema(n_facts=400, n_dims=2, dim_size=10, attrs_per_dim=1, seed=5)
        program = linear_regression_bgd(
            ds.db.schema(), ds.query, ds.features, ds.label, iterations=5, alpha=0.05
        )
        return ds, program

    def test_compiled_kernel_is_executed(self):
        ds, program = self._setup()
        backend = CountingBackend()
        compiler = IFAQCompiler(
            db=ds.db, query=ds.query, backend=backend, kernel_cache=KernelCache()
        )
        artifacts = compiler.compile(program)
        assert artifacts.kernel is not None
        assert artifacts.kernel_source == artifacts.kernel.source
        assert backend.compile_calls == 1

        before = artifacts.kernel
        compiler.compute_batch(artifacts)
        # Execution reused the compile()-time kernel: nothing regenerated.
        assert artifacts.kernel is before
        assert backend.compile_calls == 1

    def test_second_compile_hits_cache(self):
        ds, program = self._setup()
        cache = KernelCache()
        compiler = IFAQCompiler(
            db=ds.db, query=ds.query, backend=CountingBackend(), kernel_cache=cache
        )
        a1 = compiler.compile(program)
        a2 = compiler.compile(program)
        assert a2.kernel is a1.kernel
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_cached_execution_matches_engine(self):
        ds, program = self._setup()
        engine_state = IFAQCompiler(
            db=ds.db, query=ds.query, backend=EngineBackend()
        ).run(program)
        cached = IFAQCompiler(
            db=ds.db, query=ds.query, backend=CountingBackend(), kernel_cache=KernelCache()
        )
        state = cached.run(program)
        for k in engine_state["theta"].field_names():
            assert math.isclose(
                engine_state["theta"][k], state["theta"][k], rel_tol=1e-8
            )
