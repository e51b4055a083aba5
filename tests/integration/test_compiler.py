"""The IFAQ compiler driver: stage artifacts, backend agreement, and the
compile cache that re-runs a program with new parameter values without
recompiling it."""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import repro.compiler
from repro.backend.cache import KernelCache
from repro.backend.layout import LAYOUT_ARRAYS
from repro.compiler import AGGS_VAR, COMPILE_CACHE_SIZE, IFAQCompiler
from repro.data import star_schema
from repro.db.query import join_as_ifaq
from repro.interp import Interpreter
from repro.ir import traversal
from repro.ir.builders import V, dom, sum_over
from repro.ir.expr import Add, Const, Lookup, RecordLit
from repro.ir.program import Program, straight_line
from repro.ml.programs import linear_regression_bgd
from repro.runtime.values import RecordValue

from compare import values_close


@pytest.fixture(scope="module")
def setup():
    ds = star_schema(n_facts=600, n_dims=2, dim_size=15, attrs_per_dim=1, seed=2)
    program = linear_regression_bgd(
        ds.db.schema(), ds.query, ds.features, ds.label, iterations=10, alpha=0.05
    )
    return ds, program


class TestArtifacts:
    def test_stages_recorded(self, setup):
        ds, program = setup
        compiler = IFAQCompiler(db=ds.db, query=ds.query)
        artifacts = compiler.compile(program)
        assert artifacts.source is program
        assert artifacts.optimized is not program
        assert artifacts.specialized is not artifacts.optimized
        assert artifacts.join_tree is not None
        assert artifacts.plan is not None
        assert artifacts.kernel_source and "def kernel" in artifacts.kernel_source

    def test_q_eliminated_from_residual(self, setup):
        ds, program = setup
        artifacts = IFAQCompiler(db=ds.db, query=ds.query).compile(program)
        assert all(name != "Q" for name, _ in artifacts.residual.inits)

    def test_batch_covers_covar_and_label(self, setup):
        ds, program = setup
        artifacts = IFAQCompiler(db=ds.db, query=ds.query).compile(program)
        names = artifacts.batch.names()
        # count (from |Q|), second moments, and label correlations
        assert "agg_count" in names
        assert any("a0_0" in n and "a1_0" in n for n in names)
        assert any(ds.label in n for n in names)

    def test_state_type_is_record(self, setup):
        from repro.ir.types import RecordType

        ds, program = setup
        artifacts = IFAQCompiler(db=ds.db, query=ds.query).compile(program)
        assert isinstance(artifacts.state_type, RecordType)


class TestBackendAgreement:
    def test_engine_modes_agree(self, setup):
        ds, program = setup
        results = {}
        for mode in ("materialized", "pushdown", "merged", "trie"):
            compiler = IFAQCompiler(
                db=ds.db, query=ds.query, aggregate_mode=mode, backend="engine"
            )
            state = compiler.run(program)
            results[mode] = {
                k: state["theta"][k] for k in state["theta"].field_names()
            }
        reference = results["materialized"]
        for mode, theta in results.items():
            for k in reference:
                assert math.isclose(theta[k], reference[k], rel_tol=1e-8), (mode, k)

    def test_python_backend_agrees(self, setup):
        ds, program = setup
        engine_state = IFAQCompiler(
            db=ds.db, query=ds.query, backend="engine"
        ).run(program)
        python_state = IFAQCompiler(
            db=ds.db, query=ds.query, backend="python"
        ).run(program)
        for k in engine_state["theta"].field_names():
            assert math.isclose(
                engine_state["theta"][k], python_state["theta"][k], rel_tol=1e-8
            )

    @pytest.mark.cpp
    def test_cpp_backend_agrees(self, setup):
        ds, program = setup
        engine_state = IFAQCompiler(db=ds.db, query=ds.query, backend="engine").run(program)
        cpp_state = IFAQCompiler(db=ds.db, query=ds.query, backend="cpp").run(program)
        for k in engine_state["theta"].field_names():
            assert math.isclose(
                engine_state["theta"][k], cpp_state["theta"][k], rel_tol=1e-8
            )


# -- the compile cache ----------------------------------------------------------

#: (alpha, iterations) per re-train; the first of each subset is the miss
GRID = [(0.05, 10), (0.01, 10), (0.05, 3), (0.2, 7)]
SUBSETS = [["f0", "a0_0", "a1_0"], ["a0_0", "a1_0"], ["f0"]]


def _lr(ds, feats, alpha, iterations):
    return linear_regression_bgd(
        ds.db.schema(), ds.query, feats, ds.label, iterations=iterations, alpha=alpha
    )


def _theta(state):
    return {k: state["theta"][k] for k in state["theta"].field_names()}


def _fresh(ds, backend):
    return IFAQCompiler(db=ds.db, query=ds.query, backend=backend, kernel_cache=KernelCache())


def _parameter_inits(program):
    """``alpha`` and ``iterations`` as (type, value): ``Const(1) == Const(1.0)``."""
    inits = dict(program.inits)
    return {n: (type(inits[n].value), inits[n].value) for n in ("alpha", "iterations")}


@pytest.fixture
def own_ds():
    """A database of the test's own (some tests append rows)."""
    return star_schema(n_facts=300, n_dims=2, dim_size=10, attrs_per_dim=1, seed=4)


class TestCompileCache:
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_cached_runs_equal_fresh_compiler(self, setup, backend):
        ds, _ = setup
        compiler = IFAQCompiler(db=ds.db, query=ds.query, backend=backend, kernel_cache=KernelCache())
        for feats in SUBSETS:
            for alpha, iterations in GRID:
                program = _lr(ds, feats, alpha, iterations)
                want = _theta(_fresh(ds, backend).run(program))
                assert _theta(compiler.run(program)) == want, (feats, alpha, iterations)
        # one miss per feature subset, a hit for every re-train
        assert compiler.compile_stats.misses == len(SUBSETS)
        assert compiler.compile_stats.hits == len(SUBSETS) * (len(GRID) - 1)
        assert compiler.compile_stats.evictions == 0

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_cached_artifacts_equal_fresh_compile(self, setup, backend, monkeypatch):
        ds, _ = setup
        compiler = IFAQCompiler(db=ds.db, query=ds.query, backend=backend, kernel_cache=KernelCache())
        for feats in SUBSETS:
            for alpha, iterations in GRID:
                program = _lr(ds, feats, alpha, iterations)
                # Stages draw fresh binder names from a global counter;
                # restart it so both compilations name alike.
                monkeypatch.setattr(traversal, "_counter", itertools.count())
                cached = compiler.compile(program)
                monkeypatch.setattr(traversal, "_counter", itertools.count())
                fresh = _fresh(ds, backend).compile(program)
                assert cached.source is program
                for stage in ("optimized", "specialized", "residual"):
                    got = getattr(cached, stage)
                    assert got == getattr(fresh, stage), stage
                    assert _parameter_inits(got) == {
                        "alpha": (float, alpha),
                        "iterations": (int, iterations),
                    }, stage
                assert cached.batch == fresh.batch
                assert cached.join_tree == fresh.join_tree
                assert cached.plan == fresh.plan
                assert cached.state_type == fresh.state_type
                assert cached.kernel.fingerprint == fresh.kernel.fingerprint
                assert cached.kernel_source == fresh.kernel_source
        assert compiler.compile_stats.hits == len(SUBSETS) * (len(GRID) - 1)

    def test_residual_is_generated_once_per_miss_and_reused_by_hits(self, setup, monkeypatch):
        ds, _ = setup
        programs = [(feats, _lr(ds, feats, *s)) for feats in SUBSETS for s in GRID]
        want = []
        for _, program in programs:
            fresh = _fresh(ds, "numpy")
            artifacts = fresh.compile(program)
            env = {AGGS_VAR: RecordValue(fresh.compute_batch(artifacts))}
            theta = _theta(fresh.run_artifacts(artifacts))
            assert theta == _theta(Interpreter(env).run_program(artifacts.residual))
            want.append(theta)

        generated = []
        real = repro.compiler.compile_residual

        def counting(*args, **kwargs):
            generated.append(real(*args, **kwargs))
            return generated[-1]

        def no_interpreter(*args, **kwargs):
            raise AssertionError("the residual ran on the interpreter")

        monkeypatch.setattr(repro.compiler, "compile_residual", counting)
        monkeypatch.setattr(Interpreter, "__init__", no_interpreter)
        compiler = _fresh(ds, "numpy")
        functions = {}
        for (feats, program), theta in zip(programs, want):
            artifacts = compiler.compile(program)
            fn = functions.setdefault(tuple(feats), artifacts.residual_fn)
            assert artifacts.residual_fn is fn
            assert _theta(compiler.run_artifacts(artifacts)) == theta
        assert len(generated) == compiler.compile_stats.misses == len(SUBSETS)
        assert compiler.compile_stats.hits == len(SUBSETS) * (len(GRID) - 1)
        assert [f.parameters for f in generated] == [("alpha", "iterations")] * len(SUBSETS)

    def test_hit_resolves_kernel_through_kernel_cache(self, setup):
        ds, _ = setup
        kernels = KernelCache()
        compiler = IFAQCompiler(db=ds.db, query=ds.query, kernel_cache=kernels)
        first = compiler.compile(_lr(ds, ds.features, 0.05, 10))
        second = compiler.compile(_lr(ds, ds.features, 0.01, 4))
        assert compiler.compile_stats.hits == 1
        assert second.kernel is first.kernel
        assert kernels.stats.misses == 1 and kernels.stats.hits == 1

    def test_append_rows_forces_a_miss(self, own_ds):
        ds = own_ds
        compiler = IFAQCompiler(db=ds.db, query=ds.query, backend="numpy", kernel_cache=KernelCache())
        compiler.run(_lr(ds, ds.features, 0.05, 10))
        ds.db.append_rows("Fact", [(1, 2, 0.5, 1.25), (3, 4, -0.25, 0.5)])
        program = _lr(ds, ds.features, 0.01, 10)
        got = _theta(compiler.run(program))
        assert compiler.compile_stats.misses == 2 and compiler.compile_stats.hits == 0
        assert got == _theta(_fresh(ds, "numpy").run(program))

    def test_reassigned_backend_or_layout_forces_a_miss(self, own_ds):
        ds = own_ds
        compiler = IFAQCompiler(db=ds.db, query=ds.query, backend="python", kernel_cache=KernelCache())
        compiler.run(_lr(ds, ds.features, 0.05, 10))

        compiler.backend = "numpy"
        program = _lr(ds, ds.features, 0.01, 10)
        artifacts = compiler.compile(program)
        assert compiler.compile_stats.misses == 2
        assert artifacts.kernel.backend == "numpy"
        assert _theta(compiler.run_artifacts(artifacts)) == _theta(_fresh(ds, "numpy").run(program))

        compiler.layout = LAYOUT_ARRAYS
        compiler.compile(program)
        assert compiler.compile_stats.misses == 3 and compiler.compile_stats.hits == 0

    def test_least_recently_used_entry_is_evicted(self, own_ds):
        ds = own_ds
        compiler = IFAQCompiler(db=ds.db, query=ds.query, kernel_cache=KernelCache())

        def program(field, value):
            return Program(
                inits=(("p", Const(value)),),
                state="s",
                init=RecordLit(((field, V("p")),)),
                cond=Const(False),
                body=V("s"),
            )

        fields = [f"c{i}" for i in range(COMPILE_CACHE_SIZE + 1)]
        for name in fields:
            compiler.compile(program(name, 1.0))
        assert compiler.compile_stats.misses == COMPILE_CACHE_SIZE + 1
        assert compiler.compile_stats.evictions == 1
        assert compiler.run(program(fields[-1], 2.5))[fields[-1]] == 2.5
        assert compiler.compile_stats.hits == 1
        compiler.compile(program(fields[0], 1.0))  # the evicted one
        assert compiler.compile_stats.misses == COMPILE_CACHE_SIZE + 2

    def test_literals_of_different_types_do_not_share_an_entry(self, own_ds):
        """``Const(1) == Const(1.0) == Const(True)``: a key built on
        structural equality alone would merge these programs."""
        ds = own_ds
        compiler = IFAQCompiler(db=ds.db, query=ds.query, kernel_cache=KernelCache())
        values = [1, 1.0, True, 0.0, -0.0]
        results = [compiler.run(straight_line(RecordLit((("c", Const(v)),))))["c"] for v in values]
        assert compiler.compile_stats.misses == len(values) and compiler.compile_stats.hits == 0
        assert [type(r) for r in results] == [int, float, bool, float, float]
        assert [math.copysign(1.0, r) for r in results[3:]] == [1.0, -1.0]

    def test_concurrent_compiles_count_every_lookup(self, setup):
        ds, _ = setup
        compiler = IFAQCompiler(db=ds.db, query=ds.query, backend="numpy", kernel_cache=KernelCache())
        settings = [(alpha, iterations) for alpha, iterations in GRID for _ in range(6)]
        want = {s: _theta(_fresh(ds, "numpy").run(_lr(ds, ds.features, *s))) for s in GRID}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(lambda s=s: _theta(compiler.run(_lr(ds, ds.features, *s))))
                    for s in settings
                ]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[s] for s in settings]
        stats = compiler.compile_stats
        assert stats.hits + stats.misses == len(settings)
        assert 1 <= stats.misses <= 6

    def test_parameter_type_is_part_of_the_key(self, own_ds):
        ds = own_ds
        compiler = IFAQCompiler(db=ds.db, query=ds.query, kernel_cache=KernelCache())
        compiler.run(_lr(ds, ds.features, 0.05, 10))
        compiler.run(_lr(ds, ds.features, 1, 10))  # an int step size types differently
        assert compiler.compile_stats.misses == 2 and compiler.compile_stats.hits == 0


class TestResidualEnvironment:
    """``run_artifacts`` binds only the relations the residual still reads."""

    def test_empty_batch_residual_reads_a_relation(self, own_ds):
        ds = own_ds
        program = straight_line(
            sum_over("y", dom(V("Dim0")), Lookup(V("Dim0"), V("y")) * V("y").dot("a0_0"))
        )
        compiler = IFAQCompiler(db=ds.db, query=ds.query, kernel_cache=KernelCache())
        artifacts = compiler.compile(program)
        assert not len(artifacts.batch) and "Dim0" in artifacts.residual.free_vars()
        want = Interpreter(ds.db.to_env()).run_program(program)
        assert values_close(compiler.run_artifacts(artifacts), want)

    def test_materialized_fallback_residual_reads_a_relation(self, own_ds):
        ds = own_ds
        q = V("Q")
        program = Program(
            inits=(("Q", join_as_ifaq(ds.db.schema(), ds.query)),),
            state="s",
            init=Add(
                sum_over("x", dom(q), Lookup(q, V("x"))),
                sum_over("y", dom(V("Dim0")), Lookup(V("Dim0"), V("y")) * V("y").dot("a0_0")),
            ),
            cond=Const(False),
            body=V("s"),
        )
        compiler = IFAQCompiler(db=ds.db, query=ds.query, kernel_cache=KernelCache())
        artifacts = replace(compiler.compile(program), plan=None)
        assert len(artifacts.batch) and "Dim0" in artifacts.residual.free_vars()
        want = Interpreter(ds.db.to_env()).run_program(program)
        assert values_close(compiler.run_artifacts(artifacts), want)
