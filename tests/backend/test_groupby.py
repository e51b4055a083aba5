"""Group-by batches as first-class plannable kernels.

The same group-by plan runs through every backend — engine, generated
Python, C++, numpy, sharded — and each agrees with the interpreted
:func:`compute_groupby_tree` oracle.
"""

import math

import pytest

from repro.aggregates import (
    COUNT,
    AggregateBatch,
    AggregateSpec,
    build_join_tree,
    compute_groupby,
    compute_groupby_tree,
    variance_batch,
)
from repro.aggregates.engine import apply_predicates, compute_batch_mode
from repro.backend import (
    CppKernelBackend,
    EngineBackend,
    KernelCache,
    NumpyBackend,
    ProcessKernelExecutor,
    PythonKernelBackend,
    ShardedBackend,
    build_batch_plan,
    get_backend,
)
from repro.backend.layout import LAYOUT_ARRAYS, LAYOUT_SORTED
from repro.ml.regression_tree import Condition

#: δ predicates for the plain twins: on a dimension and on the root (S)
PLAIN_PREDICATES = {
    "dimension": {"I": [Condition("price", "<=", 25.0)]},
    "root": {"S": [Condition("units", ">", 5.0)]},
}


@pytest.fixture(scope="module")
def pool():
    executor = ProcessKernelExecutor(workers=2)
    yield executor
    executor.shutdown()


def _single_backend(name):
    # Small blocks so the 200-row fixture spans several of them.
    return {
        "engine": EngineBackend,
        "python": lambda: PythonKernelBackend(block_size=16),
        "numpy": lambda: NumpyBackend(block_size=16),
        "cpp": CppKernelBackend,
    }[name]()


def _tree(db, query):
    return build_join_tree(db.schema(), query.relations, stats=db.statistics())


def _batch():
    return AggregateBatch.of([COUNT, AggregateSpec.of("units")])


def assert_groups_close(got, want):
    assert set(got) == set(want)
    for key in want:
        assert all(
            math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
            for a, b in zip(got[key], want[key])
        ), key


class TestGroupByPlan:
    def test_reroots_at_group_owner(self, int_star_db, int_star_query):
        tree = _tree(int_star_db, int_star_query)
        plan = build_batch_plan(int_star_db, tree, _batch(), group_attr="price")
        assert plan.is_groupby
        assert plan.root.relation == "I"  # price lives in Items

    def test_group_column_in_root_columns(self, int_star_db, int_star_query):
        tree = _tree(int_star_db, int_star_query)
        plan = build_batch_plan(int_star_db, tree, _batch(), group_attr="price")
        assert "price" in plan.root.columns

    def test_fingerprint_distinguishes_group_attr(self, int_star_db, int_star_query):
        tree = _tree(int_star_db, int_star_query)
        plain = build_batch_plan(int_star_db, tree, _batch())
        by_units = build_batch_plan(int_star_db, tree, _batch(), group_attr="units")
        by_cityf = build_batch_plan(int_star_db, tree, _batch(), group_attr="cityf")
        fps = {p.fingerprint(LAYOUT_SORTED, "x") for p in (plain, by_units, by_cityf)}
        assert len(fps) == 3

    def test_fingerprint_stable_across_nodes(self, int_star_db, int_star_query):
        """The tree learner's per-node plans for one feature collide —
        that is what turns per-node group-bys into cache hits."""
        tree = _tree(int_star_db, int_star_query)
        p1 = build_batch_plan(int_star_db, tree, _batch(), group_attr="price")
        p2 = build_batch_plan(int_star_db, tree, _batch(), group_attr="price")
        assert p1.fingerprint(LAYOUT_SORTED, "x") == p2.fingerprint(LAYOUT_SORTED, "x")


class TestBackendsAgree:
    @pytest.mark.parametrize("backend_name", ["engine", "python", "numpy"])
    @pytest.mark.parametrize("group_attr", ["store", "price", "cityf"])
    def test_matches_interpreted_oracle(
        self, int_star_db, int_star_query, backend_name, group_attr
    ):
        tree = _tree(int_star_db, int_star_query)
        want = compute_groupby_tree(int_star_db, tree, _batch(), group_attr)
        got = compute_groupby(
            int_star_db,
            tree,
            _batch(),
            group_attr,
            backend=backend_name,
            kernel_cache=KernelCache(),
        )
        assert_groups_close(got, want)

    @pytest.mark.cpp
    @pytest.mark.parametrize("group_attr", ["store", "price"])
    def test_cpp_matches_oracle(self, int_star_db, int_star_query, group_attr):
        tree = _tree(int_star_db, int_star_query)
        want = compute_groupby_tree(int_star_db, tree, _batch(), group_attr)
        got = compute_groupby(
            int_star_db,
            tree,
            _batch(),
            group_attr,
            backend="cpp",
            kernel_cache=KernelCache(),
        )
        assert_groups_close(got, want)

    @pytest.mark.parametrize("backend_name", ["engine", "python", "numpy"])
    def test_predicates_push_into_scans(
        self, int_star_db, int_star_query, backend_name
    ):
        tree = _tree(int_star_db, int_star_query)
        predicates = {"R": [lambda rec: rec["cityf"] < 3.0]}
        want = compute_groupby_tree(int_star_db, tree, _batch(), "price", predicates)
        got = compute_groupby(
            int_star_db,
            tree,
            _batch(),
            "price",
            predicates,
            backend=backend_name,
            kernel_cache=KernelCache(),
        )
        assert_groups_close(got, want)

    @pytest.mark.parametrize("where", sorted(PLAIN_PREDICATES))
    @pytest.mark.parametrize(
        "backend_name",
        ["engine", "python", "numpy", pytest.param("cpp", marks=pytest.mark.cpp)],
    )
    def test_plain_predicates_push_into_scans(
        self, int_star_db, int_star_query, backend_name, where
    ):
        """The plain twin: ``execute`` takes δ predicates like
        ``run_groupby``.  Filtering backends equal their own run on the
        filtered database; numpy masks in-scan, so blocks keep their
        unfiltered boundaries and root predicates may move the last bits."""
        predicates = PLAIN_PREDICATES[where]
        tree = _tree(int_star_db, int_star_query)
        plan = build_batch_plan(int_star_db, tree, _batch())
        backend = _single_backend(backend_name)
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        got = backend.execute(kernel, int_star_db, predicates)
        want = compute_batch_mode(int_star_db, tree, _batch(), predicates=predicates)
        assert set(got) == set(want)
        assert all(math.isclose(got[k], want[k], rel_tol=1e-9) for k in want)
        if backend_name != "numpy":
            filtered = apply_predicates(int_star_db, predicates)
            assert got == backend.execute(kernel, filtered)

    @pytest.mark.parametrize("where", sorted(PLAIN_PREDICATES))
    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("inner", ["python", "numpy"])
    def test_plain_predicates_sharded(
        self, pool, int_star_db, int_star_query, inner, mode, where
    ):
        predicates = PLAIN_PREDICATES[where]
        plan = build_batch_plan(int_star_db, _tree(int_star_db, int_star_query), _batch())
        single = _single_backend(inner)
        kernel = single.compile_plan(plan, LAYOUT_SORTED)
        sharded = ShardedBackend(inner=single, shards=2, mode=mode, executor=pool)
        got = sharded.execute(kernel, int_star_db, predicates)
        assert got == single.execute(kernel, int_star_db, predicates)

    @pytest.mark.parametrize("inner", ["engine", "python", "numpy"])
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_sharded_merges_under_ring_monoid(
        self, int_star_db, int_star_query, inner, shards
    ):
        tree = _tree(int_star_db, int_star_query)
        plan = build_batch_plan(int_star_db, tree, _batch(), group_attr="price")
        backend = ShardedBackend(inner=inner, shards=shards)
        kernel = KernelCache().get_or_compile(backend, plan, LAYOUT_SORTED)
        got = backend.run_groupby(kernel, int_star_db)
        want = compute_groupby_tree(int_star_db, tree, _batch(), "price")
        assert_groups_close(got, want)


class TestKernelReuse:
    def test_repeated_groupbys_hit_cache(self, int_star_db, int_star_query):
        tree = _tree(int_star_db, int_star_query)
        cache = KernelCache()
        for _ in range(4):
            compute_groupby(
                int_star_db, tree, _batch(), "price", kernel_cache=cache
            )
        assert cache.stats.misses == 1
        assert cache.stats.hits == 3

    def test_predicates_do_not_fragment_the_cache(self, int_star_db, int_star_query):
        tree = _tree(int_star_db, int_star_query)
        cache = KernelCache()
        for bound in (1.0, 2.0, 3.0):
            compute_groupby(
                int_star_db,
                tree,
                _batch(),
                "price",
                {"R": [lambda rec, b=bound: rec["cityf"] < b]},
                backend="numpy",
                kernel_cache=cache,
            )
        assert cache.stats.misses == 1 and cache.stats.hits == 2


class TestGuards:
    def test_execute_rejects_groupby_kernel(self, int_star_db, int_star_query):
        tree = _tree(int_star_db, int_star_query)
        plan = build_batch_plan(int_star_db, tree, _batch(), group_attr="price")
        for name in ("engine", "python", "numpy"):
            backend = get_backend(name)
            kernel = backend.compile_plan(plan, LAYOUT_ARRAYS)
            with pytest.raises(ValueError, match="group-by"):
                backend.execute(kernel, int_star_db)

    def test_run_groupby_rejects_plain_kernel(self, int_star_db, int_star_query):
        tree = _tree(int_star_db, int_star_query)
        plan = build_batch_plan(int_star_db, tree, _batch())
        for name in ("engine", "python", "numpy"):
            backend = get_backend(name)
            kernel = backend.compile_plan(plan, LAYOUT_ARRAYS)
            with pytest.raises(ValueError, match="not a group-by"):
                backend.run_groupby(kernel, int_star_db)

    def test_backends_without_groupby_raise(self, int_star_db, int_star_query):
        from repro.backend.base import ExecutionBackend

        class Plain(ExecutionBackend):
            name = "plain"

            def compile_plan(self, plan, layout):
                raise NotImplementedError

            def execute(self, kernel, db):
                raise NotImplementedError

        tree = _tree(int_star_db, int_star_query)
        plan = build_batch_plan(int_star_db, tree, _batch(), group_attr="price")
        kernel = get_backend("numpy").compile_plan(plan, LAYOUT_ARRAYS)
        with pytest.raises(NotImplementedError, match="plain"):
            Plain().run_groupby(kernel, int_star_db)
