"""The vectorized NumPy backend: lowering, shared column store, layout
reuse, fact alignment, block protocol, and fused multi-plan group-bys."""

import math

import numpy as np
import pytest

from repro.aggregates import build_join_tree, covar_batch, variance_batch
from repro.backend import (
    EngineBackend,
    KernelCache,
    MultiBatchPlan,
    NumpyBackend,
    ShardedBackend,
    available_backends,
    build_batch_plan,
    column_store,
    get_backend,
)
from repro.backend.layout import LAYOUT_SORTED
from repro.db import Database, Relation, RelationSchema
from repro.ir.types import INT, REAL


def _plan(db, query, batch=None):
    tree = build_join_tree(db.schema(), query.relations, stats=db.statistics())
    return build_batch_plan(
        db, tree, batch if batch is not None else covar_batch(["cityf", "price"], label="units")
    )


class TestRegistration:
    def test_numpy_is_registered(self):
        assert "numpy" in available_backends()
        assert isinstance(get_backend("numpy"), NumpyBackend)


class TestPlainBatches:
    def test_matches_engine(self, int_star_db, int_star_query):
        plan = _plan(int_star_db, int_star_query)
        engine = EngineBackend(aggregate_mode="merged")
        want = engine.execute(engine.compile_plan(plan, LAYOUT_SORTED), int_star_db)
        backend = NumpyBackend()
        got = backend.execute(backend.compile_plan(plan, LAYOUT_SORTED), int_star_db)
        assert set(got) == set(want)
        for name in want:
            assert math.isclose(got[name], want[name], rel_tol=1e-9), name

    def test_sharded_numpy_matches_single_shot(self, int_star_db, int_star_query):
        plan = _plan(int_star_db, int_star_query)
        backend = NumpyBackend()
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        single = backend.execute(kernel, int_star_db)
        for shards in (1, 2, 4):
            sharded = ShardedBackend(inner=backend, shards=shards).execute(
                kernel, int_star_db
            )
            for name in single:
                assert math.isclose(sharded[name], single[name], rel_tol=1e-9)

    def test_dangling_keys_are_dead_rows(self):
        """Fact rows joining no dimension tuple contribute nothing."""
        fact = Relation.from_rows(
            RelationSchema.of("F", [("k", INT), ("y", REAL)]),
            [(0, 2.0), (1, 3.0), (9, 100.0)],  # key 9 dangles
        )
        dim = Relation.from_rows(
            RelationSchema.of("D", [("k", INT), ("a", REAL)]),
            [(0, 1.0), (1, 10.0)],
        )
        db = Database.of(fact, dim)
        tree = build_join_tree(db.schema(), ("F", "D"))
        plan = build_batch_plan(db, tree, covar_batch(["a"], label="y"))
        backend = NumpyBackend()
        got = backend.execute(backend.compile_plan(plan, LAYOUT_SORTED), db)
        assert got["agg_count"] == 2.0
        assert got["agg_y"] == 5.0

    def test_duplicate_dimension_keys_join_as_bags(self):
        """Two dim rows per key: the join multiplies out, like the engine."""
        fact = Relation.from_rows(
            RelationSchema.of("F", [("k", INT), ("y", REAL)]), [(0, 2.0)]
        )
        dim = Relation.from_rows(
            RelationSchema.of("D", [("k", INT), ("a", REAL)]),
            [(0, 1.0), (0, 10.0)],
        )
        db = Database.of(fact, dim)
        tree = build_join_tree(db.schema(), ("F", "D"))
        plan = build_batch_plan(db, tree, covar_batch(["a"], label="y"))
        backend = NumpyBackend()
        got = backend.execute(backend.compile_plan(plan, LAYOUT_SORTED), db)
        assert got["agg_count"] == 2.0
        assert got["agg_a"] == 11.0
        assert got["agg_y"] == 4.0


class TestLayoutReuse:
    def test_layout_cached_per_database(self, int_star_db, int_star_query):
        plan = _plan(int_star_db, int_star_query)
        backend = NumpyBackend()
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        l1 = backend.prepared_layout(kernel, int_star_db)
        l2 = backend.prepared_layout(kernel, int_star_db)
        assert l1 is l2

    def test_new_database_rebuilds_layout(self, int_star_db, int_star_query):
        plan = _plan(int_star_db, int_star_query)
        backend = NumpyBackend()
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        l1 = backend.prepared_layout(kernel, int_star_db)
        other = Database(dict(int_star_db.relations))
        l2 = backend.prepared_layout(kernel, other)
        assert l1 is not l2


class TestColumnStoreSharing:
    def test_layouts_share_one_store_per_database(self, int_star_db, int_star_query):
        """F feature kernels over one database share one columnar copy."""
        backend = NumpyBackend()
        tree = build_join_tree(
            int_star_db.schema(), int_star_query.relations, stats=int_star_db.statistics()
        )
        batch = variance_batch("units")
        layouts = []
        for feature in ("price", "cityf"):
            plan = build_batch_plan(int_star_db, tree, batch, group_attr=feature)
            kernel = backend.compile_plan(plan, LAYOUT_SORTED)
            layouts.append(backend.prepared_layout(kernel, int_star_db))
        store = column_store(int_star_db)
        assert all(layout.store is store for layout in layouts)
        # The shared arrays are the same objects, not copies.
        assert layouts[0].nodes["S"].mult is layouts[1].nodes["S"].mult
        assert layouts[0].nodes["S"].records is layouts[1].nodes["S"].records

    def test_rerooted_plans_share_subtree_evaluations(
        self, int_star_db, int_star_query
    ):
        """Clean subtree results are memoized on the store by scan key."""
        backend = NumpyBackend()
        tree = build_join_tree(
            int_star_db.schema(), int_star_query.relations, stats=int_star_db.statistics()
        )
        batch = variance_batch("units")
        store = column_store(int_star_db)
        store.eval_cache.clear()
        for feature in ("price", "cityf"):
            plan = build_batch_plan(int_star_db, tree, batch, group_attr=feature)
            kernel = backend.compile_plan(plan, LAYOUT_SORTED)
            backend.run_groupby(kernel, int_star_db)
        # Both rerooted trees contain the same leaf subtrees; re-running
        # either kernel must not add new cache entries.
        n_entries = len(store.eval_cache)
        plan = build_batch_plan(int_star_db, tree, batch, group_attr="price")
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        backend.run_groupby(kernel, int_star_db)
        assert len(store.eval_cache) == n_entries


class TestBlockProtocol:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_sharded_plain_bit_identical(self, int_star_db, int_star_query, shards):
        plan = _plan(int_star_db, int_star_query)
        inner = NumpyBackend(block_size=16)  # force many blocks
        kernel = inner.compile_plan(plan, LAYOUT_SORTED)
        single = inner.execute(kernel, int_star_db)
        sharded = ShardedBackend(inner=inner, shards=shards).execute(
            kernel, int_star_db
        )
        assert sharded == single  # exact float equality, not isclose

    @pytest.mark.parametrize("shards", [1, 3, 5])
    def test_sharded_groupby_bit_identical(self, int_star_db, int_star_query, shards):
        tree = build_join_tree(
            int_star_db.schema(), int_star_query.relations, stats=int_star_db.statistics()
        )
        plan = build_batch_plan(
            int_star_db, tree, variance_batch("units"), group_attr="price"
        )
        inner = NumpyBackend(block_size=4)
        kernel = inner.compile_plan(plan, LAYOUT_SORTED)
        single = inner.run_groupby(kernel, int_star_db)
        sharded_backend = ShardedBackend(inner=inner, shards=shards)
        assert sharded_backend.run_groupby(kernel, int_star_db) == single

    def test_sparse_block_partials_match_dense(self, int_star_db, int_star_query):
        """Grouping by a near-unique column with tiny blocks takes the
        sparse partial path; results equal the one-block dense fold."""
        tree = build_join_tree(
            int_star_db.schema(), int_star_query.relations, stats=int_star_db.statistics()
        )
        # ~200 distinct float unit values, blocks of 8 rows → sparse.
        plan = build_batch_plan(
            int_star_db, tree, variance_batch("units"), group_attr="units"
        )
        dense = NumpyBackend(block_size=10**9)
        sparse = NumpyBackend(block_size=8)
        want = dense.run_groupby(dense.compile_plan(plan, LAYOUT_SORTED), int_star_db)
        got = sparse.run_groupby(sparse.compile_plan(plan, LAYOUT_SORTED), int_star_db)
        assert set(got) == set(want)
        for key in want:
            assert all(
                math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got[key], want[key])
            )

    def test_sharded_groupby_uses_blocks_not_subdatabases(
        self, int_star_db, int_star_query, monkeypatch
    ):
        """The shard path must reuse the shared store via the block
        protocol — no fresh shard databases, hence no store rebuilds."""
        import repro.backend.parallel as parallel
        from repro.backend.column_store import column_store_stats

        def no_shard_databases(*args, **kwargs):
            raise AssertionError("group-by took the sub-database path")

        monkeypatch.setattr(parallel, "shard_database", no_shard_databases)
        tree = build_join_tree(
            int_star_db.schema(), int_star_query.relations, stats=int_star_db.statistics()
        )
        plan = build_batch_plan(
            int_star_db, tree, variance_batch("units"), group_attr="price"
        )
        inner = NumpyBackend(block_size=8)
        kernel = inner.compile_plan(plan, LAYOUT_SORTED)
        sharded_backend = ShardedBackend(inner=inner, shards=4, mode="thread")
        single = inner.run_groupby(kernel, int_star_db)  # warms the store
        builds_before = column_store_stats().builds
        assert sharded_backend.run_groupby(kernel, int_star_db) == single
        assert column_store_stats().builds == builds_before


class TestFusedGroupbyMany:
    def _fused_kernel(self, db, query, features, backend, cache=None):
        tree = build_join_tree(db.schema(), query.relations, stats=db.statistics())
        batch = variance_batch("units")
        plans = [
            build_batch_plan(db, tree, batch, group_attr=f) for f in features
        ]
        mplan = MultiBatchPlan(plans)
        cache = cache if cache is not None else KernelCache()
        return cache.get_or_compile(backend, mplan, LAYOUT_SORTED)

    def test_fused_matches_per_member(self, int_star_db, int_star_query):
        backend = NumpyBackend()
        kernel = self._fused_kernel(
            int_star_db, int_star_query, ("price", "cityf", "store"), backend
        )
        fused = backend.run_groupby_many(kernel, int_star_db)
        for member, result in zip(kernel.entry, fused):
            assert result == backend.run_groupby(member, int_star_db)

    def test_scan_groups_fuse_same_owner_features(self, int_star_db, int_star_query):
        """Features owned by one relation share a single value pass."""
        backend = NumpyBackend()
        # item and store are join attributes owned by the root S, so
        # their plans share one scan; price reroots at Items.
        kernel = self._fused_kernel(
            int_star_db, int_star_query, ("item", "store", "price"), backend
        )
        groups = sorted(sorted(g) for g in kernel.meta["scan_groups"])
        assert groups == [[0, 1], [2]]

    def test_multi_kernel_is_cached(self, int_star_db, int_star_query):
        backend = NumpyBackend()
        cache = KernelCache()
        k1 = self._fused_kernel(
            int_star_db, int_star_query, ("price", "cityf"), backend, cache
        )
        k2 = self._fused_kernel(
            int_star_db, int_star_query, ("price", "cityf"), backend, cache
        )
        assert k1 is k2
        # 2 member misses + 1 bundle miss, then 1 bundle hit.
        assert cache.stats.misses == 3
        assert cache.stats.hits == 1

    def test_members_shared_with_single_plan_entries(self, int_star_db, int_star_query):
        """A feature kernel compiled alone is reused inside the bundle."""
        backend = NumpyBackend()
        cache = KernelCache()
        tree = build_join_tree(
            int_star_db.schema(), int_star_query.relations, stats=int_star_db.statistics()
        )
        batch = variance_batch("units")
        single_plan = build_batch_plan(int_star_db, tree, batch, group_attr="price")
        single = cache.get_or_compile(backend, single_plan, LAYOUT_SORTED)
        kernel = self._fused_kernel(
            int_star_db, int_star_query, ("price", "cityf"), backend, cache
        )
        assert kernel.entry[0] is single

    def test_compute_groupby_many_rejects_reordered_bundle(
        self, int_star_db, int_star_query
    ):
        from repro.aggregates import compute_groupby_many, variance_batch as vb

        tree = build_join_tree(
            int_star_db.schema(), int_star_query.relations, stats=int_star_db.statistics()
        )
        batch = vb("units")
        plans = [
            build_batch_plan(int_star_db, tree, batch, group_attr=f)
            for f in ("cityf", "price")
        ]
        with pytest.raises(ValueError, match="member order"):
            compute_groupby_many(
                int_star_db,
                tree,
                batch,
                ("price", "cityf"),  # reversed relative to the bundle
                multi_plan=MultiBatchPlan(plans),
            )

    def test_run_groupby_many_rejects_single_kernel(self, int_star_db, int_star_query):
        backend = NumpyBackend()
        tree = build_join_tree(
            int_star_db.schema(), int_star_query.relations, stats=int_star_db.statistics()
        )
        plan = build_batch_plan(
            int_star_db, tree, variance_batch("units"), group_attr="price"
        )
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        with pytest.raises(ValueError, match="not a multi-plan"):
            backend.run_groupby_many(kernel, int_star_db)

    def test_run_groupby_rejects_multi_kernel(self, int_star_db, int_star_query):
        backend = NumpyBackend()
        kernel = self._fused_kernel(
            int_star_db, int_star_query, ("price", "cityf"), backend
        )
        with pytest.raises(ValueError, match="multi-plan"):
            backend.run_groupby(kernel, int_star_db)

    @pytest.mark.parametrize("inner", ["engine", "python", "numpy"])
    def test_sharded_fused_matches_single_shot(
        self, int_star_db, int_star_query, inner
    ):
        backend = get_backend(inner)
        kernel = self._fused_kernel(
            int_star_db, int_star_query, ("price", "cityf"), backend
        )
        single = backend.run_groupby_many(kernel, int_star_db)
        sharded_backend = ShardedBackend(inner=backend, shards=3)
        got = sharded_backend.run_groupby_many(kernel, int_star_db)
        for a, b in zip(got, single):
            assert set(a) == set(b)
            for key in b:
                assert all(
                    math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
                    for x, y in zip(a[key], b[key])
                )


class TestFactAlignment:
    def test_fact_index_composes_through_dimensions(self, int_star_db, int_star_query):
        plan = _plan(int_star_db, int_star_query, variance_batch("units"))
        backend = NumpyBackend()
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        layout = backend.prepared_layout(kernel, int_star_db)
        col = layout.fact_column("R", "cityf")
        assert len(col) == layout.root.n_rows
        # Spot-check: each fact row's cityf equals its store's cityf.
        stores = {rec["store"]: rec["cityf"] for rec in int_star_db.relation("R").data}
        for i, rec in enumerate(layout.root.records[:20]):
            assert col[i] == stores[rec["store"]]

    def test_dangling_keys_raise_for_fact_alignment(self):
        fact = Relation.from_rows(
            RelationSchema.of("F", [("k", INT), ("y", REAL)]), [(0, 1.0), (9, 2.0)]
        )
        dim = Relation.from_rows(
            RelationSchema.of("D", [("k", INT), ("a", REAL)]), [(0, 1.0)]
        )
        db = Database.of(fact, dim)
        tree = build_join_tree(db.schema(), ("F", "D"))
        plan = build_batch_plan(db, tree, variance_batch("y"))
        backend = NumpyBackend()
        layout = backend.prepared_layout(backend.compile_plan(plan, LAYOUT_SORTED), db)
        with pytest.raises(ValueError, match="dangling"):
            layout.fact_index("D")


class TestPredicateMasks:
    def test_structured_conditions_vectorize(self, int_star_db, int_star_query):
        from repro.ml.regression_tree import Condition

        plan = _plan(int_star_db, int_star_query, variance_batch("units"))
        backend = NumpyBackend()
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        layout = backend.prepared_layout(kernel, int_star_db)
        cond = Condition("cityf", "<=", 3.0)
        masks = layout.predicate_masks({"R": [cond]})
        want = np.array(
            [rec["cityf"] <= 3.0 for rec in layout.nodes["R"].records]
        )
        assert np.array_equal(masks["R"], want)

    def test_opaque_callables_fall_back(self, int_star_db, int_star_query):
        plan = _plan(int_star_db, int_star_query, variance_batch("units"))
        backend = NumpyBackend()
        kernel = backend.compile_plan(plan, LAYOUT_SORTED)
        layout = backend.prepared_layout(kernel, int_star_db)
        masks = layout.predicate_masks({"R": [lambda rec: rec["cityf"] <= 3.0]})
        want = np.array(
            [rec["cityf"] <= 3.0 for rec in layout.nodes["R"].records]
        )
        assert np.array_equal(masks["R"], want)
