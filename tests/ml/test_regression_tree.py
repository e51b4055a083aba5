"""IFAQ regression tree: identical to the materialized CART baseline."""

import math

import numpy as np
import pytest

from repro.backend import KernelCache, NumpyBackend
from repro.data import star_schema
from repro.ml import (
    BaselineRegressionTree,
    Condition,
    IFAQRegressionTree,
    materialize_to_matrix,
    rmse,
)


@pytest.fixture(scope="module")
def dataset():
    return star_schema(n_facts=1200, n_dims=2, dim_size=12, attrs_per_dim=1, seed=6)


def trees_equal(a, b) -> bool:
    if a.is_leaf() != b.is_leaf():
        return False
    if a.is_leaf():
        return math.isclose(a.prediction, b.prediction, rel_tol=1e-9) and math.isclose(
            a.count, b.count
        )
    if a.condition.feature != b.condition.feature:
        return False
    if not math.isclose(a.condition.threshold, b.condition.threshold, rel_tol=1e-9):
        return False
    return trees_equal(a.left, b.left) and trees_equal(a.right, b.right)


class TestAgainstBaseline:
    def test_identical_tree_to_materialized_cart(self, dataset):
        """The paper: 'Scikit-learn and IFAQ learn very similar regression
        trees' — with a shared threshold strategy, ours are identical."""
        ds = dataset
        ifaq = IFAQRegressionTree(ds.features, ds.label, max_depth=3).fit(ds.db, ds.query)
        base = BaselineRegressionTree(ds.features, ds.label, max_depth=3).fit(ds.db, ds.query)
        assert trees_equal(ifaq.root_, base.root_)

    def test_depth_and_node_bounds(self, dataset):
        ds = dataset
        tree = IFAQRegressionTree(ds.features, ds.label, max_depth=4).fit(ds.db, ds.query)
        assert tree.root_.depth() <= 5  # 4 split levels + leaves
        assert tree.root_.node_count() <= 31

    def test_predictions_reduce_rmse_vs_mean(self, dataset):
        ds = dataset
        tree = IFAQRegressionTree(ds.features, ds.label, max_depth=4).fit(ds.db, ds.query)
        xt, yt = ds.test_matrix()
        preds = [
            tree.predict(dict(zip(ds.features, row))) for row in xt
        ]
        baseline_rmse = rmse(np.full_like(yt, yt.mean()), yt)
        assert rmse(preds, yt) < baseline_rmse

    def test_deeper_tree_fits_training_better(self, dataset):
        ds = dataset
        x, y = materialize_to_matrix(ds.db, ds.query, ds.features, ds.label)

        def train_rmse(depth):
            t = IFAQRegressionTree(ds.features, ds.label, max_depth=depth).fit(
                ds.db, ds.query
            )
            preds = [t.predict(dict(zip(ds.features, row))) for row in x]
            return rmse(preds, y)

        assert train_rmse(3) <= train_rmse(1) + 1e-12


class TestRegistryPath:
    """Tree training resolves group-by execution through the backend
    registry; per-node batches are kernel-cache hits after the first."""

    @pytest.mark.parametrize("backend", ["engine", "numpy"])
    def test_interpreted_backends_learn_identical_trees(self, dataset, backend):
        ds = dataset
        vec = IFAQRegressionTree(ds.features, ds.label, max_depth=3).fit(
            ds.db, ds.query
        )
        interp = IFAQRegressionTree(
            ds.features, ds.label, max_depth=3, method="interpreted", backend=backend
        ).fit(ds.db, ds.query)
        assert trees_equal(vec.root_, interp.root_)

    def test_per_node_groupbys_hit_kernel_cache(self, dataset):
        from repro.backend import KernelCache

        ds = dataset
        cache = KernelCache()
        tree = IFAQRegressionTree(
            ds.features,
            ds.label,
            max_depth=3,
            method="interpreted",
            backend="numpy",
            kernel_cache=cache,
        ).fit(ds.db, ds.query)
        # One compile per feature plus the fused bundle; every further
        # tree node reuses the bundle through the cache.
        assert cache.stats.misses == len(ds.features) + 1
        internal = tree.root_.node_count() - 1
        assert cache.stats.hits >= internal  # ≥ one hit per extra node visit
        assert cache.stats.hits > cache.stats.misses

    def test_vectorized_engine_kernel_is_cached(self, dataset):
        from repro.backend import KernelCache

        ds = dataset
        cache = KernelCache()
        for _ in range(2):
            IFAQRegressionTree(
                ds.features, ds.label, max_depth=2, kernel_cache=cache
            ).fit(ds.db, ds.query)
        assert cache.stats.misses == 1 and cache.stats.hits == 1


class CountingNumpyBackend(NumpyBackend):
    """Numpy backend that counts single and fused group-by runs."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.groupby_calls = 0
        self.groupby_many_calls = 0

    def run_groupby(self, kernel, db, predicates=None):
        self.groupby_calls += 1
        return super().run_groupby(kernel, db, predicates)

    def run_groupby_many(self, kernel, db, predicates=None):
        self.groupby_many_calls += 1
        return super().run_groupby_many(kernel, db, predicates)


def nodes_by_depth(node, depth=1):
    yield node, depth
    if not node.is_leaf():
        yield from nodes_by_depth(node.left, depth + 1)
        yield from nodes_by_depth(node.right, depth + 1)


class TestLeafRule:
    """A node below the depth cap is a leaf: it runs one single-plan
    group-by for its totals instead of the fused split search."""

    MAX_DEPTH = 3

    def fit(self, ds, **kwargs):
        return IFAQRegressionTree(
            ds.features,
            ds.label,
            max_depth=self.MAX_DEPTH,
            method="interpreted",
            kernel_cache=KernelCache(),
            **kwargs,
        ).fit(ds.db, ds.query)

    def test_one_fused_run_per_internal_node(self, dataset):
        backend = CountingNumpyBackend()
        root = self.fit(dataset, backend=backend).root_
        depths = list(nodes_by_depth(root))
        internal = sum(1 for node, _ in depths if not node.is_leaf())
        capped = sum(1 for node, d in depths if d > self.MAX_DEPTH)
        searched = sum(1 for _, d in depths if d <= self.MAX_DEPTH)
        assert capped > 0 and searched == internal  # a full depth-3 tree
        assert backend.groupby_many_calls == internal
        assert backend.groupby_calls == capped

    def test_unfused_leaves_run_one_groupby(self, dataset):
        backend = CountingNumpyBackend()
        root = self.fit(dataset, backend=backend, fuse_node_batches=False).root_
        depths = list(nodes_by_depth(root))
        internal = sum(1 for node, _ in depths if not node.is_leaf())
        capped = sum(1 for _, d in depths if d > self.MAX_DEPTH)
        assert backend.groupby_many_calls == 0
        assert backend.groupby_calls == internal * len(dataset.features) + capped

    def test_same_tree_unfused_and_on_engine(self, dataset):
        fused = self.fit(dataset, backend="numpy").root_
        assert fused == self.fit(dataset, backend="numpy", fuse_node_batches=False).root_
        assert fused == self.fit(dataset, backend="engine").root_

    def test_vectorized_leaves_skip_feature_groupbys(self, dataset, monkeypatch):
        from repro.ml.tree_engine import VectorizedTreeEngine

        calls = []
        original = VectorizedTreeEngine.groupby
        monkeypatch.setattr(
            VectorizedTreeEngine,
            "groupby",
            lambda engine, feature, mask: calls.append(feature) or original(engine, feature, mask),
        )
        root = IFAQRegressionTree(
            dataset.features, dataset.label, max_depth=self.MAX_DEPTH
        ).fit(dataset.db, dataset.query).root_
        searched = sum(1 for _, d in nodes_by_depth(root) if d <= self.MAX_DEPTH)
        assert len(calls) == searched * len(dataset.features)


class TestCategoricalFeature:
    """String features split at a category value, on every path."""

    FEATURES = ["store", "item", "price"]

    @pytest.mark.parametrize("backend", ["engine", "numpy"])
    def test_vectorized_equals_interpreted(self, paper_db, paper_query, backend):
        vec = IFAQRegressionTree(self.FEATURES, "units", max_depth=3).fit(
            paper_db, paper_query
        )
        interp = IFAQRegressionTree(
            self.FEATURES, "units", max_depth=3, method="interpreted", backend=backend
        ).fit(paper_db, paper_query)
        assert vec.root_ == interp.root_
        assert isinstance(vec.root_.condition.threshold, str)

    def test_pretty_and_repr(self, paper_db, paper_query):
        tree = IFAQRegressionTree(["store"], "units", max_depth=1).fit(paper_db, paper_query)
        assert repr(tree.root_.condition) == "x.store <= 's1'"
        assert "if x.store <= 's1':" in tree.root_.pretty()
        assert repr(Condition("a", "<=", 1.5)) == "x.a <= 1.5"


class TestMechanics:
    def test_condition_semantics(self):
        c = Condition("a", "<=", 1.5)
        assert c.holds({"a": 1.5})
        assert not c.holds({"a": 2.0})
        assert Condition("a", ">", 1.5).holds({"a": 2.0})

    def test_condition_is_callable_predicate(self):
        c = Condition("a", "<=", 1.5)
        assert c({"a": 1.0}) and not c({"a": 2.0})

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            Condition("a", "~", 1.0).holds({"a": 1.0})

    def test_max_thresholds_subsampling(self, dataset):
        ds = dataset
        full = IFAQRegressionTree(ds.features, ds.label, max_depth=2).fit(ds.db, ds.query)
        sub = IFAQRegressionTree(
            ds.features, ds.label, max_depth=2, max_thresholds=4
        ).fit(ds.db, ds.query)
        # subsampled tree is still a valid tree of bounded depth
        assert sub.root_.depth() <= 3
        assert sub.root_.node_count() <= full.root_.node_count() + 6

    def test_min_samples_leaf_respected(self, dataset):
        ds = dataset

        def check(node, minimum):
            if node.is_leaf():
                assert node.count >= minimum
            else:
                check(node.left, minimum)
                check(node.right, minimum)

        tree = IFAQRegressionTree(
            ds.features, ds.label, max_depth=4, min_samples_leaf=50
        ).fit(ds.db, ds.query)
        check(tree.root_, 50)

    def test_pretty_renders(self, dataset):
        ds = dataset
        tree = IFAQRegressionTree(ds.features, ds.label, max_depth=1).fit(ds.db, ds.query)
        text = tree.root_.pretty()
        assert "if" in text or "leaf" in text

    def test_unfitted_predict_raises(self, dataset):
        with pytest.raises(RuntimeError):
            IFAQRegressionTree(dataset.features, dataset.label).predict({})
