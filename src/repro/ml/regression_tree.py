"""Regression trees via CART over factorized joins (paper Section 3).

The cost of a candidate condition is the variance expression::

    cost(Q, δ′) = Σ Q(x)·y²·δ′ − (Σ Q(x)·y·δ′)² / Σ Q(x)·δ′

Unlike linear regression the aggregates depend on node-specific
conditions δ and cannot be hoisted; instead, every tree node issues one
*group-by* aggregate batch per feature — ``feature value → (count, Σy,
Σy²)`` — computed factorized over the join with the node's δ conditions
pushed into the scans of their owning relations.  Prefix sums over the
sorted groups then score every threshold of that feature in one pass.

Execution resolves through the backend registry exactly like the
compiler driver: the per-feature group-by plans compile once into
cached kernels, and every subsequent tree node is a
:class:`~repro.backend.cache.KernelCache` hit with only the δ
predicates changing at execution time.

Nodes below the depth cap cannot split, so they skip the split search:
a depth-cap leaf needs only its ``(count, Σy, Σy²)`` totals, which one
group-by of the first feature yields — one single-plan run instead of
the node's F-feature fused run, with the same numbers the fused run's
first member would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.aggregates.batch import variance_batch
from repro.aggregates.engine import Predicates, compute_groupby, compute_groupby_many
from repro.aggregates.join_tree import JoinTreeNode, build_join_tree
from repro.backend.cache import KernelCache
from repro.backend.plan import MultiBatchPlan, build_batch_plan
from repro.backend.registry import get_backend
from repro.db.database import Database
from repro.db.query import JoinQuery


@dataclass(frozen=True)
class Condition:
    """One decision ``x[feature] op threshold`` (op ∈ {"<=", ">"}).

    Numeric features split at a midpoint; categorical (string) features
    split at a value, ordered as the group-by sorts them.
    """

    feature: str
    op: str
    threshold: Any

    def holds(self, record: Mapping[str, Any]) -> bool:
        value = record[self.feature]
        if self.op == "<=":
            return value <= self.threshold
        if self.op == ">":
            return value > self.threshold
        raise ValueError(f"unknown condition operator {self.op!r}")

    # Conditions are used directly as per-relation predicates, so
    # structure-aware backends (numpy) can evaluate them vectorized
    # while the interpreted engine just calls them per record.
    __call__ = holds

    def __repr__(self) -> str:
        if isinstance(self.threshold, (int, float)):
            return f"x.{self.feature} {self.op} {self.threshold:g}"
        return f"x.{self.feature} {self.op} {self.threshold!r}"


@dataclass
class TreeNode:
    """A regression-tree node: either a split or a leaf prediction."""

    prediction: float
    count: float
    condition: Condition | None = None
    left: "TreeNode | None" = None  # condition holds
    right: "TreeNode | None" = None

    def is_leaf(self) -> bool:
        return self.condition is None

    def predict(self, record: Mapping[str, Any]) -> float:
        node = self
        while node.condition is not None:
            node = node.left if node.condition.holds(record) else node.right
            assert node is not None
        return node.prediction

    def node_count(self) -> int:
        if self.condition is None:
            return 1
        assert self.left is not None and self.right is not None
        return 1 + self.left.node_count() + self.right.node_count()

    def depth(self) -> int:
        if self.condition is None:
            return 1
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())

    def pretty(self, indent: int = 0) -> str:
        pad = " " * indent
        if self.condition is None:
            return f"{pad}leaf: {self.prediction:.4f} (n={self.count:g})"
        assert self.left is not None and self.right is not None
        return "\n".join(
            [
                f"{pad}if {self.condition}:",
                self.left.pretty(indent + 2),
                f"{pad}else:",
                self.right.pretty(indent + 2),
            ]
        )


@dataclass
class IFAQRegressionTree:
    """CART regression tree learned factorized, in-database.

    ``max_depth=4`` matches the paper's evaluation ("regression trees up
    to depth four, i.e. max 31 nodes").  ``max_thresholds`` caps the
    candidate-threshold count per feature per node (quantile
    subsampling); ``None`` scores every distinct value boundary.

    ``method`` selects the execution engine for the per-node group-by
    batches: ``"vectorized"`` (default) is the compiled-kernel analog —
    numpy bincounts over per-relation arrays with fact-aligned key codes
    (see :mod:`repro.ml.tree_engine`) — while ``"interpreted"`` issues
    the per-node group-by batches through the backend registry
    (``backend`` picks the executor, default ``"engine"``); the
    per-feature kernels compile once and every later node is a
    kernel-cache hit.  Both methods produce the same tree up to exact
    cost ties (see ROADMAP.md item 12): the vectorized scorer sums in
    numpy order, the interpreted one sequentially, so two candidates
    whose costs tie exactly in one may not tie in the other.

    Splits are searched only while ``depth ≤ max_depth``; a node below
    the cap is a leaf whose totals come from one group-by of the first
    feature (vectorized: straight from the node mask), not from the
    F-feature split search.

    With ``fuse_node_batches`` (default) the interpreted path submits
    all F feature group-bys of a node as **one fused**
    :class:`~repro.backend.plan.MultiBatchPlan` kernel, so backends
    share work across features — the numpy backend computes δ masks
    once per node and one bottom-up pass per owner relation instead of
    one per feature.  Results are identical either way; the unfused
    path is the per-feature oracle the end-to-end ``train_tree`` check
    refits with.
    """

    features: Sequence[str]
    label: str
    max_depth: int = 4
    min_samples_leaf: float = 1.0
    min_improvement: float = 1e-12
    max_thresholds: int | None = None
    method: str = "vectorized"
    #: backend name/instance for the group-by batches (``None``: the
    #: method's default — "numpy" vectorized, "engine" interpreted)
    backend: Any = None
    kernel_cache: KernelCache | None = None
    #: submit each node's F feature group-bys as one fused kernel
    fuse_node_batches: bool = True

    root_: TreeNode | None = None
    #: attribute → owning relation, fixed at fit time
    _owners: dict[str, str] = field(default_factory=dict)
    _groupby_plans: dict[str, Any] = field(default_factory=dict, repr=False)
    _multi_plan: Any = field(default=None, repr=False)
    _backend_impl: Any = field(default=None, repr=False)

    def fit(self, db: Database, query: JoinQuery) -> "IFAQRegressionTree":
        if self.method == "vectorized":
            from repro.ml.tree_engine import VectorizedTreeEngine

            engine = VectorizedTreeEngine(
                db,
                query,
                self.features,
                self.label,
                backend=self.backend if self.backend is not None else "numpy",
                kernel_cache=self.kernel_cache,
            )
            self.root_ = self._build_node_vectorized(engine, engine.full_mask(), depth=1)
        elif self.method == "interpreted":
            tree = build_join_tree(
                db.schema(), query.relations, stats=dict(db.statistics())
            )
            self._owners = _attribute_owners(db, tree, list(self.features))
            self._backend_impl = get_backend(
                self.backend if self.backend is not None else "engine"
            )
            # One group-by plan per feature, planned once: every tree
            # node below reuses the compiled kernel through the cache.
            # The distinct-key counts the planner orders children by
            # are memoized on the relations, so refits count none.
            batch = variance_batch(self.label)
            self._groupby_plans = {
                f: build_batch_plan(db, tree, batch, group_attr=f)
                for f in self.features
            }
            self._multi_plan = (
                MultiBatchPlan([self._groupby_plans[f] for f in self.features])
                if self.fuse_node_batches
                else None
            )
            self.root_ = self._build_node(db, tree, conditions=[], depth=1)
        else:
            raise ValueError(f"unknown tree method {self.method!r}")
        if self.root_ is None:
            raise ValueError("empty training dataset")
        return self

    # -- vectorized construction (compiled-kernel analog) -------------------

    def _build_node_vectorized(self, engine, mask, depth: int) -> TreeNode | None:
        import numpy as np

        node_count = float(engine.weights[mask].sum())
        if node_count <= 0:
            return None
        node_sum = float(engine.wy[mask].sum())
        node_sum_sq = float(engine.wy_sq[mask].sum())
        prediction = node_sum / node_count
        if depth > self.max_depth:
            return TreeNode(prediction=prediction, count=node_count)
        node_cost = node_sum_sq - node_sum * node_sum / node_count

        best: tuple[float, Condition] | None = None
        for feature in self.features:
            values, counts, sums, sums_sq = engine.groupby(feature, mask)
            split = self._best_split_arrays(feature, values, counts, sums, sums_sq)
            if split is not None and (best is None or split[0] < best[0]):
                best = split

        if best is None or node_cost - best[0] <= self.min_improvement:
            return TreeNode(prediction=prediction, count=node_count)

        condition = best[1]
        left_mask = mask & engine.condition_mask(condition.feature, "<=", condition.threshold)
        right_mask = mask & ~left_mask
        left = self._build_node_vectorized(engine, left_mask, depth + 1)
        right = self._build_node_vectorized(engine, right_mask, depth + 1)
        if left is None or right is None:
            return TreeNode(prediction=prediction, count=node_count)
        return TreeNode(
            prediction=prediction,
            count=node_count,
            condition=condition,
            left=left,
            right=right,
        )

    def _boundaries(self, n_groups: int) -> list[int]:
        """Candidate boundary indices, shared by both engines."""
        boundaries = list(range(1, n_groups))
        if self.max_thresholds is not None and n_groups - 1 > self.max_thresholds:
            step = (n_groups - 1) / self.max_thresholds
            sampled = sorted({int(round((i + 1) * step)) for i in range(self.max_thresholds)})
            boundaries = [b for b in sampled if 1 <= b < n_groups]
        return boundaries

    def _best_split_arrays(
        self, feature: str, values, counts, sums, sums_sq
    ) -> tuple[float, Condition] | None:
        import numpy as np

        if len(values) < 2:
            return None
        boundaries = np.asarray(self._boundaries(len(values)), dtype=int)
        if boundaries.size == 0:
            return None
        cum_n = np.cumsum(counts)
        cum_s = np.cumsum(sums)
        cum_ss = np.cumsum(sums_sq)
        total_n, total_s, total_ss = cum_n[-1], cum_s[-1], cum_ss[-1]

        left_n = cum_n[boundaries - 1]
        left_s = cum_s[boundaries - 1]
        left_ss = cum_ss[boundaries - 1]
        right_n = total_n - left_n
        right_s = total_s - left_s
        right_ss = total_ss - left_ss

        valid = (left_n >= self.min_samples_leaf) & (right_n >= self.min_samples_leaf)
        if not valid.any():
            return None
        with np.errstate(divide="ignore", invalid="ignore"):
            costs = (
                left_ss - left_s * left_s / left_n
                + right_ss - right_s * right_s / right_n
            )
        costs = np.where(valid, costs, np.inf)
        pick = int(np.argmin(costs))  # first minimum — same tie-break as
        b = int(boundaries[pick])     # the sequential strict-< scan
        lo, hi = values[b - 1 : b + 1].tolist()  # unboxed to Python values
        # Same threshold rule as the interpreted scorer: the midpoint
        # between numeric neighbours, the lower value for categories.
        threshold = (lo + hi) / 2 if isinstance(lo, (int, float)) else lo
        return float(costs[pick]), Condition(feature, "<=", threshold)

    # -- recursive construction ---------------------------------------------

    def _predicates(self, conditions: Sequence[Condition]) -> Predicates:
        by_relation: dict[str, list] = {}
        for cond in conditions:
            owner = self._owners[cond.feature]
            # Conditions are callable predicates; passing them unwrapped
            # lets the numpy backend evaluate them vectorized.
            by_relation.setdefault(owner, []).append(cond)
        return by_relation

    def _build_node(
        self,
        db: Database,
        tree: JoinTreeNode,
        conditions: list[Condition],
        depth: int,
    ) -> TreeNode | None:
        predicates = self._predicates(conditions)
        batch = variance_batch(self.label)

        # Root has depth 1; splits are allowed while depth ≤ max_depth,
        # giving at most 2^(max_depth+1) − 1 nodes (31 for depth 4).
        # Below the cap the node is a leaf: its totals come from one
        # group-by of the first feature — the same numbers the fused
        # bundle's first member yields — with no split search.
        if depth > self.max_depth:
            feature = self.features[0]
            groups = compute_groupby(
                db,
                tree,
                batch,
                feature,
                predicates,
                backend=self._backend_impl,
                kernel_cache=self.kernel_cache,
                plan=self._groupby_plans.get(feature),
            )
            if not groups:
                return None
            node_count, node_sum, _ = _totals(sorted(groups.items()))
            if node_count <= 0:
                return None
            return TreeNode(prediction=node_sum / node_count, count=node_count)

        best: tuple[float, Condition] | None = None
        node_count = node_sum = node_sum_sq = None

        # The node's F feature batches go out as one fused kernel so
        # the backend shares δ masks and value passes across features;
        # unfused falls back to one compute_groupby call per feature.
        if self._multi_plan is not None:
            node_groups = compute_groupby_many(
                db,
                tree,
                batch,
                list(self.features),
                predicates,
                backend=self._backend_impl,
                kernel_cache=self.kernel_cache,
                multi_plan=self._multi_plan,
            )
        else:
            node_groups = None

        for feature in self.features:
            if node_groups is not None:
                groups = node_groups[feature]
            else:
                groups = compute_groupby(
                    db,
                    tree,
                    batch,
                    feature,
                    predicates,
                    backend=self._backend_impl,
                    kernel_cache=self.kernel_cache,
                    plan=self._groupby_plans.get(feature),
                )
            if not groups:
                return None
            stats = sorted(groups.items())
            total = _totals(stats)
            if node_count is None:
                node_count, node_sum, node_sum_sq = total
            split = self._best_split(feature, stats, total)
            if split is not None and (best is None or split[0] < best[0]):
                best = split

        assert node_count is not None and node_sum is not None and node_sum_sq is not None
        if node_count <= 0:
            return None
        prediction = node_sum / node_count
        node_cost = node_sum_sq - node_sum * node_sum / node_count

        if best is None or node_cost - best[0] <= self.min_improvement:
            return TreeNode(prediction=prediction, count=node_count)

        condition = best[1]
        negation = Condition(condition.feature, ">", condition.threshold)
        left = self._build_node(db, tree, conditions + [condition], depth + 1)
        right = self._build_node(db, tree, conditions + [negation], depth + 1)
        if left is None or right is None:
            return TreeNode(prediction=prediction, count=node_count)
        return TreeNode(
            prediction=prediction,
            count=node_count,
            condition=condition,
            left=left,
            right=right,
        )

    def _best_split(
        self,
        feature: str,
        stats: list[tuple[Any, list[float]]],
        total: list[float],
    ) -> tuple[float, Condition] | None:
        """Score every threshold of one feature from its group-by stats.

        ``stats`` is sorted by feature value; a prefix sum yields the
        left-side aggregates of each candidate threshold, the
        complement the right side.  Cost is the summed variance
        expression from Section 3.
        """
        if len(stats) < 2:
            return None
        boundaries = self._boundaries(len(stats))

        best: tuple[float, Condition] | None = None
        prefix = [0.0, 0.0, 0.0]
        cursor = 0
        for b in boundaries:
            while cursor < b:
                g = stats[cursor][1]
                prefix[0] += g[0]
                prefix[1] += g[1]
                prefix[2] += g[2]
                cursor += 1
            left_n, left_s, left_ss = prefix
            right_n = total[0] - left_n
            right_s = total[1] - left_s
            right_ss = total[2] - left_ss
            if left_n < self.min_samples_leaf or right_n < self.min_samples_leaf:
                continue
            cost = (
                left_ss - left_s * left_s / left_n
                + right_ss - right_s * right_s / right_n
            )
            if best is None or cost < best[0]:
                lo = stats[b - 1][0]
                hi = stats[b][0]
                threshold = (lo + hi) / 2 if isinstance(lo, (int, float)) else lo
                best = (cost, Condition(feature, "<=", threshold))
        return best

    # -- inference -------------------------------------------------------------

    def predict(self, record: Mapping[str, Any]) -> float:
        if self.root_ is None:
            raise RuntimeError("model is not fitted")
        return self.root_.predict(record)


def _totals(stats: list[tuple[Any, list[float]]]) -> list[float]:
    """``(count, Σy, Σy²)`` over a node's sorted groups, summed in
    group order so every node computes its totals the same way."""
    return [sum(g[i] for _, g in stats) for i in range(3)]


def _attribute_owners(
    db: Database, tree: JoinTreeNode, attrs: Sequence[str]
) -> dict[str, str]:
    from repro.aggregates.engine import assign_attribute_owners

    return assign_attribute_owners(tree, db, attrs)
