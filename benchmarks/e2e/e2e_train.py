"""Training workloads: ``train_lr``, ``train_tree``, ``train_cpp``.

Single-threaded; each runs ops until the run's time is up.  Oracles run
after timing; every mismatch counts as a failed op.
"""

from __future__ import annotations

import random

import numpy as np

from repro import IFAQCompiler, KernelCache
from repro.aggregates import build_join_tree, covar_batch, extract_program_aggregates, variance_batch
from repro.aggregates.engine import assign_attribute_owners
from repro.backend import (
    build_batch_plan,
    column_store,
    evict_column_store,
    get_backend,
)
from repro.backend.cache import default_kernel_cache
from repro.backend.column_store import column_store_stats, reset_column_store_stats
from repro.backend.layout import LAYOUT_SORTED
from repro.data import favorita, retailer
from repro.interp import Interpreter
from repro.ir.traversal import count_nodes
from repro.ml import IFAQLinearRegression, IFAQRegressionTree
from repro.ml.baselines import materialize_to_matrix
from repro.ml.programs import linear_regression_bgd
from repro.opt.pipeline import HighLevelOptimizer
from repro.runtime.values import RecordValue
from repro.typing import schema_specialize, typecheck_program

from e2e_harness import Run, fingerprint_us, median, now

#: (iterations, alpha) per position in a cold→warm… group: a re-train is a
#: new program (other alpha) of the same cost.  Raw BGD over unscaled
#: features only stays finite for tiny steps.
LR_SETTINGS = [(20, 5e-14), (20, 2e-14), (20, 1e-14)]


def _features_by_owner(ds) -> list[list[str]]:
    """The dataset's features, grouped by the relation that owns them."""
    tree = build_join_tree(ds.db.schema(), ds.query.relations, stats=dict(ds.db.statistics()))
    owners = assign_attribute_owners(tree, ds.db, ds.features)
    by_owner: dict[str, list[str]] = {}
    for feature in ds.features:
        by_owner.setdefault(owners[feature], []).append(feature)
    return list(by_owner.values())


def _balanced_sample(rng: random.Random, groups: list[list[str]], k: int) -> list[str]:
    """``k`` features, the same number from each owner group.

    Which relation owns a feature decides what a group-by or a covar term
    over it costs; a balanced draw lets the seed pick *which* features an
    op uses without changing how much work the op is.
    """
    picked = [f for group in groups for f in rng.sample(group, min(len(group), k // len(groups)))]
    rest = [f for group in groups for f in group if f not in picked]
    return picked + rng.sample(rest, k - len(picked))


def _store_counters(run: Run, ops: int) -> None:
    stats = column_store_stats()
    run.layer["backend.column_store.builds_per_op"] = stats.builds / max(1, ops)
    run.layer["backend.column_store.hits_per_op"] = stats.hits / max(1, ops)


def _cache_counters(run: Run, stats, ops: int) -> None:
    """``stats``: the CacheStats of every kernel cache the ops went through
    (the caches themselves are dropped: their kernels pin column stores)."""
    run.layer["backend.cache.hits_per_op"] = sum(s.hits for s in stats) / max(1, ops)
    run.layer["backend.cache.misses_per_op"] = sum(s.misses for s in stats) / max(1, ops)


# -- train_lr -------------------------------------------------------------------


def _lr_program(ds, feats, setting):
    iterations, alpha = setting
    return linear_regression_bgd(
        ds.db.schema(), ds.query, feats, ds.label, iterations=iterations, alpha=alpha
    )


def _theta(state) -> dict[str, float]:
    theta = state["theta"]
    return {name: theta[name] for name in theta.field_names()}


def _staged_lr(tr, compiler: IFAQCompiler, program, frontend: dict) -> dict[str, float]:
    """``IFAQCompiler.run`` replayed stage by stage, one span per layer;
    ``frontend`` collects what the stages produced (IR size, batch, plan)."""
    db = compiler.db
    stats = dict(db.statistics())
    with tr.span("opt.optimize"):
        optimized = HighLevelOptimizer(stats=stats).optimize_program(program)
    relation_types = {rel.name: rel.schema.ifaq_type() for rel in db}
    with tr.span("typing.specialize"):
        specialized = schema_specialize(optimized, relation_types)
    with tr.span("typing.typecheck"):
        typecheck_program(specialized, relation_types)
    with tr.span("aggregates.extract"):
        residual, batch = extract_program_aggregates(specialized, q_var=compiler.q_var)
    with tr.span("aggregates.join_tree"):
        tree = build_join_tree(db.schema(), compiler.query.relations, stats=stats)
    with tr.span("backend.plan.build"):
        plan = build_batch_plan(db, tree, batch)
    backend = compiler.backend_impl
    kernel = compiler.kernel_cache.get_or_compile(backend, plan, compiler.layout)
    aggs = backend.execute(kernel, db)
    env = db.to_env()
    env["__aggs"] = RecordValue(aggs)
    with tr.span("interp.residual"):
        state = Interpreter(env).run_program(residual)
    frontend["ir_nodes"].append(count_nodes(optimized.as_expr()))
    frontend["batch_sizes"].append(len(batch))
    frontend["plan"] = plan
    return _theta(state)


def _reference_theta(x: np.ndarray, y: np.ndarray, setting) -> np.ndarray:
    """The BGD program evaluated over the materialized join with numpy."""
    iterations, alpha = setting
    theta = np.zeros(x.shape[1])
    for _ in range(iterations):
        theta = theta - (alpha / len(y)) * (x.T @ (x @ theta - y))
    return theta


def train_lr(run: Run) -> None:
    sizes, tr = run.sizes, run.tracer
    rng = random.Random(run.seed)

    for rep in range(run.setup_reps):
        ds = compiler = None
        with run.timed_setup():
            ds = retailer(scale=sizes["scale"], seed=run.seed)
            groups = _features_by_owner(ds)
            compiler = IFAQCompiler(
                db=ds.db, query=ds.query, backend="numpy", kernel_cache=KernelCache()
            )
            # Warm-up on a subset of its own: fills the column store's base
            # columns and imports every lazily loaded module.
            warm_feats = _balanced_sample(random.Random(run.seed + 1000 + rep), groups, sizes["features"])
            started = now()
            compiler.run(_lr_program(ds, warm_feats, LR_SETTINGS[0]))
            first_run = now() - started
    run.layer["backend.column_store.first_run_s"] = first_run
    reset_column_store_stats()

    cache_stats = []
    done: list[tuple] = []  # (features, setting, theta)
    frontend = {"ir_nodes": [], "batch_sizes": [], "plan": None}

    def new_subset():
        # A cold op meets an empty kernel cache and column store.  Evicting
        # also keeps memory independent of how many subsets fit into the
        # run: the store memoizes per subset and kernels pin its arrays.
        compiler.kernel_cache = KernelCache()
        cache_stats.append(compiler.kernel_cache.stats)
        evict_column_store(ds.db)
        return _balanced_sample(rng, groups, sizes["features"])

    def train(feats, position):
        setting = LR_SETTINGS[position % len(LR_SETTINGS)]
        program = _lr_program(ds, feats, setting)
        if tr.enabled:
            theta = _staged_lr(tr, compiler, program, frontend)
        else:
            theta = _theta(compiler.run(program))
        done.append((feats, setting, theta))

    run.loop(train, 1 + sizes["warm_per_cold"], new_subset, first_is_cold=True)

    _cache_counters(run, cache_stats, len(done))
    _store_counters(run, len(done))
    run.layer["backend.column_store.approx_bytes"] = column_store(ds.db).stats()["approx_bytes"]

    # Oracle: a seeded sample of the trained models against numpy BGD over
    # the materialized join (an evaluation that shares no code with IFAQ).
    x_all, y = materialize_to_matrix(ds.db, ds.query, ds.features, ds.label)
    column = {f: i for i, f in enumerate(ds.features)}
    for feats, setting, theta in random.Random(run.seed).sample(done, min(4, len(done))):
        want = _reference_theta(x_all[:, [column[f] for f in feats]], y, setting)
        got = np.array([theta[f] for f in feats])
        run.check(
            bool(np.all(np.isfinite(got))) and np.allclose(got, want, rtol=1e-6, atol=0.0),
            f"train_lr theta differs from the materialized reference for {feats}",
        )

    if tr.enabled:
        # The staged replay must be the program IFAQCompiler.run executes.
        feats, setting, theta = done[-1]
        run.check(
            _theta(compiler.run(_lr_program(ds, feats, setting))) == theta,
            "staged replay and IFAQCompiler.run disagree on theta",
        )
        for name, span in (
            ("opt.optimize_s", "opt.optimize"),
            ("typing.specialize_s", "typing.specialize"),
            ("typing.typecheck_s", "typing.typecheck"),
            ("aggregates.extract_s", "aggregates.extract"),
            ("aggregates.join_tree_s", "aggregates.join_tree"),
            ("backend.plan.build_s", "backend.plan.build"),
            ("backend.numpy_backend.execute_s", "backend.numpy_backend.execute"),
            ("interp.residual_s", "interp.residual"),
        ):
            run.layer[name] = median(tr.seconds(span))
        run.layer["opt.ir_nodes_out"] = median(frontend["ir_nodes"])
        run.layer["aggregates.batch_size"] = median(frontend["batch_sizes"])
        run.layer["backend.plan.fingerprint_us"] = fingerprint_us(frontend["plan"], compiler.backend_impl)


# -- train_tree -----------------------------------------------------------------


def _fit_tree(ds, feats, depth, max_thresholds, backend, cache, fuse=True):
    model = IFAQRegressionTree(
        features=feats,
        label=ds.label,
        max_depth=depth,
        max_thresholds=max_thresholds,
        method="interpreted",
        backend=backend,
        kernel_cache=cache,
        fuse_node_batches=fuse,
    )
    return model.fit(ds.db, ds.query).root_


def train_tree(run: Run) -> None:
    sizes, tr = run.sizes, run.tracer
    rng = random.Random(run.seed)
    thresholds = [64, 32, 48]  # cold fit, then the warm refits

    for _rep in range(run.setup_reps):
        datasets = None
        with run.timed_setup():
            datasets = [
                (favorita(scale=sizes["scale"], seed=run.seed), sizes["favorita_features"]),
                (retailer(scale=sizes["scale"], seed=run.seed), sizes["retailer_features"]),
            ]
            groups = [_features_by_owner(ds) for ds, _k in datasets]
            first_run = 0.0
            for ds, k in datasets:  # warm the stores with one throw-away fit each
                started = now()
                _fit_tree(ds, ds.features[:k], sizes["depth"], 16, "numpy", KernelCache())
                first_run += now() - started
    run.layer["backend.column_store.first_run_s"] = first_run
    reset_column_store_stats()

    cache_stats = []
    done: list[tuple] = []  # (dataset, features, max_thresholds, tree)

    def new_subsets():
        cache = KernelCache()
        cache_stats.append(cache.stats)
        return cache, [_balanced_sample(rng, g, k) for g, (_ds, k) in zip(groups, datasets)]

    def fit_pair(group, position):
        cache, subsets = group
        for (ds, _k), feats in zip(datasets, subsets):
            tree = _fit_tree(ds, feats, sizes["depth"], thresholds[position % 3], "numpy", cache)
            done.append((ds, feats, thresholds[position % 3], tree))

    run.loop(fit_pair, 1 + sizes["warm_per_cold"], new_subsets, first_is_cold=True)

    _cache_counters(run, cache_stats, run.measured_ops)
    _store_counters(run, run.measured_ops)
    run.layer["backend.column_store.approx_bytes"] = sum(
        column_store(ds.db).stats()["approx_bytes"] for ds, _ in datasets
    )
    run.layer["ml.tree.nodes_per_fit"] = median([t.node_count() for *_, t in done])

    # Oracle: a seeded sample refitted sequentially, one unfused group-by per
    # feature per node against a fresh cache; the trees must be equal.
    for ds, feats, max_thresholds, tree in random.Random(run.seed).sample(done, min(3, len(done))):
        reference = _fit_tree(ds, feats, sizes["depth"], max_thresholds, "numpy", KernelCache(), fuse=False)
        run.check(tree == reference, f"train_tree fused fit differs from the sequential refit on {ds.name}")

    if tr.enabled:
        many = median(tr.seconds("backend.numpy_backend.groupby_many"))
        run.layer["backend.numpy_backend.groupby_many_s"] = many
        run.layer["ml.tree.groupby_calls_per_fit"] = (
            tr.count("backend.numpy_backend.groupby_many", run.window) / len(done)
        )
        ds, k = datasets[1]
        fact_rows = len(ds.db.relation(ds.query.relations[0]).data)
        run.layer["backend.numpy_backend.rows_per_s"] = fact_rows / many if many else 0.0
        tree = build_join_tree(ds.db.schema(), ds.query.relations, stats=dict(ds.db.statistics()))
        key_stats: dict = {}
        started = now()
        plans = [
            build_batch_plan(ds.db, tree, variance_batch(ds.label), group_attr=attr, key_stats=key_stats)
            for attr in ds.features[:k]
        ]
        run.layer["backend.plan.build_s"] = (now() - started) / k
        run.layer["backend.plan.fingerprint_us"] = fingerprint_us(plans[0], get_backend("numpy"))
        vectorized = []
        for ds, k in datasets:
            for _ in range(2):
                t0 = now()
                IFAQRegressionTree(
                    features=ds.features[:k], label=ds.label,
                    max_depth=sizes["depth"], max_thresholds=64,
                ).fit(ds.db, ds.query)
                vectorized.append(now() - t0)
        run.layer["ml.tree_vectorized_fit_s"] = median(vectorized)


# -- train_cpp ------------------------------------------------------------------


def _same_tree(a, b, rel: float = 1e-9) -> bool:
    """Structural equality with float tolerance (backends associate sums
    differently, so cross-backend trees agree to rounding only)."""
    if a.is_leaf() != b.is_leaf():
        return False
    close = lambda x, y: abs(x - y) <= rel * max(1.0, abs(x), abs(y))  # noqa: E731
    if not (close(a.prediction, b.prediction) and close(a.count, b.count)):
        return False
    if a.is_leaf():
        return True
    return (
        a.condition.feature == b.condition.feature
        and close(a.condition.threshold, b.condition.threshold)
        and _same_tree(a.left, b.left, rel)
        and _same_tree(a.right, b.right, rel)
    )


def train_cpp(run: Run) -> None:
    sizes, tr = run.sizes, run.tracer
    backend = sizes["backend"]

    def cycle(fav, ret, tree_cache, backend=backend):
        """One op: an LR fit per dataset and a tree fit, all on ``backend``.

        The feature lists are fixed, not drawn from the seed: they decide
        the generated source, and with it how long g++ takes.
        """
        ret_feats = ret.features[::4][: sizes["retailer_features"]]
        models = [
            IFAQLinearRegression(features=fav.features, label=fav.label, backend=backend).fit(fav.db, fav.query),
            IFAQLinearRegression(features=ret_feats, label=ret.label, backend=backend).fit(ret.db, ret.query),
        ]
        tree = _fit_tree(
            fav, fav.features[: sizes["tree_features"]], sizes["tree_depth"], 16, backend, tree_cache
        )
        return [m.theta_ for m in models], tree

    binaries_built = []
    for _rep in range(run.setup_reps):
        fav = ret = tree_cache = None
        built_before = tr.count("backend.compile_cpp.compile")
        with run.timed_setup():
            fav = favorita(scale=sizes["scale"], seed=run.seed)
            ret = retailer(scale=sizes["scale"], seed=run.seed)
            tree_cache = KernelCache()
            # The cold cycle is the set-up: every kernel goes through g++.
            t0 = now()
            with tr.span("op", op="cold"):
                cycle(fav, ret, tree_cache)
            run.cold_ms.append((now() - t0) * 1e3)
        binaries_built.append(tr.count("backend.compile_cpp.compile") - built_before)
    stats = [default_kernel_cache().stats, tree_cache.stats]
    hits0, misses0 = sum(s.hits for s in stats), sum(s.misses for s in stats)

    results = []
    run.loop(lambda _group, _position: results.append(cycle(fav, ret, tree_cache)))

    ops = run.measured_ops
    run.layer["backend.cache.hits_per_op"] = (sum(s.hits for s in stats) - hits0) / ops
    run.layer["backend.cache.misses_per_op"] = (sum(s.misses for s in stats) - misses0) / ops
    run.layer["ml.tree.nodes_per_fit"] = median([tree.node_count() for _, tree in results])

    # Oracle: the numpy backend trains the same models; the last cycle's
    # parameters must agree to rounding, and every cycle must repeat it.
    thetas, tree = results[-1]
    want, want_tree = cycle(fav, ret, KernelCache(), backend="numpy")
    for got, ref, name in zip(thetas, want, ("favorita", "retailer")):
        run.check(np.allclose(got, ref, rtol=1e-8, atol=1e-10), f"train_cpp LR theta on {name} differs from numpy")
    run.check(_same_tree(tree, want_tree), "train_cpp tree differs from the numpy backend's")
    run.check(all(_same_tree(t, tree, 0.0) for _, t in results), "train_cpp tree fits are not repeatable")

    if tr.enabled:
        run.layer["backend.compile_cpp.binaries_built"] = median(binaries_built)
        run.layer["backend.compile_cpp.gxx_s"] = median(tr.seconds("backend.compile_cpp.compile"))
        run.layer["backend.executors.cpp_runs_per_op"] = tr.count("backend.executors.cpp_binary_run", run.window) / ops
        run.layer["ml.tree.groupby_calls_per_fit"] = tr.count("backend.executors.cpp_groupby_many", run.window) / ops
        tree = build_join_tree(fav.db.schema(), fav.query.relations, stats=dict(fav.db.statistics()))
        plan = build_batch_plan(fav.db, tree, covar_batch(fav.features, label=fav.label))
        kernel = default_kernel_cache().get_or_compile(get_backend(backend, query=fav.query), plan, LAYOUT_SORTED)
        run.layer["backend.codegen_cpp.source_bytes"] = len(kernel.source or "")
