"""Figure 6 — impact of the high-level optimizations (D-IFAQ interpreter).

The paper runs an *interpreter* for D-IFAQ and compares, for BGD linear
regression over a Favorita subset:

* the unoptimized program (materializes the join, re-aggregates every
  iteration),
* the program after high-level optimizations (covar matrix hoisted out
  of the loop),
* the bare join computation (identical for both, shown as its own bar).

Left plot: vary input tuples at 50 iterations.  Right plot: vary
iterations at 10,000 tuples.  The shapes to reproduce: the optimized
series tracks the join series closely, and the iteration count has
negligible impact on the optimized program.
"""

import pytest

from repro.bench import emit, emit_header, format_seconds
from repro.data import favorita
from repro.db.query import join_as_ifaq
from repro.interp import Interpreter
from repro.ir.program import Program
from repro.ml.programs import linear_regression_bgd
from repro.opt import high_level_optimize

#: scaled from the paper's 2k–14k tuples / 10–130 iterations
TUPLE_POINTS = (500, 1500, 3000)
ITER_POINTS = (5, 25, 50)
#: the held-fixed axis of each plot, kept small: the unoptimized
#: program's cost grows with tuples × iterations
FIXED_ITERATIONS = 2
FIXED_TUPLES = 100

_FEATURES = ["onpromotion", "perishable", "cluster", "transactions", "oilprice"]


def subset_db(n_tuples):
    ds = favorita(scale=max(n_tuples / 100_000, 0.004), seed=7)
    fact = ds.db.relation("Sales")
    rows = dict(list(fact.data.items())[:n_tuples])
    from repro.db.relation import Relation

    ds.db.add(Relation(fact.schema, rows))
    return ds


def make_programs(ds, iterations):
    prog = linear_regression_bgd(
        ds.db.schema(), ds.query, _FEATURES, ds.label,
        iterations=iterations, alpha=0.5, materialized_q=True,
    )
    stats = dict(ds.db.statistics())
    stats["Q"] = ds.db.relation("Sales").tuple_count()
    opt = high_level_optimize(prog, stats=stats)
    return prog, opt


def env_with_q(ds):
    from repro.db.query import materialize_join

    env = ds.db.to_env()
    env["Q"] = materialize_join(ds.db, ds.query).to_value()
    return env


def run(program, env) -> None:
    Interpreter(env).run_program(program)


@pytest.mark.parametrize("n_tuples", TUPLE_POINTS)
@pytest.mark.benchmark(group="fig6-left-vary-tuples")
class TestFig6LeftVaryTuples:
    def test_join_only(self, benchmark, n_tuples):
        from repro.db.query import materialize_join

        ds = subset_db(n_tuples)
        benchmark.name = f"join[n={n_tuples}]"
        benchmark(lambda: materialize_join(ds.db, ds.query))

    def test_unoptimized(self, benchmark, n_tuples):
        ds = subset_db(n_tuples)
        prog, _ = make_programs(ds, FIXED_ITERATIONS)
        env = env_with_q(ds)
        benchmark.name = f"unoptimized[n={n_tuples}]"
        benchmark.pedantic(run, args=(prog, env), rounds=1, iterations=1)

    def test_optimized(self, benchmark, n_tuples):
        ds = subset_db(n_tuples)
        _, opt = make_programs(ds, FIXED_ITERATIONS)
        env = env_with_q(ds)
        benchmark.name = f"optimized[n={n_tuples}]"
        benchmark.pedantic(run, args=(opt, env), rounds=1, iterations=1)


@pytest.mark.parametrize("iterations", ITER_POINTS)
@pytest.mark.benchmark(group="fig6-right-vary-iterations")
class TestFig6RightVaryIterations:
    def test_unoptimized(self, benchmark, iterations):
        ds = subset_db(FIXED_TUPLES)
        prog, _ = make_programs(ds, iterations)
        env = env_with_q(ds)
        benchmark.name = f"unoptimized[it={iterations}]"
        benchmark.pedantic(run, args=(prog, env), rounds=1, iterations=1)

    def test_optimized(self, benchmark, iterations):
        ds = subset_db(FIXED_TUPLES)
        _, opt = make_programs(ds, iterations)
        env = env_with_q(ds)
        benchmark.name = f"optimized[it={iterations}]"
        benchmark.pedantic(run, args=(opt, env), rounds=1, iterations=1)


@pytest.mark.benchmark(group="fig6-shape-check")
def test_fig6_shape_claims(benchmark):
    """The two qualitative claims, asserted on interpreter work counts."""

    def measure():
        counts = {}
        for iterations in (5, 50):
            ds = subset_db(150)
            prog, opt = make_programs(ds, iterations)
            env = env_with_q(ds)
            for label, program in (("unopt", prog), ("opt", opt)):
                interp = Interpreter(env)
                interp.run_program(program)
                counts[(label, iterations)] = interp.stats.nodes_evaluated
        return counts

    counts = benchmark.pedantic(measure, rounds=1, iterations=1)
    unopt_growth = counts[("unopt", 50)] / counts[("unopt", 5)]
    opt_growth = counts[("opt", 50)] / counts[("opt", 5)]

    emit_header("Figure 6 shape check (interpreter operation counts)")
    emit(f"  unoptimized 5→50 iterations: ×{unopt_growth:.2f} work")
    emit(f"  optimized   5→50 iterations: ×{opt_growth:.2f} work")
    # iterations dominate the unoptimized program, barely affect the optimized
    assert unopt_growth > 4.0
    assert opt_growth < 2.0
