"""The full high-level optimization pipeline on the paper's LR program."""

from repro.db import JoinQuery
from repro.interp import Interpreter
from repro.ir.expr import DictBuild, Let, Sum
from repro.ir.program import Program
from repro.ir.traversal import subexpressions
from repro.ml.programs import linear_regression_bgd
from repro.opt import HighLevelOptimizer, high_level_optimize

from compare import values_close


def lr_program(db, query, iterations=4):
    return linear_regression_bgd(
        db.schema(), query, ["cityf", "price"], "units",
        iterations=iterations, alpha=0.01,
    )


class TestPipelineOnLinearRegression:
    def test_covar_matrix_hoisted_to_inits(self, paper_db, paper_query):
        prog = lr_program(paper_db, paper_query)
        out = high_level_optimize(prog, stats=paper_db.statistics())

        init_names = [name for name, _ in out.inits]
        # the memoized tables (covar matrix + label vector) became inits
        memo_inits = [n for n in init_names if n.startswith("memo")]
        assert len(memo_inits) == 2

        # one of them is the two-level λf1 λf2 covar table
        tables = dict(out.inits)
        assert any(
            isinstance(tables[n], DictBuild)
            and isinstance(tables[n].body, DictBuild)
            for n in memo_inits
        )

    def test_loop_body_no_longer_scans_q(self, paper_db, paper_query):
        prog = lr_program(paper_db, paper_query)
        out = high_level_optimize(prog, stats=paper_db.statistics())
        data_scans = [
            n for n in subexpressions(out.body)
            if isinstance(n, Sum) and "Q" in repr(n.domain)
        ]
        assert data_scans == []

    def test_semantics_preserved(self, paper_db, paper_query):
        prog = lr_program(paper_db, paper_query)
        out = high_level_optimize(prog, stats=paper_db.statistics())
        r1 = Interpreter(paper_db.to_env()).run_program(prog)
        r2 = Interpreter(paper_db.to_env()).run_program(out)
        assert values_close(r1, r2)

    def test_optimized_program_does_less_work(self, paper_db, paper_query):
        prog = lr_program(paper_db, paper_query, iterations=20)
        out = high_level_optimize(prog, stats=paper_db.statistics())
        i1 = Interpreter(paper_db.to_env())
        i2 = Interpreter(paper_db.to_env())
        i1.run_program(prog)
        i2.run_program(out)
        assert i2.stats.nodes_evaluated < i1.stats.nodes_evaluated

    def test_iteration_count_barely_affects_optimized_cost(self, paper_db, paper_query):
        """The Figure 6 (right) observation, as an operation-count claim."""

        def cost(program):
            interp = Interpreter(paper_db.to_env())
            interp.run_program(program)
            return interp.stats.nodes_evaluated

        stats = paper_db.statistics()
        short = cost(high_level_optimize(lr_program(paper_db, paper_query, 5), stats=stats))
        long = cost(high_level_optimize(lr_program(paper_db, paper_query, 50), stats=stats))
        unopt_short = cost(lr_program(paper_db, paper_query, 5))
        unopt_long = cost(lr_program(paper_db, paper_query, 50))

        optimized_growth = long / short
        unoptimized_growth = unopt_long / unopt_short
        assert optimized_growth < unoptimized_growth


class TestOptimizerStages:
    def test_stage_methods_individually_preserve_semantics(self, paper_db, paper_query):
        from repro.db.query import join_as_ifaq
        from repro.interp import evaluate
        from repro.ir.builders import V, dom, sum_over
        from repro.ir.expr import Lookup

        env = paper_db.to_env()
        env["Q"] = evaluate(join_as_ifaq(paper_db.schema(), paper_query), env)

        e = sum_over(
            "x", dom(V("Q")),
            Lookup(V("Q"), V("x")) * (V("x").dot("cityf") + V("x").dot("price")),
        )
        opt = HighLevelOptimizer(stats=paper_db.statistics())
        for stage in (opt.normalize, opt.schedule_loops, opt.factorize, opt.memoize, opt.code_motion):
            out = stage(e)
            assert values_close(evaluate(e, env), evaluate(out, env)), stage.__name__
            e = out
