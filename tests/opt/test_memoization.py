"""Static memoization (Figure 4d) — including Example 4.4."""

from repro.interp import evaluate
from repro.ir.builders import V, dict_build, dom, fields, sum_over
from repro.ir.expr import DictBuild, Let, Lookup, Neg, Sum
from repro.ir.traversal import subexpressions
from repro.opt.cardinality import CardinalityEstimator
from repro.opt.memoization import apply_static_memoization
from repro.runtime.values import DictValue, FieldValue, RecordValue

from compare import values_close


def make_estimator(**let_sizes):
    est = CardinalityEstimator(stats={})
    est.let_sizes.update(let_sizes)
    return est


def lr_inner_expr():
    """Example 4.3's factorized form, ready for memoization."""
    data_sum = sum_over(
        "x", dom(V("Q")),
        Lookup(V("Q"), V("x")) * V("x").at(V("f2")) * V("x").at(V("f1")),
    )
    return dict_build(
        "f1", V("F"),
        Lookup(V("theta"), V("f1"))
        + Neg(sum_over("f2", V("F"), Lookup(V("theta"), V("f2")) * data_sum)),
    )


def lr_env():
    q = DictValue(
        {
            RecordValue({"c": 1.0, "p": 10.0}): 2,
            RecordValue({"c": 2.0, "p": 20.0}): 1,
        }
    )
    return {
        "Q": q,
        "F": evaluate(fields("c", "p")),
        "theta": DictValue({FieldValue("c"): 0.3, FieldValue("p"): 0.7}),
    }


class TestExample44:
    def test_covar_matrix_is_tabulated(self):
        """The inner Σ over dom(Q) becomes a let-bound λf1 λf2 table."""
        est = make_estimator(F=2)
        out = apply_static_memoization(lr_inner_expr(), est)

        assert isinstance(out, Let)
        table = out.value
        assert isinstance(table, DictBuild) and table.var == "f1"
        assert isinstance(table.body, DictBuild) and table.body.var == "f2"
        assert isinstance(table.body.body, Sum)  # Σ over dom(Q)

        # the residual loop body no longer scans Q
        residual_sums = [
            n for n in subexpressions(out.body)
            if isinstance(n, Sum) and not est.is_static_domain(n.domain)
        ]
        assert residual_sums == []

    def test_semantics_preserved(self):
        est = make_estimator(F=2)
        e = lr_inner_expr()
        out = apply_static_memoization(e, est)
        env = lr_env()
        assert values_close(evaluate(e, env), evaluate(out, env))


class TestSingleBinder:
    def test_single_dependence(self):
        est = make_estimator(F=3)
        e = dict_build(
            "f", V("F"),
            sum_over("x", dom(V("Q")), Lookup(V("Q"), V("x")) * V("x").at(V("f"))),
        )
        out = apply_static_memoization(e, est)
        assert isinstance(out, Let)
        assert isinstance(out.value, DictBuild)
        # one level of tabulation only
        assert isinstance(out.value.body, Sum)

    def test_no_static_binder_no_change(self):
        est = make_estimator()
        e = sum_over("x", dom(V("Q")), Lookup(V("Q"), V("x")))
        assert apply_static_memoization(e, est) == e

    def test_independent_sum_not_tabulated(self):
        # The inner sum does not mention f: nothing to memoize
        # (factorization/LICM would hoist it instead).
        est = make_estimator(F=2)
        e = dict_build(
            "f", V("F"),
            sum_over("x", dom(V("Q")), Lookup(V("Q"), V("x"))),
        )
        out = apply_static_memoization(e, est)
        assert out == e


class TestMultipleAggregates:
    def test_two_distinct_sums_get_two_tables(self):
        est = make_estimator(F=2)
        s1 = sum_over("x", dom(V("Q")), Lookup(V("Q"), V("x")) * V("x").at(V("f")))
        s2 = sum_over(
            "x", dom(V("Q")),
            Lookup(V("Q"), V("x")) * V("x").at(V("f")) * V("x").at(V("f")),
        )
        e = dict_build("f", V("F"), s1 + s2)
        out = apply_static_memoization(e, est)
        # two nested lets around the dict build
        assert isinstance(out, Let)
        assert isinstance(out.body, Let)
        assert isinstance(out.body.body, DictBuild)

    def test_repeated_identical_sum_shares_one_table(self):
        est = make_estimator(F=2)
        s = sum_over("x", dom(V("Q")), Lookup(V("Q"), V("x")) * V("x").at(V("f")))
        e = dict_build("f", V("F"), s + s)
        out = apply_static_memoization(e, est)
        assert isinstance(out, Let)
        assert not isinstance(out.body, Let)  # a single table suffices

    def test_semantics_multi(self):
        est = make_estimator(F=2)
        s1 = sum_over("x", dom(V("Q")), Lookup(V("Q"), V("x")) * V("x").at(V("f")))
        s2 = sum_over(
            "x", dom(V("Q")),
            Lookup(V("Q"), V("x")) * V("x").at(V("f")) * V("x").at(V("f")),
        )
        e = dict_build("f", V("F"), s1 + s2)
        out = apply_static_memoization(e, est)
        env = lr_env()
        env["F"] = evaluate(fields("c", "p"))
        assert values_close(evaluate(e, env), evaluate(out, env))
