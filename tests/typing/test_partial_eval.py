"""Partial evaluation rules (Figure 4f)."""

from repro.interp import evaluate
from repro.ir.builders import V, dict_build, dict_lit, fields, fld, set_lit, sum_over
from repro.ir.expr import Add, Const, DictLit, FieldLit
from repro.opt.rewriter import rewrite_fixpoint
from repro.typing.partial_eval import (
    MAX_UNROLL,
    PARTIAL_EVAL_RULES,
    merge_dict_lits,
    unroll_dict_build,
    unroll_sum,
)

from compare import values_close


class TestUnrollSum:
    def test_unrolls_static_set(self):
        e = sum_over("x", set_lit(1, 2, 3), V("x") * V("k"))
        out = unroll_sum(e)
        assert out == Add(
            Add(Const(1) * V("k"), Const(2) * V("k")), Const(3) * V("k")
        )

    def test_does_not_unroll_dynamic_domain(self):
        from repro.ir.builders import dom

        assert unroll_sum(sum_over("x", dom(V("Q")), V("x"))) is None

    def test_respects_max_unroll(self):
        big = set_lit(*range(MAX_UNROLL + 1))
        assert unroll_sum(sum_over("x", big, V("x"))) is None

    def test_semantics(self):
        e = sum_over("x", set_lit(1.0, 2.0, 4.0), V("x") * V("x"))
        out = rewrite_fixpoint(e, PARTIAL_EVAL_RULES)
        assert evaluate(out) == evaluate(e) == 21.0


class TestUnrollDictBuild:
    def test_unrolls_to_dict_literal(self):
        e = dict_build("f", fields("a", "b"), V("f"))
        out = unroll_dict_build(e)
        assert isinstance(out, DictLit)
        assert out.entries[0][0] == FieldLit("a")

    def test_substitutes_bound_var(self):
        e = dict_build("f", set_lit(1, 2), V("f") * 10)
        out = unroll_dict_build(e)
        assert out == DictLit(
            ((Const(1), Const(1) * Const(10)), (Const(2), Const(2) * Const(10)))
        )

    def test_semantics(self):
        e = dict_build("f", set_lit("a", "b"), Const(5))
        out = unroll_dict_build(e)
        assert values_close(evaluate(e), evaluate(out))


class TestMergeDictLits:
    def test_same_key_payloads_add(self):
        e = Add(dict_lit(("k", 1)), dict_lit(("k", 2)))
        out = merge_dict_lits(e)
        assert out == DictLit(((Const("k"), Add(Const(1), Const(2))),))

    def test_distinct_keys_concatenate(self):
        e = Add(dict_lit(("k", 1)), dict_lit(("j", 2)))
        out = merge_dict_lits(e)
        assert isinstance(out, DictLit)
        assert len(out.entries) == 2

    def test_field_keys(self):
        e = Add(dict_lit((fld("i"), 1)), dict_lit((fld("i"), 2)))
        out = merge_dict_lits(e)
        assert isinstance(out, DictLit)
        assert len(out.entries) == 1

    def test_semantics(self):
        e = Add(dict_lit(("k", 1), ("j", 5)), dict_lit(("k", 2)))
        out = rewrite_fixpoint(e, PARTIAL_EVAL_RULES)
        assert values_close(evaluate(e), evaluate(out))
