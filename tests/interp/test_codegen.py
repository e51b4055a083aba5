"""Generated residual functions against the interpreter: the shapes the
Python parser cannot take as written, the interpreter's guards, names
that are Python keywords, and parameters as arguments."""

import sys

import pytest

from repro.interp import EvalError, Interpreter, compile_residual
from repro.interp.interpreter import MAX_LOOP_ITERATIONS, loop_cap_error
from repro.ir.builders import V, add_all, dom, let, set_lit, sum_over
from repro.ir.expr import (
    Add,
    BinOp,
    Cmp,
    Const,
    DictLit,
    FieldLit,
    If,
    Mul,
    Neg,
    RecordLit,
    UnaryOp,
    Var,
)
from repro.ir.program import Program, straight_line
from repro.ir.types import INT, REAL
from repro.runtime.values import DictValue, FieldValue, RecordValue


@pytest.fixture
def deep_recursion():
    """The interpreter and the generator recurse once or a few times per
    nesting level; deep test programs need a higher limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _both(program, env, types=None, parameters=()):
    want = Interpreter(env).run_program(program)
    got = compile_residual(program, types or {}, parameters).run(program, env)
    return got, want


class TestParserLimits:
    """CPython rejects more than 200 nested brackets, and its compiler
    overflows on a few thousand chained operators; spilling into
    temporaries keeps generated expressions shallow."""

    def test_the_shapes_break_naive_emission(self):
        with pytest.raises(SyntaxError, match="too many nested parentheses"):
            compile("(" * 300 + "x" + ")" * 300, "<naive>", "eval")
        with pytest.raises(RecursionError):
            compile(" + ".join(["x"] * 3000), "<naive>", "eval")

    @pytest.mark.parametrize("types", [{"x": REAL}, {}], ids=["typed", "untyped"])
    def test_long_flat_add_chain(self, deep_recursion, types):
        terms = [Mul(V("x"), Const(i % 7 + 0.25)) if i % 2 else Const(i) for i in range(3000)]
        program = straight_line(add_all(terms))
        got, want = _both(program, {"x": 1.5}, types)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("types", [{"x": REAL}, {}], ids=["typed", "untyped"])
    def test_deep_nesting(self, deep_recursion, types):
        e = V("x")
        for i in range(300):
            e = Add(Const(i), e) if i % 3 else Mul(Const(0.5), Neg(e))
        nested = RecordLit((("v", e),))
        for _ in range(260):
            nested = RecordLit((("r", nested),))
        program = straight_line(nested)
        got, want = _both(program, {"x": 3.0}, types)
        assert got == want


class TestGuards:
    def test_non_terminating_loop_stops_at_the_interpreters_cap(self):
        forever = Program(inits=(), state="s", init=Const(0), cond=Const(True), body=V("s") + 1)
        fn = compile_residual(forever, {})
        with pytest.raises(EvalError) as raised:
            fn.run(forever, {})
        assert str(raised.value) == str(loop_cap_error(MAX_LOOP_ITERATIONS))

        # The cap is on iterations run: exactly MAX_LOOP_ITERATIONS is allowed.
        bounded = Program(
            inits=(), state="s", init=Const(0),
            cond=Cmp("<", V("s"), Const(MAX_LOOP_ITERATIONS)), body=V("s") + 1,
        )
        assert compile_residual(bounded, {}).run(bounded, {}) == MAX_LOOP_ITERATIONS

    def test_unbound_free_variable_names_it(self):
        program = straight_line(Add(Const(1), V("ghost")))
        with pytest.raises(EvalError) as interpreted:
            Interpreter({}).run_program(program)
        fn = compile_residual(program, {})
        assert fn.free_vars == ("ghost",)
        with pytest.raises(EvalError, match="unbound variable 'ghost'") as generated:
            fn.run(program, {})
        assert str(generated.value) == str(interpreted.value)
        assert fn.run(program, {"ghost": 2}) == 3

    def test_free_variable_is_checked_only_where_it_is_read(self):
        program = straight_line(If(Const(True), Const(1), V("ghost")))
        got, want = _both(program, {})
        assert got == want == 1

    def test_unknown_operator_raises_like_the_interpreter(self):
        for e in (BinOp("xor", Const(1), Const(2)), UnaryOp("cbrt", Const(8))):
            program = straight_line(e)
            with pytest.raises(EvalError) as interpreted:
                Interpreter({}).run_program(program)
            with pytest.raises(EvalError) as generated:
                compile_residual(program, {}).run(program, {})
            assert str(generated.value) == str(interpreted.value)


class TestNamesAndParameters:
    def test_python_keywords_as_ifaq_names(self):
        q = DictValue({RecordValue({"if": 2.0}): 3, RecordValue({"if": -1.0}): 1})
        program = Program(
            inits=(("lambda", Const(0.5)), ("def", V("lambda") * 2)),
            state="class",
            init=let("return", V("def"), sum_over("for", dom(V("in")), V("for").dot("if") * V("return"))),
            cond=Cmp("<", V("class"), Const(40)),
            body=let("None", V("class"), V("None") * 3 + V("lambda")),
        )
        got, want = _both(program, {"in": q}, parameters=("lambda",))
        assert got == want

    def test_parameters_are_arguments(self):
        program = Program(
            inits=(("alpha", Const(0.5)), ("iterations", Const(3))),
            state="s",
            init=RecordLit((("x", Const(1.0)), ("i", Const(0)))),
            cond=Cmp("<", V("s").dot("i"), V("iterations")),
            body=RecordLit((("x", V("s").dot("x") * V("alpha")), ("i", V("s").dot("i") + 1))),
        )
        fn = compile_residual(program, {}, ("alpha", "iterations"))
        assert fn.parameters == ("alpha", "iterations")
        assert "0.5" not in fn.source
        for alpha, iterations in [(0.5, 3), (0.25, 5), (2.0, 0)]:
            bound = program.with_inits((("alpha", Const(alpha)), ("iterations", Const(iterations))))
            assert fn.run(bound, {}) == Interpreter({}).run_program(bound)

    def test_proven_numeric_arithmetic_is_plain_python(self):
        program = straight_line(Add(Neg(V("x")), Mul(V("x"), Var("y"))))
        typed = compile_residual(program, {"x": REAL, "y": INT})
        untyped = compile_residual(program, {"x": REAL})
        assert "v_add" not in typed.source and "v_mul" not in typed.source
        assert "v_add" in untyped.source and "v_mul" in untyped.source
        env = {"x": 2.5, "y": True}
        want = Interpreter(env).run_program(program)
        assert typed.run(program, env) == untyped.run(program, env) == want


class TestTyping:
    """Plain operators only where the operands are numeric on every run."""

    def test_untyped_operand_is_not_assumed_numeric(self):
        # lenient unification would type 0 + d as int
        program = straight_line(Mul(Add(Const(0), V("d")), Const(2.0)))
        d = DictValue({FieldValue("u"): 1.5})
        got, want = _both(program, {"d": d})
        assert got == want == DictValue({FieldValue("u"): 3.0})

    def test_state_whose_type_changes_between_iterations(self):
        # s.v is 0 on the first iteration and a dictionary after it
        s = V("s")
        program = Program(
            inits=(),
            state="s",
            init=RecordLit((("v", Const(0)), ("it", Const(0)))),
            cond=Cmp("<", s.dot("it"), Const(3)),
            body=RecordLit((
                ("v", Add(Mul(s.dot("v"), s.dot("v")), DictLit(((FieldLit("u"), Const(2.0)),)))),
                ("it", s.dot("it") + 1),
            )),
        )
        got, want = _both(program, {})
        assert got == want and got["v"] == DictValue({FieldValue("u"): 38.0})

    @pytest.mark.parametrize(
        "zero",
        [
            sum_over("x", set_lit(), RecordLit((("a", Const(1.0)),))),
            Mul(Const(0), RecordLit((("a", Const(1.0)),))),
        ],
        ids=["empty-sum", "scaled-by-zero"],
    )
    def test_record_typed_ring_zero_fails_like_the_interpreter(self, zero):
        # both are the scalar 0 at run time, not a record
        program = straight_line(zero.dot("a"))
        with pytest.raises(EvalError) as interpreted:
            Interpreter({}).run_program(program)
        with pytest.raises(EvalError) as generated:
            compile_residual(program, {}).run(program, {})
        assert str(generated.value) == str(interpreted.value)
