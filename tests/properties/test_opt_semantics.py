"""Property: every optimization stage preserves interpreter semantics.

Hypothesis generates random well-scoped D-IFAQ expressions over a fixed
environment (a relation ``Q``, a feature set ``F``, a parameter
dictionary ``theta`` and scalar variables), runs each optimizer stage,
and checks the value is unchanged up to floating-point reassociation.
This is the repository's strongest guarantee that Figure 4's rules are
sound beyond the hand-written examples.

The same expressions — and richer ones with ``let``, ``if``, lookups,
dictionary builders and record- or dictionary-valued loop state — also
run as generated residual functions (:func:`compile_residual`), which
must give exactly the interpreter's value, typed or untyped.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import Interpreter, compile_residual
from repro.ir.builders import V, dom, fields, sum_over
from repro.ir.expr import (
    Add,
    BinOp,
    Cmp,
    Const,
    DictBuild,
    DictLit,
    Expr,
    FieldAccess,
    FieldLit,
    If,
    Let,
    Lookup,
    Mul,
    Neg,
    RecordLit,
    Sum,
    UnaryOp,
    Var,
)
from repro.ir.program import Program, straight_line
from repro.ir.types import FIELD, INT, REAL, DictType, RecordType, SetType
from repro.opt.pipeline import HighLevelOptimizer
from repro.runtime.values import DictValue, FieldValue, RecordValue

from compare import values_close

FIELD_NAMES = ("u", "v")


def make_env(q_rows: list[tuple[float, float]], a: float, b: float):
    q = {}
    for u, v in q_rows:
        rec = RecordValue({"u": u, "v": v})
        q[rec] = q.get(rec, 0) + 1
    return {
        "Q": DictValue(q),
        "F": __import__("repro.interp", fromlist=["evaluate"]).evaluate(
            fields(*FIELD_NAMES)
        ),
        "theta": DictValue({FieldValue(n): 0.5 for n in FIELD_NAMES}),
        "a": a,
        "b": b,
    }


small_floats = st.floats(min_value=-8, max_value=8, allow_nan=False, allow_infinity=False)


@st.composite
def scalar_exprs(draw, depth: int, scope: tuple[str, ...]) -> Expr:
    """A random scalar expression over the fixed environment."""
    if depth <= 0:
        leaf = draw(st.sampled_from(["const", "var"]))
        if leaf == "const" or not scope:
            return Const(draw(small_floats))
        return _leaf_for(draw, scope)
    kind = draw(
        st.sampled_from(["add", "mul", "neg", "sum_q", "sum_f", "leaf"])
    )
    if kind == "add":
        return Add(
            draw(scalar_exprs(depth - 1, scope)), draw(scalar_exprs(depth - 1, scope))
        )
    if kind == "mul":
        return Mul(
            draw(scalar_exprs(depth - 1, scope)), draw(scalar_exprs(depth - 1, scope))
        )
    if kind == "neg":
        return Neg(draw(scalar_exprs(depth - 1, scope)))
    if kind == "sum_q":
        var = f"x{depth}"
        body_scope = scope + (f"rec:{var}",)
        body = draw(scalar_exprs(depth - 1, body_scope))
        return Sum(var, dom(V("Q")), Mul(Lookup(V("Q"), Var(var)), body))
    if kind == "sum_f":
        var = f"f{depth}"
        body_scope = scope + (f"field:{var}",)
        body = draw(scalar_exprs(depth - 1, body_scope))
        return Sum(var, V("F"), body)
    return draw(scalar_exprs(0, scope))


def _leaf_for(draw, scope: tuple[str, ...]) -> Expr:
    choice = draw(st.sampled_from(scope + ("a", "b")))
    if choice in ("a", "b"):
        return Var(choice)
    tag, var = choice.split(":")
    if tag == "num":
        return Var(var)
    if tag == "rec":
        attr = draw(st.sampled_from(FIELD_NAMES))
        return Var(var).dot(attr)
    # a bound field variable: look it up in theta
    return Lookup(Var("theta"), Var(var))


q_rows_strategy = st.lists(
    st.tuples(small_floats, small_floats), min_size=0, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(
    expr=scalar_exprs(3, ()),
    rows=q_rows_strategy,
    a=small_floats,
    b=small_floats,
)
def test_full_pipeline_preserves_semantics(expr, rows, a, b):
    env = make_env(rows, a, b)
    optimizer = HighLevelOptimizer(stats={"Q": len(rows)})
    optimizer.estimator.let_sizes["F"] = len(FIELD_NAMES)

    before = Interpreter(env).evaluate(expr)
    optimized = optimizer.optimize_expr(expr)
    after = Interpreter(env).evaluate(optimized)
    assert values_close(before, after, rel_tol=1e-6, abs_tol=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    expr=scalar_exprs(3, ()),
    rows=q_rows_strategy,
    a=small_floats,
    b=small_floats,
)
def test_each_stage_preserves_semantics(expr, rows, a, b):
    env = make_env(rows, a, b)
    optimizer = HighLevelOptimizer(stats={"Q": len(rows)})
    optimizer.estimator.let_sizes["F"] = len(FIELD_NAMES)

    current = expr
    reference = Interpreter(env).evaluate(expr)
    for stage in (
        optimizer.normalize,
        optimizer.schedule_loops,
        optimizer.factorize,
        optimizer.memoize,
        optimizer.code_motion,
    ):
        current = stage(current)
        value = Interpreter(env).evaluate(current)
        assert values_close(reference, value, rel_tol=1e-6, abs_tol=1e-6), stage.__name__


@settings(max_examples=40, deadline=None)
@given(
    expr=scalar_exprs(2, ()),
    rows=q_rows_strategy,
    a=small_floats,
    b=small_floats,
)
def test_specialization_preserves_semantics(expr, rows, a, b):
    """Partial evaluation + specialization leave values unchanged.

    theta stays a dictionary keyed by field values here, so only
    expressions whose θ-lookups get fully unrolled specialize away —
    either way the value must not change.
    """
    from repro.typing.specialize import specialize_expr

    env = make_env(rows, a, b)
    before = Interpreter(env).evaluate(expr)

    # Inline F so loops over it unroll (the program driver does this).
    from repro.ir.traversal import substitute

    inlined = substitute(expr, "F", fields(*FIELD_NAMES))
    specialized = specialize_expr(inlined, {})
    after = Interpreter(env).evaluate(specialized)
    assert values_close(before, after, rel_tol=1e-6, abs_tol=1e-6)


# -- generated residual functions ---------------------------------------------

#: the static types of ``make_env``'s bindings
ENV_TYPES = {
    "Q": DictType(RecordType((("u", REAL), ("v", REAL))), INT),
    "F": SetType(FIELD),
    "theta": DictType(FIELD, REAL),
    "a": REAL,
    "b": REAL,
}


def assert_identical(got, want):
    """Equal values of equal types in equal order, floats bit for bit
    (``repr`` tells ``-0.0`` from ``0.0`` and ``1`` from ``1.0``)."""
    assert repr(got) == repr(want)
    assert got == want or "nan" in repr(want)


def assert_compiled_matches(program: Program, env) -> None:
    """Both the typed (plain operators) and the untyped (ring calls)
    generated function give the interpreter's value."""
    want = Interpreter(env).run_program(program)
    parameters = [name for name, value in program.inits if isinstance(value, Const)]
    for types in (ENV_TYPES, {}):
        fn = compile_residual(program, types, parameters)
        assert_identical(fn.run(program, env), want)


@st.composite
def rich_exprs(draw, depth: int, scope: tuple[str, ...]) -> Expr:
    """``scalar_exprs``' nodes plus what residual programs add: lets,
    conditionals, logic, division, records and dictionaries built,
    written literally, summed over and looked up."""
    if depth <= 0:
        return draw(scalar_exprs(0, scope))

    def sub(inner: tuple[str, ...] = scope) -> Expr:
        return draw(rich_exprs(depth - 1, inner))

    kind = draw(
        st.sampled_from(
            ["add", "mul", "neg", "sum_q", "sum_f", "let", "if", "logic", "div",
             "abs", "dict_build", "dict_sum", "dict_lit", "record", "leaf"]
        )
    )
    if kind == "add":
        return Add(sub(), sub())
    if kind == "mul":
        return Mul(sub(), sub())
    if kind == "neg":
        return Neg(sub())
    if kind == "sum_q":
        var = f"x{depth}"
        return Sum(var, dom(V("Q")), Mul(Lookup(V("Q"), Var(var)), sub(scope + (f"rec:{var}",))))
    if kind == "sum_f":
        var = f"f{depth}"
        return Sum(var, V("F"), sub(scope + (f"field:{var}",)))
    if kind == "let":
        var = f"l{depth}"
        return Let(var, sub(), sub(scope + (f"num:{var}",)))
    if kind == "if":
        op = draw(st.sampled_from(["<", "<=", "==", "!="]))
        return If(Cmp(op, sub(), sub()), sub(), sub())
    if kind == "logic":
        op = draw(st.sampled_from(["and", "or"]))
        return BinOp(op, sub(), sub())
    if kind == "div":
        op = draw(st.sampled_from(["div", "min", "max"]))
        return BinOp(op, sub(), Const(draw(st.sampled_from([0.5, 3, -2.0]))))
    if kind == "abs":
        return UnaryOp("abs", sub())
    if kind in ("dict_build", "dict_sum"):
        var = f"g{depth}"
        built = DictBuild(var, V("F"), sub(scope + (f"field:{var}",)))
        if kind == "dict_build":
            return Lookup(built, FieldLit(draw(st.sampled_from(FIELD_NAMES))))
        key = f"k{depth}"
        return Sum(key, dom(built), Lookup(built, Var(key)))
    if kind == "dict_lit":
        keys = draw(st.lists(st.sampled_from(FIELD_NAMES), min_size=0, max_size=3))
        literal = DictLit(tuple((FieldLit(k), sub()) for k in keys))
        return Lookup(literal, FieldLit(draw(st.sampled_from(FIELD_NAMES))))
    if kind == "record":
        return FieldAccess(RecordLit((("p", sub()), ("q", sub()))), draw(st.sampled_from("pq")))
    return draw(scalar_exprs(0, scope))


@st.composite
def programs(draw) -> Program:
    """A loop of 0–3 iterations over record- or dictionary-valued state,
    after an init that is a literal (a run-time parameter) or an expression."""
    if draw(st.booleans()):
        k_init: Expr = Const(draw(st.one_of(small_floats, st.integers(-3, 3))))
    else:
        k_init = draw(rich_exprs(2, ()))
    scope = ("num:k",)
    s = V("s")
    step = Add(FieldAccess(s, "it"), Const(1))
    if draw(st.booleans()):
        init = RecordLit((("val", draw(rich_exprs(1, scope))), ("it", Const(0))))
        new = draw(rich_exprs(2, scope + ("num:cur",)))
        body = Let("cur", FieldAccess(s, "val"), RecordLit((("val", new), ("it", step))))
    else:
        start = DictBuild("f0", V("F"), draw(rich_exprs(1, scope + ("field:f0",))))
        init = RecordLit((("d", start), ("it", Const(0))))
        new = draw(rich_exprs(2, scope + ("field:f1",)))
        grown = DictBuild("f1", V("F"), Add(Lookup(FieldAccess(s, "d"), V("f1")), new))
        body = RecordLit((("d", grown), ("it", step)))
    return Program(
        inits=(("k", k_init),),
        state="s",
        init=init,
        cond=Cmp("<", FieldAccess(s, "it"), Const(draw(st.integers(0, 3)))),
        body=body,
    )


@settings(max_examples=60, deadline=None)
@given(expr=scalar_exprs(3, ()), rows=q_rows_strategy, a=small_floats, b=small_floats)
def test_generated_function_equals_interpreter_before_and_after_optimization(expr, rows, a, b):
    env = make_env(rows, a, b)
    optimizer = HighLevelOptimizer(stats={"Q": len(rows)})
    optimizer.estimator.let_sizes["F"] = len(FIELD_NAMES)
    assert_compiled_matches(straight_line(expr), env)
    assert_compiled_matches(straight_line(optimizer.optimize_expr(expr)), env)


@settings(max_examples=80, deadline=None)
@given(expr=rich_exprs(3, ()), rows=q_rows_strategy, a=small_floats, b=small_floats)
def test_generated_function_equals_interpreter_on_residual_nodes(expr, rows, a, b):
    assert_compiled_matches(straight_line(expr), make_env(rows, a, b))


@settings(max_examples=60, deadline=None)
@given(program=programs(), rows=q_rows_strategy, a=small_floats, b=small_floats)
def test_generated_function_equals_interpreter_on_programs(program, rows, a, b):
    assert_compiled_matches(program, make_env(rows, a, b))
