"""Reference interpreter for D-IFAQ / S-IFAQ expressions and programs.

This is the semantic oracle of the repository: every optimization pass
must produce an expression that evaluates to the same value under this
interpreter.  It is deliberately simple (structural recursion over the
AST) and instrumented with an operation counter so the high-level
optimization micro-benchmarks (paper Figure 6) can report interpreter
work alongside wall-clock time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.ir.expr import (
    Add,
    BinOp,
    Cmp,
    Const,
    DictBuild,
    DictLit,
    Dom,
    DynFieldAccess,
    Expr,
    FieldAccess,
    FieldLit,
    If,
    Let,
    Lookup,
    Mul,
    Neg,
    RecordLit,
    SetLit,
    Sum,
    UnaryOp,
    Var,
    VariantLit,
)
from repro.ir.pretty import pretty
from repro.ir.program import Program
from repro.runtime.rings import is_zero, truthy, v_add, v_mul, v_neg
from repro.runtime.values import (
    DictValue,
    FieldValue,
    RecordValue,
    SetValue,
    VariantValue,
)


class EvalError(Exception):
    """A runtime error during interpretation, with the offending expression."""

    def __init__(self, message: str, expr: Expr | None = None):
        if expr is not None:
            message = f"{message}\n  in: {pretty(expr)}"
        super().__init__(message)


#: how many ``while`` iterations a program may run before it is stopped
MAX_LOOP_ITERATIONS = 1_000_000


def loop_cap_error(limit: int) -> EvalError:
    return EvalError(f"loop exceeded {limit} iterations (missing convergence?)")


def unbound_variable(e: Var) -> EvalError:
    return EvalError(f"unbound variable {e.name!r}", e)


# -- leaf operations --------------------------------------------------------
#
# Shared with the generated residual functions (:mod:`repro.interp.codegen`),
# so both executions agree on every value and every error.


def lookup(d: Any, k: Any, e: Expr) -> Any:
    """``d(k)``: a dictionary's payload (the ring zero if absent), or a
    record's field — records behave as Field-keyed dictionaries in D-IFAQ."""
    if isinstance(d, DictValue):
        return d.get(k, 0)
    if isinstance(d, RecordValue):
        return d[k.name if isinstance(k, FieldValue) else k]
    raise EvalError(f"lookup on non-dictionary {type(d).__name__}", e)


def access_field(value: Any, name: str, e: Expr) -> Any:
    if isinstance(value, RecordValue):
        try:
            return value[name]
        except KeyError:
            raise EvalError(f"record has no field {name!r}: {value!r}", e) from None
    if isinstance(value, VariantValue):
        if value.tag != name:
            raise EvalError(f"variant <{value.tag}=...> has no field {name!r}", e)
        return value.value
    raise EvalError(f"field access on non-record {type(value).__name__}", e)


def access_dyn_field(value: Any, key: Any, e: Expr) -> Any:
    name = key.name if isinstance(key, FieldValue) else key
    if not isinstance(name, str):
        raise EvalError(f"dynamic field access with non-field key {key!r}", e)
    return access_field(value, name, e)


def iter_domain(domain_value: Any, e: Expr):
    if isinstance(domain_value, SetValue):
        return iter(domain_value)
    if isinstance(domain_value, DictValue):
        return iter(domain_value.keys())
    raise EvalError(
        f"iteration domain must be a set or dictionary, got {type(domain_value).__name__}",
        e,
    )


def domain_of(d: Any, e: Expr) -> SetValue:
    if isinstance(d, DictValue):
        return SetValue(d.keys())
    if isinstance(d, SetValue):
        return d
    raise EvalError(f"dom() of non-dictionary {type(d).__name__}", e)


def dict_literal(entries) -> DictValue:
    """``{{k1 → v1, ...}}`` with bag semantics: payloads of equal keys add,
    and a zero payload means "absent", so ``{{k → 0}}`` is the ring zero."""
    out: dict[Any, Any] = {}
    for k, v in entries:
        v = v_add(out[k], v) if k in out else v
        if is_zero(v):
            out.pop(k, None)
        else:
            out[k] = v
    return DictValue(out)


def apply_unary(op: str, v: Any, e: Expr) -> Any:
    if op == "not":
        return not truthy(v)
    if op == "abs":
        return abs(v)
    if op == "sqrt":
        return math.sqrt(v)
    if op == "log":
        return math.log(v)
    if op == "exp":
        return math.exp(v)
    if op == "sign":
        return (v > 0) - (v < 0)
    raise EvalError(f"unknown unary operator {op!r}", e)


@dataclass
class EvalStats:
    """Counts of interpreter work, for optimization micro-benchmarks."""

    nodes_evaluated: int = 0
    loop_iterations: int = 0
    arithmetic_ops: int = 0


class Interpreter:
    """Evaluates IFAQ expressions in an environment of named values.

    The environment typically binds relation names to ``DictValue``
    instances mapping tuple records to multiplicities (see
    :meth:`repro.db.relation.Relation.to_value`).
    """

    def __init__(
        self,
        env: Mapping[str, Any] | None = None,
        max_loop_iterations: int = MAX_LOOP_ITERATIONS,
    ):
        self.globals: dict[str, Any] = dict(env or {})
        self.max_loop_iterations = max_loop_iterations
        self.stats = EvalStats()

    # -- public API ---------------------------------------------------

    def evaluate(self, e: Expr, local_env: Mapping[str, Any] | None = None) -> Any:
        """Evaluate an expression; ``local_env`` shadows the globals."""
        env = dict(self.globals)
        if local_env:
            env.update(local_env)
        return self._eval(e, env)

    def run_program(self, p: Program) -> Any:
        """Run a top-level program to completion and return the final state."""
        env = dict(self.globals)
        for name, expr in p.inits:
            env[name] = self._eval(expr, env)
        state = self._eval(p.init, env)
        iterations = 0
        while True:
            env[p.state] = state
            if not truthy(self._eval(p.cond, env)):
                break
            iterations += 1
            if iterations > self.max_loop_iterations:
                raise loop_cap_error(self.max_loop_iterations)
            state = self._eval(p.body, env)
            self.stats.loop_iterations += 1
        return state

    # -- evaluation ---------------------------------------------------

    def _eval(self, e: Expr, env: dict[str, Any]) -> Any:
        self.stats.nodes_evaluated += 1

        if isinstance(e, Const):
            return e.value
        if isinstance(e, FieldLit):
            return FieldValue(e.name)
        if isinstance(e, Var):
            try:
                return env[e.name]
            except KeyError:
                raise unbound_variable(e) from None

        if isinstance(e, Add):
            self.stats.arithmetic_ops += 1
            return v_add(self._eval(e.left, env), self._eval(e.right, env))
        if isinstance(e, Mul):
            self.stats.arithmetic_ops += 1
            return v_mul(self._eval(e.left, env), self._eval(e.right, env))
        if isinstance(e, Neg):
            return v_neg(self._eval(e.operand, env))
        if isinstance(e, UnaryOp):
            return apply_unary(e.op, self._eval(e.operand, env), e)
        if isinstance(e, BinOp):
            return self._eval_binop(e, env)
        if isinstance(e, Cmp):
            return self._eval_cmp(e, env)

        if isinstance(e, Sum):
            return self._eval_sum(e, env)
        if isinstance(e, DictBuild):
            return self._eval_dict_build(e, env)
        if isinstance(e, DictLit):
            return dict_literal(
                (self._eval(k, env), self._eval(v, env)) for k, v in e.entries
            )
        if isinstance(e, SetLit):
            return SetValue(self._eval(x, env) for x in e.elems)
        if isinstance(e, Dom):
            return domain_of(self._eval(e.operand, env), e)
        if isinstance(e, Lookup):
            return lookup(self._eval(e.dict_expr, env), self._eval(e.key, env), e)

        if isinstance(e, RecordLit):
            return RecordValue((n, self._eval(v, env)) for n, v in e.fields)
        if isinstance(e, VariantLit):
            return VariantValue(e.tag, self._eval(e.value, env))
        if isinstance(e, FieldAccess):
            return access_field(self._eval(e.record, env), e.name, e)
        if isinstance(e, DynFieldAccess):
            return access_dyn_field(self._eval(e.record, env), self._eval(e.key, env), e)

        if isinstance(e, Let):
            value = self._eval(e.value, env)
            saved = env.get(e.var, _MISSING)
            env[e.var] = value
            try:
                return self._eval(e.body, env)
            finally:
                if saved is _MISSING:
                    del env[e.var]
                else:
                    env[e.var] = saved
        if isinstance(e, If):
            if truthy(self._eval(e.cond, env)):
                return self._eval(e.then_branch, env)
            return self._eval(e.else_branch, env)

        raise EvalError(f"unknown expression node {type(e).__name__}", e)

    def _eval_sum(self, e: Sum, env: dict[str, Any]) -> Any:
        domain_value = self._eval(e.domain, env)
        acc: Any = 0
        saved = env.get(e.var, _MISSING)
        try:
            for elem in iter_domain(domain_value, e):
                env[e.var] = elem
                acc = v_add(acc, self._eval(e.body, env))
                self.stats.loop_iterations += 1
        finally:
            if saved is _MISSING:
                env.pop(e.var, None)
            else:
                env[e.var] = saved
        return acc

    def _eval_dict_build(self, e: DictBuild, env: dict[str, Any]) -> Any:
        domain_value = self._eval(e.domain, env)
        out: dict[Any, Any] = {}
        saved = env.get(e.var, _MISSING)
        try:
            for elem in iter_domain(domain_value, e):
                env[e.var] = elem
                out[elem] = self._eval(e.body, env)
                self.stats.loop_iterations += 1
        finally:
            if saved is _MISSING:
                env.pop(e.var, None)
            else:
                env[e.var] = saved
        return DictValue(out)

    def _eval_binop(self, e: BinOp, env: dict[str, Any]) -> Any:
        op = e.op
        if op == "and":
            return truthy(self._eval(e.left, env)) and truthy(self._eval(e.right, env))
        if op == "or":
            return truthy(self._eval(e.left, env)) or truthy(self._eval(e.right, env))
        a = self._eval(e.left, env)
        b = self._eval(e.right, env)
        self.stats.arithmetic_ops += 1
        if op == "div":
            return a / b
        if op == "idiv":
            return a // b
        if op == "pow":
            return a**b
        if op == "min":
            return min(a, b)
        if op == "max":
            return max(a, b)
        raise EvalError(f"unknown binary operator {op!r}", e)

    def _eval_cmp(self, e: Cmp, env: dict[str, Any]) -> Any:
        a = self._eval(e.left, env)
        b = self._eval(e.right, env)
        op = e.op
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "in":
            return a in b
        raise EvalError(f"unknown comparison {op!r}", e)


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def evaluate(e: Expr, env: Mapping[str, Any] | None = None) -> Any:
    """One-shot expression evaluation (convenience wrapper)."""
    return Interpreter(env).evaluate(e)


def run_program(p: Program, env: Mapping[str, Any] | None = None) -> Any:
    """One-shot program execution (convenience wrapper)."""
    return Interpreter(env).run_program(p)
