"""Residual programs as generated Python functions.

After aggregate extraction what is left of a program — for batch
gradient descent, the loop over the covar matrix — is scalar work over
the aggregate record.  :func:`compile_residual` emits that residual
once as one Python function and ``exec``'s it, so running it costs
bytecode instead of a tree walk per node per iteration.

The function computes what :class:`~repro.interp.Interpreter` computes,
value for value and bit for bit:

* ``+``, ``*`` and unary ``-`` are Python operators where the type
  checker proves the operands numeric (for numbers, bools included,
  they give the ring operations' results) and
  :mod:`repro.runtime.rings` calls elsewhere; conditions go through
  ``truthy`` unless proven numeric;
* ``Σ`` and ``λ`` loops fold in the interpreter's order;
* lookups, field accesses, domains, dictionary literals and unary
  operators call the interpreter's own leaf operations, so values and
  errors agree;
* a free variable is read from the ``env`` argument and checked where
  it is used — an unbound one raises :class:`EvalError` naming it — and
  the ``while`` loop stops with the interpreter's error after
  :data:`MAX_LOOP_ITERATIONS` iterations.

Every binder gets a fresh local (IFAQ names may be Python keywords),
and an expression nested :data:`MAX_DEPTH` operators deep is spilled
into a temporary: CPython's parser rejects more than 200 nested
parentheses, and a long flat ``+`` chain overflows its compiler.

Run-time parameters (see :mod:`repro.compiler`) are arguments of the
function, so one function serves every ``alpha`` and ``iterations``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Mapping

from repro.interp.interpreter import (
    MAX_LOOP_ITERATIONS,
    EvalError,
    access_dyn_field,
    access_field,
    apply_unary,
    dict_literal,
    domain_of,
    iter_domain,
    lookup,
    loop_cap_error,
    unbound_variable,
)
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
from repro.ir.program import Program
from repro.ir.types import DYN, BoolType, DynType, IntType, RealType, RecordType, Type
from repro.runtime.rings import truthy, v_add, v_mul, v_neg
from repro.runtime.values import DictValue, FieldValue, RecordValue, SetValue, VariantValue
from repro.typing.typecheck import TypeChecker

#: operators an emitted expression may nest before it is spilled into a
#: temporary (each adds at most three levels of brackets)
MAX_DEPTH = 24

_NUMERIC = (IntType, RealType, BoolType)
_NOT_IDENT = re.compile(r"[^0-9A-Za-z_]")
_CMP_OPS = {"==", "!=", "<", "<=", ">", ">=", "in"}
_INFIX_BINOPS = {"div": "/", "idiv": "//", "pow": "**"}
_MISSING = object()


def _unbound(e: Var):
    raise unbound_variable(e)


def _loop_cap():
    raise loop_cap_error(MAX_LOOP_ITERATIONS)


def _fail(message: str, e: Expr):
    raise EvalError(message, e)


#: what the generated code refers to besides its own locals and constants
_RUNTIME = {
    "truthy": truthy,
    "v_add": v_add,
    "v_mul": v_mul,
    "v_neg": v_neg,
    "DictValue": DictValue,
    "RecordValue": RecordValue,
    "SetValue": SetValue,
    "VariantValue": VariantValue,
    "_MISSING": _MISSING,
    "_unbound": _unbound,
    "_loop_cap": _loop_cap,
    "_fail": _fail,
    "_lookup": lookup,
    "_field": access_field,
    "_dyn_field": access_dyn_field,
    "_domain": iter_domain,
    "_dom": domain_of,
    "_dict_lit": dict_literal,
    "_unary": apply_unary,
}


@dataclass(frozen=True)
class ResidualFunction:
    """A residual program compiled to Python.

    ``fn(env, *parameter_values)`` returns the program's final state;
    ``free_vars`` are the names it reads from ``env``.
    """

    source: str
    parameters: tuple[str, ...]
    free_vars: tuple[str, ...]
    fn: Callable[..., Any] = field(repr=False, compare=False)

    def run(self, program: Program, env: Mapping[str, Any]) -> Any:
        """Run with the parameter values bound in ``program``'s inits
        (``program`` is the residual this function was generated from,
        its parameters possibly re-bound)."""
        inits = dict(program.inits)
        return self.fn(env, *(inits[name].value for name in self.parameters))


def compile_residual(
    program: Program,
    env_types: Mapping[str, Type],
    parameters: Collection[str] = (),
) -> ResidualFunction:
    """Generate ``program`` as a Python function.

    ``env_types`` types the free variables the environment will bind
    (a variable missing from it is not assumed numeric).  An init bound to
    a literal under a name in ``parameters`` becomes an argument.
    """
    return _Emitter(_infer_types(program, env_types)).program(program, parameters)


# -- types -----------------------------------------------------------------


class _TypeRecorder(TypeChecker):
    """Lenient inference that remembers every node's type.

    ``DYN`` absorbs in unification, so a node typed numeric is numeric at
    run time whatever an untyped subterm turns out to be.  A record-typed
    ``Σ``, lookup or product may be the scalar ring zero at run time (an
    empty sum, a missing key, a scaling by 0), so it is typed ``DYN``.  A
    node object shared between scopes that type it differently is
    recorded ``DYN``.
    """

    def __init__(self) -> None:
        super().__init__(strict=False)
        self.types: dict[int, Type] = {}

    def infer(self, e: Expr, env: dict[str, Type]) -> Type:
        t = super().infer(e, env)
        if isinstance(e, (Sum, Lookup, Mul)) and isinstance(t, RecordType):
            t = DYN
        if self.types.setdefault(id(e), t) != t:
            self.types[id(e)] = DYN
        return t

    def unify(self, a: Type, b: Type, expr: Expr) -> Type:
        if isinstance(a, DynType) or isinstance(b, DynType):
            return DYN
        return super().unify(a, b, expr)


def _infer_types(program: Program, env_types: Mapping[str, Type]) -> dict[int, Type]:
    checker = _TypeRecorder()
    scope = dict(env_types)
    for name, value in program.inits:
        scope[name] = checker.infer(value, scope)
    state_t = checker.infer(program.init, scope)
    before_loop = checker.types
    # The state holds the init's value or a body's: type it by their join,
    # widened until the body agrees (DYN after a few rounds at most).
    for attempt in range(4):
        checker.types = dict(before_loop)
        scope[program.state] = state_t
        checker.infer(program.cond, scope)
        body_t = checker.infer(program.body, scope)
        joined = checker.unify(state_t, body_t, program.body)
        if joined == state_t:
            break
        state_t = joined if attempt < 2 else DYN
    return checker.types


# -- emission --------------------------------------------------------------


class _Emitter:
    def __init__(self, types: dict[int, Type]):
        self.types = types
        self.lines: list[str] = []
        self.indent = 1
        self.constants: dict[str, Any] = {}
        self.free: dict[str, str] = {}  # IFAQ name -> local
        self.checked: set[str] = set()  # free variables known bound here
        self._ids = itertools.count()

    # -- plumbing

    def fresh(self, prefix: str, hint: str = "") -> str:
        """A new local: IFAQ names may be Python keywords or repeat."""
        name = f"{prefix}{next(self._ids)}"
        return f"{name}_{_NOT_IDENT.sub('_', hint)}" if hint else name

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def block(self, header: str, emit: Callable[[], None]) -> None:
        """``header:`` followed by what ``emit`` emits, one level in."""
        self.line(header)
        self.indent += 1
        checked = set(self.checked)
        emit()
        self.checked = checked
        self.indent -= 1

    def constant(self, value: Any) -> str:
        name = f"_k{len(self.constants)}"
        self.constants[name] = value
        return name

    def literal(self, value: Any) -> str:
        if isinstance(value, (bool, int, str)) or (isinstance(value, float) and math.isfinite(value)):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        return self.constant(value)

    def numeric(self, *nodes: Expr) -> bool:
        return all(isinstance(self.types.get(id(n)), _NUMERIC) for n in nodes)

    def spill(self, code: str) -> str:
        temp = self.fresh("t")
        self.line(f"{temp} = {code}")
        return temp

    # -- expressions

    def expr(self, e: Expr, scope: dict[str, str]) -> str:
        return self.operand(e, scope)[0]

    def operand(self, e: Expr, scope: dict[str, str]) -> tuple[str, int]:
        """Python code for ``e`` (statements it needs are emitted first)
        and how many operators deep it nests."""
        code, depth = self.node(e, scope)
        if depth >= MAX_DEPTH:
            return self.spill(code), 0
        return code, depth

    def call(self, fn: str, args: list[Expr], scope: dict[str, str], *extra: str) -> tuple[str, int]:
        """``fn(*args, *extra)``: ``args`` are IFAQ operands, ``extra`` code."""
        codes, depths = zip(*(self.operand(a, scope) for a in args))
        return f"{fn}({', '.join((*codes, *extra))})", 1 + max(depths)

    def node(self, e: Expr, scope: dict[str, str]) -> tuple[str, int]:
        if isinstance(e, Const):
            return self.literal(e.value), 0
        if isinstance(e, FieldLit):
            return self.constant(FieldValue(e.name)), 0
        if isinstance(e, Var):
            if e.name in scope:
                return scope[e.name], 0
            return self.free_var(e), 0

        if isinstance(e, (Add, Mul)):
            (a, da), (b, db) = self.operand(e.left, scope), self.operand(e.right, scope)
            if self.numeric(e.left, e.right):
                return f"({a} {'+' if isinstance(e, Add) else '*'} {b})", 1 + max(da, db)
            return f"{'v_add' if isinstance(e, Add) else 'v_mul'}({a}, {b})", 1 + max(da, db)
        if isinstance(e, Neg):
            a, da = self.operand(e.operand, scope)
            return (f"(-{a})" if self.numeric(e.operand) else f"v_neg({a})"), 1 + da
        if isinstance(e, UnaryOp):
            a, da = self.operand(e.operand, scope)
            return f"_unary({e.op!r}, {a}, {self.constant(e)})", 1 + da
        if isinstance(e, BinOp):
            return self.binop(e, scope)
        if isinstance(e, Cmp):
            (a, da), (b, db) = self.operand(e.left, scope), self.operand(e.right, scope)
            if e.op not in _CMP_OPS:
                return self.fail(f"unknown comparison {e.op!r}", e)
            return f"({a} {e.op} {b})", 1 + max(da, db)

        if isinstance(e, (Sum, DictBuild)):
            return self.loop(e, scope), 0
        if isinstance(e, DictLit):
            pairs = [(self.operand(k, scope), self.operand(v, scope)) for k, v in e.entries]
            entries = "".join(f"({k}, {v}), " for (k, _), (v, _) in pairs)
            depth = max((max(dk, dv) for (_, dk), (_, dv) in pairs), default=0)
            return f"_dict_lit(({entries}))", 3 + depth
        if isinstance(e, SetLit):
            elems = [self.operand(x, scope) for x in e.elems]
            entries = "".join(f"{code}, " for code, _ in elems)
            return f"SetValue(({entries}))", 2 + max((d for _, d in elems), default=0)
        if isinstance(e, Dom):
            return self.call("_dom", [e.operand], scope, self.constant(e))
        if isinstance(e, Lookup):
            return self.call("_lookup", [e.dict_expr, e.key], scope, self.constant(e))

        if isinstance(e, RecordLit):
            values = [self.operand(v, scope) for _, v in e.fields]
            entries = "".join(f"({n!r}, {code}), " for (n, _), (code, _) in zip(e.fields, values))
            return f"RecordValue(({entries}))", 3 + max((d for _, d in values), default=0)
        if isinstance(e, VariantLit):
            value, depth = self.operand(e.value, scope)
            return f"VariantValue({e.tag!r}, {value})", 1 + depth
        if isinstance(e, FieldAccess):
            r, dr = self.operand(e.record, scope)
            if isinstance(self.types.get(id(e.record)), RecordType):
                # RecordValue's own dict: the typed hot path of BGD's loop
                return f"{r}._fields[{e.name!r}]", 1 + dr
            return f"_field({r}, {e.name!r}, {self.constant(e)})", 1 + dr
        if isinstance(e, DynFieldAccess):
            return self.call("_dyn_field", [e.record, e.key], scope, self.constant(e))

        if isinstance(e, Let):
            local = self.fresh("v", e.var)
            self.line(f"{local} = {self.expr(e.value, scope)}")
            return self.node(e.body, {**scope, e.var: local})
        if isinstance(e, If):
            return self.branch(e, scope), 0

        return self.fail(f"unknown expression node {type(e).__name__}", e)

    def fail(self, message: str, e: Expr) -> tuple[str, int]:
        return f"_fail({message!r}, {self.constant(e)})", 1

    def free_var(self, e: Var) -> str:
        local = self.free.get(e.name)
        if local is None:
            local = self.free[e.name] = self.fresh("f", e.name)
        if e.name not in self.checked:
            self.line(f"if {local} is _MISSING: _unbound({self.constant(e)})")
            self.checked.add(e.name)
        return local

    def condition(self, e: Expr, scope: dict[str, str]) -> str:
        code = self.expr(e, scope)
        return code if self.numeric(e) else f"truthy({code})"

    def binop(self, e: BinOp, scope: dict[str, str]) -> tuple[str, int]:
        if e.op in ("and", "or"):
            # Statements, so the right operand runs only when needed.
            result = self.spill(f"truthy({self.expr(e.left, scope)})")

            def right() -> None:
                self.line(f"{result} = truthy({self.expr(e.right, scope)})")

            self.block(f"if {'' if e.op == 'and' else 'not '}{result}:", right)
            return result, 0
        (a, da), (b, db) = self.operand(e.left, scope), self.operand(e.right, scope)
        depth = 1 + max(da, db)
        if e.op in _INFIX_BINOPS:
            return f"({a} {_INFIX_BINOPS[e.op]} {b})", depth
        if e.op in ("min", "max"):
            return f"{e.op}({a}, {b})", depth
        return self.fail(f"unknown binary operator {e.op!r}", e)

    def branch(self, e: If, scope: dict[str, str]) -> str:
        result = self.fresh("t")
        cond = self.condition(e.cond, scope)
        self.block(f"if {cond}:", lambda: self.line(f"{result} = {self.expr(e.then_branch, scope)}"))
        self.block("else:", lambda: self.line(f"{result} = {self.expr(e.else_branch, scope)}"))
        return result

    def loop(self, e: Sum | DictBuild, scope: dict[str, str]) -> str:
        domain = self.expr(e.domain, scope)
        result = self.fresh("t")
        var = self.fresh("v", e.var)
        inner = {**scope, e.var: var}
        if isinstance(e, Sum):
            self.line(f"{result} = 0")
            fold = "{r} = ({r} + {b})" if self.numeric(e.body) else "{r} = v_add({r}, {b})"
        else:
            self.line(f"{result} = {{}}")
            fold = "{r}[" + var + "] = {b}"

        def body() -> None:
            self.line(fold.format(r=result, b=self.expr(e.body, inner)))

        self.block(f"for {var} in _domain({domain}, {self.constant(e)}):", body)
        if isinstance(e, DictBuild):
            self.line(f"{result} = DictValue({result})")
        return result

    # -- the program

    def program(self, p: Program, parameters: Collection[str]) -> ResidualFunction:
        scope: dict[str, str] = {}
        args: dict[str, str] = {}  # parameter name -> argument
        for name, value in p.inits:
            if name in parameters and isinstance(value, Const):
                scope[name] = args.setdefault(name, self.fresh("p", name))
                continue
            code = self.expr(value, scope)
            scope[name] = self.fresh("v", name)
            self.line(f"{scope[name]} = {code}")
        state = self.fresh("v", p.state)
        self.line(f"{state} = {self.expr(p.init, scope)}")
        scope[p.state] = state
        count = self.fresh("n")
        self.line(f"{count} = 0")

        def iteration() -> None:
            self.line(f"if not {self.condition(p.cond, scope)}:")
            self.line("    break")
            self.line(f"{count} += 1")
            self.line(f"if {count} > {MAX_LOOP_ITERATIONS}:")
            self.line("    _loop_cap()")
            self.line(f"{state} = {self.expr(p.body, scope)}")

        self.block("while True:", iteration)
        self.line(f"return {state}")

        header = [f"def residual({', '.join(['env', *args.values()])}):"]
        header += [f"    {local} = env.get({name!r}, _MISSING)" for name, local in self.free.items()]
        source = "\n".join(header + self.lines) + "\n"
        namespace = {**_RUNTIME, **self.constants}
        exec(compile(source, "<ifaq-residual>", "exec"), namespace)
        return ResidualFunction(
            source=source,
            parameters=tuple(args),
            free_vars=tuple(self.free),
            fn=namespace["residual"],
        )
