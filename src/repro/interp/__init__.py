"""Reference interpreter — the semantic oracle for all compiler passes —
and the code generator that runs residual programs as Python functions."""

from repro.interp.codegen import ResidualFunction, compile_residual
from repro.interp.interpreter import EvalError, EvalStats, Interpreter, evaluate, run_program

__all__ = [
    "EvalError",
    "EvalStats",
    "Interpreter",
    "ResidualFunction",
    "compile_residual",
    "evaluate",
    "run_program",
]
