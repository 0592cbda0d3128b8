"""Small expression language for coefficients given on the command line.

Accepted grammar: decimal numbers, the variable x, the operators
+ - * / ^ (also **), parentheses, and the functions exp, sin, cos, log.
Anything else is rejected.  Parsing and differentiation are delegated to
sympy; evaluation is a vectorised numpy callable.  sympy is imported the
first time an expression is compiled, so the chain code paths never load it.
"""
from __future__ import annotations

import io
import token as _tok
import tokenize
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import MalformedExpression

if TYPE_CHECKING:
    import sympy as sp

_FUNCS = ("exp", "sin", "cos", "log")
_NAMES = {"x", *_FUNCS}
_OPS = {"+", "-", "*", "/", "**", "^", "(", ")"}
_SKIP = {_tok.ENCODING, _tok.NEWLINE, _tok.NL, _tok.ENDMARKER}


class _Sympy(NamedTuple):
    sp: object
    x: object
    locals: dict
    transforms: tuple
    parse_expr: Callable


@cache
def _sympy() -> _Sympy:
    """sympy, the symbol x, the allowed-name table and the parse transforms."""
    import sympy as sp
    from sympy.parsing.sympy_parser import (
        convert_xor,
        parse_expr,
        standard_transformations,
    )

    x = sp.Symbol("x")
    local = {"x": x, **{name: getattr(sp, name) for name in _FUNCS}}
    return _Sympy(sp, x, local, standard_transformations + (convert_xor,), parse_expr)


def _lex_check(text: str) -> None:
    # reject anything outside the grammar before sympy ever evaluates it
    try:
        toks = list(tokenize.tokenize(io.BytesIO(text.encode()).readline))
    except tokenize.TokenizeError as exc:
        raise MalformedExpression(text, str(exc)) from None
    for t in toks:
        if t.type in _SKIP:
            continue
        if t.type == _tok.NUMBER:
            continue
        if t.type == _tok.NAME:
            if t.string in _NAMES:
                continue
            raise MalformedExpression(text, f"unknown name: {t.string}")
        if t.type == _tok.OP and t.string in _OPS:
            continue
        raise MalformedExpression(text, f"disallowed token: {t.string!r}")


def _vectorized(expr) -> Callable[[np.ndarray], np.ndarray]:
    S = _sympy()
    raw = S.sp.lambdify(S.x, expr, modules="numpy")

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(raw(x), dtype=float)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape).copy()
        return out if x.ndim else float(out)

    return fn


@dataclass(frozen=True)
class CompiledExpr:
    """A parsed expression together with its numpy evaluator."""

    text: str
    expr: sp.Expr
    fn: Callable = field(compare=False, repr=False, default=None)

    def __call__(self, x):
        return self.fn(x)

    def diff(self, order: int = 1) -> "CompiledExpr":
        S = _sympy()
        d = S.sp.diff(self.expr, S.x, order)
        return CompiledExpr(text=str(d), expr=d, fn=_vectorized(d))


def compile_expression(text: str) -> CompiledExpr:
    """Parse text in the restricted grammar and return an evaluator.

    Raises MalformedExpression on syntax errors, unknown names, or unknown
    functions.  The allowlist check runs before sympy is imported.
    """
    if not isinstance(text, str) or not text.strip():
        raise MalformedExpression(text, "empty expression")
    _lex_check(text)
    S = _sympy()
    try:
        expr = S.parse_expr(
            text, local_dict=S.locals, transformations=S.transforms, evaluate=True
        )
    except Exception as exc:  # sympy raises several token/syntax types
        raise MalformedExpression(text, str(exc)) from None
    if not isinstance(expr, S.sp.Basic):
        raise MalformedExpression(text, "not a scalar expression")
    stray = expr.free_symbols - {S.x}
    if stray:
        names = ", ".join(sorted(str(s) for s in stray))
        raise MalformedExpression(text, f"unknown name(s): {names}")
    if expr.has(S.sp.I):
        raise MalformedExpression(text, "complex-valued expression")
    return CompiledExpr(text=text, expr=expr, fn=_vectorized(expr))


def constant(value: float) -> CompiledExpr:
    sp = _sympy().sp
    expr = sp.Float(value) if value != int(value) else sp.Integer(int(value))
    return CompiledExpr(text=str(value), expr=expr, fn=_vectorized(expr))
