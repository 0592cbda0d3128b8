"""Small expression language for coefficients given on the command line.

Grammar, with Python's precedence (``^`` is a synonym of ``**``)::

    expr  := term (("+" | "-") term)*
    term  := unary (("*" | "/") unary)*
    unary := ("+" | "-") unary | power
    power := atom (("^" | "**") unary)?
    atom  := NUMBER | "x" | ("exp" | "sin" | "cos" | "log") "(" expr ")"
           | "(" expr ")"

so ``^`` is right-associative and binds tighter than a unary minus on its
left: ``-x^2`` is ``-(x^2)`` and ``2^-1`` is ``1/2``.  NUMBER is any real
Python numeric literal (``1e3``, ``0x1F``, ``1_0``).  One regular expression
lexes the text, numbers by the pattern of Python's tokenizer, and an
allowlist rejects every other name and character before parsing.

The recursive-descent parser builds a tuple AST and folds constant subtrees
in float arithmetic; ``CompiledExpr.diff`` differentiates the AST with the
same simplifications, and the evaluator walks it with numpy on each call.
Caps keep hostile input cheap, each reported as MalformedExpression: at most
MAX_LENGTH characters, nesting (parentheses, signs, exponents) at most
MAX_DEPTH deep, every folded constant finite and real (``9^9^9^9``
overflows; ``log(-1)``, ``(-8)^(1/3)`` and ``3j`` are complex-valued), and
derivatives of at most MAX_NODES nodes.
"""
from __future__ import annotations

import functools
import math
import operator
import re
import tokenize
from typing import Callable

import numpy as np

from ._checks import _Record, _count, _float_array
from .errors import MalformedExpression

MAX_LENGTH = 2000
MAX_DEPTH = 100
MAX_NODES = 50_000

_FUNCS = ("exp", "sin", "cos", "log")
_NAMES = {"x", *_FUNCS}
# Blanks as Python's tokenizer skips them (a leading byte-order mark too, but
# not a backslash-newline that ends the text, after which Python expects
# another line), numbers by Python's grammar, words, operators, anything else.
_TOKEN = re.compile(
    r"(?P<blank>(?:\A\ufeff|[ \t\f\n]|\r\n|\\\r?\n(?!\Z))+)"
    rf"|(?P<number>{tokenize.Number})|(?P<word>\w+)|(?P<op>\*\*|[-+*/^()])|(?P<other>.)",
    re.DOTALL,
)
_MATH = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "log": math.log}
_NUMPY = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "log": np.log}

# AST nodes are tuples: ("const", v), ("x",), ("add", t, ...), ("mul", f, ...),
# ("pow", base, exponent) and (name, arg) for name in _FUNCS.  Sums and
# products are flat, a - b is ("add", a, ("mul", -1, b)) and a / b is
# ("mul", a, ("pow", b, -1)), so a chain like x/x/.../x stays shallow.
X = ("x",)


class _Invalid(Exception):
    """Reason an expression is rejected; the caller adds the text."""


def _const(v: float) -> tuple:
    if not math.isfinite(v):
        raise _Invalid("constant out of float range")
    return ("const", float(v))


def _fold(f, *args) -> tuple:
    """The constant f(*args); a result past float range is refused."""
    try:
        return _const(f(*args))
    except OverflowError:
        raise _Invalid("constant out of float range") from None


ZERO, ONE, MINUS_ONE = _const(0.0), _const(1.0), _const(-1.0)


def _add(*terms) -> tuple:
    flat, c = [], 0.0
    for t in terms:
        for u in t[1:] if t[0] == "add" else (t,):
            if u[0] == "const":
                c += u[1]
            else:
                flat.append(u)
    if c != 0.0 or not flat:
        flat.append(_const(c))
    return flat[0] if len(flat) == 1 else ("add", *flat)


def _mul(*factors) -> tuple:
    flat, c = [], 1.0
    for f in factors:
        for u in f[1:] if f[0] == "mul" else (f,):
            if u[0] == "const":
                c *= u[1]
            else:
                flat.append(u)
    if c == 0.0 or not flat:
        return _const(c)
    if c != 1.0:
        flat.insert(0, _const(c))
    return flat[0] if len(flat) == 1 else ("mul", *flat)


def _neg(t) -> tuple:
    return _mul(MINUS_ONE, t)


def _pow(base, exponent) -> tuple:
    if exponent[0] != "const":
        return ("pow", base, exponent)
    p = exponent[1]
    if p == 0.0:
        return ONE
    if p == 1.0:
        return base
    if base[0] != "const":
        return ("pow", base, exponent)
    b = base[1]
    if b < 0.0 and not p.is_integer():
        raise _Invalid("complex-valued expression")
    if b == 0.0 and p < 0.0:
        raise _Invalid("division by zero")
    return _fold(operator.pow, b, p)


def _call(name, arg) -> tuple:
    if arg[0] != "const":
        return (name, arg)
    if name == "log" and arg[1] <= 0.0:
        raise _Invalid("complex-valued expression")
    return _fold(_MATH[name], arg[1])


# ---------------------------------------------------------------- parsing


def _number(s: str) -> tuple:
    if s[-1] in "jJ":
        raise _Invalid("complex-valued expression")
    try:
        return _fold(float, int(s, 0))
    except ValueError:
        return _fold(float, s)


def _lex(text: str) -> list:
    """Allowlisted tokens: numbers as const nodes, names and operators as text."""
    opened, closed = text.count("("), text.count(")")
    if opened != closed:
        lack = "missing ')'" if opened > closed else "')' without '('"
        raise _Invalid(f"unbalanced parentheses: {lack}")
    out = []
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "number":
            out.append(_number(tok))
        elif kind == "word" and tok not in _NAMES:
            raise _Invalid(f"unknown name: {tok}")
        elif kind in ("word", "op"):
            out.append(tok)
        elif kind == "other":
            raise _Invalid(f"disallowed token: {tok!r}")
    return out


class _Parser:
    """Recursive descent over lexed tokens; unary also parses power."""

    def __init__(self, toks: list):
        self.toks, self.pos, self.depth = toks, 0, 0

    def take(self, *ops):
        tok = self.toks[self.pos] if self.pos < len(self.toks) else None
        if isinstance(tok, str) and tok in ops:
            self.pos += 1
            return tok
        return None

    def expect(self, op: str):
        if not self.take(op):
            raise _Invalid(f"expected {op!r} {self.where()}")

    def where(self) -> str:
        if self.pos >= len(self.toks):
            return "at the end"
        tok = self.toks[self.pos]
        return f"before token {self.pos + 1} ({tok if isinstance(tok, str) else 'number'})"

    def parse(self) -> tuple:
        node = self.expr()
        if self.pos != len(self.toks):
            raise _Invalid(f"unexpected input {self.where()}")
        return node

    def expr(self) -> tuple:
        terms = [self.term()]
        while op := self.take("+", "-"):
            t = self.term()
            terms.append(t if op == "+" else _neg(t))
        return _add(*terms)

    def term(self) -> tuple:
        factors = [self.unary()]
        while op := self.take("*", "/"):
            f = self.unary()
            factors.append(f if op == "*" else _pow(f, MINUS_ONE))
        return _mul(*factors)

    def unary(self) -> tuple:
        # every recursion of the grammar passes through here
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _Invalid(f"nesting deeper than {MAX_DEPTH} levels")
        if op := self.take("+", "-"):
            node = self.unary()
            node = node if op == "+" else _neg(node)
        else:
            node = self.atom()
            if self.take("^", "**"):
                node = _pow(node, self.unary())
        self.depth -= 1
        return node

    def atom(self) -> tuple:
        if self.pos >= len(self.toks):
            raise _Invalid("unexpected end of expression")
        tok = self.toks[self.pos]
        self.pos += 1
        if isinstance(tok, tuple):
            return tok
        if tok == "x":
            return X
        if tok in _FUNCS:
            self.expect("(")
        elif tok != "(":
            self.pos -= 1
            raise _Invalid(f"unexpected {tok!r} {self.where()}")
        node = self.expr()
        self.expect(")")
        return _call(tok, node) if tok in _FUNCS else node


# ---------------------------------------------------------------- calculus


def _derivative(expr: tuple, order: int) -> tuple:
    """order-th derivative, refusing any step that grows beyond MAX_NODES.

    The product rule copies every other factor into each term, so repeated
    differentiation of long products grows polynomially; the budget counts
    those copies while they are made, and the tree size after each step.
    """
    spent = 0

    def d(n: tuple) -> tuple:
        nonlocal spent
        kind = n[0]
        if kind == "const":
            return ZERO
        if kind == "x":
            return ONE
        if kind == "add":
            return _add(*map(d, n[1:]))
        if kind == "mul":
            fs, terms = n[1:], []
            for i, f in enumerate(fs):
                spent += len(fs)
                if spent > MAX_NODES:
                    raise _Invalid(f"derivative larger than {MAX_NODES} nodes")
                terms.append(_mul(*fs[:i], d(f), *fs[i + 1 :]))
            return _add(*terms)
        if kind == "pow":
            b, e = n[1], n[2]
            if e[0] == "const":  # (u^p)' = p u^(p-1) u'
                return _mul(e, _pow(b, _const(e[1] - 1.0)), d(b))
            # (u^v)' = u^v (v' log u + v u'/u)
            return _mul(n, _add(_mul(d(e), _call("log", b)),
                                _mul(e, d(b), _pow(b, MINUS_ONE))))
        u = n[1]
        if kind == "exp":
            outer = n
        elif kind == "sin":
            outer = _call("cos", u)
        elif kind == "cos":
            outer = _neg(_call("sin", u))
        else:
            outer = _pow(u, MINUS_ONE)
        return _mul(outer, d(u))

    for _ in range(order):
        expr = d(expr)
        if _size(expr, {}) > MAX_NODES:
            raise _Invalid(f"derivative larger than {MAX_NODES} nodes")
    return expr


def _size(n: tuple, memo: dict) -> int:
    """Node count of the tree, shared subtrees counted at every use."""
    if id(n) not in memo:
        memo[id(n)] = 1 + sum(_size(c, memo) for c in n[1:] if isinstance(c, tuple))
    return memo[id(n)]


def _fraction(factors) -> tuple:
    """Numerator factors of a product, and the bases of its negative powers."""
    num, den = [], []
    for f in factors:
        if f[0] == "pow" and f[2][0] == "const" and f[2][1] < 0.0:
            den.append(_pow(f[1], _const(-f[2][1])))
        else:
            num.append(f)
    return num, den


def _eval(n: tuple, x):
    """numpy value of a node at x."""
    kind = n[0]
    if kind == "const":
        return n[1]
    if kind == "x":
        return x
    if kind in _FUNCS:
        return _NUMPY[kind](_eval(n[1], x))
    if kind == "pow":
        base, e = _eval(n[1], x), n[2]
        if e[0] != "const":
            return base ** _eval(e, x)
        p = e[1]
        if p == -1.0:
            return 1.0 / base
        if p == 0.5:
            return np.sqrt(base)
        return base**p
    if kind == "add":
        return functools.reduce(operator.add, (_eval(t, x) for t in n[1:]))
    # folding leaves at most one constant in a product, first
    if n[1][0] == "const":
        return n[1][1] * _eval(_mul(*n[2:]), x)
    # divide by the bases of negative powers, as a / b does
    num, den = _fraction(n[1:])
    top = functools.reduce(operator.mul, (_eval(f, x) for f in num)) if num else 1.0
    return functools.reduce(operator.truediv, (_eval(f, x) for f in den), top)


def _fmt(v: float) -> str:
    return str(int(v)) if v.is_integer() and abs(v) < 1e15 else repr(v)


def _show(n: tuple) -> tuple:
    """(text, precedence) of a node: 1 sum, 2 product, 3 unary, 4 power, 5 atom."""
    kind = n[0]
    if kind == "const":
        return _fmt(n[1]), 3 if n[1] < 0.0 else 5
    if kind == "x":
        return "x", 5
    if kind in _FUNCS:
        return f"{kind}({_show(n[1])[0]})", 5
    if kind == "pow":
        return f"{_wrap(n[1], 5)}^{_wrap(n[2], 3)}", 4
    if kind == "add":
        text = _show(n[1])[0]
        for t in n[2:]:
            s = _show(t)[0]
            text += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
        return text, 1
    fs, sign = list(n[1:]), ""
    if fs[0][0] == "const" and fs[0][1] < 0.0:
        sign = "-"
        fs = ([_const(-fs[0][1])] if fs[0][1] != -1.0 else []) + fs[1:]
    num, den = _fraction(fs)
    text = "*".join(_wrap(f, 3) for f in num) or "1"
    return sign + text + "".join("/" + _wrap(d, 3) for d in den), 2


def _wrap(n: tuple, prec: int) -> str:
    text, p = _show(n)
    return text if p >= prec else f"({text})"


# ---------------------------------------------------------------- interface


def _vectorized(raw: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Float-array evaluator: scalar in, float out; array in, same-shape array out.

    An evaluator this function made is returned as it is, not wrapped again.
    """
    if getattr(raw, "_vectorized", False):
        return raw

    def fn(x):
        x = _float_array("x", x)
        if x.ndim:
            out = np.asarray(raw(x), dtype=float)
            if out.shape != x.shape:
                out = np.broadcast_to(out, x.shape).copy()
            return out
        # scalars as np.float64: numpy's arithmetic without 0-d array overhead
        return float(raw(np.float64(x)))

    fn._vectorized = True
    return fn


class CompiledExpr(_Record):
    """A parsed expression (tuple AST) together with its numpy evaluator."""

    text: str
    expr: tuple
    fn: Callable = None
    _uncompared = _unshown = ("fn",)

    def __call__(self, x):
        return self.fn(x)

    def diff(self, order: int = 1) -> "CompiledExpr":
        try:
            d = _derivative(self.expr, _count("order", order, 0))
        except _Invalid as exc:
            raise MalformedExpression(self.text, str(exc)) from None
        return _compiled(_show(d)[0], d)


def _compiled(text: str, expr: tuple) -> CompiledExpr:
    # values past float range read inf or NaN, without numpy's warnings
    fn = np.errstate(all="ignore")(functools.partial(_eval, expr))
    return CompiledExpr(text=text, expr=expr, fn=_vectorized(fn))


def compile_expression(text: str) -> CompiledExpr:
    """Parse text in the restricted grammar and return an evaluator.

    Raises MalformedExpression on syntax errors, unknown names or functions,
    complex or overflowing constants, and input beyond the length and
    nesting caps.
    """
    if not isinstance(text, str) or not text.strip():
        raise MalformedExpression(text, "empty expression")
    if len(text) > MAX_LENGTH:
        raise MalformedExpression(text, f"longer than {MAX_LENGTH} characters")
    try:
        expr = _Parser(_lex(text)).parse()
    except _Invalid as exc:
        raise MalformedExpression(text, str(exc)) from None
    return _compiled(text, expr)


def constant(value: float) -> CompiledExpr:
    return _compiled(str(value), ("const", float(value)))
