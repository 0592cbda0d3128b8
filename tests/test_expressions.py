import io
import json
import os
import re
import subprocess
import sys
import textwrap
import token
import tokenize
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, Phase, assume, example, given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

from isospec import MalformedExpression, compile_expression, constant, expressions
from isospec.expressions import MAX_DEPTH, MAX_LENGTH, _NAMES, _Invalid, _lex, _number, _Parser


GOOD = [
    ("x^2 + 1", lambda x: x**2 + 1),
    ("exp(-x^2/2)", lambda x: np.exp(-(x**2) / 2)),
    ("sin(x)*cos(x) - log(x+2)/3", lambda x: np.sin(x) * np.cos(x) - np.log(x + 2) / 3),
    ("2*x**3 - 1/2", lambda x: 2 * x**3 - 0.5),
    ("-x", lambda x: -x),
    ("3", lambda x: 3.0 + 0 * x),
    ("x^0", lambda x: 1.0 + 0 * x),
    # Python's precedence: ^ is right-associative and binds tighter than a
    # unary minus on its left, whose operand may itself be signed
    ("-x^2", lambda x: -(x**2)),
    ("-2^2 + x", lambda x: -4.0 + x),
    ("2^-1 * x", lambda x: 0.5 * x),
    ("2^-x^2", lambda x: 2.0 ** -(x**2)),
    ("2^3^2 - (x^2 + 1)**-1", lambda x: 512.0 - 1 / (x**2 + 1)),
    ("x/2/4*3", lambda x: x / 2 / 4 * 3),
    ("--x - +x", lambda x: 0 * x),
    ("exp(sin(x))^(cos(x) + 2)", lambda x: np.exp(np.sin(x)) ** (np.cos(x) + 2)),
    # whitespace is insignificant, also where Python's tokenizer sees indentation
    (" -x", lambda x: -x),
    ("\tx", lambda x: x),
    ("x +\n  1", lambda x: x + 1),
]


@pytest.mark.parametrize("text,ref", GOOD, ids=[g[0] for g in GOOD])
def test_accepted_grammar_evaluates(text, ref):
    f = compile_expression(text)
    xs = np.linspace(-1.5, 1.5, 37)
    assert np.allclose(f(xs), ref(xs), rtol=1e-14, atol=1e-14)


# each rule of the evaluator and the numpy expression it must equal bit for bit:
# a leading constant multiplies the rest, a product divides once per base of a
# negative power, sums fold left to right with the folded constant last
ORDER = [
    ("2*x*x", lambda x: 2.0 * (x * x)),
    ("3*x/(x+1)", lambda x: 3.0 * (x / (x + 1.0))),
    ("x/(x+1)/(x+2)", lambda x: x / (x + 1.0) / (x + 2.0)),
    ("1/x/(x+1)", lambda x: 1.0 / x / (x + 1.0)),
    ("x*sin(x)*cos(x)", lambda x: x * np.sin(x) * np.cos(x)),
    ("x^-1", lambda x: 1.0 / x),
    ("x^0.5", lambda x: np.sqrt(x)),
    ("x^3", lambda x: x**3.0),
    ("x/x^2", lambda x: x / x**2.0),
    ("x^x", lambda x: x**x),
    ("1 + x + sin(x)", lambda x: x + np.sin(x) + 1.0),
    ("exp(x)", lambda x: np.exp(x)),
    ("exp(x*sin(x))", lambda x: np.exp(x * np.sin(x))),
]


@pytest.mark.parametrize("text,ref", ORDER, ids=[o[0] for o in ORDER])
def test_evaluation_order_is_pinned_bit_for_bit(text, ref):
    f = compile_expression(text)
    xs = np.linspace(0.05, 3.0, 101)
    assert np.array_equal(f(xs), ref(xs))
    for x in (0.7, 1.3):
        y, want = f(x), ref(np.float64(x))
        assert y == want and np.signbit(y) == np.signbit(want)


BAD = [
    "__import__('os')",
    "foo(x)",
    "x + y",
    "import os",
    "x.real",
    "lambda: 1",
    "[1, 2]",
    "x = 3",
    "tan(x)",
    "",
    "   ",
    "'abc'",
    "log(-1)",
    "x!",
]


@pytest.mark.parametrize("text", BAD)
def test_rejected_inputs_raise(text):
    with pytest.raises(MalformedExpression):
        compile_expression(text)


def test_rejection_message_names_the_culprit():
    with pytest.raises(MalformedExpression, match="__import__"):
        compile_expression("__import__('os').system('true')")


def test_diff_matches_finite_differences():
    f = compile_expression("exp(-x^2/2)")
    df = f.diff()
    xs = np.linspace(-2.0, 2.0, 21)
    eps = 1e-6
    fd = (f(xs + eps) - f(xs - eps)) / (2 * eps)
    assert np.max(np.abs(df(xs) - fd)) < 1e-9
    d2 = f.diff(2)
    fd2 = (f(xs + eps) - 2 * f(xs) + f(xs - eps)) / eps**2
    assert np.max(np.abs(d2(xs) - fd2)) < 1e-3


def test_scalar_in_scalar_out():
    f = compile_expression("x^2")
    y = f(3.0)
    assert isinstance(y, float) and y == 9.0


def test_array_in_array_out():
    f = compile_expression("x + 1")
    y = f(np.arange(4.0))
    assert isinstance(y, np.ndarray) and y.shape == (4,)
    assert np.array_equal(y, np.arange(4.0) + 1)


def test_values_past_float_range_raise_no_warning():
    x = np.array([-1.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert compile_expression("exp(800*x)")(1.0) == np.inf
        assert np.array_equal(compile_expression("exp(800*x)")(x), [0.0, 1.0, np.inf])
        assert np.isnan(compile_expression("log(x)")(x)[0])
        assert compile_expression("1/x")(0.0) == np.inf


def test_constant_expression_broadcasts():
    f = compile_expression("3")
    y = f(np.zeros(5))
    assert y.shape == (5,)
    assert np.all(y == 3.0)


def test_constant_factory():
    c = constant(2.5)
    assert c(0.0) == 2.5
    assert np.all(c(np.ones(3)) == 2.5)
    assert constant(4.0)(7.0) == 4.0


# every real literal the tokenizer accepts reads as the sympy backend read it
LITERALS = ["1e3", "0x1F", "1_0", "0o17", "0b101", ".5", "2.", "1_000.5e-1_0", "7E2"]


@pytest.mark.parametrize("text", LITERALS)
def test_number_literals_match_sympy(text):
    assert compile_expression(text)(0.0) == float(parse_expr(text))


COMPLEX = ["3j", "2 + 1e3J", "log(-1)", "log(0)", "log(2 - 3)", "(-8)^(1/3)",
           "(-2)**0.5", "x + (-1)^1.5"]


@pytest.mark.parametrize("text", COMPLEX)
def test_non_real_constants_are_rejected(text):
    with pytest.raises(MalformedExpression, match="complex-valued expression"):
        compile_expression(text)


CAPS = {
    "tower-overflow": ("9^9^9^9", "constant out of float range"),
    "exp-overflow": ("x + exp(1000)", "constant out of float range"),
    "literal-overflow": ("1e999 * x", "constant out of float range"),
    "integer-overflow": ("1" + "0" * 400, "constant out of float range"),
    "product-overflow": ("1e308 * 10 + x", "constant out of float range"),
    "zero-division": ("x / 0", "division by zero"),
    "length": ("x" + "+x" * (MAX_LENGTH // 2), f"longer than {MAX_LENGTH} characters"),
    "parentheses": ("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, "nesting deeper than"),
    "signs": ("-" * (MAX_DEPTH + 1) + "x", "nesting deeper than"),
    "exponents": ("x^" * (MAX_DEPTH + 1) + "x", "nesting deeper than"),
    "calls": ("exp(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, "nesting deeper than"),
    "unclosed": ("(x", "unbalanced parentheses: missing '\\)'"),
    "unopened": ("x)", "unbalanced parentheses: '\\)' without '\\('"),
    "juxtaposed": ("x x", "unexpected input"),
    "call-without-parentheses": ("exp x", "expected '\\('"),
    "call-at-the-end": ("exp", "expected '\\(' at the end"),
    "leading-operator": ("*x", "unexpected '\\*' before token 1 \\(\\*\\)"),
    "dangling-power": ("x^", "unexpected end"),
}


@pytest.mark.parametrize("text,reason", CAPS.values(), ids=CAPS.keys())
def test_caps_and_syntax_errors_name_the_reason(text, reason):
    with pytest.raises(MalformedExpression, match=reason) as info:
        compile_expression(text)
    # the echoed text is cut to about 80 characters
    assert len(str(info.value)) <= len("cannot parse '': ") + 80 + len(info.value.reason)


def test_nesting_up_to_the_cap_compiles_and_differentiates():
    # the recursive parser and evaluator stay far from Python's recursion limit
    inner = MAX_DEPTH - 1
    for text, order in (("(" * inner + "x" + ")" * inner, 2), ("-" * inner + "x", 2),
                        ("sin(" * inner + "x" + ")" * inner, 1), ("x^" * inner + "x", 1)):
        f = compile_expression(text)
        assert np.isfinite(f.diff(order)(0.3))
    assert compile_expression("x-" * 999 + "x").diff(2)(0.3) == 0.0


def test_oversized_derivative_is_rejected():
    f = compile_expression("*".join(f"(x+{i})" for i in range(60)))
    with pytest.raises(MalformedExpression, match="derivative larger than"):
        f.diff(2)


def test_a_derivative_step_past_the_node_cap_is_refused_after_the_step(monkeypatch):
    # exp(exp(...x...)) has no product for the product-rule budget to count;
    # its second derivative is refused by its size once the step is made
    f = compile_expression("exp(" * 60 + "x" + ")" * 60)
    assert expressions._size(f.diff(1).expr, {}) == 1891
    with pytest.raises(MalformedExpression, match="derivative larger than 50000 nodes"):
        f.diff(2)
    monkeypatch.setattr(expressions, "_size", lambda n, memo: 0)
    expressions._derivative(f.expr, 2)  # the product-rule budget alone lets it through


# ---------------------------------------------------------------- sympy oracle

_X = sp.Symbol("x")
_SYMPY_LOCALS = {"x": _X, "exp": sp.exp, "sin": sp.sin, "cos": sp.cos, "log": sp.log}
_GRID = np.array([-1.7, -0.9, -0.35, 0.2, 0.65, 1.1, 1.85])
_NUMS = st.sampled_from(["2", "3", "0.5", "1.5", "1e-1", "0x3", "1_0", "2.25"])


def _extend(sub):
    # bracket the operands in some forms and not in others, so the same text
    # exercises precedence in both parsers; log arguments and the bases of
    # negative or fractional powers are kept positive
    pair = st.tuples(sub, sub)
    return st.one_of(
        st.tuples(sub, st.sampled_from([" + ", " - ", "*"]), sub).map("".join),
        pair.map(lambda t: f"({t[0]}) - ({t[1]})"),
        pair.map(lambda t: f"{t[0]}/(2 + sin({t[1]}))"),
        st.tuples(sub, st.sampled_from(["-", "+"])).map(lambda t: f"{t[1]}{t[0]}"),
        st.tuples(sub, st.sampled_from(["^2", "**3", "^-1", "^-2", "^0.5"])).map(
            lambda t: f"(1 + ({t[0]})^2){t[1]}"),
        st.tuples(sub, st.sampled_from(["^2", "**3"])).map(lambda t: f"{t[0]}{t[1]}"),
        st.tuples(st.sampled_from(["exp", "sin", "cos"]), sub).map(
            lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda s: f"log(1 + ({s})^2)"),
        pair.map(lambda t: f"(2 + cos({t[0]}))^({t[1]})"),
    )


def _numpy_safe(expr):
    """expr, with floats for its exact numbers when one is past int64.

    lambdify prints exact numbers as they are, and numpy cannot take an
    integer past int64; sp.nfloat costs as much as the rest of the test, so
    it runs only where it is needed.  Exponents stay integers.
    """
    if any(max(abs(r.p), r.q) >= 2**63 for r in expr.atoms(sp.Rational)):
        return sp.nfloat(expr)
    return expr


EXPRESSIONS = st.recursive(st.one_of(st.just("x"), _NUMS), _extend, max_leaves=6)


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.generate, Phase.shrink],
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(EXPRESSIONS)
@example("log(1 + (3^50)^2)")  # lambdify would print a 48-digit integer
def test_values_and_derivatives_match_sympy(text):
    ref = parse_expr(text, local_dict=_SYMPY_LOCALS,
                     transformations=standard_transformations + (convert_xor,))
    try:
        f = compile_expression(text)
    except MalformedExpression as exc:
        # a folded constant beyond double range, such as (1 + 10^3)^10^3
        assert exc.reason == "constant out of float range", exc.reason
        assume(False)
    expr = ref
    for order in (0, 1, 2):
        if order:
            # one step from the last derivative; sp.diff(ref, x, 2) would redo the first
            expr = sp.diff(expr, _X)
        with np.errstate(all="ignore"):
            want = np.broadcast_to(sp.lambdify(_X, _numpy_safe(expr), "numpy")(_GRID),
                                   _GRID.shape)
        # compare where double precision can: finite, moderate values
        assume(np.all(np.isfinite(want)) and np.max(np.abs(want)) < 1e6)
        d = f.diff(order)
        got = d(_GRID)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (order, d.text)
        if len(d.text) <= MAX_LENGTH:
            # the printed form parses back to the same function
            back = compile_expression(d.text)(_GRID)
            assert np.allclose(back, got, rtol=1e-14, atol=1e-14), d.text


def test_sympy_never_loads_at_runtime(tmp_path):
    chain = tmp_path / "c.json"
    chain.write_text(json.dumps(
        {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -1.0, "N": 7}))
    op = tmp_path / "op.json"
    op.write_text(json.dumps(
        {"a": 0.5, "b": "-x", "c": 0.0, "interval": [-3.0, 3.0], "M": 200}))
    killed = tmp_path / "killed.json"
    killed.write_text(json.dumps(
        {"a": 0.5, "b": 0.0, "c": "(1 - x^2)/2", "interval": [-3.0, 3.0], "M": 200}))
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"h": "exp(-x^2/2)"}))
    script = textwrap.dedent(f"""
        import sys
        import isospec, isospec.cli
        code = isospec.cli.main(["harmonic", {str(chain)!r}, "--method", "explicit"])
        assert code == 0
        try:
            isospec.compile_expression("__import__('os')")
        except isospec.MalformedExpression:
            pass
        else:
            raise SystemExit("injection accepted")
        f = isospec.compile_expression("exp(-x^2/2)")
        assert abs(f(1.0) - 0.6065306597126334) < 1e-15
        assert abs(f.diff(2)(1.0)) < 1e-15
        runs = [
            ["diffop", {str(op)!r}, "--h", {str(h)!r}, "--check", "eigen"],
            ["diffop", {str(killed)!r}, "--h", {str(h)!r}, "--check", "transform"],
            ["diffop", {str(op)!r}, "--check", "spectrum"],
            ["diffop", {str(killed)!r}, "--check", "riccati"],
        ]
        for argv in runs:
            assert isospec.cli.main(argv) == 0, argv
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "sympy")
        assert not loaded, loaded
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------- lexer

# text, and the tokens _lex reads from it (None: rejected).  Each is also
# the decision of the tokenizer route below, except the last two.
LEXER_CASES = [
    ("9 \\\n\t", [("const", 9.0)]),  # a backslash-newline is a blank
    ("x\\\r\n+1", ["x", "+", ("const", 1.0)]),
    ("9 \\\n", None),  # but not at the end, where Python expects another line
    ("\ufeffx", ["x"]),  # a leading byte-order mark, which Python's tokenizer skips
    ("x\ufeff", None),
    ("x\f\n+\r\n1", ["x", "+", ("const", 1.0)]),
    ("  x\n+1", ["x", "+", ("const", 1.0)]),
    ("0x_1 00 1..5", [("const", 1.0), ("const", 0.0), ("const", 1.0), ("const", 0.5)]),
    ("5x", [("const", 5.0), "x"]),
    ("x\r+1", None), ("x\xa0", None), ("x\\ y", None), ("x # c", None), ("{", None),
    ("'''abc", None), ("1if", None), ("1__0", None), (".e5", None), ("\u0663", None),
    # the tokenizer skipped the rest of a line that begins with a lone CR
    ("x\n\rfoo(", None),
    # and refused a line that dedents to no outer level
    ("x\n  +1\n +2", ["x", "+", ("const", 1.0), "+", ("const", 2.0)]),
]


def _tokens(text):
    try:
        return _lex(text)
    except _Invalid:
        return None


@pytest.mark.parametrize("text, tokens", LEXER_CASES)
def test_lexer_cases(text, tokens):
    assert _tokens(text) == tokens


# The lexer the one-pattern _lex replaced: Python's tokenizer behind an allowlist.
_SKIP = {token.ENCODING, token.NEWLINE, token.NL, token.INDENT, token.DEDENT,
         token.ENDMARKER}
_OPS = {"+", "-", "*", "/", "**", "^", "(", ")"}
_UNINDENT = "unindent does not match any outer indentation level"


def _tokenizer_lex(text):
    try:
        toks = list(tokenize.tokenize(io.BytesIO(text.encode()).readline))
    except (tokenize.TokenError, SyntaxError) as exc:
        raise _Invalid(str(exc.args[0])) from None
    out = []
    for t in toks:
        if t.type in _SKIP:
            continue
        if t.type == token.NUMBER:
            out.append(_number(t.string))
        elif (t.type == token.NAME and t.string in _NAMES) or (
                t.type == token.OP and t.string in _OPS):
            out.append(t.string)
        else:
            raise _Invalid(f"disallowed token: {t.string!r}")
    return out


def _parse(lex, text):
    """AST of text, or None where lex or the parser rejects it."""
    try:
        return _Parser(lex(text)).parse()
    except _Invalid:
        return None


def _tokenizer_parse(text):
    """AST by the tokenizer route, but for the two departures of LEXER_CASES."""
    if re.search(r"\r(?!\n)", text):
        return None
    try:
        return _Parser(_tokenizer_lex(text)).parse()
    except _Invalid as exc:
        if str(exc) != _UNINDENT:
            return None
    # the same text without indentation; a blank that ends the text stays
    return _tokenizer_parse(re.sub(r"(?m)^[ \t\f]+(?!\Z)", "", text))


# the decisions of the tokenizer route are those of the pure-Python tokenizer
# of Python 3.11 and before; Python 3.12 tokenizes by the C parser's rules
needs_pure_tokenizer = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="Python 3.12 tokenizes by other rules")

# what joins the tokens of a grammatical expression: blanks of every kind
# Python's tokenizer knows, and one time in sixteen a character it does not
_BLANKS = st.sampled_from(["", " ", "\t", "\f", "\n", "\r\n", "\n  ", "\n ", "\n\t",
                           "\\\n"])
_OTHERS = st.sampled_from(["\r", "\\", "#", "{", "[", "'", "\ufeff", ".", "_", "e", "j", "1"])
_JOINS = st.integers(0, 15).flatmap(lambda k: _OTHERS if k == 15 else _BLANKS)


@st.composite
def _joined(draw):
    """An EXPRESSIONS text, rejoined at each blank and parenthesis with a drawn join."""
    parts = re.split(r" |(?<=[()])|(?=[()])", draw(EXPRESSIONS))
    return "".join(draw(_JOINS) + p for p in parts) + draw(_JOINS)


@needs_pure_tokenizer
@pytest.mark.parametrize("text", [g[0] for g in GOOD] + BAD + [c[0] for c in CAPS.values()]
                         + [c[0] for c in LEXER_CASES])
def test_lexer_keeps_the_tokenizer_decisions(text):
    assert _parse(_lex, text) == _tokenizer_parse(text)


@needs_pure_tokenizer
@settings(max_examples=500)
@given(_joined())
def test_lexer_keeps_the_tokenizer_decisions_on_generated_text(text):
    assert _parse(_lex, text) == _tokenizer_parse(text)
