import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from isospec import MalformedExpression, compile_expression, constant


GOOD = [
    ("x^2 + 1", lambda x: x**2 + 1),
    ("exp(-x^2/2)", lambda x: np.exp(-(x**2) / 2)),
    ("sin(x)*cos(x) - log(x+2)/3", lambda x: np.sin(x) * np.cos(x) - np.log(x + 2) / 3),
    ("2*x**3 - 1/2", lambda x: 2 * x**3 - 0.5),
    ("-x", lambda x: -x),
    ("3", lambda x: 3.0 + 0 * x),
]


@pytest.mark.parametrize("text,ref", GOOD, ids=[g[0] for g in GOOD])
def test_accepted_grammar_evaluates(text, ref):
    f = compile_expression(text)
    xs = np.linspace(-1.5, 1.5, 37)
    assert np.allclose(f(xs), ref(xs), rtol=1e-14, atol=1e-14)


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


def test_sympy_loads_only_when_an_expression_is_compiled(tmp_path):
    chain = tmp_path / "c.json"
    chain.write_text(json.dumps(
        {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -1.0, "N": 7}))
    script = textwrap.dedent(f"""
        import sys
        import isospec, isospec.cli
        assert "sympy" not in sys.modules, "import isospec loaded sympy"
        code = isospec.cli.main(["harmonic", {str(chain)!r}, "--method", "explicit"])
        assert code == 0
        assert "sympy" not in sys.modules, "harmonic loaded sympy"
        try:
            isospec.compile_expression("__import__('os')")
        except isospec.MalformedExpression:
            pass
        else:
            raise SystemExit("injection accepted")
        assert "sympy" not in sys.modules, "the allowlist check loaded sympy"
        f = isospec.compile_expression("exp(-x^2/2)")
        assert "sympy" in sys.modules
        assert abs(f(1.0) - 0.6065306597126334) < 1e-15
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
