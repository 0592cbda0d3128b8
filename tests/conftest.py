import contextlib
import io
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from isospec import validate_qpair
from isospec.cli import main

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 results do not depend on earlier runs.
settings.register_profile("isospec", derandomize=True, database=None, deadline=None)
# --hypothesis-profile ci: the same draws, and test_properties adds larger chains
settings.register_profile("ci", settings.get_profile("isospec"))
settings.load_profile("isospec")

ACCEPTANCE = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE


@pytest.fixture
def src_env():
    """Environment of a child interpreter that imports isospec from this checkout's src.

    Its stdout is block-buffered, as a pipe's is by default.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def make_reversible_killed(rng, n, kill_lo=0.1, kill_hi=1.0):
    """Conductance-model chain: mu_i q_ij = w_ij with w symmetric.

    A spanning path keeps every state connected to state 0, so anchored
    minimal solutions stay strictly positive.
    """
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = rng.uniform(0.5, 2.0)
    extra = np.triu(rng.random((n, n)) < 0.3, 2)
    w[extra] = rng.uniform(0.1, 1.0, int(extra.sum()))
    w = w + w.T
    mu = rng.uniform(0.5, 2.0, n)
    rates = w / mu[:, None]
    c = -rng.uniform(kill_lo, kill_hi, n)
    return validate_qpair(rates, None, c), mu


def make_conservative(rng, n):
    """Conservative chain with zero potential on a connected state space."""
    rates = np.zeros((n, n))
    for i in range(n - 1):
        rates[i, i + 1] = rng.uniform(0.5, 2.0)
        rates[i + 1, i] = rng.uniform(0.5, 2.0)
    extra = (rng.random((n, n)) < 0.2) & ~np.eye(n, dtype=bool)
    rates[extra] += rng.uniform(0.1, 1.0, int(extra.sum()))
    np.fill_diagonal(rates, 0.0)
    return validate_qpair(rates)


def exact_harmonic_pair(rng, n):
    """Killed chain together with an h satisfying A h = 0 up to rounding.

    The potential is solved from the harmonic equation, so c can take
    either sign but never exceeds the jump rate.
    """
    qp0 = make_conservative(rng, n)
    h = np.exp(rng.uniform(-1.0, 1.0, n))
    c = qp0.total - (qp0.rates @ h) / h
    return validate_qpair(qp0.rates, qp0.total, c), h


# ---------------------------------------------------------------- the CLI runner

def _no_constant(name):
    raise AssertionError(f"JSON report holds {name}, which strict JSON has not")


def _call(argv):
    """(exit status, stdout, stderr) of main(argv); a numeric warning raises.

    A JSON report, the one stdout that opens with "{", must parse as strict
    JSON: no Infinity, -Infinity or NaN.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([str(a) for a in argv])
    text = out.getvalue()
    if text.startswith("{"):
        json.loads(text, parse_constant=_no_constant)
    return code, text, err.getvalue()


class _Stdout(list):
    """A document that is the stdout of the request it holds, on the documents before it."""


def _files(tmp, argv, docs):
    """argv with each name in docs replaced by the path of that document, written to tmp.

    A document is written as JSON, a str as it is, and a _Stdout as its request's
    stdout; a name whose document is None gets a path in tmp and no file.
    """
    paths = {}
    for name, doc in docs.items():
        paths[name] = Path(tmp, name)
        if doc is None:
            continue
        if isinstance(doc, _Stdout):
            text = _call([paths.get(a, a) for a in doc])[1]
        else:
            text = doc if isinstance(doc, str) else json.dumps(doc)
        paths[name].write_text(text)
    return [paths.get(a, a) for a in argv]


def _run(tmp, argv, docs):
    """_call(argv) with each of docs written to tmp under its name."""
    return _call(_files(tmp, argv, docs))


# documents and requests that both CLI test modules use
FIB = {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -1.0, "N": 7}
FIB_H = [1.0, 2.0, 5.0, 13.0, 34.0, 89.0, 233.0, 610.0]  # harmonic for FIB on 0..7
FIB_H9 = [1, 2, 5, 13, 34, 89, 233, 610, 1597]  # and one state further
OU = {"a": 0.5, "b": "-x", "c": 0.0, "interval": [-6.0, 6.0], "M": 400}
GAUSS = {"h": "exp(-x^2/2)"}
# the benchmark's killed oscillator (1/2) f'' + (t - t^2 x^2)/2 f at t = 1.5, for
# which h = exp(-t x^2/2) is harmonic and the transformed drift is -t x
KILLED = {"a": 0.5, "b": 0, "c": "(1.5 - 1.5^2*x^2)/2",
          "interval": [-3.0 / 1.5**0.5, 3.0 / 1.5**0.5], "M": 500}
LOCAL = ["transform", "c.json", "--h", "h.json", "--direction", "local"]
FORWARD = ["transform", "c.json", "--h", "h.json", "--direction", "forward"]
