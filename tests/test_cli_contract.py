"""The command-line contract: every fixed request, and hostile input.

Every request exits 0, 1 or 2, lets no exception escape and raises no
numeric warning; every stderr line is an ``isospec:`` diagnosis or the
hint that points at ``--help``, a nonzero exit prints at least one
``isospec:`` line, and no request prints a traceback.

``CONTRACT`` holds every fixed request of the command line with its exact
exit status and stderr.  Each runs in-process through ``_run`` of
``conftest``, the one runner of the CLI tests; the rows an entry point could
change also run through ``python -m isospec.cli`` and through what pip's
``isospec`` script runs.  The property test drives generated chain documents,
h documents, one operator document and flag sets through ``main`` in-process.
Sizes stay small: ``"N"`` is a small integer or a value that fails before
anything is allocated, so no example asks for a large array.
"""
import gc
import json
import math
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isospec.chains
import isospec.harmonic
from isospec._cli_chains import load_chain
from isospec._cli_io import MAX_DENSE_BYTES, MAX_STATES
from conftest import (FIB, FIB_H, FIB_H9, FORWARD, GAUSS, KILLED, LOCAL, OU, _Stdout, _call,
                      _files, _run)

INF, NAN = float("inf"), float("nan")

_HINT = re.compile(r"run `isospec( [a-z]+)? --help` for the input schema")


def _hint(cmd):
    """The line that follows an input error of a document or a flag of cmd."""
    return f"run `isospec {cmd} --help` for the input schema\n"


def _assert_contract(code, err):
    assert code in (0, 1, 2), code
    assert "Traceback" not in err
    for line in err.splitlines():
        assert line.startswith("isospec: ") or _HINT.fullmatch(line), err
    if code:
        assert any(line.startswith("isospec:") for line in err.splitlines()), err


# ---------------------------------------------------------------- tests of their own


def test_poly_rates_are_polyval_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in range(1, 6):
        for _ in range(50):
            coeffs = rng.uniform(-5.0, 5.0, n) * 10.0 ** rng.integers(-3, 4, n)
            doc = {"type": "bd", "birth": {"formula": "poly", "coeffs": coeffs.tolist()},
                   "death": 1.0, "N": 40}
            fn = load_chain(doc).bd.birth
            for i in range(41):
                want = np.polynomial.polynomial.polyval(float(i), coeffs)
                assert fn(i) == want and math.copysign(1, fn(i)) == math.copysign(1, want)


def test_running_out_of_memory_is_an_input_error(monkeypatch, tmp_path):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(isospec.chains, "_dense_view", exhausted)
    chain = {"type": "bd", "birth": 1.0, "death": 1.0, "N": 3}
    assert _run(tmp_path, ["verify", "c.json", "c.json"], {"c.json": chain}) == (
        2, "", "isospec: MemoryError\n")


# ---------------------------------------------------------------- the contract table

ZERO_N = {"type": "bd", "birth": 1.0, "death": 1.0, "N": 0}
THREE = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]  # a path of three states
OP = {"a": 0.5, "b": "-x", "interval": [-6, 6], "M": 200}  # Ornstein-Uhlenbeck, no advisory
SMALL_OP = {"a": 0.5, "b": 0, "interval": [-1, 1], "M": 10}
_KILLED_X = np.linspace(*KILLED["interval"], KILLED["M"] + 1)  # the grid of KILLED
QPAIR = {"type": "qpair", "rates": [[0, 1], [1, 0]]}
PASS = "isospec: PASS\n"
_NOTHING = "".__eq__  # no report on stdout


def _report(check):
    """A stdout predicate: check holds of the JSON report."""
    return lambda out: check(json.loads(out))


def _schema(docs, argv, line):
    """A row: argv is refused for a document or a flag (exit 2), with the --help hint."""
    return docs, argv, 2, f"isospec: {line}\n" + _hint(argv[0]), _NOTHING


def _library(docs, argv, line):
    """A row: the library refuses an argument of argv (exit 2), with no hint."""
    return docs, argv, 2, f"isospec: {line}\n", _NOTHING


def _failed(docs, argv, line):
    """A row: a check of argv fails (exit 1) with no report."""
    return docs, argv, 1, f"isospec: check failed: {line}\n", _NOTHING


def _python_text(prefix, hint=""):
    """stderr of one diagnosis line that ends in Python's own words, then hint.

    Those words differ between Python versions, so only prefix is exact.
    """
    return re.compile(re.escape(prefix) + r"[^\n]*\n" + re.escape(hint))


def _long_chain():
    """A bd chain on 0..600 and its h, whose local transform writes 4 MB of rates."""
    rng = np.random.default_rng(6)
    b, a = rng.uniform(1.0, 2.0, 601), rng.uniform(0.5, 1.5, 601)
    c = -0.5 * 0.8 ** np.arange(601)
    h = isospec.harmonic.bd_harmonic_explicit(isospec.chains.BirthDeathSpec(b, a, c), 600)
    return {"c.json": {"type": "bd", "birth": b.tolist(), "death": a.tolist(),
                       "killing": c.tolist(), "N": 600},
            "h.json": {"values": h.values.tolist()}}


def _measure_past_float_range():
    """A bd chain on 0..700 and its harmonic h, whose h^2 mu leaves float range at 513."""
    h = isospec.harmonic.bd_harmonic_explicit(isospec.chains.BirthDeathSpec(1.0, 1.0, -0.5),
                                              701)
    return {"c.json": {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -0.5, "N": 700},
            "h.json": h.values.tolist()}


def _finite_before_overflow(r):
    """h is null from where it leaves float range; the residuals before are rounding noise."""
    k = r["h"].index(None)
    h, res = np.array(r["h"][:k]), np.array(r["residuals"][: k - 1], dtype=float)
    return (0 < k < 400 and r["h"][k:] == [None] * (len(r["h"]) - k)
            and np.all(np.abs(res) <= 1e-12 * np.maximum(1.0, h[1:k])))


def _csv_of_9_states(out):
    lines = out.strip().splitlines()
    return lines[0].split(",")[0] == "state" and lines[1].startswith("0,") and len(lines) == 9


def _reloads_as_8_state_bd(out):
    """The document loads as a bd chain on 0..7; its death[0] is 0, which loading ignores."""
    doc = json.loads(out)
    chain = load_chain(doc)
    return chain.kind == "bd" and chain.as_qpair().rates.shape[0] == 8 and doc["death"][0] == 0.0


def _second_order(r):
    """The differenced h'' misses the harmonic identity by O(dx^2), not by 1e-8."""
    x = _KILLED_X
    # about 11 dx^2 at the ends, where np.gradient is one-sided
    return (r["x"] == x.tolist()
            and np.max(np.abs(np.asarray(r["b_tilde"]) + 1.5 * x)) < 20.0 * (x[1] - x[0]) ** 2)


def _drift(tol):
    """The transformed drift is -x to tol."""
    return _report(lambda r: np.max(np.abs(np.asarray(r["b_tilde"]) + np.asarray(r["x"]))) < tol)


# a sampled h that misses the operator's interval [-1.5, 1.5], or runs backwards
_DOWN = np.linspace(1.0, -1.0, 41)
_GRIDS = {
    "decreasing": (dict(SMALL_OP, c=0, interval=[-0.5, 0.5]),
                   {"grid": _DOWN.tolist(), "values": (1.0 - _DOWN).tolist()},
                   "grid must be strictly increasing"),
    "narrow": (dict(SMALL_OP, c=0, interval=[-1.5, 1.5]),
               {"grid": _DOWN[::-1].tolist(), "values": (2.0 + _DOWN[::-1]).tolist()},
               "sampled h covers [-1.0, 1.0], not the operator's interval [-1.5, 1.5]"),
    "narrow-vanishing": (dict(SMALL_OP, c=0, interval=[-1.5, 1.5]),
                         {"grid": _DOWN[::-1].tolist(), "values": (1.0 + _DOWN[::-1]).tolist()},
                         "sampled h covers [-1.0, 1.0], not the operator's interval "
                         "[-1.5, 1.5]"),
}

# a birth or death rate that is not positive, on a state every path reads (N = 20)
NONPOSITIVE = {
    "birth-array": ({"type": "bd", "birth": [1.0] * 12 + [-1.0] + [1.0] * 8, "death": 1.0,
                     "killing": -0.5, "N": 20}, "birth rate b[12] = -1.0"),
    "birth-poly": ({"type": "bd", "birth": {"formula": "poly", "coeffs": [5, -1]},
                    "death": 1.0, "killing": -0.5, "N": 20}, "birth rate b[5] = 0.0"),
    "death-array": ({"type": "bd", "birth": 1.0, "death": [1.0] * 3 + [-2.0] + [1.0] * 18,
                     "N": 20}, "death rate a[3] = -2.0"),
}
CHAIN_PATHS = {
    "harmonic-iterate": ["harmonic", "c.json", "--method", "iterate"],
    "harmonic-solve": ["harmonic", "c.json", "--method", "solve"],
    "harmonic-explicit": ["harmonic", "c.json", "--method", "explicit"],
    "verify": ["verify", "c.json", "c.json"],
    "bounds": ["bounds", "c.json", "--nmax", "15"],
    "transform-forward": FORWARD,
    "transform-local": LOCAL,
    "transform-inverse": ["transform", "c.json", "--h", "h.json", "--direction", "inverse"],
    "transform-measure": ["transform", "c.json", "--direction", "measure"],
}

HUGE = {"type": "bd", "birth": 1e308, "death": 1e308, "killing": 1e-10, "N": 6}
TINY_MU = {"type": "bd", "birth": 0.1, "death": 1e154, "N": 2}
UNDERFLOW = {"type": "bd", "birth": [1e-300, 1.0, 1.0], "death": [0.0, 1e-130, 1.0],
             "killing": [-1e-100, 0.0, 0.0], "N": 1}
POLY_OVERFLOW = {"type": "bd", "birth": {"formula": "poly", "coeffs": [1e308, 5, 1e308]},
                 "death": 1.0}
KILLED_BD = {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -0.1}
# the largest state count within the dense cap
DENSE_N = int(MAX_DENSE_BYTES ** 0.5 / 8 ** 0.5)
NO_MINIMAL = {"type": "qpair", "rates": THREE, "killing": [0, 1.5, 0.5]}
FLAGS_BD = {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -1.0, "N": 5}
ARRAYS_41 = {"type": "bd", "birth": [1.0] * 41, "death": [1.0] * 41, "killing": [-1.0] * 41}
GOOD_QPAIR = {"type": "qpair", "rates": THREE, "mu": [1.0, 1.0, 1.0]}
OP_50 = {"a": 0.5, "b": "-x", "interval": [-1, 1], "M": 50}
EXP_B = {"a": 0.5, "b": "exp(800*x)", "interval": [-1, 1], "M": 20}
# a > 0 on the grid, but a(-1) = 0 at a cell face and at the midpoint stage of the
# Riccati step from -2/3 to -4/3
FACE = {"a": "(x+1)*(x+1)", "b": 1, "c": 1, "interval": [-2, 0], "M": 3}
TOP_HINT = "run `isospec --help` for the input schema\n"

# name -> (documents, argv, exit status, stderr, stdout predicate or None); a
# document is JSON, or text as it is, or a _Stdout; stderr is exact, or a pattern
# from _python_text where the diagnosis quotes Python's own words
CONTRACT = {
    # ------------------------------------------------ harmonic
    # the README pipeline: h by the explicit recursion, the local transform by it, verify
    "readme-harmonic": ({"c.json": FIB}, ["harmonic", "c.json", "--method", "explicit"], 0, "",
                        _report(lambda r: r["h"] == FIB_H and r["residual"] == 0.0)),
    "readme-transform": ({"c.json": FIB, "h.json": FIB_H}, LOCAL, 0, "",
                         _report(lambda r: r["type"] == "qpair")),
    "readme-verify": ({"c.json": FIB, "h.json": FIB_H, "t.json": _Stdout(LOCAL)},
                      ["verify", "c.json", "t.json", "--h", "h.json"], 0, PASS,
                      _report(lambda r: r["passed"])),
    "explicit-csv": ({"c.json": FIB}, ["harmonic", "c.json", "--method", "explicit",
                                       "--output", "csv"], 0, "", _csv_of_9_states),
    "seed": ({"c.json": FIB}, ["--seed", "99", "harmonic", "c.json", "--method", "explicit"],
             0, "", _report(lambda r: r["seed"] == 99)),
    # strong killing drives h past float range; the residuals before that point are
    # rounding noise, not the NaN of a dense product with inf entries
    "explicit-past-float-range": ({"c.json": dict(KILLED_BD, killing=-50.0, N=400)},
                                  ["harmonic", "c.json", "--method", "explicit"], 0, "",
                                  _report(_finite_before_overflow)),
    # arrays on states 0..40: the explicit recursion reads 0..N-1, bounds reads 0..nmax
    # (its h runs to nmax+1 on those rates), so both go up to state 40
    "arrays-explicit": ({"c.json": ARRAYS_41}, ["harmonic", "c.json", "--method", "explicit"],
                        0, "", _report(lambda r: len(r["h"]) == 41 and r["h"][:9] == FIB_H9)),
    "arrays-bounds": ({"c.json": ARRAYS_41}, ["bounds", "c.json", "--nmax", "40"], 0, PASS,
                      _report(lambda r: r["n_max"] == 40)),
    "arrays-end-early": ({"c.json": ARRAYS_41}, ["bounds", "c.json", "--nmax", "100"], 0,
                         "isospec: rate arrays end early; using --nmax 40\n" + PASS,
                         _report(lambda r: r["n_max"] == 40)),
    # so a zero birth rate at state nmax + 1 is never read
    "zero-birth-past-nmax": ({"c.json": {"type": "bd", "birth": [1.0] * 40 + [0.0],
                                         "death": 2.0, "killing": -0.05}},
                             ["bounds", "c.json", "--nmax", "39"], 0, PASS, None),
    # harmonic away from the anchor; the anchor row carries the defect
    "iterate": ({"c.json": {"type": "qpair", "rates": [[0, 2, 0], [1, 0, 3], [0, 1, 0]],
                            "killing": [-0.5, -0.2, -0.4]}},
                ["harmonic", "c.json", "--method", "iterate"], 0, "",
                _report(lambda r: r["h"][0] == 1.0 and all(v > 0 for v in r["h"])
                        and 0 not in r["harmonic_set"] and r["converged"] is True
                        and max(abs(r["residuals"][i]) for i in r["harmonic_set"]) < 1e-9)),
    # killing that leaves no finite minimal solution, or a singular I - K
    "negative-solve": _failed({"c.json": NO_MINIMAL},
                              ["harmonic", "c.json", "--method", "solve"],
                              "no finite minimal solution: the direct solve gives "
                              "h[1] = -0.6666666666666666"),
    "negative-iterate": _failed({"c.json": NO_MINIMAL},
                                ["harmonic", "c.json", "--method", "iterate"],
                                "iterate exceeded ceiling 1e+150 at step 498"),
    "singular-solve": _failed({"c.json": dict(NO_MINIMAL, killing=[0, 1, 0])},
                              ["harmonic", "c.json", "--method", "solve"],
                              "no finite minimal solution: I - K is singular"),
    "zero-N": _schema({"c.json": ZERO_N}, ["harmonic", "c.json", "--method", "explicit"],
                      '"N" must be at least 1'),
    # an advisory is one diagnosis line
    "positive-potential": ({"c.json": {"type": "bd", "birth": 1.0, "death": 1.0,
                                       "killing": [0.3, -0.5, -0.5, -0.5], "N": 3}},
                           ["harmonic", "c.json", "--method", "explicit"], 0,
                           "isospec: warning: positive potential entries: the explicit "
                           "recursion is computed but its positivity guarantee does not "
                           "apply\n", None),
    "positive-at-N": ({"c.json": {"type": "bd", "birth": 1, "death": 1,
                                  "killing": [-1] * 8 + [0.3], "N": 8}},
                      ["harmonic", "c.json", "--method", "explicit"], 0, "", None),
    # states that cannot reach the anchor: the direct solve leaves h = 0 there
    "unreachable-anchor": ({"c.json": {"type": "qpair", "rates": [[0, 1, 0], [0, 0, 1],
                                                                  [0, 1, 0]]}},
                           ["harmonic", "c.json", "--method", "solve"], 0,
                           "isospec: warning: states [1, 2] cannot reach the anchor state 0; "
                           "the minimal solution vanishes there\n",
                           _report(lambda r: r["h"] == [1.0, 0.0, 0.0])),
    # the h that the forward-underflow row reads
    "underflow-h": ({"c.json": UNDERFLOW}, ["harmonic", "c.json", "--method", "explicit",
                                            "--nmax", "2"], 0, "",
                    _report(lambda r: r["h"] == [1.0, 1e200, 1e200])),

    # ------------------------------------------------ transform and verify
    "long-report": (_long_chain(), LOCAL, 0, "", lambda out: len(out) > 4_000_000),
    "local-values-h": ({"c.json": FIB, "h.json": {"values": FIB_H9}}, LOCAL, 0, "", None),
    "verify-values-h": ({"c.json": FIB, "h.json": {"values": FIB_H9}, "t.json": _Stdout(LOCAL)},
                        ["verify", "c.json", "t.json", "--h", "h.json"], 0, PASS, None),
    "verify-quiet": ({"c.json": FIB, "h.json": {"values": FIB_H9}, "t.json": _Stdout(LOCAL)},
                     ["--quiet", "verify", "c.json", "t.json", "--h", "h.json"], 0, "", None),
    "forward": ({"c.json": FIB, "h.json": FIB_H9}, FORWARD, 0, "", _reloads_as_8_state_bd),
    # the forward transform of a truncated chain is not isospectral: the boundary
    # state sees a different escape rate
    "verify-forward": ({"c.json": FIB, "h.json": FIB_H9, "t.json": _Stdout(FORWARD)},
                       ["verify", "c.json", "t.json", "--h", "h.json"], 1, "isospec: FAIL\n",
                       None),
    "forward-off-tol": _failed({"c.json": {"type": "bd", "birth": 1, "death": 1,
                                           "killing": -0.5, "N": 4},
                                "h.json": [1, 2, 3, 4, 5, 6]},
                               ["transform", "c.json", "--h", "h.json"],
                               "harmonic residual 0.25 at index 0 exceeds tolerance 1e-08"),
    "forward-within-tol": ({"c.json": {"type": "bd", "birth": 1, "death": 1, "killing": -0.5,
                                       "N": 4}, "h.json": [1, 2, 3, 4, 5, 6]},
                           ["transform", "c.json", "--h", "h.json", "--tol", "0.5"], 0, "",
                           _report(lambda r: r["birth"] == [2.0, 1.5, 4 / 3, 1.25, 1.2])),
    # a bd chain is reversible for its running-product measure, so the measure dual
    # returns the same rates
    "measure-dual": ({"c.json": FIB}, ["transform", "c.json", "--direction", "measure"], 0, "",
                     _report(lambda r: r["type"] == "qpair" and r["mu"][0] == 1.0
                             and r["rates"][0][1] == pytest.approx(1.0, rel=1e-12)
                             and r["rates"][3][2] == pytest.approx(1.0, rel=1e-12))),
    # a bd chain on 0..N needs h on 0..N+1, and N is at least 1
    "forward-two-value-h": _schema({"c.json": FIB, "h.json": [1.0, 2.0]}, FORWARD,
                                   "h must cover at least states 0..2"),
    "short-h-covers": ({"c.json": FIB, "h.json": FIB_H9[:5]},
                       ["transform", "c.json", "--h", "h.json"], 0,
                       "isospec: h covers 0..4; transforming up to N = 3\n",
                       _report(lambda r: r["N"] == 3)),
    "verify-other": ({"c.json": FIB, "o.json": dict(FIB, birth=2.0)},
                     ["verify", "c.json", "o.json"], 1, "isospec: FAIL\n",
                     _report(lambda r: not r["passed"])),
    "h-not-harmonic": _failed({"c.json": FIB, "h.json": [1.0] * 8}, LOCAL,
                              "harmonic residual 1 at index 0 exceeds tolerance 1e-08"),
    "verify-zero-N": _schema({"c.json": FIB, "z.json": ZERO_N}, ["verify", "c.json", "z.json"],
                             '"N" must be at least 1'),
    # the truncation on 0..N drops b_N, and verify takes mu from it
    "zero-birth-at-N": ({"c.json": {"type": "bd", "birth": [1] * 8 + [0], "death": 1,
                                    "killing": -1, "N": 8}},
                        ["verify", "c.json", "c.json"], 0, PASS, None),
    # input errors the library finds: h shorter than the chain, a --set index outside
    # it, state counts that differ; one line and no --help hint
    "short-h-local": _library({"c.json": FIB, "h.json": [1, 2, 3]}, LOCAL,
                              "h has shape (3,), want (8,)"),
    "short-h-verify": _library({"c.json": FIB, "h.json": [1, 2, 3]},
                               ["verify", "c.json", "c.json", "--h", "h.json"],
                               "h has shape (3,), want (8,)"),
    "set-99": _library({"c.json": FIB, "h.json": {"values": FIB_H}}, [*LOCAL, "--set", "99"],
                       "harmonic_set = 99 outside 0..7"),
    "set-minus-1": _library({"c.json": FIB, "h.json": {"values": FIB_H}},
                            [*LOCAL, "--set", "-1"], "harmonic_set = -1 outside 0..7"),
    # the same refusals with the 9-value h that the local transform accepts
    "set-99-h9": _library({"c.json": FIB, "h.json": {"values": FIB_H9}},
                          [*LOCAL, "--set", "99"], "harmonic_set = 99 outside 0..7"),
    "set-minus-1-h9": _library({"c.json": FIB, "h.json": {"values": FIB_H9}},
                               [*LOCAL, "--set", "-1"], "harmonic_set = -1 outside 0..7"),
    "set-text": _schema({"c.json": FIB, "h.json": {"values": FIB_H9}}, [*LOCAL, "--set", "1,a"],
                        "'--set' must be an integer"),
    "set-fraction": _schema({"c.json": FIB, "h.json": {"values": FIB_H9}},
                            [*LOCAL, "--set", "1.5"], "'--set' must be an integer"),
    "state-counts": _library({"c.json": FIB, "n.json": dict(FIB, N=8)},
                             ["verify", "c.json", "n.json"],
                             "chains have 8 and 9 states; they must have the same number"),
    # a "mu" of another length breaks the document, so the hint follows
    "mu-length-verify": _schema({"c.json": {"type": "qpair", "rates": THREE, "mu": [1, 2]}},
                                ["verify", "c.json", "c.json"], "mu has shape (2,), want (3,)"),
    "mu-length-measure": _schema({"c.json": {"type": "qpair", "rates": THREE, "mu": [1, 2]}},
                                 ["transform", "c.json", "--direction", "measure"],
                                 "mu has shape (2,), want (3,)"),
    # mu_N is finite at N = 3893 but mu_N b_N is not; nu_hat_N is 0.0 without a warning
    "mu-limit": ({"c.json": {"type": "bd", "birth": 1.2, "death": 1.0, "N": 3893},
                  "h.json": {"values": [1.0] * 3895}}, FORWARD, 0, "",
                 _report(lambda r: r["nu_hat"][-1] == 0.0)),
    "measure-overflow": _failed({"c.json": dict(KILLED_BD, N=3),
                                 "h.json": [1, 1e200, 1e200, 1e200]},
                                ["verify", "c.json", "c.json", "--h", "h.json"],
                                "h-transformed measure leaves float range at index 1"),
    # h is harmonic on 0..700, and h^2 mu leaves float range at state 513: no report
    # with Infinity in "mu"
    "forward-measure-overflow": _failed(_measure_past_float_range(),
                                        ["transform", "c.json", "--h", "h.json"],
                                        "h-transformed measure leaves float range at index 513"),

    # ------------------------------------------------ bounds
    "bounds-constant": ({"c.json": dict(FIB, N=2048)}, ["bounds", "c.json", "--nmax", "2048"],
                        0, PASS,
                        _report(lambda r: r["delta_tilde"] == pytest.approx(0.6180339887498949,
                                                                            rel=1e-12)
                                and r["containment"] is True and r["verdict"] == "lambda0 > 0")),
    "bounds-free-walk": ({"c.json": {"type": "bd", "birth": 1.0, "death": 1.0, "killing": 0.0,
                                     "N": 8192}}, ["bounds", "c.json", "--nmax", "4096"], 0, PASS,
                         _report(lambda r: r["verdict"].startswith("lambda0 = 0")
                                 and r["lower"] == 0.0 and r["upper"] == 0.0
                                 and r["delta_tilde"] is None and r["delta_slack"] is None)),
    # constant rates, deaths ahead of births and no killing: lambda0 = 0 exactly
    "recurrent": ({"c.json": {"type": "bd", "birth": 1, "death": 5, "N": 2049}},
                  ["bounds", "c.json", "--nmax", "2048"], 0, PASS,
                  _report(lambda r: r["verdict"] == "lambda0 = 0 (Hardy constant diverges)"
                          and r["delta_tilde"] is None and r["delta_slack"] is None)),
    # birth 1.2 below state 1000 and 1.0 after: the Hardy sums over the states read
    # grow past state 1000, which no window of the first states shows; the tail has
    # b = a, so lambda0 = 0, but arrays cannot prove it
    "switching": _failed({"c.json": {"type": "bd", "birth": [1.2] * 1000 + [1.0] * 7192,
                                     "death": [1.0] * 8192,
                                     "killing": [-0.05] * 10 + [0.0] * 8182}},
                         ["bounds", "c.json", "--nmax", "4096"],
                         "tail undecided after 4097 terms: partial sup 2.40715e+06 at n = 2545, "
                         "slack bound 9.94864e+29"),
    # near the critical ratio the Hardy sums grow for thousands of states before they
    # settle (delta~ about 8.6e7), so their growth over the first states decides nothing
    "near-critical-killing": _failed({"c.json": {"type": "bd", "birth": 1.0, "death": 1.001,
                                                 "killing": [-1e-6] * 10 + [0.0] * 16400}},
                                     ["bounds", "c.json", "--nmax", "1024"],
                                     "tail undecided after 1025 terms: partial sup 440396 "
                                     "at n = 511, slack bound inf"),
    # the conservative chain is positive recurrent, so lambda0 is the uniform killing
    # rate; the three truncation levels are prefixes of one band
    "uniform-killing": ({"c.json": {"type": "bd", "birth": 1.0, "death": 2.0,
                                    "killing": -0.05, "N": 100000}},
                        ["bounds", "c.json", "--nmax", "99999"], 0, PASS,
                        _report(lambda r: r["verdict"] == "lambda0 > 0"
                                and abs(r["lambda0_numeric"] - 0.05) <= 1e-12)),
    # bounds reads the rates on 0..nmax and the explicit recursion on 0..N-1, though
    # h runs one state further: a positive c past them is no warning and no error
    "positive-past-nmax": ({"c.json": {"type": "bd", "birth": 1.0, "death": 2.0,
                                       "killing": [-0.05] * 40 + [0.3]}},
                           ["bounds", "c.json", "--nmax", "39"], 0, PASS, None),
    # h[4] < 0 here, but the cause is c[0] > 0, which the bound refuses
    "bounds-positive-c0": _failed({"c.json": {"type": "bd", "birth": 1.0, "death": 2.0,
                                              "killing": [0.3] + [-0.5] * 11, "N": 11}},
                                  ["bounds", "c.json", "--nmax", "8"],
                                  "c[0] = 0.3 > 0; the bound needs c <= 0"),
    "bounds-qpair": _schema({"c.json": {"type": "qpair", "rates": [[0, 1], [1, 0]],
                                        "killing": [-1, -1]}}, ["bounds", "c.json"],
                            "bounds needs a bd chain"),

    # ------------------------------------------------ diffop
    "op-spectrum": ({"op.json": OP}, ["diffop", "op.json", "--check", "spectrum", "--k", "5"],
                    0, "", _report(lambda r: len(r["eigenvalues"]) == 5)),
    # the cell masses fall like e^-x, so the product of two neighbours leaves the normal
    # floats; the kernel stays at 0, and the next eigenvalue is -(1/4 + (pi/400)^2) in
    # the continuum
    "spectrum-length-400": ({"op.json": {"a": 1, "b": 1, "interval": [0, 400], "M": 1000}},
                            ["diffop", "op.json", "--check", "spectrum", "--k", "2"], 0, "",
                            _report(lambda r: abs(r["eigenvalues"][0]) < 1e-12
                                    and abs(r["eigenvalues"][1] + 0.25 + (math.pi / 400) ** 2)
                                    < 1e-3)),
    "ou-spectrum": ({"op.json": OU}, ["diffop", "op.json", "--check", "spectrum", "--k", "3"],
                    0, "", _report(lambda r: len(r["eigenvalues"]) == 3
                                   and r["eigenvalues"][0] == pytest.approx(0.0, abs=1e-6)
                                   and r["eigenvalues"][1] == pytest.approx(-1.0, abs=1e-3))),
    "ou-eigen": ({"op.json": OU, "h.json": GAUSS},
                 ["diffop", "op.json", "--h", "h.json", "--check", "eigen", "--nmax", "4"], 0,
                 PASS, _report(lambda r: len(r["checks"]) == 5 and r["all_passed"] is True)),
    "transform-drift": ({"op.json": {"a": 0.5, "b": 0.0, "c": "(1 - x^2)/2",
                                     "interval": [-3.0, 3.0], "M": 100}, "h.json": GAUSS},
                        ["diffop", "op.json", "--h", "h.json", "--check", "transform"], 0, "",
                        _drift(1e-10)),
    "riccati-drift": ({"op.json": {"a": 0.5, "b": 0.0, "c": "(1 - x^2)/2",
                                   "interval": [-3.0, 3.0], "M": 2000}},
                      ["diffop", "op.json", "--check", "riccati"], 0, "", _drift(1e-6)),
    "sampled-h": ({"op.json": KILLED,
                   "h.json": {"grid": _KILLED_X.tolist(),
                              "values": np.exp(-1.5 * _KILLED_X**2 / 2).tolist()}},
                  ["diffop", "op.json", "--h", "h.json", "--check", "transform", "--tol", "1e-2"],
                  0, "", _report(_second_order)),
    # a h'' + b h' overflows to inf - inf past x = 0.8
    "nan-residual": _failed({"op.json": {"a": "exp(800*x)", "b": "-exp(800*x)", "c": 0,
                                         "interval": [0, 1], "M": 10}, "h.json": {"h": "exp(x)"}},
                            ["diffop", "op.json", "--h", "h.json", "--check", "transform"],
                            "harmonic residual nan at x = 0.9 exceeds 1e-08"),
    # numpy's overflow warnings used to print before these diagnoses
    "overflow-transform": _failed({"op.json": EXP_B, "h.json": GAUSS},
                                  ["diffop", "op.json", "--h", "h.json", "--check", "transform"],
                                  "harmonic residual inf at x = 0.9 exceeds 1e-08"),
    "overflow-eigen": _failed({"op.json": EXP_B, "h.json": {"h": "exp(800*x)"}},
                              ["diffop", "op.json", "--h", "h.json", "--check", "eigen"],
                              "h vanishes at x = -1"),
    "overflow-spectrum": ({"op.json": EXP_B}, ["diffop", "op.json", "--check", "spectrum", "--k",
                                                "2"], 1,
                          "isospec: warning: cell Peclet number reaches inf > 2; refine the grid "
                          "for trustworthy low modes\n"
                          "isospec: check failed: matrix has a NaN or infinite entry\n",
                          _NOTHING),
    # the Simpson weights of b/a reach a(-1) = 0
    "a-vanishes-at-a-face": ({"op.json": FACE},
                             ["diffop", "op.json", "--check", "spectrum", "--k", "2"], 1,
                             "isospec: warning: cell Peclet number reaches 6 > 2; refine the "
                             "grid for trustworthy low modes\n"
                             "isospec: check failed: matrix has a NaN or infinite entry\n",
                             _NOTHING),
    # a scalar division there once escaped as ZeroDivisionError
    "riccati-face": _failed({"op.json": FACE}, ["diffop", "op.json", "--check", "riccati"],
                            "solution magnitude inf exceeded the guard at x = -1.33333"),
    "one-cell": _schema({"op.json": dict(OP, M=1)}, ["diffop", "op.json", "--check", "spectrum"],
                        '"M" must be at least 2'),
    "missing-h": _schema({"op.json": OU}, ["diffop", "op.json", "--check", "transform"],
                         "--check transform needs --h"),
    "negative-eigen-nmax": _library({"op.json": SMALL_OP, "h.json": GAUSS},
                                    ["diffop", "op.json", "--h", "h.json", "--check", "eigen",
                                     "--nmax", "-1"], "n_max = -1 outside 0..60"),
    "two-dirichlet-cells": _library({"op.json": dict(SMALL_OP, M=2,
                                                     bc=["dirichlet", "dirichlet"])},
                                    ["diffop", "op.json", "--check", "spectrum"],
                                    "2 cells with dirichlet and dirichlet ends leave fewer than "
                                    "two interior nodes"),
    # an expression the library refuses is one line, with no hint
    "node-cap": _library({"op.json": OU, "h.json": {"h": "exp(" * 60 + "x" + ")" * 60}},
                         ["diffop", "op.json", "--h", "h.json", "--check", "transform"],
                         "cannot parse '" + "exp(" * 19 + "e...': derivative larger than 50000 "
                         "nodes"),
    "injection": _library({"op.json": {"a": 0.5, "b": "__import__('os')", "c": 0.0,
                                       "interval": [0.0, 1.0], "M": 10}},
                          ["diffop", "op.json", "--check", "spectrum"],
                          "cannot parse \"__import__('os')\": unknown name: __import__"),
    # a NaN anchor used to fail the check as a blow-up at the first step
    **{f"phi0-{v}": _schema({"op.json": OU}, ["diffop", "op.json", "--check", "riccati",
                                               f"--phi0={v}"],
                            f"argument --phi0: '{v}' is not a finite number")
       for v in ("nan", "inf", "1e400")},
    # argparse's own negative-number pattern has no -inf
    **{f"phi0-minus-{v[1:]}": _schema({"op.json": OU},
                                      ["diffop", "op.json", "--check", "riccati", "--phi0", v],
                                      f"argument --phi0: '{v}' is not a finite number")
       for v in ("-inf", "-nan")},
    # past the guard at the first step, and without numpy's overflow warnings
    **{name: _failed({"op.json": OU},
                     ["diffop", "op.json", "--check", "riccati", f"--phi0={v}"],
                     "solution magnitude inf exceeded the guard at x = 0.03")
       for name, v in (("phi0-1e300", "1e300"), ("phi0-minus-1e300", "-1e300"))},

    # ------------------------------------------------ flag values
    "bounds-nmax": _library({"c.json": FIB}, ["bounds", "c.json", "--nmax", "4"],
                            "N_max = 4 is below 8"),
    # the library checks N_max before it reads a rate
    "bounds-nmax-bad-rate": _library({"c.json": {"type": "bd", "birth": [1.0] * 5 + [-1.0],
                                                 "death": 1.0, "killing": -1.0}},
                                     ["bounds", "c.json", "--nmax", "4"], "N_max = 4 is below 8"),
    "explicit-nmax": _library({"c.json": FIB}, ["harmonic", "c.json", "--method", "explicit",
                                                "--nmax", "0"], "N = 0 is below 1"),
    "theta": _library({"c.json": FIB}, ["harmonic", "c.json", "--theta", "99"],
                      "theta = 99 outside 0..7"),
    "spectrum-k": _library({"op.json": OP}, ["diffop", "op.json", "--check", "spectrum", "--k",
                                             "0"], "k = 0 outside 1..201"),
    "eigen-nmax": _library({"op.json": OP, "h.json": GAUSS},
                           ["diffop", "op.json", "--check", "eigen", "--h", "h.json", "--nmax",
                            "99"], "n_max = 99 outside 0..60"),
    "eigen-nmax-61": _library({"op.json": OP, "h.json": GAUSS},
                              ["diffop", "op.json", "--h", "h.json", "--check", "eigen", "--nmax",
                               "61"], "n_max = 61 outside 0..60"),
    # a NaN tolerance used to pass every check, since worst > nan is false
    "harmonic-tol-nan": _schema({"c.json": FLAGS_BD}, ["harmonic", "c.json", "--tol", "nan"],
                                "argument --tol: 'nan' is not a finite positive number"),
    "iterate-tol-zero": _schema({"c.json": FLAGS_BD},
                                ["harmonic", "c.json", "--method", "iterate", "--tol", "0"],
                                "argument --tol: '0' is not a finite positive number"),
    "local-tol-nan": _schema({"c.json": FLAGS_BD, "h.json": [1.0] * 7}, [*LOCAL, "--tol", "nan"],
                             "argument --tol: 'nan' is not a finite positive number"),
    "verify-tol-nan": _schema({"c.json": FLAGS_BD},
                              ["verify", "c.json", "c.json", "--tol", "nan"],
                              "argument --tol: 'nan' is not a finite positive number"),
    "verify-tol-negative": _schema({"c.json": FLAGS_BD},
                                   ["verify", "c.json", "c.json", "--tol", "-1"],
                                   "argument --tol: '-1' is not a finite positive number"),
    "tail-tol-inf": _schema({"c.json": FLAGS_BD}, ["bounds", "c.json", "--tail-tol", "inf"],
                            "argument --tail-tol: 'inf' is not a finite positive number"),
    "tail-tol-text": _schema({"c.json": FLAGS_BD}, ["bounds", "c.json", "--tail-tol", "1e-3x"],
                             "argument --tail-tol: '1e-3x' is not a finite positive number"),
    "nmax-text": _schema({"c.json": FLAGS_BD}, ["harmonic", "c.json", "--nmax", "abc"],
                         "argument --nmax: invalid int value: 'abc'"),
    "method": ({"c.json": FLAGS_BD}, ["harmonic", "c.json", "--method", "guess"], 2,
               _python_text("isospec: argument --method: invalid choice", _hint("harmonic")),
               _NOTHING),
    # no subcommand, or an unknown one: the hint points at the top --help
    "no-subcommand": ({}, [], 2, "isospec: no subcommand given\n" + TOP_HINT, _NOTHING),
    "quiet-only": ({}, ["--quiet"], 2, "isospec: no subcommand given\n" + TOP_HINT, _NOTHING),
    "unknown-subcommand": ({}, ["frobnicate"], 2, _python_text("isospec: argument ", TOP_HINT),
                           _NOTHING),
    "top-level-tol": ({}, ["--tol", "0", "harmonic", "c.json"], 2,
                      "isospec: argument --tol: '0' is not a finite positive number\n" + TOP_HINT,
                      _NOTHING),

    # ------------------------------------------------ documents
    "bad-json": ({"bad.json": "{not json"}, ["harmonic", "bad.json"], 2,
                 _python_text("isospec: "), _NOTHING),
    "missing-file": ({"nope.json": None}, ["harmonic", "nope.json"], 2,
                     _python_text("isospec: "), _NOTHING),
    "no-death": _schema({"c.json": {"type": "bd", "birth": 1.0}}, ["harmonic", "c.json"],
                        "bd chain is missing the 'death' field"),
    # the explicit recurrence never builds a q-matrix, so the schema layer must refuse
    "nan-killing-explicit": _schema({"c.json": {"type": "bd", "birth": 1.0, "death": 1.0,
                                                "killing": [0, NAN, 0, 0], "N": 3}},
                                    ["harmonic", "c.json", "--method", "explicit"],
                                    "'killing' has a NaN or infinite entry"),
    **{name: _schema({"a.json": GOOD_QPAIR, "b.json": doc}, ["verify", "a.json", "b.json"], line)
       for name, (doc, line) in {
           "nan-rate": (dict(GOOD_QPAIR, rates=[[0, NAN, 0], [1, 0, 1], [0, 1, 0]]),
                        "rates has a NaN or infinite entry"),
           "inf-total": (dict(GOOD_QPAIR, total=[1, INF, 1]),
                         "total has a NaN or infinite entry"),
           "nan-killing": (dict(GOOD_QPAIR, killing=[0, NAN, 0]),
                           "killing has a NaN or infinite entry"),
           "nan-birth": ({"type": "bd", "birth": [1, NAN, 1], "death": 1.0, "N": 2},
                         "'birth' has a NaN or infinite entry"),
           "inf-killing": ({"type": "bd", "birth": 1.0, "death": 1.0, "killing": -INF, "N": 2},
                           "'killing' has a NaN or infinite entry"),
       }.items()},
    # a count is a JSON integer or an integral float, never rounded, a bool or text
    **{f"N-{name}": _schema({"c.json": dict(ZERO_N, N=n)},
                            ["harmonic", "c.json", "--method", "solve"], "'N' must be an integer")
       for name, n in (("text", "abc"), ("infinite", INF), ("fraction", 10.5), ("bool", True),
                       ("numeric-text", "12"))},
    **{name: _schema({"c.json": doc}, ["harmonic", "c.json", "--method", "solve"],
                     f"'{key}' must hold only numbers, nested evenly")
       for name, (doc, key) in {
           "birth-text-entry": ({"type": "bd", "birth": [1, "a"], "death": 1.0, "N": 1}, "birth"),
           "poly-text-coeff": ({"type": "bd", "birth": {"formula": "poly", "coeffs": ["a"]},
                                "death": 1.0, "N": 3}, "birth"),
           "ragged-rates": ({"type": "qpair", "rates": [[0, 1], [1]]}, "rates"),
           "ragged-mu": ({"type": "qpair", "rates": [[0, 1], [1, 0]], "mu": [1, [2]]}, "mu"),
       }.items()},
    # json.load itself refuses integer literals beyond 4300 digits
    "birth-5001-digits": ({"c.json": '{"type": "bd", "birth": 1%s, "death": 1.0, "N": 3}'
                                     % ("0" * 5000)}, ["harmonic", "c.json", "--method", "solve"],
                          2, _python_text("isospec: input JSON: ", _hint("harmonic")), _NOTHING),
    # every path refuses a rate that is not positive
    **{f"{doc}-{path}": _schema({"c.json": NONPOSITIVE[doc][0], "h.json": [1.0] * 22},
                                CHAIN_PATHS[path], f"{NONPOSITIVE[doc][1]} must be positive")
       for doc in NONPOSITIVE for path in CHAIN_PATHS},
    "poly-overflow-explicit": _schema({"c.json": POLY_OVERFLOW},
                                      ["harmonic", "c.json", "--method", "explicit", "--nmax",
                                       "4"], "'birth' poly formula is not finite at state 1"),
    "poly-overflow-bounds": _schema({"c.json": POLY_OVERFLOW},
                                    ["bounds", "c.json", "--nmax", "16"],
                                    "'birth' poly formula is not finite at state 1"),
    # the size caps
    **{name: _schema({"c.json": dict(KILLED_BD, N=n)}, ["harmonic", "c.json"],
                     f'"N" must be at most {MAX_STATES}')
       for name, n in (("N-1e308", 1e308), ("N-1e15", 10**15), ("N-over-cap", MAX_STATES + 1))},
    "nmax-cap-explicit": _schema({"c.json": KILLED_BD},
                                 ["harmonic", "c.json", "--method", "explicit", "--nmax", 10**15],
                                 f"--nmax must be at most {MAX_STATES}"),
    "nmax-cap-bounds": _schema({"c.json": KILLED_BD}, ["bounds", "c.json", "--nmax", 10**15],
                               f"--nmax must be at most {MAX_STATES}"),
    # the dense cap is checked before any matrix is built
    "dense-cap-verify": _schema({"c.json": dict(KILLED_BD, N=DENSE_N)},
                                ["verify", "c.json", "c.json"],
                                f"a dense rate matrix of {DENSE_N + 1} states exceeds the cap of "
                                f"{MAX_DENSE_BYTES} bytes"),
    "dense-cap-solve": _schema({"c.json": dict(KILLED_BD, N=DENSE_N)},
                               ["harmonic", "c.json", "--method", "solve"],
                               f"a dense rate matrix of {DENSE_N + 1} states exceeds the cap of "
                               f"{MAX_DENSE_BYTES} bytes"),
    "M-cap": _schema({"op.json": dict(OP, M=1e308)}, ["diffop", "op.json", "--check", "spectrum"],
                     f'"M" must be at most {MAX_STATES}'),
    "N-zero-killed": _schema({"c.json": dict(KILLED_BD, N=0)}, ["harmonic", "c.json"],
                             '"N" must be at least 1'),
    # a number of an operator document is finite, as every chain field is
    **{name: _schema({"op.json": text}, ["diffop", "op.json", "--check", check],
                     f"'{key}' has a NaN or infinite entry")
       for name, (key, text, check) in {
           "a-infinite-riccati": ("a", '{"a": 1e999, "b": 0, "interval": [-1, 1], "M": 10}',
                                  "riccati"),
           "a-infinite": ("a", '{"a": 1e999, "b": 0, "interval": [-1, 1], "M": 10}', "spectrum"),
           "b-nan": ("b", '{"a": 0.5, "b": NaN, "interval": [-1, 1], "M": 10}', "spectrum"),
           "c-minus-infinity": ("c", '{"a": 0.5, "b": 0, "c": -Infinity, "interval": [-1, 1], '
                                     '"M": 10}', "spectrum"),
           "interval-infinite": ("interval", '{"a": 0.5, "b": 0, "interval": [-Infinity, '
                                             'Infinity], "M": 10}', "spectrum"),
       }.items()},
    "interval-text": _schema({"op.json": dict(OP_50, interval=["lo", 1])},
                             ["diffop", "op.json", "--check", "spectrum"],
                             "'interval' must hold only numbers, nested evenly"),
    **{f"M-{name}": _schema({"op.json": dict(SMALL_OP, b="-x", M=m)},
                            ["diffop", "op.json", "--check", "spectrum"],
                            "'M' must be an integer")
       for name, m in (("text", "x"), ("numeric-text", "12"), ("fraction", 10.9),
                       ("bool", True))},
    "h-infinite": _schema({"op.json": dict(SMALL_OP, b="-x"), "h.json": '{"h": 1e999, "h1": 0, '
                                                                        '"h2": 0}'},
                          ["diffop", "op.json", "--h", "h.json", "--check", "transform"],
                          "'h' has a NaN or infinite entry"),
    **{f"sampled-{key}-non-finite": _schema(
        {"op.json": OP_50, "h.json": {"grid": [-1, 0, 1], "values": [1, 2, 1], key: bad}},
        ["diffop", "op.json", "--h", "h.json", "--check", "transform"],
        f"'{key}' has a NaN or infinite entry")
       for key, bad in (("grid", [-1, NAN, 1]), ("values", [1, INF, 1]))},
    # np.interp reads a sampled h only on an increasing grid, and only inside it
    **{f"grid-{name}-{check}": (
        {"op.json": op, "h.json": h}, ["diffop", "op.json", "--h", "h.json", "--check", check],
        2, f"isospec: {line}\n" + _hint("diffop"), _NOTHING)
       for name, (op, h, line) in _GRIDS.items() for check in ("transform", "eigen")},
    "values-ragged": _schema({"c.json": FIB, "h.json": {"values": [1, [2, 3]]}},
                             ["transform", "c.json", "--h", "h.json"],
                             "'values' must hold only numbers, nested evenly"),
    "values-nan": _schema({"c.json": FIB,
                           "h.json": {"values": [1, 2, NAN, 13, 34, 89, 233, 610]}}, LOCAL,
                          "'values' has a NaN or infinite entry"),
    "values-inf-verify": _schema({"c.json": FIB, "h.json": [1, 2, 5, INF, 34, 89, 233, 610]},
                                 ["verify", "c.json", "c.json", "--h", "h.json"],
                                 "'values' has a NaN or infinite entry"),
    "mu-inf": _schema({"c.json": dict(QPAIR, mu=[1, INF])},
                      ["transform", "c.json", "--direction", "measure"],
                      "'mu' has a NaN or infinite entry"),
    # each request fails on a different refusal of a chain or operator document
    "op-missing-a": _schema({"op.json": {"b": 0, "interval": [-1, 1], "M": 10}},
                            ["diffop", "op.json", "--check", "spectrum"],
                            "operator JSON is missing 'a'"),
    "op-array-a": _schema({"op.json": dict(SMALL_OP, a=[1])},
                          ["diffop", "op.json", "--check", "spectrum"],
                          "'a' must be a number or an expression string"),
    "op-not-object": _schema({"op.json": [1, 2]}, ["diffop", "op.json", "--check", "spectrum"],
                             "operator JSON must be an object"),
    "op-interval-3": _schema({"op.json": dict(SMALL_OP, interval=[1, 2, 3])},
                             ["diffop", "op.json", "--check", "spectrum"],
                             '"interval" must be [lo, hi]'),
    "op-interval-order": _schema({"op.json": dict(SMALL_OP, interval=[1, 0])},
                                 ["diffop", "op.json", "--check", "spectrum"],
                                 '"interval" must have lo < hi'),
    "op-interval-wide": _schema({"op.json": dict(SMALL_OP, interval=[-1e308, 1e308])},
                                ["diffop", "op.json", "--check", "spectrum"],
                                "interval [-1e+308, 1e+308]: hi - lo is not finite"),
    "op-bc-text": _schema({"op.json": dict(SMALL_OP, bc="neumann")},
                          ["diffop", "op.json", "--check", "spectrum"],
                          '"bc" must name two boundary conditions'),
    "h-not-object": _schema({"op.json": SMALL_OP, "h.json": [1, 2]},
                            ["diffop", "op.json", "--h", "h.json", "--check", "transform"],
                            "h JSON for diffop must be an object"),
    "h-values-only": _schema({"op.json": SMALL_OP, "h.json": {"values": [1, 2, 3]}},
                             ["diffop", "op.json", "--h", "h.json", "--check", "transform"],
                             'sampled h needs both "grid" and "values"'),
    "h-empty": _schema({"op.json": SMALL_OP, "h.json": {}},
                       ["diffop", "op.json", "--h", "h.json", "--check", "transform"],
                       'h JSON needs "h" (expression) or "grid"/"values"'),
    "h-h1-only": _schema({"op.json": SMALL_OP, "h.json": {"h": "x", "h1": "1"}},
                         ["diffop", "op.json", "--h", "h.json", "--check", "transform"],
                         "declare both h1 and h2 or neither"),
    "h-number": _schema({"op.json": SMALL_OP, "h.json": {"h": 1}},
                        ["diffop", "op.json", "--h", "h.json", "--check", "transform"],
                        '"h" must be an expression string'),
    **{f"bd-{name}-birth": _schema({"c.json": {"type": "bd", "birth": v, "death": 1, "N": 3}},
                                   ["harmonic", "c.json"],
                                   "'birth' must be a number, an array, or "
                                   '{"formula": "poly", "coeffs": [...]}')
       for name, v in (("text", "x"), ("bool", True))},
    "bd-zero-N": _schema({"c.json": ZERO_N}, ["harmonic", "c.json"], '"N" must be at least 1'),
    # a count is an integer, not rounded down
    "bd-fraction-N": _schema({"c.json": dict(ZERO_N, N=10.5)}, ["harmonic", "c.json"],
                             "'N' must be an integer"),
    "bd-formula-no-N": _schema({"c.json": {"type": "bd",
                                           "birth": {"formula": "poly", "coeffs": [1]},
                                           "death": 1}},
                               ["harmonic", "c.json", "--method", "solve"],
                               'bd chain with formula rates needs "N"'),
    "qpair-measure": _schema({"c.json": QPAIR}, ["transform", "c.json", "--direction", "measure"],
                             'qpair chain needs an explicit "mu" array here'),
    "qpair-no-rates": _schema({"c.json": {"type": "qpair"}}, ["harmonic", "c.json"],
                              'qpair chain is missing the "rates" matrix'),
    "qpair-nonsquare": _schema({"c.json": {"type": "qpair", "rates": [[0, 1, 2], [1, 0, 1]]}},
                               ["harmonic", "c.json", "--method", "solve"],
                               "rates must be a square matrix with n >= 1"),
    "qpair-negative-rate": _schema({"c.json": {"type": "qpair",
                                                "rates": [[0, 1, 2], [1, 0, -1], [2, 1, 0]]}},
                                   ["harmonic", "c.json", "--method", "solve"],
                                   "rate[1][2] = -1.0 is negative"),
    "h-no-values": _schema({"c.json": FIB, "h.json": {"h": [1, 2]}},
                           ["transform", "c.json", "--h", "h.json"],
                           'h JSON object needs a "values" array'),
    "h-one-value": _schema({"c.json": FIB, "h.json": [1]},
                           ["transform", "c.json", "--h", "h.json"],
                           "h must be a flat array of at least two values"),
    "explicit-qpair": _schema({"c.json": QPAIR}, ["harmonic", "c.json", "--method", "explicit"],
                              "--method explicit needs a bd chain"),
    "explicit-unbounded": _schema({"c.json": {"type": "bd", "birth": 1, "death": 1}},
                                  ["harmonic", "c.json", "--method", "explicit"],
                                  "unbounded bd chain: pass --nmax"),
    "forward-no-h": _schema({"c.json": FIB}, ["transform", "c.json", "--direction", "forward"],
                            "--direction forward needs --h"),
    "verify-no-measure": _schema({"c.json": FIB, "q.json": QPAIR}, ["verify", "c.json", "q.json"],
                                 'second chain needs a measure: give --h or embed "mu"'),

    # ------------------------------------------------ rates near float range
    # row sums past float range, banded and dense
    "band-sums": _schema({"c.json": HUGE, "h.json": [0.1] * 8},
                         [*LOCAL, "--set", "0"], "total has a NaN or infinite entry"),
    "dense-sums": _schema({"c.json": HUGE}, ["verify", "c.json", "c.json"],
                          "total has a NaN or infinite entry"),
    # the birth-death band's row sum b_1 + a_1 = 2e308, refused before tilting
    "bd-transform": _failed({"c.json": dict(HUGE, N=3), "h.json": [1, 2, 4, 8, 16]},
                            ["transform", "c.json", "--h", "h.json"],
                            "total has a NaN or infinite entry"),
    # max(mu) / min(mu) overflows on the band
    "measure-ratio": _failed({"c.json": TINY_MU},
                             ["transform", "c.json", "--direction", "measure"],
                             "rates has a NaN or infinite entry"),
    # the harmonicity check reads an overflowed residual as inf, not NaN
    "residual": _failed({"c.json": {"type": "qpair", "rates": [[0, 1e308], [1e308, 0]]},
                         "h.json": [1, 2]}, ["transform", "c.json", "--h", "h.json"],
                        "max harmonic residual inf exceeds tolerance 1e-08"),
    # a~_1 = 1e-130 h_0 / h_1 rounds to 0: the transform's result, not the document
    "forward-underflow": _failed({"c.json": UNDERFLOW, "h.json": [1.0, 1e200, 1e200]}, FORWARD,
                                 "transformed death rate leaves float range at index 1"),
    # h_2 of bounds' own recurrence overflows, which is not an h too short
    "bounds-h": _failed({"c.json": {"type": "bd", "birth": 1.0, "death": 1.0,
                                    "killing": -1e300}}, ["bounds", "c.json", "--nmax", "100"],
                        "h leaves float range at index 2"),
    # c_0 - q_0 overflows at load: an input error, not a NaN residual
    "qpair-diagonal": _schema({"c.json": {"type": "qpair", "rates": [[0, 1e308], [1e308, 0]],
                                          "killing": [-1e308, -1e308]}},
                              ["harmonic", "c.json", "--method", "solve", "--theta", "1"],
                              "generator diagonal c[0] - q[0] = -1e+308 - 1e+308 is not finite"),

    # ------------------------------------------------ hostile expressions
    **{f"hostile-{name}": _library({"op.json": {"a": 0.5, "b": "-x", "interval": [-1.0, 1.0],
                                                "M": 10, **op},
                                    "h.json": dict(GAUSS, **h)},
                                   ["diffop", "op.json", "--h", "h.json", "--check", "eigen"],
                                   f"cannot parse {line}")
       for name, op, h, line in (
           ("overflowing-tower", {"b": "9^9^9^9"}, {}, "'9^9^9^9': constant out of float range"),
           ("3000-parentheses", {"b": "(" * 3000 + "x" + ")" * 3000}, {},
            "'" + "(" * 77 + "...': longer than 2000 characters"),
           ("150-parentheses", {"b": "(" * 150 + "x" + ")" * 150}, {},
            "'" + "(" * 77 + "...': nesting deeper than 100 levels"),
           ("long-product-derivative", {}, {"h": "*".join(f"(x+{i})" for i in range(60))},
            "'" + "*".join(f"(x+{i})" for i in range(12)) + "*(x+...': derivative larger than "
            "50000 nodes"),
           # a lone surrogate, which JSON admits and UTF-8 cannot encode
           ("lone-surrogate", {"b": "0.5\ud800"}, {},
            "'0.5\\ud800': disallowed token: '\\ud800'"),
       )},
}


@pytest.mark.parametrize("name", CONTRACT)
def test_request_keeps_its_status_and_diagnosis(tmp_path, name):
    docs, argv, status, err, out = CONTRACT[name]
    code, got_out, got_err = _run(tmp_path, argv, docs)
    if isinstance(err, re.Pattern):
        assert code == status and err.fullmatch(got_err), (code, got_err)
    else:
        assert (code, got_err) == (status, err)
    assert out is None or out(got_out)


def test_hostile_expressions_are_refused_within_a_second(tmp_path):
    for name in (n for n in CONTRACT if n.startswith("hostile-")):
        docs, argv, *_ = CONTRACT[name]
        argv = _files(tmp_path, argv, docs)
        t0 = time.perf_counter()
        _call(argv)
        assert time.perf_counter() - t0 < 1.0, name


# The rows an entry point could change: each handler module at each exit status, a
# short report that waits for run()'s final flush, 4 MB written in main, and the
# README pipeline.
ENTRY_POINT_ROWS = ["readme-harmonic", "readme-transform", "readme-verify", "long-report",
                    "verify-other", "zero-N", "op-spectrum", "a-vanishes-at-a-face",
                    "one-cell"]
# python -m isospec.cli, and the call that pip's isospec script makes
ENTRY_POINTS = {"module": ["-m", "isospec.cli"],
                "script": ["-c", "import sys; from isospec.cli import run; sys.exit(run())"]}


@pytest.mark.parametrize("name", ENTRY_POINT_ROWS)
def test_module_entry_point_keeps_bytes_and_status(tmp_path, src_env, name):
    # run() flushes and skips interpreter teardown; nothing may be lost
    docs, argv, *_ = CONTRACT[name]
    argv = [str(a) for a in _files(tmp_path, argv, docs)]
    code, out, err = _call(argv)
    assert gc.isenabled()  # main() alone leaves the cyclic collector on
    for form, words in ENTRY_POINTS.items():
        proc = subprocess.run([sys.executable, "-X", "importtime", *words, *argv],
                              env=src_env, capture_output=True, timeout=120)
        stderr = proc.stderr.decode().splitlines(keepends=True)
        imports = [ln.rsplit("|", 1)[-1].strip() for ln in stderr
                   if ln.startswith("import time:")]
        # under -m, cli.py runs as __main__; a module importing isospec.cli would build
        # a second copy, whose SchemaError main does not catch
        assert ("isospec.cli" in imports) == (form == "script"), form
        assert ("isospec._cli_chains" in imports) == (argv[0] != "diffop"), form
        assert ("isospec._cli_diffop" in imports) == (argv[0] == "diffop"), form
        assert "dataclasses" not in imports, form
        assert proc.returncode == code, form
        assert proc.stdout == out.encode(), form
        assert "".join(ln for ln in stderr if not ln.startswith("import time:")) == err, form


# ---------------------------------------------------------------- property

_HOSTILE = st.sampled_from([0, 0.0, NAN, INF, -INF, 1e308, -1e308])
_NUMBER = st.one_of(_HOSTILE, st.integers(-3, 10), st.floats(-10.0, 10.0))
_ARRAY = st.lists(_NUMBER, max_size=8)
_RATE = st.floats(0.1, 5.0)
_RATES = st.lists(_RATE, min_size=2, max_size=8)
_DROP = object()  # a replacement that removes the field


def _poly(coeff):
    return st.lists(coeff, max_size=4).map(lambda c: {"formula": "poly", "coeffs": c})


def _mostly(valid, hostile):
    """valid, or one time in eight hostile."""
    return st.integers(0, 7).flatmap(lambda k: hostile if k == 7 else valid)


# what may replace any field: numbers, arrays, formulas, ragged nesting, text
_ANY = st.one_of(_NUMBER, _ARRAY, _poly(_NUMBER), st.lists(_ARRAY, max_size=3),
                 st.text(max_size=3), st.sampled_from([None, {}]))
# the last formula reaches past float range within a few states
_FIELD = st.one_of(_RATE, _RATES, _poly(_RATE), _poly(st.sampled_from([1.0, 1e154, 1e308])))
_KILLING = st.one_of(st.floats(-1.0, 0.5), st.lists(st.floats(-1.0, 0.5), min_size=2,
                                                      max_size=8))
_N = st.one_of(st.integers(1, 8), st.just(1e308), st.sampled_from([INF, NAN, "abc", -1, 0]))
_BD = st.fixed_dictionaries({"type": st.just("bd"), "birth": _FIELD, "death": _FIELD,
                             "N": _N}, optional={"killing": _KILLING})


@st.composite
def _qpair(draw):
    n = draw(st.integers(1, 6))
    cells = st.one_of(_RATE, st.just(0.0))
    return {"type": "qpair",
            "rates": [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(n)],
            "killing": draw(st.lists(st.floats(-1.0, 0.0), min_size=n, max_size=n)),
            "mu": draw(st.lists(_RATE, min_size=n, max_size=n))}


_KEYS = st.sampled_from(["type", "birth", "death", "killing", "N", "mu", "rates", "total"])


@st.composite
def _chains(draw):
    """A bd or qpair document; half of them with one or two fields replaced."""
    doc = draw(st.one_of(_BD, _qpair()))
    for key in draw(st.sampled_from([(), (), (_KEYS,), (_KEYS, _KEYS)])):
        doc[draw(key)] = draw(st.one_of(_ANY, st.just(_DROP)))
    return {k: v for k, v in doc.items() if v is not _DROP}


_CHAIN = _mostly(_chains(), _ANY)
_H = _mostly(st.one_of(_RATES, _RATES.map(lambda v: {"values": v}),
                       st.integers(2, 9).map(lambda n: [1.0] * n)), _ANY)

_NMAX = _mostly(st.integers(-1, 40), st.just(10**15))
# zero, negative, NaN and infinite tolerances are input errors (exit 2)
_TOL = st.sampled_from(["1e-8", "0", "-1", "nan", "inf"])
# a fixed operator with M <= 50 cells (the coarse grid draws its advisory) and
# an h that is harmonic for it or not
_OP = {"a": 0.5, "b": "-x", "interval": [-6, 6], "M": 40}
_OP_H = st.sampled_from([{"h": "exp(-x^2/2)"}, {"h": "1"}, {"h": "x"}])
_FLAGS = {
    "harmonic": {"--method": st.sampled_from(["iterate", "solve", "explicit"]),
                 "--nmax": _NMAX, "--theta": st.integers(-1, 4), "--tol": _TOL},
    "transform": {"--direction": st.sampled_from(["forward", "inverse", "local", "measure"]),
                  "--set": st.sampled_from(["0", "0,1", "9", "x"]), "--tol": _TOL},
    "verify": {"--h": st.just("h.json"), "--tol": _TOL},
    "bounds": {"--nmax": st.one_of(_NMAX, st.integers(-10**6, 7)), "--tol": _TOL,
               "--tail-tol": _TOL},
    "diffop": {"--check": st.sampled_from(["eigen", "transform", "spectrum", "riccati"]),
               "--h": st.just("h.json"), "--k": st.integers(-1, 45),
               "--nmax": st.integers(-1, 65), "--tol": _TOL,
               "--phi0": st.sampled_from(["0", "1e300", "-1e300", "nan", "inf", "-1e-3",
                                          "-2.5E+2"])},
}
_COMMON = {"--output": st.sampled_from(["json", "csv"]), "--seed": st.integers(0, 9)}


@st.composite
def _requests(draw):
    cmd = draw(st.sampled_from(sorted(_FLAGS)))
    flags = draw(st.fixed_dictionaries({}, optional={**_COMMON, **_FLAGS[cmd]}))
    if cmd == "transform":
        flags["--h"] = "h.json"
    if cmd == "diffop":
        docs = {"a.json": _OP, "h.json": draw(_OP_H)}
    else:
        docs = {"a.json": draw(_CHAIN), "b.json": draw(_CHAIN), "h.json": draw(_H)}
    second = [draw(st.sampled_from(["a.json", "b.json"]))] if cmd == "verify" else []
    return [cmd, "a.json", *second, *(x for kv in flags.items() for x in kv)], docs


@settings(max_examples=200)
@given(_requests())
def test_cli_contract_holds_for_generated_requests(request):
    argv, docs = request
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = _run(tmp, argv, docs)
    _assert_contract(code, err)
