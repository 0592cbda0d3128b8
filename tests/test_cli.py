"""Command-line behaviour that one fixed request cannot show.

Each fixed request, with its exact status and stderr, is a row of
``CONTRACT`` in ``test_cli_contract.py``.  The tests here run requests
through the same runner, ``_run``, where a row cannot say what they check:
they monkeypatch the library, compare two requests, parse CSV, draw with
hypothesis or start a child interpreter.
"""
import argparse
import contextlib
import csv
import inspect
import io
import json
import math
import subprocess
import sys
import textwrap
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import isospec.chains
import isospec.eigenbounds
from isospec._checks import _float_array
from isospec._cli_chains import _rates_fault, load_chain
from isospec._cli_io import SchemaError, _emit
from isospec.errors import IsospecError, NegativeRate
from conftest import (FIB, FIB_H9, FORWARD, GAUSS, KILLED, LOCAL, OU, _Stdout, _call, _files,
                      _run)


# ---------------------------------------------------------------- harmonic

def test_harmonic_explicit_residuals_skip_the_dense_chain(monkeypatch, tmp_path):
    # a positive c_0 is folded into the dense total; the three-term residual is 0
    def no_dense(*args, **kwargs):
        raise AssertionError("explicit residuals must not build a q-matrix")

    monkeypatch.setattr(isospec.chains, "_dense_view", no_dense)
    chain = {"type": "bd", "birth": 1.0, "death": 1.0, "killing": [0.3] + [-0.5] * 10, "N": 10}
    code, out, err = _run(tmp_path, ["harmonic", "c.json", "--method", "explicit"],
                          {"c.json": chain})
    assert code == 0
    assert err.splitlines() == ["isospec: warning: positive potential entries: the explicit "
                                "recursion is computed but its positivity guarantee does not "
                                "apply"]
    doc = json.loads(out)
    assert abs(doc["residuals"][0]) <= 1e-12
    assert doc["residuals"][-1] == 0.0


# b_8 = 0 at the last state of an 8-state truncation: no request on N = 8 reads it
LAST_BIRTH_ZERO = {"type": "bd", "birth": [1.0] * 8 + [0.0], "death": 1.0,
                   "killing": -1.0, "N": 8}
LAST_BIRTH_ONE = dict(LAST_BIRTH_ZERO, birth=[1.0] * 9)


def test_the_explicit_recursion_never_reads_the_last_birth_rate(tmp_path):
    argv = ["harmonic", "c.json", "--method", "explicit"]
    code, out, err = _run(tmp_path, argv, {"c.json": LAST_BIRTH_ZERO})
    assert (code, err) == (0, "")
    assert json.loads(out)["h"] == FIB_H9
    # h and its residuals are those of b_8 = 1, bit for bit
    assert _run(tmp_path, argv, {"c.json": LAST_BIRTH_ONE}) == (0, out, "")


@pytest.mark.parametrize("argv", [["verify", "c.json", "c.json"],
                                  ["transform", "c.json", "--direction", "measure"]],
                         ids=["verify", "transform-measure"])
def test_the_measure_never_reads_the_last_birth_rate(tmp_path, argv):
    # mu comes from the truncation's band, which drops b_8
    code, out, err = _run(tmp_path, argv, {"c.json": LAST_BIRTH_ZERO})
    assert code == 0
    assert _run(tmp_path, argv, {"c.json": LAST_BIRTH_ONE}) == (0, out, err)


# ---------------------------------------------------------------- transform

def test_transform_local_then_verify_passes(tmp_path):
    # the README pipeline where h (up to 2.1e197) squares past float range
    # while h^2 mu (up to 7.7e219) does not
    docs = {"c.json": {"type": "bd", "birth": 1.0, "death": 5.0, "killing": -1.0, "N": 250}}
    code, out, _ = _run(tmp_path, ["harmonic", "c.json", "--method", "explicit"], docs)
    assert code == 0
    docs["h.json"] = {"values": json.loads(out)["h"]}
    code, out, _ = _run(tmp_path, LOCAL, docs)
    assert code == 0
    docs["t.json"] = out
    code, _, err = _run(tmp_path, ["verify", "c.json", "t.json", "--h", "h.json"], docs)
    assert (code, err) == (0, "isospec: PASS\n")


# entries of a rates matrix: numbers, with the non-finite ones, sums past float
# range and negatives on and off the diagonal; and what numpy reads in place of
# a number (bools, numeric text) or refuses (other text, null, a nested list,
# an integer past float range)
_RATE_CELLS = (st.integers(-2, 3) | st.floats(-2.0, 3.0)
               | st.sampled_from([-0.0, 1e308, float("nan"), float("inf"), float("-inf")])
               | st.sampled_from([True, False, None, "1", "-1", "a", [1.0], 10**400]))


@st.composite
def _rates_nodes(draw):
    n = draw(st.integers(0, 4))
    width = draw(st.sampled_from([n, n, n, draw(st.integers(0, 4))]))
    cells = st.integers(0, 3) if draw(st.booleans()) else _RATE_CELLS
    return [[draw(cells) for _ in range(width)] for _ in range(n)]


@settings(max_examples=500)
@given(node=_rates_nodes() | st.lists(st.lists(_RATE_CELLS, max_size=4), max_size=4)
       | st.sampled_from([3, None, "a", {}]))
@example(node=[])
@example(node=[[]])
@example(node=3)
@example(node=[["0", "1"], ["1", "0"]])  # numeric text reads as the number it spells
@example(node=[["0", "-1"], ["1", "0"]])
@example(node=[[0, 1], [1]])
@example(node=[[0.0], 2.0])
@example(node=[[0, 1e308, 1e308], [1, 0, 1], [1, 1, 0]])  # finite, but the sum overflows
@example(node=[[0, 1e308, 1e308], [1, 0, -1], [1, 1, 0]])
@example(node=[[0, -1], [float("nan"), 0]])  # finiteness is checked before the sign
@example(node=[[float("nan"), -1], [1, 0]])  # a NaN diagonal is ignored
@example(node=[[-1, 0, 2], [1, -5, 1], [0, -2, float("inf")]])
@example(node=[[1, 0, 2], [1, -5, -1], [0, 1, 0]])  # the first negative after the diagonal
@example(node=[[0, 1, 2], [-0.5, float("nan"), 1], [0, 1, 0]])
@example(node=[[0, 10**400], [1, 0]])
@example(node=[[0, 1], [1, 10**400]])
@example(node=[[0, True], [None, 0]])
def test_rates_refusals_match_validate_qpair(node):
    # load_chain refuses some malformed rates before numpy loads; each outcome
    # and message must be the library's
    try:
        isospec.chains.validate_qpair(_float_array("'rates'", node))
        want = None
    except IsospecError as exc:
        want = exc
    try:
        load_chain({"type": "qpair", "rates": node})
        got = None
    except SchemaError as exc:
        got = str(exc)
    assert got == (want and str(want))
    # and the check itself decides every shape, finiteness and sign refusal of
    # a matrix of numbers in float range, and leaves everything else to numpy
    numbers = (isinstance(node, list) and all(isinstance(row, list) for row in node)
               and len({len(row) for row in node}) <= 1
               and all(isinstance(v, float) or isinstance(v, int) and abs(v) <= sys.float_info.max
                       for row in node for v in row))
    rule = isinstance(want, NegativeRate) or str(want) in (
        "rates must be a square matrix with n >= 1", "rates has a NaN or infinite entry")
    assert _rates_fault(node) == (str(want) if numbers and rule else None)


def test_verify_eigensolver_failure_exits_one(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert _run(tmp_path, ["verify", "c.json", "c.json"], {"c.json": FIB}) == (
        1, "", "isospec: check failed: LAPACK eigvalsh did not converge\n")


def test_transform_forward_csv_rows_match_json(monkeypatch, tmp_path):
    docs = {"c.json": FIB, "h.json": FIB_H9}
    doc = json.loads(_run(tmp_path, FORWARD, docs)[1])
    # the rows come from the same rate arrays as the document, not the per-state getters
    for name in ("b", "a", "c"):
        monkeypatch.setattr(isospec.chains.BirthDeathSpec, name, None)
    code, out, _ = _run(tmp_path, [*FORWARD, "--output", "csv"], docs)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["state", "birth", "death", "killing", "mu"]
    assert len(rows) == doc["N"] + 2
    for i, row in enumerate(rows[1:]):
        want = [i, doc["birth"][i], doc["death"][i], doc["killing"][i], doc["mu"][i]]
        assert [float(v) for v in row] == want


# ---------------------------------------------------------------- bounds

def test_bounds_fails_a_variational_value_outside_the_enclosure(monkeypatch, tmp_path):
    monkeypatch.setattr(isospec.eigenbounds, "_lambda0",
                        lambda b, a, c, ns: [[n, 1e3] for n in ns])
    chain = {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -1.0}
    code, out, err = _run(tmp_path, ["bounds", "c.json", "--nmax", "64"], {"c.json": chain})
    assert code == 1
    doc = json.loads(out)
    assert doc["containment"] is False
    assert doc["lambda0_numeric"] == 1e3
    assert doc["n_max"] == 64
    assert err == "isospec: FAIL\n"


# ---------------------------------------------------------------- diffop

def test_diffop_declared_derivatives_match_the_symbolic_ones(tmp_path):
    argv = ["diffop", "op.json", "--h", "h.json", "--check", "transform"]
    # h1 and h2 are the derivatives as CompiledExpr.diff prints them
    runs = [_run(tmp_path, argv, {"op.json": KILLED, "h.json": h}) for h in (
        {"h": "exp(-1.5*x^2/2)"},
        {"h": "exp(-1.5*x^2/2)", "h1": "-1.5*exp(-0.75*x^2)*x",
         "h2": "2.25*exp(-0.75*x^2)*x*x - 1.5*exp(-0.75*x^2)"})]
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs[1] == runs[0]


# ---------------------------------------------------------------- plumbing

def test_invalid_argument_is_a_precondition():
    from isospec import BirthDeathSpec, PreconditionViolated, bd_harmonic_explicit
    from isospec.errors import InvalidArgument

    with pytest.raises(InvalidArgument):
        bd_harmonic_explicit(BirthDeathSpec(1.0, 1.0), 0)
    assert issubclass(InvalidArgument, PreconditionViolated)


@pytest.mark.parametrize("phi0, code", [
    # argparse's own negative-number pattern has no exponent: a separate -1e-3
    # used to be read as an option, exit 2
    ("-1e-3", 0), ("-2.5E+2", 1),
    # nor digit separators: a separate -1_0 was an option, where --phi0=-1_0 is -10
    ("-1_0", 1), ("-.5e1_0", 1), ("-1_0e-4", 0),
])
def test_riccati_anchor_is_one_argument(tmp_path, phi0, code):
    docs = {"op.json": {"a": 0.5, "b": 0, "c": "(1 - x^2)/2", "interval": [-2, 2], "M": 200}}
    argv = ["diffop", "op.json", "--check", "riccati"]
    apart = _run(tmp_path, [*argv, "--phi0", phi0], docs)
    assert apart == _run(tmp_path, [*argv, f"--phi0={phi0}"], docs)
    assert apart[0] == code


# a bad value of each subcommand's own choices or number flag
_BAD_VALUES = {"harmonic": ["--method", "guess"], "transform": ["--direction", "sideways"],
               "verify": ["--output", "xml"], "bounds": ["--tail-tol", "abc"],
               "diffop": ["--phi0", "inf"]}


@pytest.mark.parametrize("name", _BAD_VALUES)
def test_one_subcommand_parser_parses_as_the_full_tree(monkeypatch, name):
    import isospec.cli

    build, usages = isospec.cli.build_parser, []

    def spy(cmd=None):
        parser = build(cmd)
        usages.append(parser.format_usage())
        return parser

    docs = ["a.json", "b.json"] if name == "verify" else ["a.json"]
    for argv in ([name, "--help"], [name], [name, *docs, "--output", "xml"],
                 [name, *docs, "--tol", "abc"], [name, *docs, *_BAD_VALUES[name]],
                 [name, *docs, "--bogus"]):
        monkeypatch.setattr(isospec.cli, "build_parser", spy)
        dispatched = _call(argv)
        assert "{%s}" % name in usages.pop(), argv
        monkeypatch.setattr(isospec.cli, "build_parser", lambda cmd=None: build())
        assert dispatched == _call(argv), argv
        assert dispatched[0] == (0 if argv[-1] == "--help" else 2), argv
    # an option before the subcommand parses with every subcommand
    monkeypatch.setattr(isospec.cli, "build_parser", spy)
    assert _call(["--quiet", name, "--help"])[0] == 0
    assert "{harmonic,transform,verify,bounds,diffop}" in usages.pop()


def test_advisories_are_diagnosis_lines(tmp_path):
    # an unreachable anchor, and a coarse grid: one isospec line each, silenced by --quiet
    docs = {"c.json": {"type": "qpair", "rates": [[0, 0, 1], [0, 1, 1], [0, 1, 1]]},
            "op.json": {"a": 0.5, "b": "-x", "interval": [-6, 6], "M": 40}}
    for argv, text in (
        (["harmonic", "c.json"], "states [1, 2] cannot reach the anchor state 0; the minimal "
                                 "solution vanishes there"),
        (["diffop", "op.json", "--check", "spectrum"], "cell Peclet number reaches 3.6 > 2; "
                                                       "refine the grid for trustworthy low "
                                                       "modes"),
    ):
        code, out, err = _run(tmp_path, argv, docs)
        assert (code, err) == (0, f"isospec: warning: {text}\n")
        assert _run(tmp_path, ["--quiet", *argv], docs) == (0, out, "")


def test_global_flags_accepted_before_and_after(tmp_path):
    argv = ["harmonic", "c.json", "--method", "explicit"]
    code_a, out_a, _ = _run(tmp_path, ["--output", "json", *argv], {"c.json": FIB})
    code_b, out_b, _ = _run(tmp_path, [*argv, "--output", "json"], {"c.json": FIB})
    assert code_a == code_b == 0
    assert json.loads(out_a)["h"] == json.loads(out_b)["h"]


def test_stdin_input(monkeypatch):
    doc = json.dumps({"type": "bd", "birth": 1.0, "death": 1.0, "killing": -1.0, "N": 5})
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, _ = _call(["harmonic", "-", "--method", "explicit"])
    assert code == 0
    assert json.loads(out)["h"][0] == 1.0


# ---------------------------------------------------------------- output and imports

_SCALARS = (st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -(2**70)])
            | st.floats() | st.sampled_from([-0.0, float("inf"), float("-inf")])
            | st.text() | st.sampled_from([", ", "a, b", '"x", 1']))
_EDGES = [0.0, -0.0, 5e-324, 1e16, 1e-5, float("nan"), float("inf"), float("-inf")]
_EDGE_FLOATS = st.sampled_from(_EDGES)
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
_ARRAYS = (hnp.arrays(np.float64, _SHAPES, elements=st.floats() | _EDGE_FLOATS)
           | hnp.arrays(np.int64, _SHAPES))
_JSON = st.recursive(
    _SCALARS | _ARRAYS | st.lists(st.integers() | st.floats()).map(tuple)
    | st.lists(st.integers() | st.floats()),
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40,
)
_EDGE_ROW = _EDGES + [0, -(2**63), 2**63 - 1, True, False]
_CELLS = st.booleans() | st.integers(-(2**63), 2**63 - 1) | st.floats() | _EDGE_FLOATS
_NUMPY_SCALAR = {bool: np.bool_, int: np.int64, float: np.float64}


def _strict(v):
    """v with numpy values as their tolist(), tuples as lists and non-finite floats as None."""
    v = v.tolist() if hasattr(v, "tolist") else v
    if isinstance(v, (list, tuple)):
        return [_strict(x) for x in v]
    if isinstance(v, dict):
        return {k: _strict(x) for k, x in v.items()}
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _emitted(output, payload, rows=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(argparse.Namespace(seed=None, output=output), payload, header=("a", "b"),
              rows=rows)
    return out.getvalue()


@given(doc=st.dictionaries(st.text(), _JSON),
       rows=st.lists(st.lists(_CELLS, max_size=4), max_size=4))
@example(doc={"a": np.array([[-0.0, 5e-324], [float("nan"), float("-inf")]]),
              "b": (np.arange(3), np.zeros((2, 0)), ())}, rows=[_EDGE_ROW])
def test_emit_matches_indented_json_dumps(doc, rows):
    # numpy arrays are written as their tolist(), tuples as lists, inf and NaN as null
    assert _emitted("json", doc) == json.dumps(_strict(doc), indent=2, allow_nan=False) + "\n"
    # a numpy scalar cell prints as the Python value it holds
    np_rows = [[_NUMPY_SCALAR[type(v)](v) for v in row] for row in rows]
    assert _emitted("csv", {}, lambda: np_rows) == _emitted("csv", {}, lambda: rows)


def test_subcommands_load_only_their_modules(tmp_path, src_env):
    bd = {"type": "bd", "birth": 1.0, "death": 1.0, "N": 7}
    docs = {
        "fib.json": FIB, "h.json": {"values": FIB_H9}, "b.json": dict(FIB, N=64), "ou.json": OU,
        "g.json": GAUSS,
        # the killed oscillator, for which exp(-x^2/2) is harmonic
        "k.json": {"a": 0.5, "b": 0, "c": "(1 - x^2)/2", "interval": [-3, 3], "M": 300},
        "inj.json": {"a": 0.5, "b": "__import__('os')", "interval": [-1, 1], "M": 10},
        "free.json": bd,
        "tilted.json": _Stdout(["transform", "fib.json", "--h", "h.json", "--direction",
                                "local"]),
        "no_death.json": {"type": "bd", "birth": 1.0, "N": 7}, "zero_n.json": dict(bd, N=0),
        "unknown.json": dict(bd, type="ctmc"), "listed.json": [bd],
        "no_a.json": {"b": 0, "interval": [-1, 1], "M": 10},
        "nonsquare.json": {"type": "qpair", "rates": [[0, 1, 2], [1, 0, 1]]},
        "negative.json": {"type": "qpair", "rates": [[0, 1, 2], [1, 0, -1], [2, 1, 0]]},
        "nan_rate.json": {"type": "qpair", "rates": [[0, float("nan")], [1, 0]]},
    }
    paths = dict(zip(docs, map(str, _files(tmp_path, list(docs), docs))))
    chain_runs = [
        (["harmonic", "fib.json", "--method", "explicit"], 0),
        (["harmonic", "fib.json", "--method", "solve"], 0),
        (["transform", "fib.json", "--h", "h.json", "--direction", "local"], 0),
        (["verify", "fib.json", "fib.json"], 0),
        (["bounds", "b.json", "--nmax", "64"], 0),
    ]
    # the h-transform needs the chain layer, not the solvers that produce h
    transform_runs = [
        (["transform", "fib.json", "--h", "h.json", "--direction", "forward"], 0),
        (["transform", "free.json", "--h", "h.json", "--direction", "inverse"], 0),
        (["transform", "fib.json", "--h", "h.json", "--direction", "local"], 0),
        (["transform", "fib.json", "--direction", "measure"], 0),
        (["verify", "fib.json", "tilted.json", "--h", "h.json"], 0),
    ]
    # usage errors, --help and the refusals of a document's structure load no numpy;
    # and so do the refusals of a q-pair rate matrix that is not square, finite and
    # nonnegative off the diagonal
    refusals = [
        (["--help"], 0),
        (["harmonic", "--help"], 0),
        (["harmonic", "fib.json", "--nmax", "abc"], 2),
        (["harmonic", "no_death.json"], 2),
        (["harmonic", "zero_n.json", "--method", "explicit"], 2),
        (["bounds", "unknown.json"], 2),
        (["verify", "listed.json", "fib.json"], 2),
        (["diffop", "no_a.json", "--check", "spectrum"], 2),
        (["harmonic", "nonsquare.json", "--method", "solve"], 2),
        (["harmonic", "negative.json", "--method", "solve"], 2),
        (["verify", "negative.json", "fib.json"], 2),
        (["transform", "nan_rate.json", "--direction", "measure"], 2),
    ]
    # a diffop request loads no chain module and compiles no chain handler
    chain_code = ["isospec.chains", "isospec.harmonic", "isospec.duality",
                  "isospec.eigenbounds", "isospec._cli_chains"]
    # and only --check eigen loads the exact Hermite towers
    towers = ["fractions", "isospec._hermite"]
    cases = [
        (chain_runs, ["isospec.diffops", "isospec.expressions"]),
        (transform_runs, ["isospec.harmonic", "isospec.diffops", "isospec.expressions"]),
        # bounds computes h with the chain layer's recurrence, not with harmonic
        ([(["bounds", "b.json", "--nmax", "64"], 0)], ["isospec.harmonic"]),
        ([(["diffop", "ou.json", "--check", "spectrum"], 0),
          (["diffop", "inj.json", "--check", "spectrum"], 2)], chain_code + towers),
        ([(["diffop", "ou.json", "--check", "riccati"], 0)], chain_code + towers),
        ([(["diffop", "k.json", "--h", "g.json", "--check", "transform"], 0)],
         chain_code + towers),
        ([(["diffop", "ou.json", "--h", "g.json", "--check", "eigen"], 0)], chain_code),
        *(([run], ["numpy", "isospec.chains", "isospec.diffops", "isospec.expressions"])
          for run in refusals),
    ]
    for runs, absent in cases:
        runs = [([paths.get(a, a) for a in argv], status) for argv, status in runs]
        # sympy is the tests' oracle, never a dependency of a request
        absent = [*absent, "sympy"]
        script = textwrap.dedent(f"""
            import contextlib, io, sys
            import isospec.cli
            for argv, status in {runs!r}:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert isospec.cli.main(argv) == status, argv
            loaded = [m for m in {absent!r} if m in sys.modules]
            assert not loaded, loaded
            # no request defines a dataclass; only diffop compiles its handler
            assert "dataclasses" not in sys.modules
            diffop = any(argv[0] == "diffop" for argv, _ in {runs!r})
            assert ("isospec._cli_diffop" in sys.modules) == diffop
            # the towers load when the eigen check asks for them
            assert ("isospec._hermite" in sys.modules) == ({runs!r}[0][0][-1] == "eigen")
        """)
        proc = subprocess.run([sys.executable, "-c", script], env=src_env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    LOCAL,  # 4 MB, written in main
    ["harmonic", "fib.json", "--method", "explicit"],  # buffered until the final flush
], ids=["long-report", "short-report"])
def test_closed_stdout_exits_one_with_one_line(tmp_path, src_env, argv):
    from isospec import BirthDeathSpec, bd_harmonic_explicit

    spec = BirthDeathSpec(1.5, 1.0, -0.5 * 0.8 ** np.arange(601))
    docs = {"fib.json": FIB,
            "c.json": {"type": "bd", "birth": 1.5, "death": 1.0,
                       "killing": spec.killing.tolist(), "N": 600},
            "h.json": {"values": bd_harmonic_explicit(spec, 600).values.tolist()}}
    argv = [str(a) for a in _files(tmp_path, argv, docs)]
    proc = subprocess.Popen([sys.executable, "-m", "isospec.cli", *argv], env=src_env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader goes away before the report is written
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert err == "isospec: stdout closed before the report was complete\n"


def test_run_switches_off_the_collector(src_env):
    # run() switches off the cyclic collector for the request
    script = ("import gc, isospec.cli as cli\n"
              "cli.main = lambda: print(gc.isenabled(), end='') or 3\n"
              "cli.run()")
    proc = subprocess.run([sys.executable, "-c", script], env=src_env, capture_output=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"False", b"")


def test_front_end_annotations_resolve():
    # the front end loads numpy and diffops only past its refusals, so an annotation
    # may not name what its module never imports
    import isospec.cli
    from isospec import _cli_chains, _cli_diffop, _cli_io

    for module in (isospec.cli, _cli_io, _cli_chains, _cli_diffop):
        for f in vars(module).values():
            if inspect.isfunction(f) and f.__module__ == module.__name__:
                typing.get_type_hints(f)


def test_package_exports_resolve_lazily():
    import isospec

    assert len(set(isospec.__all__)) == len(isospec.__all__)
    for name in isospec.__all__:
        assert getattr(isospec, name) is not None, name
        assert name in dir(isospec), name
    assert isospec.inverse_transform is isospec.duality.inverse_transform
    with pytest.raises(AttributeError):
        isospec.no_such_export
