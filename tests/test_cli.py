import argparse
import contextlib
import csv
import inspect
import io
import json
import subprocess
import sys
import textwrap
import time
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
from isospec.cli import main
from isospec.errors import IsospecError, NegativeRate


FIB = [1, 2, 5, 13, 34, 89, 233, 610, 1597]


def _write(tmp_path, name, doc):
    """Write doc as JSON; a str is written as it is."""
    p = tmp_path / name
    p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(p)


@pytest.fixture
def fib_chain(tmp_path):
    return _write(tmp_path, "fib.json", {
        "type": "bd", "birth": 1.0, "death": 1.0, "killing": -1.0, "N": 7,
    })


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- harmonic

def test_harmonic_explicit_fibonacci(capsys, fib_chain):
    code, out, err = _run(capsys, "harmonic", fib_chain, "--method", "explicit")
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == FIB[:8]
    assert doc["residual"] == 0.0


def test_harmonic_explicit_residuals_finite_before_overflow(capsys, tmp_path):
    # strong killing drives h past float range; the residuals before that point
    # are rounding noise, not the NaN of a dense product with inf entries
    chain = _write(tmp_path, "c.json", {"type": "bd", "birth": 1.0, "death": 1.0,
                                        "killing": -50.0, "N": 400})
    code, out, _ = _run(capsys, "harmonic", chain, "--method", "explicit")
    assert code == 0
    doc = json.loads(out)
    h, res = np.array(doc["h"]), np.array(doc["residuals"])
    k = int(np.argmin(np.isfinite(h)))
    assert 0 < k < 400
    assert np.all(np.isfinite(res[: k - 1]))
    assert np.all(np.abs(res[: k - 1]) <= 1e-12 * np.maximum(1.0, h[1:k]))


def test_harmonic_explicit_residuals_skip_the_dense_chain(capsys, monkeypatch, tmp_path):
    # a positive c_0 is folded into the dense total; the three-term residual is 0
    def no_dense(*args, **kwargs):
        raise AssertionError("explicit residuals must not build a q-matrix")

    monkeypatch.setattr(isospec.chains, "_dense_view", no_dense)
    chain = _write(tmp_path, "c.json", {"type": "bd", "birth": 1.0, "death": 1.0,
                                        "killing": [0.3] + [-0.5] * 10, "N": 10})
    code, out, err = _run(capsys, "harmonic", chain, "--method", "explicit")
    assert code == 0
    assert err.splitlines() == ["isospec: warning: positive potential entries: the explicit "
                                "recursion is computed but its positivity guarantee does not "
                                "apply"]
    doc = json.loads(out)
    assert abs(doc["residuals"][0]) <= 1e-12
    assert doc["residuals"][-1] == 0.0


def test_rate_arrays_are_read_as_far_as_each_request_reaches(capsys, tmp_path):
    # arrays on states 0..40: the explicit recursion reads 0..N-1, bounds reads 0..nmax
    # (its h runs to nmax+1 on those rates), so both go up to state 40
    chain = _write(tmp_path, "c.json", {"type": "bd", "birth": [1.0] * 41,
                                        "death": [1.0] * 41, "killing": [-1.0] * 41})
    code, out, err = _run(capsys, "harmonic", chain, "--method", "explicit")
    assert (code, err) == (0, "")
    h = json.loads(out)["h"]
    assert len(h) == 41 and h[:9] == FIB
    code, out, err = _run(capsys, "bounds", chain, "--nmax", "40")
    assert (code, err) == (0, "isospec: PASS\n")
    assert json.loads(out)["n_max"] == 40
    code, out, err = _run(capsys, "bounds", chain, "--nmax", "100")
    assert code == 0
    assert err.splitlines() == ["isospec: rate arrays end early; using --nmax 40",
                                "isospec: PASS"]
    assert json.loads(out)["n_max"] == 40
    # so a zero birth rate at state nmax + 1 is never read
    chain = _write(tmp_path, "z.json", {"type": "bd", "birth": [1.0] * 40 + [0.0],
                                        "death": 2.0, "killing": -0.05})
    code, out, err = _run(capsys, "bounds", chain, "--nmax", "39")
    assert (code, err) == (0, "isospec: PASS\n")


# b_8 = 0 at the last state of an 8-state truncation: no request on N = 8 reads it
LAST_BIRTH_ZERO = {"type": "bd", "birth": [1.0] * 8 + [0.0], "death": 1.0,
                   "killing": -1.0, "N": 8}


def test_the_explicit_recursion_never_reads_the_last_birth_rate(capsys, tmp_path):
    zero = _write(tmp_path, "zero.json", LAST_BIRTH_ZERO)
    one = _write(tmp_path, "one.json", dict(LAST_BIRTH_ZERO, birth=[1.0] * 9))
    code, out, err = _run(capsys, "harmonic", zero, "--method", "explicit")
    assert (code, err) == (0, "")
    assert json.loads(out)["h"] == FIB
    # h and its residuals are those of b_8 = 1, bit for bit
    assert _run(capsys, "harmonic", one, "--method", "explicit") == (0, out, "")


@pytest.mark.parametrize("argv", [["verify", "c.json", "c.json"],
                                  ["transform", "c.json", "--direction", "measure"]],
                         ids=["verify", "transform-measure"])
def test_the_measure_never_reads_the_last_birth_rate(capsys, tmp_path, argv):
    # mu comes from the truncation's band, which drops b_8
    zero = _write(tmp_path, "zero.json", LAST_BIRTH_ZERO)
    one = _write(tmp_path, "one.json", dict(LAST_BIRTH_ZERO, birth=[1.0] * 9))
    code, out, err = _run(capsys, *(zero if a == "c.json" else a for a in argv))
    assert code == 0
    assert _run(capsys, *(one if a == "c.json" else a for a in argv)) == (0, out, err)


def test_harmonic_iterate_json(capsys, tmp_path):
    chain = _write(tmp_path, "c.json", {
        "type": "qpair",
        "rates": [[0, 2, 0], [1, 0, 3], [0, 1, 0]],
        "killing": [-0.5, -0.2, -0.4],
    })
    code, out, _ = _run(capsys, "harmonic", chain, "--method", "iterate")
    assert code == 0
    doc = json.loads(out)
    assert doc["h"][0] == 1.0
    assert all(v > 0 for v in doc["h"])
    # harmonic away from the anchor; the anchor row carries the defect
    assert 0 not in doc["harmonic_set"]
    assert max(abs(doc["residuals"][i]) for i in doc["harmonic_set"]) < 1e-9
    assert doc["converged"] is True


def test_harmonic_csv_output(capsys, fib_chain):
    code, out, _ = _run(capsys, "harmonic", fib_chain,
                        "--method", "explicit", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "state"
    assert lines[1].startswith("0,")
    assert len(lines) == 9


# ---------------------------------------------------------------- transform

def test_transform_local_then_verify_passes(capsys, tmp_path, fib_chain):
    h = _write(tmp_path, "h.json", {"values": FIB})
    code, out, err = _run(capsys, "transform", fib_chain, "--h", h,
                          "--direction", "local")
    assert code == 0
    transformed = tmp_path / "t.json"
    transformed.write_text(out)

    code, out, err = _run(capsys, "verify", fib_chain, str(transformed), "--h", h)
    assert code == 0
    assert "PASS" in err

    # the README pipeline where h (up to 2.1e197) squares past float range
    # while h^2 mu (up to 7.7e219) does not
    chain = _write(tmp_path, "d5.json", {"type": "bd", "birth": 1.0, "death": 5.0,
                                         "killing": -1.0, "N": 250})
    code, out, _ = _run(capsys, "harmonic", chain, "--method", "explicit")
    assert code == 0
    h = _write(tmp_path, "h5.json", {"values": json.loads(out)["h"]})
    code, out, _ = _run(capsys, "transform", chain, "--h", h, "--direction", "local")
    assert code == 0
    transformed.write_text(out)
    code, _, err = _run(capsys, "verify", chain, str(transformed), "--h", h)
    assert (code, err) == (0, "isospec: PASS\n")


def test_verify_naive_truncation_fails(capsys, tmp_path, fib_chain):
    # bd forward transform of a truncated chain is not isospectral: the
    # boundary state sees a different escape rate
    h = _write(tmp_path, "h.json", FIB)
    code, out, _ = _run(capsys, "transform", fib_chain, "--h", h,
                        "--direction", "forward")
    assert code == 0
    transformed = tmp_path / "t.json"
    transformed.write_text(out)

    code, _, err = _run(capsys, "verify", fib_chain, str(transformed), "--h", h)
    assert code == 1
    assert "FAIL" in err


def test_non_finite_rates_exit_two(capsys, tmp_path):
    nan, inf = float("nan"), float("inf")
    good = {"type": "qpair", "rates": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
            "mu": [1.0, 1.0, 1.0]}
    a = _write(tmp_path, "a.json", good)
    bad_docs = [
        {**good, "rates": [[0, nan, 0], [1, 0, 1], [0, 1, 0]]},
        {**good, "total": [1, inf, 1]},
        {**good, "killing": [0, nan, 0]},
        {"type": "bd", "birth": [1, nan, 1], "death": 1.0, "N": 2},
        {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -inf, "N": 2},
    ]
    for doc in bad_docs:
        b = _write(tmp_path, "b.json", doc)
        code, out, err = _run(capsys, "verify", a, b)
        assert code == 2, doc
        assert out == ""
        assert err.startswith("isospec: ")
    # the explicit recurrence never builds a q-matrix, so the schema layer must refuse
    b = _write(tmp_path, "b.json", {"type": "bd", "birth": 1.0, "death": 1.0,
                                    "killing": [0, nan, 0, 0], "N": 3})
    code, out, _ = _run(capsys, "harmonic", b, "--method", "explicit")
    assert code == 2
    assert out == ""


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


def test_verify_eigensolver_failure_exits_one(capsys, monkeypatch, fib_chain):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, out, err = _run(capsys, "verify", fib_chain, fib_chain)
    assert code == 1
    assert err.startswith("isospec: check failed")


def test_transform_forward_output_reloads(capsys, tmp_path, fib_chain):
    h = _write(tmp_path, "h.json", FIB)
    code, out, _ = _run(capsys, "transform", fib_chain, "--h", h,
                        "--direction", "forward")
    assert code == 0
    ci = load_chain(json.loads(out))
    assert ci.kind == "bd"
    qp = ci.as_qpair()
    assert qp.rates.shape[0] == 8


def test_transform_forward_csv_rows_match_json(capsys, monkeypatch, tmp_path, fib_chain):
    h = _write(tmp_path, "h.json", FIB)
    argv = ["transform", fib_chain, "--h", h, "--direction", "forward"]
    doc = json.loads(_run(capsys, *argv)[1])
    # the rows come from the same rate arrays as the document, not the per-state getters
    for name in ("b", "a", "c"):
        monkeypatch.setattr(isospec.chains.BirthDeathSpec, name, None)
    code, out, _ = _run(capsys, *argv, "--output", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["state", "birth", "death", "killing", "mu"]
    assert len(rows) == doc["N"] + 2
    for i, row in enumerate(rows[1:]):
        want = [i, doc["birth"][i], doc["death"][i], doc["killing"][i], doc["mu"][i]]
        assert [float(v) for v in row] == want


def test_transform_forward_bd_checks_h_within_tol(capsys, tmp_path):
    chain = _write(tmp_path, "c.json",
                   {"type": "bd", "birth": 1, "death": 1, "killing": -0.5, "N": 4})
    h = _write(tmp_path, "h.json", [1, 2, 3, 4, 5, 6])
    code, out, err = _run(capsys, "transform", chain, "--h", h)
    assert (code, out) == (1, "")
    assert err == ("isospec: check failed: harmonic residual 0.25 at index 0 "
                   "exceeds tolerance 1e-08\n")
    code, out, err = _run(capsys, "transform", chain, "--h", h, "--tol", "0.5")
    assert (code, err) == (0, "")
    assert json.loads(out)["birth"] == [2.0, 1.5, 4 / 3, 1.25, 1.2]


@pytest.mark.parametrize("op, argv, line", [
    ({"a": 0.5, "b": 0, "interval": [-1, 1], "M": 10},
     ["--h", "h.json", "--check", "eigen", "--nmax", "-1"],
     "n_max = -1 outside 0..60"),
    ({"a": 0.5, "b": 0, "interval": [-1, 1], "M": 2, "bc": ["dirichlet", "dirichlet"]},
     ["--check", "spectrum"],
     "2 cells with dirichlet and dirichlet ends leave fewer than two interior nodes"),
], ids=["negative-nmax", "two-dirichlet-cells"])
def test_diffop_arguments_the_library_refuses_are_input_errors(capsys, tmp_path, op, argv, line):
    _write(tmp_path, "h.json", {"h": "exp(-x^2/2)"})
    argv = [str(tmp_path / a) if a == "h.json" else a for a in argv]
    code, out, err = _run(capsys, "diffop", _write(tmp_path, "op.json", op), *argv)
    assert (code, out, err) == (2, "", f"isospec: {line}\n")


def test_transform_measure_dual_fixes_reversible(capsys, fib_chain):
    # a bd chain is reversible for its running-product measure, so the
    # measure dual returns the same rates
    code, out, _ = _run(capsys, "transform", fib_chain, "--direction", "measure")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "qpair"
    rates = np.asarray(doc["rates"])
    assert rates[0, 1] == pytest.approx(1.0, rel=1e-12)
    assert rates[3, 2] == pytest.approx(1.0, rel=1e-12)
    assert np.asarray(doc["mu"])[0] == 1.0


# ---------------------------------------------------------------- bounds

def test_bounds_constant_chain(capsys, tmp_path):
    chain = _write(tmp_path, "c.json", {
        "type": "bd", "birth": 1.0, "death": 1.0, "killing": -1.0, "N": 2048,
    })
    code, out, _ = _run(capsys, "bounds", chain, "--nmax", "2048")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_tilde"] == pytest.approx(0.6180339887498949, rel=1e-12)
    assert doc["containment"] is True
    assert doc["verdict"] == "lambda0 > 0"


def test_bounds_free_walk_divergence(capsys, tmp_path):
    chain = _write(tmp_path, "c.json", {
        "type": "bd", "birth": 1.0, "death": 1.0, "killing": 0.0, "N": 8192,
    })
    code, out, _ = _run(capsys, "bounds", chain, "--nmax", "4096")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"].startswith("lambda0 = 0")
    assert doc["lower"] == 0.0 and doc["upper"] == 0.0


def test_bounds_names_a_positive_killing_before_computing_h(capsys, tmp_path):
    # h[4] < 0 here, but the cause is c[0] > 0, which the bound refuses
    chain = _write(tmp_path, "c.json", {"type": "bd", "birth": 1.0, "death": 2.0,
                                        "killing": [0.3] + [-0.5] * 11, "N": 11})
    code, out, err = _run(capsys, "bounds", chain, "--nmax", "8")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["isospec: check failed: c[0] = 0.3 > 0; the bound needs c <= 0"]


def test_bounds_fails_a_variational_value_outside_the_enclosure(capsys, monkeypatch,
                                                                tmp_path):
    monkeypatch.setattr(isospec.eigenbounds, "_lambda0",
                        lambda b, a, c, ns: [[n, 1e3] for n in ns])
    chain = _write(tmp_path, "c.json", {"type": "bd", "birth": 1.0, "death": 1.0,
                                        "killing": -1.0})
    code, out, err = _run(capsys, "bounds", chain, "--nmax", "64")
    assert code == 1
    doc = json.loads(out)
    assert doc["containment"] is False
    assert doc["lambda0_numeric"] == 1e3
    assert doc["n_max"] == 64
    assert err == "isospec: FAIL\n"


def test_bounds_rejects_qpair_input(capsys, tmp_path):
    chain = _write(tmp_path, "c.json", {
        "type": "qpair", "rates": [[0, 1], [1, 0]], "killing": [-1, -1],
    })
    code, _, err = _run(capsys, "bounds", chain)
    assert code == 2
    assert "input schema" in err


# ---------------------------------------------------------------- diffop

@pytest.fixture
def ou_op(tmp_path):
    return _write(tmp_path, "ou.json", {
        "a": 0.5, "b": "-x", "c": 0.0, "interval": [-6.0, 6.0], "M": 400,
    })


def test_diffop_refuses_an_h_whose_second_derivative_passes_the_node_cap(capsys, tmp_path,
                                                                          ou_op):
    h = _write(tmp_path, "h.json", {"h": "exp(" * 60 + "x" + ")" * 60})
    code, out, err = _run(capsys, "diffop", ou_op, "--h", h, "--check", "transform")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.endswith(": derivative larger than 50000 nodes\n")


def test_diffop_eigen_check(capsys, tmp_path, ou_op):
    h = _write(tmp_path, "h.json", {"h": "exp(-x^2/2)"})
    code, out, _ = _run(capsys, "diffop", ou_op, "--h", h,
                        "--check", "eigen", "--nmax", "4")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 5
    assert doc["all_passed"] is True


def test_diffop_transform(capsys, tmp_path):
    op = _write(tmp_path, "op.json", {
        "a": 0.5, "b": 0.0, "c": "(1 - x^2)/2", "interval": [-3.0, 3.0], "M": 100,
    })
    h = _write(tmp_path, "h.json", {"h": "exp(-x^2/2)"})
    code, out, _ = _run(capsys, "diffop", op, "--h", h, "--check", "transform")
    assert code == 0
    doc = json.loads(out)
    bt = np.asarray(doc["b_tilde"])
    x = np.asarray(doc["x"])
    assert np.max(np.abs(bt + x)) < 1e-10


def test_diffop_transform_refuses_a_nan_residual(capsys, tmp_path):
    # a h'' + b h' overflows to inf - inf past x = 0.8
    op = _write(tmp_path, "op.json", {"a": "exp(800*x)", "b": "-exp(800*x)", "c": 0,
                                      "interval": [0, 1], "M": 10})
    h = _write(tmp_path, "h.json", {"h": "exp(x)"})
    code, out, err = _run(capsys, "diffop", op, "--h", h, "--check", "transform")
    assert (code, out) == (1, "")
    assert err == "isospec: check failed: harmonic residual nan at x = 0.9 exceeds 1e-08\n"


# the benchmark's killed oscillator (1/2) f'' + (t - t^2 x^2)/2 f at t = 1.5, for
# which h = exp(-t x^2/2) is harmonic and the transformed drift is -t x
KILLED = {"a": 0.5, "b": 0, "c": "(1.5 - 1.5^2*x^2)/2",
          "interval": [-3.0 / 1.5**0.5, 3.0 / 1.5**0.5], "M": 500}


def test_diffop_declared_derivatives_match_the_symbolic_ones(capsys, tmp_path):
    op = _write(tmp_path, "op.json", KILLED)
    runs = []
    # h1 and h2 are the derivatives as CompiledExpr.diff prints them
    for doc in ({"h": "exp(-1.5*x^2/2)"},
                {"h": "exp(-1.5*x^2/2)", "h1": "-1.5*exp(-0.75*x^2)*x",
                 "h2": "2.25*exp(-0.75*x^2)*x*x - 1.5*exp(-0.75*x^2)"}):
        h = _write(tmp_path, "h.json", doc)
        runs.append(_run(capsys, "diffop", op, "--h", h, "--check", "transform"))
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs[1] == runs[0]


def test_diffop_sampled_h_agrees_to_second_order(capsys, tmp_path):
    op = _write(tmp_path, "op.json", KILLED)
    x = np.linspace(*KILLED["interval"], KILLED["M"] + 1)
    h = _write(tmp_path, "h.json", {"grid": x.tolist(),
                                    "values": np.exp(-1.5 * x**2 / 2).tolist()})
    # the differenced h'' misses the harmonic identity by O(dx^2), not by 1e-8
    code, out, err = _run(capsys, "diffop", op, "--h", h, "--check", "transform",
                          "--tol", "1e-2")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["x"] == x.tolist()
    dx = x[1] - x[0]
    # about 11 dx^2 at the ends, where np.gradient is one-sided
    assert np.max(np.abs(np.asarray(doc["b_tilde"]) + 1.5 * x)) < 20.0 * dx**2


def test_diffop_spectrum(capsys, ou_op):
    code, out, _ = _run(capsys, "diffop", ou_op, "--check", "spectrum", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    lam = doc["eigenvalues"]
    assert len(lam) == 3
    assert lam[0] == pytest.approx(0.0, abs=1e-6)
    assert lam[1] == pytest.approx(-1.0, abs=1e-3)


def test_diffop_riccati(capsys, tmp_path):
    op = _write(tmp_path, "op.json", {
        "a": 0.5, "b": 0.0, "c": "(1 - x^2)/2", "interval": [-3.0, 3.0], "M": 2000,
    })
    code, out, _ = _run(capsys, "diffop", op, "--check", "riccati")
    assert code == 0
    doc = json.loads(out)
    bt = np.asarray(doc["b_tilde"])
    x = np.asarray(doc["x"])
    assert np.max(np.abs(bt + x)) < 1e-6


def test_diffop_missing_h_is_usage_error(capsys, ou_op):
    code, _, err = _run(capsys, "diffop", ou_op, "--check", "transform")
    assert code == 2


# ---------------------------------------------------------------- plumbing

def test_bad_json_exits_two(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = _run(capsys, "harmonic", str(p))
    assert code == 2


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = _run(capsys, "harmonic", str(tmp_path / "nope.json"))
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 2


def test_no_subcommand_exits_two(capsys):
    code, _, _ = _run(capsys)
    assert code == 2


def test_expression_injection_rejected(capsys, tmp_path):
    op = _write(tmp_path, "op.json", {
        "a": 0.5, "b": "__import__('os')", "c": 0.0,
        "interval": [0.0, 1.0], "M": 10,
    })
    code, _, err = _run(capsys, "diffop", op, "--check", "spectrum")
    assert code == 2
    assert "__import__" in err


HOSTILE = {
    "overflowing-tower": ("b", "9^9^9^9"),
    "3000-parentheses": ("b", "(" * 3000 + "x" + ")" * 3000),
    "150-parentheses": ("b", "(" * 150 + "x" + ")" * 150),
    "long-product-derivative": ("h", "*".join(f"(x+{i})" for i in range(60))),
    # a lone surrogate, which JSON admits and UTF-8 cannot encode
    "lone-surrogate": ("b", "0.5\ud800"),
}


@pytest.mark.parametrize("field,text", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_expressions_exit_two_quickly(capsys, tmp_path, field, text):
    op = {"a": 0.5, "b": "-x", "interval": [-1.0, 1.0], "M": 10}
    h = {"h": "exp(-x^2/2)"}
    (op if field == "b" else h)[field] = text
    argv = ["diffop", _write(tmp_path, "op.json", op),
            "--h", _write(tmp_path, "h.json", h), "--check", "eigen"]
    t0 = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("isospec: cannot parse"), err
    assert len(lines[0]) < 200


MALFORMED = {
    "N-text": {"type": "bd", "birth": 1.0, "death": 1.0, "N": "abc"},
    "N-infinite": {"type": "bd", "birth": 1.0, "death": 1.0, "N": float("inf")},
    # a count is a JSON integer or an integral float, never rounded, a bool or text
    "N-fraction": {"type": "bd", "birth": 1.0, "death": 1.0, "N": 10.5},
    "N-bool": {"type": "bd", "birth": 1.0, "death": 1.0, "N": True},
    "N-numeric-text": {"type": "bd", "birth": 1.0, "death": 1.0, "N": "12"},
    "birth-text-entry": {"type": "bd", "birth": [1, "a"], "death": 1.0, "N": 1},
    "poly-text-coeff": {"type": "bd", "birth": {"formula": "poly", "coeffs": ["a"]},
                        "death": 1.0, "N": 3},
    "ragged-rates": {"type": "qpair", "rates": [[0, 1], [1]]},
    "ragged-mu": {"type": "qpair", "rates": [[0, 1], [1, 0]], "mu": [1, [2]]},
    # json.load itself refuses integer literals beyond 4300 digits
    "birth-5001-digits": '{"type": "bd", "birth": 1%s, "death": 1.0, "N": 3}' % ("0" * 5000),
}


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_fields_are_schema_errors(capsys, tmp_path, doc):
    chain = _write(tmp_path, "c.json", doc)
    code, out, err = _run(capsys, "harmonic", chain, "--method", "solve")
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert [ln for ln in err.splitlines() if ln.startswith("isospec:")] == [err.splitlines()[0]]


def test_operator_h_and_set_fields_are_schema_errors(capsys, tmp_path, fib_chain):
    op = _write(tmp_path, "op.json", {"a": 0.5, "b": "-x", "interval": ["lo", 1], "M": 50})
    code, _, err = _run(capsys, "diffop", op, "--check", "spectrum")
    assert code == 2 and err.startswith("isospec: 'interval'")
    for M in ("x", "12", 10.9, True):
        op = _write(tmp_path, "op.json", {"a": 0.5, "b": "-x", "interval": [-1, 1], "M": M})
        code, _, err = _run(capsys, "diffop", op, "--check", "spectrum")
        assert code == 2 and err.startswith("isospec: 'M' must be an integer"), M
    # a number of an operator document is finite, as every chain field is
    hint = "run `isospec diffop --help` for the input schema"
    for key, text, check in (
        ("a", '{"a": 1e999, "b": 0, "interval": [-1, 1], "M": 10}', "riccati"),
        ("a", '{"a": 1e999, "b": 0, "interval": [-1, 1], "M": 10}', "spectrum"),
        ("b", '{"a": 0.5, "b": NaN, "interval": [-1, 1], "M": 10}', "spectrum"),
        ("c", '{"a": 0.5, "b": 0, "c": -Infinity, "interval": [-1, 1], "M": 10}', "spectrum"),
        ("interval", '{"a": 0.5, "b": 0, "interval": [-Infinity, Infinity], "M": 10}',
         "spectrum"),
    ):
        op = _write(tmp_path, "op.json", text)
        code, out, err = _run(capsys, "diffop", op, "--check", check)
        assert (code, out) == (2, "") and err.splitlines() == [
            f"isospec: '{key}' has a NaN or infinite entry", hint], err
    op = _write(tmp_path, "op.json", {"a": 0.5, "b": "-x", "interval": [-1, 1], "M": 10})
    h = _write(tmp_path, "h.json", '{"h": 1e999, "h1": 0, "h2": 0}')
    code, out, err = _run(capsys, "diffop", op, "--h", h, "--check", "transform")
    assert (code, out) == (2, "") and err.splitlines() == [
        "isospec: 'h' has a NaN or infinite entry", hint], err
    h = _write(tmp_path, "h.json", {"values": [1, [2, 3]]})
    code, _, err = _run(capsys, "transform", fib_chain, "--h", h)
    assert code == 2 and err.startswith("isospec: 'values'")
    h = _write(tmp_path, "h.json", {"values": FIB})
    for states in ("1,a", "99", "-1", "1.5"):
        code, _, err = _run(capsys, "transform", fib_chain, "--h", h, "--direction", "local",
                            "--set", states)
        assert code == 2 and err.startswith("isospec: "), states
    nan, inf = float("nan"), float("inf")
    h = _write(tmp_path, "h.json", {"values": [1, 2, nan, 13, 34, 89, 233, 610]})
    code, _, err = _run(capsys, "transform", fib_chain, "--h", h, "--direction", "local")
    assert code == 2 and err.startswith("isospec: 'values' has a NaN"), err
    h = _write(tmp_path, "h.json", [1, 2, 5, inf, 34, 89, 233, 610])
    code, _, err = _run(capsys, "verify", fib_chain, fib_chain, "--h", h)
    assert code == 2 and err.startswith("isospec: 'values' has a NaN"), err
    chain = _write(tmp_path, "c.json", {"type": "qpair", "rates": [[0, 1], [1, 0]],
                                        "mu": [1, inf]})
    code, _, err = _run(capsys, "transform", chain, "--direction", "measure")
    assert code == 2 and err.startswith("isospec: 'mu' has a NaN"), err
    op = _write(tmp_path, "op.json", {"a": 0.5, "b": "-x", "interval": [-1, 1], "M": 50})
    for key, bad in (("grid", [-1, nan, 1]), ("values", [1, inf, 1])):
        sampled = {"grid": [-1, 0, 1], "values": [1, 2, 1], key: bad}
        h = _write(tmp_path, "h.json", sampled)
        code, _, err = _run(capsys, "diffop", op, "--h", h, "--check", "transform")
        assert code == 2 and err.startswith(f"isospec: '{key}' has a NaN"), err
    # np.interp reads a sampled h only on an increasing grid, and only inside it
    op = _write(tmp_path, "op.json", {"a": 0.5, "b": 0, "c": 0, "interval": [-0.5, 0.5],
                                      "M": 10})
    wide = _write(tmp_path, "wide.json", {"a": 0.5, "b": 0, "c": 0, "interval": [-1.5, 1.5],
                                          "M": 10})
    down = np.linspace(1.0, -1.0, 41)
    up = down[::-1]
    for op_path, sampled, line in (
        (op, {"grid": down.tolist(), "values": (1.0 - down).tolist()},
         "isospec: grid must be strictly increasing"),
        (wide, {"grid": up.tolist(), "values": (2.0 + up).tolist()},
         "isospec: sampled h covers [-1.0, 1.0], not the operator's interval [-1.5, 1.5]"),
        (wide, {"grid": up.tolist(), "values": (1.0 + up).tolist()},
         "isospec: sampled h covers [-1.0, 1.0], not the operator's interval [-1.5, 1.5]"),
    ):
        h = _write(tmp_path, "h.json", sampled)
        for check in ("transform", "eigen"):
            code, out, err = _run(capsys, "diffop", op_path, "--h", h, "--check", check)
            assert (code, out) == (2, "") and err.splitlines() == [line, hint], err


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
    "transform-forward": ["transform", "c.json", "--h", "h.json", "--direction", "forward"],
    "transform-local": ["transform", "c.json", "--h", "h.json", "--direction", "local"],
    "transform-inverse": ["transform", "c.json", "--h", "h.json", "--direction", "inverse"],
    "transform-measure": ["transform", "c.json", "--direction", "measure"],
}


@pytest.mark.parametrize("argv", CHAIN_PATHS.values(), ids=CHAIN_PATHS.keys())
@pytest.mark.parametrize("doc, rate", NONPOSITIVE.values(), ids=NONPOSITIVE.keys())
def test_nonpositive_rates_are_schema_errors_on_every_path(capsys, tmp_path, doc, rate, argv):
    files = {"c.json": _write(tmp_path, "c.json", doc),
             "h.json": _write(tmp_path, "h.json", [1.0] * 22)}
    code, out, err = _run(capsys, *(files.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"isospec: {rate} must be positive",
                                f"run `isospec {argv[0]} --help` for the input schema"]


@pytest.mark.parametrize("killing, method, message", [
    ([0, 1.5, 0.5], "solve",
     "no finite minimal solution: the direct solve gives h[1] = -0.6666666666666666"),
    ([0, 1.5, 0.5], "iterate", "iterate exceeded ceiling 1e+150 at step 498"),
    ([0, 1, 0], "solve", "no finite minimal solution: I - K is singular"),
], ids=["negative-solve", "negative-iterate", "singular-solve"])
def test_harmonic_without_a_finite_minimal_solution_exits_one(capsys, tmp_path, killing,
                                                              method, message):
    chain = _write(tmp_path, "c.json", {
        "type": "qpair", "rates": [[0, 1, 0], [1, 0, 1], [0, 1, 0]], "killing": killing})
    code, out, err = _run(capsys, "harmonic", chain, "--method", method)
    assert (code, out) == (1, "")
    assert err == f"isospec: check failed: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["bounds", "c.json", "--nmax", "4"], "N_max = 4 is below 8"),
    # the library checks N_max before it reads a rate
    (["bounds", "b5.json", "--nmax", "4"], "N_max = 4 is below 8"),
    (["harmonic", "c.json", "--method", "explicit", "--nmax", "0"], "N = 0 is below 1"),
    (["harmonic", "c.json", "--theta", "99"], "theta = 99 outside 0..7"),
    (["diffop", "op.json", "--check", "spectrum", "--k", "0"], "k = 0 outside 1..201"),
    (["diffop", "op.json", "--check", "eigen", "--h", "h.json", "--nmax", "99"],
     "n_max = 99 outside 0..60"),
    (["diffop", "op.json", "--h", "h.json", "--check", "eigen", "--nmax", "61"],
     "n_max = 61 outside 0..60"),
], ids=["bounds-nmax", "bounds-nmax-bad-rate", "explicit-nmax", "theta", "spectrum-k",
        "eigen-nmax", "eigen-nmax-61"])
def test_out_of_range_flag_values_exit_two(capsys, tmp_path, fib_chain, argv, message):
    docs = {"c.json": fib_chain, "h.json": _write(tmp_path, "h.json", {"h": "exp(-x^2/2)"}),
            "b5.json": _write(tmp_path, "b5.json", {"type": "bd", "birth": [1.0] * 5 + [-1.0],
                                                    "death": 1.0, "killing": -1.0}),
            "op.json": _write(tmp_path, "op.json", {"a": 0.5, "b": "-x", "interval": [-6, 6],
                                                    "M": 200})}
    code, out, err = _run(capsys, *(docs.get(a, a) for a in argv))
    assert (code, out, err) == (2, "", f"isospec: {message}\n")


def test_invalid_argument_is_a_precondition():
    from isospec import BirthDeathSpec, PreconditionViolated, bd_harmonic_explicit
    from isospec.errors import InvalidArgument

    with pytest.raises(InvalidArgument):
        bd_harmonic_explicit(BirthDeathSpec(1.0, 1.0), 0)
    assert issubclass(InvalidArgument, PreconditionViolated)


@pytest.mark.parametrize("argv, first", [
    (["harmonic", "c.json", "--tol", "nan"], "argument --tol: 'nan' is not"),
    (["harmonic", "c.json", "--method", "iterate", "--tol", "0"], "argument --tol: '0' is not"),
    (["transform", "c.json", "--h", "h.json", "--direction", "local", "--tol", "nan"],
     "argument --tol: 'nan' is not"),
    (["verify", "c.json", "c.json", "--tol", "nan"], "argument --tol: 'nan' is not"),
    (["verify", "c.json", "c.json", "--tol", "-1"], "argument --tol: '-1' is not"),
    (["bounds", "c.json", "--tail-tol", "inf"], "argument --tail-tol: 'inf' is not"),
    (["bounds", "c.json", "--tail-tol", "1e-3x"], "argument --tail-tol: '1e-3x' is not"),
    (["harmonic", "c.json", "--nmax", "abc"], "argument --nmax: invalid int value: 'abc'"),
    (["harmonic", "c.json", "--method", "guess"], "argument --method: invalid choice"),
], ids=["harmonic-nan", "iterate-zero", "local-nan", "verify-nan", "verify-negative",
        "tail-inf", "tail-text", "nmax-text", "method"])
def test_bad_flag_values_take_the_exit_two_clause(capsys, tmp_path, argv, first):
    # a NaN tolerance used to pass every check, since worst > nan is false
    docs = {"c.json": _write(tmp_path, "c.json", {"type": "bd", "birth": 1.0, "death": 1.0,
                                                  "killing": -1.0, "N": 5}),
            "h.json": _write(tmp_path, "h.json", [1.0] * 7)}
    code, out, err = _run(capsys, *(docs.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0].startswith(f"isospec: {first}")
    assert lines[1] == f"run `isospec {argv[0]} --help` for the input schema"


@pytest.mark.parametrize("phi0, code, lines", [
    ("nan", 2, ["isospec: argument --phi0: 'nan' is not a finite number",
                "run `isospec diffop --help` for the input schema"]),
    ("inf", 2, ["isospec: argument --phi0: 'inf' is not a finite number",
                "run `isospec diffop --help` for the input schema"]),
    ("1e400", 2, ["isospec: argument --phi0: '1e400' is not a finite number",
                  "run `isospec diffop --help` for the input schema"]),
    # past the guard at the first step, and without numpy's overflow warnings
    ("1e300", 1, ["isospec: check failed: solution magnitude inf exceeded the guard "
                  "at x = 0.03"]),
    ("-1e300", 1, ["isospec: check failed: solution magnitude inf exceeded the guard "
                   "at x = 0.03"]),
])
def test_riccati_anchor_is_any_finite_float(capsys, ou_op, phi0, code, lines):
    # a NaN anchor used to fail the check as a blow-up at the first step
    got, out, err = _run(capsys, "diffop", ou_op, "--check", "riccati", f"--phi0={phi0}")
    assert (got, out, err.splitlines()) == (code, "", lines)


def test_riccati_diffusion_vanishing_between_grid_points_fails_the_check(capsys, tmp_path):
    # a > 0 holds on the grid, but a(-1) = 0 at the midpoint stage of the step
    # from -2/3 to -4/3; a scalar division there once escaped as ZeroDivisionError
    op = _write(tmp_path, "op.json", {"a": "(x+1)*(x+1)", "b": 1, "c": 1,
                                      "interval": [-2, 0], "M": 3})
    code, out, err = _run(capsys, "diffop", op, "--check", "riccati")
    assert (code, out) == (1, "")
    assert err == ("isospec: check failed: solution magnitude inf exceeded the guard "
                   "at x = -1.33333\n")


@pytest.mark.parametrize("phi0, code", [("-1e-3", 0), ("-2.5E+2", 1)])
def test_riccati_anchor_in_exponent_notation_is_one_argument(capsys, tmp_path, phi0, code):
    # argparse's own negative-number pattern has no exponent: a separate
    # -1e-3 used to be read as an option, exit 2
    op = _write(tmp_path, "op.json", {"a": 0.5, "b": 0, "c": "(1 - x^2)/2",
                                      "interval": [-2, 2], "M": 200})
    apart = _run(capsys, "diffop", op, "--check", "riccati", "--phi0", phi0)
    joined = _run(capsys, "diffop", op, "--check", "riccati", f"--phi0={phi0}")
    assert apart == joined
    assert apart[0] == code


@pytest.mark.parametrize("phi0, code", [("-1_0", 1), ("-.5e1_0", 1), ("-1_0e-4", 0)])
def test_riccati_anchor_with_digit_separators_is_one_argument(capsys, tmp_path, phi0, code):
    # argparse read a separate -1_0 as an option, exit 2, where --phi0=-1_0 is -10
    op = _write(tmp_path, "op.json", {"a": 0.5, "b": 0, "c": "(1 - x^2)/2",
                                      "interval": [-2, 2], "M": 200})
    apart = _run(capsys, "diffop", op, "--check", "riccati", "--phi0", phi0)
    joined = _run(capsys, "diffop", op, "--check", "riccati", f"--phi0={phi0}")
    assert apart == joined
    assert apart[0] == code


@pytest.mark.parametrize("phi0", ["-inf", "-nan"])
def test_riccati_negative_non_finite_anchor_is_named(capsys, ou_op, phi0):
    code, out, err = _run(capsys, "diffop", ou_op, "--check", "riccati", "--phi0", phi0)
    assert (code, out, err.splitlines()) == (2, "", [
        f"isospec: argument --phi0: '{phi0}' is not a finite number",
        "run `isospec diffop --help` for the input schema"])


@pytest.mark.parametrize("check, h, line", [
    ("transform", "exp(-x^2/2)",
     "isospec: check failed: harmonic residual inf at x = 0.9 exceeds 1e-08"),
    ("eigen", "exp(800*x)", "isospec: check failed: h vanishes at x = -1"),
], ids=["transform", "eigen"])
def test_formula_past_float_range_fails_without_warnings(capsys, tmp_path, check, h, line):
    # numpy's overflow warning used to print before the diagnosis
    op = _write(tmp_path, "op.json", {"a": 0.5, "b": "exp(800*x)", "interval": [-1, 1],
                                      "M": 20})
    hf = _write(tmp_path, "h.json", {"h": h})
    code, out, err = _run(capsys, "diffop", op, "--h", hf, "--check", check)
    assert (code, out, err.splitlines()) == (1, "", [line])


def test_spectrum_of_a_non_finite_matrix_fails_without_warnings(capsys, tmp_path):
    # b overflows on the grid; numpy's warnings used to print before the diagnosis
    op = _write(tmp_path, "op.json", {"a": 0.5, "b": "exp(800*x)", "interval": [-1, 1],
                                      "M": 20})
    code, out, err = _run(capsys, "diffop", op, "--check", "spectrum", "--k", "2")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "isospec: warning: cell Peclet number reaches inf > 2; refine the grid for "
        "trustworthy low modes",
        "isospec: check failed: matrix has a NaN or infinite entry",
    ]


def test_missing_or_unknown_subcommand_points_at_the_top_help(capsys):
    for argv in ([], ["--quiet"], ["frobnicate"], ["--tol", "0", "harmonic", "c.json"]):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("isospec: "), argv
        assert lines[1] == "run `isospec --help` for the input schema"


# a bad value of each subcommand's own choices or number flag
_BAD_VALUES = {"harmonic": ["--method", "guess"], "transform": ["--direction", "sideways"],
               "verify": ["--output", "xml"], "bounds": ["--tail-tol", "abc"],
               "diffop": ["--phi0", "inf"]}


@pytest.mark.parametrize("name", _BAD_VALUES)
def test_one_subcommand_parser_parses_as_the_full_tree(capsys, monkeypatch, name):
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
        dispatched = _run(capsys, *argv)
        assert "{%s}" % name in usages.pop(), argv
        monkeypatch.setattr(isospec.cli, "build_parser", lambda cmd=None: build())
        assert dispatched == _run(capsys, *argv), argv
        assert dispatched[0] == (0 if argv[-1] == "--help" else 2), argv
    # an option before the subcommand parses with every subcommand
    monkeypatch.setattr(isospec.cli, "build_parser", spy)
    assert _run(capsys, "--quiet", name, "--help")[0] == 0
    assert "{harmonic,transform,verify,bounds,diffop}" in usages.pop()


def test_advisories_are_diagnosis_lines(capsys, tmp_path):
    # an unreachable anchor, and a coarse grid: one isospec line each, silenced by --quiet
    chain = _write(tmp_path, "c.json", {"type": "qpair",
                                        "rates": [[0, 0, 1], [0, 1, 1], [0, 1, 1]]})
    op = _write(tmp_path, "op.json", {"a": 0.5, "b": "-x", "interval": [-6, 6], "M": 40})
    for argv, text in (
        (["harmonic", chain], "states [1, 2] cannot reach the anchor state 0; the minimal "
                              "solution vanishes there"),
        (["diffop", op, "--check", "spectrum"], "cell Peclet number reaches 3.6 > 2; "
                                                "refine the grid for trustworthy low modes"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, err) == (0, f"isospec: warning: {text}\n")
        assert _run(capsys, "--quiet", *argv) == (0, out, "")


def test_schema_error_points_at_help(capsys, tmp_path):
    chain = _write(tmp_path, "c.json", {"type": "bd", "birth": 1.0})
    code, _, err = _run(capsys, "harmonic", chain)
    assert code == 2
    assert "input schema" in err


_OP = {"a": 0.5, "b": 0, "interval": [-1, 1], "M": 10}
_QPAIR = {"type": "qpair", "rates": [[0, 1], [1, 0]]}
# name -> (argv, with "fib" for a bd chain on 0..7 and a dict for a document, the one
# diagnosis line); each request fails on a different refusal of a chain or operator document
SCHEMA_REFUSALS = {
    "op-missing-a": (["diffop", {"b": 0, "interval": [-1, 1], "M": 10}, "--check", "spectrum"],
                     "operator JSON is missing 'a'"),
    "op-array-a": (["diffop", dict(_OP, a=[1]), "--check", "spectrum"],
                   "'a' must be a number or an expression string"),
    "op-not-object": (["diffop", [1, 2], "--check", "spectrum"],
                      "operator JSON must be an object"),
    "op-interval-3": (["diffop", dict(_OP, interval=[1, 2, 3]), "--check", "spectrum"],
                      '"interval" must be [lo, hi]'),
    "op-interval-order": (["diffop", dict(_OP, interval=[1, 0]), "--check", "spectrum"],
                          '"interval" must have lo < hi'),
    "op-interval-wide": (["diffop", dict(_OP, interval=[-1e308, 1e308]), "--check", "spectrum"],
                         "interval [-1e+308, 1e+308]: hi - lo is not finite"),
    "op-bc-text": (["diffop", dict(_OP, bc="neumann"), "--check", "spectrum"],
                   '"bc" must name two boundary conditions'),
    "h-not-object": (["diffop", _OP, "--h", [1, 2], "--check", "transform"],
                     "h JSON for diffop must be an object"),
    "h-values-only": (["diffop", _OP, "--h", {"values": [1, 2, 3]}, "--check", "transform"],
                      'sampled h needs both "grid" and "values"'),
    "h-empty": (["diffop", _OP, "--h", {}, "--check", "transform"],
                'h JSON needs "h" (expression) or "grid"/"values"'),
    "h-h1-only": (["diffop", _OP, "--h", {"h": "x", "h1": "1"}, "--check", "transform"],
                  "declare both h1 and h2 or neither"),
    "h-number": (["diffop", _OP, "--h", {"h": 1}, "--check", "transform"],
                 '"h" must be an expression string'),
    "bd-text-birth": (["harmonic", {"type": "bd", "birth": "x", "death": 1, "N": 3}],
                      "'birth' must be a number, an array, or "
                      '{"formula": "poly", "coeffs": [...]}'),
    "bd-zero-N": (["harmonic", {"type": "bd", "birth": 1.0, "death": 1.0, "N": 0}],
                  '"N" must be at least 1'),
    # a count is an integer, not rounded down
    "bd-fraction-N": (["harmonic", {"type": "bd", "birth": 1.0, "death": 1.0, "N": 10.5}],
                      "'N' must be an integer"),
    "bd-formula-no-N": (["harmonic", {"type": "bd", "birth": {"formula": "poly", "coeffs": [1]},
                                      "death": 1}, "--method", "solve"],
                        'bd chain with formula rates needs "N"'),
    "qpair-measure": (["transform", _QPAIR, "--direction", "measure"],
                      'qpair chain needs an explicit "mu" array here'),
    "qpair-no-rates": (["harmonic", {"type": "qpair"}],
                       'qpair chain is missing the "rates" matrix'),
    "qpair-nonsquare": (["harmonic", {"type": "qpair", "rates": [[0, 1, 2], [1, 0, 1]]},
                         "--method", "solve"], "rates must be a square matrix with n >= 1"),
    "qpair-negative-rate": (["harmonic", {"type": "qpair",
                                          "rates": [[0, 1, 2], [1, 0, -1], [2, 1, 0]]},
                             "--method", "solve"], "rate[1][2] = -1.0 is negative"),
    "h-no-values": (["transform", "fib", "--h", {"h": [1, 2]}],
                    'h JSON object needs a "values" array'),
    "h-one-value": (["transform", "fib", "--h", [1]],
                    "h must be a flat array of at least two values"),
    "explicit-qpair": (["harmonic", _QPAIR, "--method", "explicit"],
                       "--method explicit needs a bd chain"),
    "explicit-unbounded": (["harmonic", {"type": "bd", "birth": 1, "death": 1},
                            "--method", "explicit"], "unbounded bd chain: pass --nmax"),
    "forward-no-h": (["transform", "fib", "--direction", "forward"],
                     "--direction forward needs --h"),
    "verify-no-measure": (["verify", "fib", _QPAIR],
                          'second chain needs a measure: give --h or embed "mu"'),
}


@pytest.mark.parametrize("name", SCHEMA_REFUSALS)
def test_each_schema_refusal_is_one_line_and_the_help_hint(capsys, tmp_path, fib_chain, name):
    argv, line = SCHEMA_REFUSALS[name]
    def word(k, a):
        if a == "fib":
            return fib_chain
        return a if isinstance(a, str) else _write(tmp_path, f"{k}.json", a)

    code, out, err = _run(capsys, *(word(k, a) for k, a in enumerate(argv)))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"isospec: {line}",
                                f"run `isospec {argv[0]} --help` for the input schema"]


def test_a_short_h_transforms_the_states_it_covers(capsys, tmp_path, fib_chain):
    h = _write(tmp_path, "h.json", FIB[:5])
    code, out, err = _run(capsys, "transform", fib_chain, "--h", h)
    assert (code, err) == (0, "isospec: h covers 0..4; transforming up to N = 3\n")
    assert json.loads(out)["N"] == 3


def test_seed_recorded_in_payload(capsys, fib_chain):
    code, out, _ = _run(capsys, "--seed", "99", "harmonic", fib_chain,
                        "--method", "explicit")
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_global_flags_accepted_before_and_after(capsys, fib_chain):
    code_a, out_a, _ = _run(capsys, "--output", "json", "harmonic", fib_chain,
                            "--method", "explicit")
    code_b, out_b, _ = _run(capsys, "harmonic", fib_chain,
                            "--method", "explicit", "--output", "json")
    assert code_a == code_b == 0
    assert json.loads(out_a)["h"] == json.loads(out_b)["h"]


def test_quiet_silences_notes(capsys, tmp_path, fib_chain):
    h = _write(tmp_path, "h.json", {"values": FIB})
    t = tmp_path / "t.json"
    code, out, _ = _run(capsys, "transform", fib_chain, "--h", h,
                        "--direction", "local")
    t.write_text(out)
    _, _, err_loud = _run(capsys, "verify", fib_chain, str(t), "--h", h)
    _, _, err_quiet = _run(capsys, "--quiet", "verify", fib_chain, str(t),
                           "--h", h)
    assert "PASS" in err_loud
    assert err_quiet == ""


def test_stdin_input(capsys, tmp_path, monkeypatch):
    import io
    import sys
    doc = json.dumps({"type": "bd", "birth": 1.0, "death": 1.0,
                      "killing": -1.0, "N": 5})
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, _ = _run(capsys, "harmonic", "-", "--method", "explicit")
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
    # numpy arrays are written as their tolist(), tuples as lists
    assert _emitted("json", doc) == json.dumps(doc, indent=2, default=np.ndarray.tolist) + "\n"
    # a numpy scalar cell prints as the Python value it holds
    np_rows = [[_NUMPY_SCALAR[type(v)](v) for v in row] for row in rows]
    assert _emitted("csv", {}, lambda: np_rows) == _emitted("csv", {}, lambda: rows)


def test_subcommands_load_only_their_modules(tmp_path, src_env, fib_chain, ou_op):
    h = _write(tmp_path, "h.json", {"values": FIB})
    bounds = _write(tmp_path, "b.json", {
        "type": "bd", "birth": 1.0, "death": 1.0, "killing": -1.0, "N": 64})
    gauss = _write(tmp_path, "g.json", {"h": "exp(-x^2/2)"})
    # the killed oscillator, for which exp(-x^2/2) is harmonic
    killed = _write(tmp_path, "k.json", {"a": 0.5, "b": 0, "c": "(1 - x^2)/2",
                                         "interval": [-3, 3], "M": 300})
    chain_runs = [
        (["harmonic", fib_chain, "--method", "explicit"], 0),
        (["harmonic", fib_chain, "--method", "solve"], 0),
        (["transform", fib_chain, "--h", h, "--direction", "local"], 0),
        (["verify", fib_chain, fib_chain], 0),
        (["bounds", bounds, "--nmax", "64"], 0),
    ]
    # the h-transform needs the chain layer, not the solvers that produce h
    free = _write(tmp_path, "free.json", {"type": "bd", "birth": 1.0, "death": 1.0, "N": 7})
    tilted = io.StringIO()
    with contextlib.redirect_stdout(tilted):
        assert main(["transform", fib_chain, "--h", h, "--direction", "local"]) == 0
    tilted = _write(tmp_path, "tilted.json", tilted.getvalue())
    transform_runs = [
        (["transform", fib_chain, "--h", h, "--direction", "forward"], 0),
        (["transform", free, "--h", h, "--direction", "inverse"], 0),
        (["transform", fib_chain, "--h", h, "--direction", "local"], 0),
        (["transform", fib_chain, "--direction", "measure"], 0),
        (["verify", fib_chain, tilted, "--h", h], 0),
    ]
    # usage errors, --help and the refusals of a document's structure load no numpy
    bd = {"type": "bd", "birth": 1.0, "death": 1.0, "N": 7}
    no_death = _write(tmp_path, "no_death.json", {"type": "bd", "birth": 1.0, "N": 7})
    zero_n = _write(tmp_path, "zero_n.json", dict(bd, N=0))
    unknown = _write(tmp_path, "unknown.json", dict(bd, type="ctmc"))
    listed = _write(tmp_path, "listed.json", [bd])
    no_a = _write(tmp_path, "no_a.json", {"b": 0, "interval": [-1, 1], "M": 10})
    # and so do the refusals of a q-pair rate matrix that is not square, finite
    # and nonnegative off the diagonal
    nonsquare = _write(tmp_path, "nonsquare.json",
                       {"type": "qpair", "rates": [[0, 1, 2], [1, 0, 1]]})
    negative = _write(tmp_path, "negative.json",
                      {"type": "qpair", "rates": [[0, 1, 2], [1, 0, -1], [2, 1, 0]]})
    nan_rate = _write(tmp_path, "nan_rate.json",
                      {"type": "qpair", "rates": [[0, float("nan")], [1, 0]]})
    refusals = [
        (["--help"], 0),
        (["harmonic", "--help"], 0),
        (["harmonic", fib_chain, "--nmax", "abc"], 2),
        (["harmonic", no_death], 2),
        (["harmonic", zero_n, "--method", "explicit"], 2),
        (["bounds", unknown], 2),
        (["verify", listed, fib_chain], 2),
        (["diffop", no_a, "--check", "spectrum"], 2),
        (["harmonic", nonsquare, "--method", "solve"], 2),
        (["harmonic", negative, "--method", "solve"], 2),
        (["verify", negative, fib_chain], 2),
        (["transform", nan_rate, "--direction", "measure"], 2),
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
        ([(["bounds", bounds, "--nmax", "64"], 0)], ["isospec.harmonic"]),
        ([(["diffop", ou_op, "--check", "spectrum"], 0)], chain_code + towers),
        ([(["diffop", ou_op, "--check", "riccati"], 0)], chain_code + towers),
        ([(["diffop", killed, "--h", gauss, "--check", "transform"], 0)],
         chain_code + towers),
        ([(["diffop", ou_op, "--h", gauss, "--check", "eigen"], 0)], chain_code),
        *(([run], ["numpy", "isospec.chains", "isospec.diffops", "isospec.expressions"])
          for run in refusals),
    ]
    for runs, absent in cases:
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
    ["transform", "c.json", "--h", "h.json", "--direction", "local"],  # 4 MB, written in main
    ["harmonic", "fib.json", "--method", "explicit"],  # buffered until the final flush
], ids=["long-report", "short-report"])
def test_closed_stdout_exits_one_with_one_line(tmp_path, src_env, fib_chain, argv):
    from isospec import BirthDeathSpec, bd_harmonic_explicit

    spec = BirthDeathSpec(1.5, 1.0, -0.5 * 0.8 ** np.arange(601))
    docs = {"fib.json": fib_chain,
            "c.json": _write(tmp_path, "c.json", {"type": "bd", "birth": 1.5, "death": 1.0,
                                                  "killing": spec.killing.tolist(), "N": 600}),
            "h.json": _write(tmp_path, "h.json",
                             {"values": bd_harmonic_explicit(spec, 600).values.tolist()})}
    argv = [docs.get(a, a) for a in argv]
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
