import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import isospec.chains
import isospec.cli
import isospec.harmonic
from isospec.cli import _emit, load_chain, main


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

    monkeypatch.setattr(isospec.cli, "bd_to_qpair", no_dense)
    chain = _write(tmp_path, "c.json", {"type": "bd", "birth": 1.0, "death": 1.0,
                                        "killing": [0.3] + [-0.5] * 10, "N": 10})
    with pytest.warns(UserWarning, match="positive potential"):
        code, out, _ = _run(capsys, "harmonic", chain, "--method", "explicit")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["residuals"][0]) <= 1e-12
    assert doc["residuals"][-1] == 0.0


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


def test_transform_forward_at_the_mu_limit_warns_nothing(tmp_path):
    # mu_N is finite at N = 3893 but mu_N b_N is not; nu_hat_N is 0.0 without a warning
    chain = _write(tmp_path, "c.json", {"type": "bd", "birth": 1.2, "death": 1.0, "N": 3893})
    h = _write(tmp_path, "h.json", {"values": [1.0] * 3895})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "isospec.cli", "transform", chain, "--h", h,
                           "--direction", "forward"], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert json.loads(proc.stdout)["nu_hat"][-1] == 0.0


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
    op = _write(tmp_path, "op.json", {"a": 0.5, "b": "-x", "interval": [-1, 1], "M": "x"})
    code, _, err = _run(capsys, "diffop", op, "--check", "spectrum")
    assert code == 2 and err.startswith("isospec: 'M'")
    h = _write(tmp_path, "h.json", {"values": [1, [2, 3]]})
    code, _, err = _run(capsys, "transform", fib_chain, "--h", h)
    assert code == 2 and err.startswith("isospec: 'values'")
    h = _write(tmp_path, "h.json", {"values": FIB})
    for states in ("1,a", "99", "-1"):
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


def test_minimal_harmonic_decrease_exits_one(capsys, monkeypatch, tmp_path):
    # the iteration is monotone for every valid chain, so break the kernel
    def bad_kernel(qp, theta):
        K, s, mask = kernel(qp, theta)
        return -K, s, mask

    kernel = isospec.harmonic._hitting_kernel
    monkeypatch.setattr(isospec.harmonic, "_hitting_kernel", bad_kernel)
    chain = _write(tmp_path, "c.json", {
        "type": "qpair", "rates": [[0, 2, 0], [1, 0, 3], [0, 1, 0]],
        "killing": [-0.5, -0.2, -0.4],
    })
    code, out, err = _run(capsys, "harmonic", chain, "--method", "iterate")
    assert code == 1 and out == ""
    assert err.startswith("isospec: check failed: monotone iteration decreased at step")
    assert "Traceback" not in err


def test_schema_error_points_at_help(capsys, tmp_path):
    chain = _write(tmp_path, "c.json", {"type": "bd", "birth": 1.0})
    code, _, err = _run(capsys, "harmonic", chain)
    assert code == 2
    assert "input schema" in err


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
_JSON = st.recursive(
    _SCALARS | st.lists(st.integers() | st.floats()),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


@given(doc=st.dictionaries(st.text(), _JSON))
def test_emit_matches_indented_json_dumps(doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(argparse.Namespace(seed=None, output="json"), doc)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_subcommands_load_only_their_modules(tmp_path, fib_chain, ou_op):
    h = _write(tmp_path, "h.json", {"values": FIB})
    bounds = _write(tmp_path, "b.json", {
        "type": "bd", "birth": 1.0, "death": 1.0, "killing": -1.0, "N": 64})
    chain_runs = [
        ["harmonic", fib_chain, "--method", "explicit"],
        ["harmonic", fib_chain, "--method", "solve"],
        ["transform", fib_chain, "--h", h, "--direction", "local"],
        ["verify", fib_chain, fib_chain],
        ["bounds", bounds, "--nmax", "64"],
    ]
    cases = [
        (chain_runs, ["isospec.diffops", "isospec.expressions"]),
        ([["diffop", ou_op, "--check", "spectrum"]], ["isospec.duality", "isospec.eigenbounds"]),
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for runs, absent in cases:
        script = textwrap.dedent(f"""
            import contextlib, io, sys
            import isospec.cli
            for argv in {runs!r}:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert isospec.cli.main(argv) == 0, argv
            loaded = [m for m in {absent!r} if m in sys.modules]
            assert not loaded, loaded
        """)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


def test_module_entry_point_keeps_bytes_and_status(capsys, tmp_path, fib_chain):
    # python -m isospec.cli flushes and skips interpreter teardown; nothing may be lost
    from isospec import BirthDeathSpec, bd_harmonic_explicit

    rng = np.random.default_rng(6)
    N = 600
    b, a = rng.uniform(1.0, 2.0, N + 1), rng.uniform(0.5, 1.5, N + 1)
    c = -0.5 * 0.8 ** np.arange(N + 1)
    chain = _write(tmp_path, "c.json", {"type": "bd", "birth": b.tolist(),
                                        "death": a.tolist(), "killing": c.tolist(), "N": N})
    h = bd_harmonic_explicit(BirthDeathSpec(b, a, c), N).values
    h_ok = _write(tmp_path, "h.json", {"values": h.tolist()})
    h_bad = _write(tmp_path, "h1.json", [1.0] * 8)
    zero_n = _write(tmp_path, "z.json", {"type": "bd", "birth": 1.0, "death": 1.0, "N": 0})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)  # buffered stdout, as a pipe gets by default
    cases = [
        (["transform", chain, "--h", h_ok, "--direction", "local"], 0),
        (["transform", fib_chain, "--h", h_bad, "--direction", "local"], 1),
        (["harmonic", zero_n, "--method", "explicit"], 2),
    ]
    for argv, status in cases:
        code, out, err = _run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "isospec.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        assert code == proc.returncode == status, argv
        assert proc.stdout == out.encode(), argv
        assert proc.stderr.decode() == err, argv
        diagnoses = [ln for ln in err.splitlines() if ln.startswith("isospec: ")]
        assert len(diagnoses) == (status != 0), argv
        if status == 0:
            assert len(proc.stdout) > 4_000_000  # the dense rate matrix on 601 states


def test_package_exports_resolve_lazily():
    import isospec

    assert len(set(isospec.__all__)) == len(isospec.__all__)
    for name in isospec.__all__:
        assert getattr(isospec, name) is not None, name
        assert name in dir(isospec), name
    assert isospec.diffop_inverse_transform is isospec.diffops.inverse_transform
    assert isospec.inverse_transform is isospec.duality.inverse_transform
    with pytest.raises(AttributeError):
        isospec.no_such_export
