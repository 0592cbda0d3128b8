import json

import numpy as np
import pytest

from isospec.cli import load_chain, main


FIB = [1, 2, 5, 13, 34, 89, 233, 610, 1597]


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
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
