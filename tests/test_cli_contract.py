"""The command-line contract on hostile input.

Every request exits 0, 1 or 2, lets no exception escape and raises no
numeric warning; every stderr line is an ``isospec:`` diagnosis or the
hint that points at ``--help``, a nonzero exit prints at least one
``isospec:`` line, and no request prints a traceback.  The property test
drives generated chain documents, h documents, one operator document and
flag sets through ``main`` in-process.  Sizes stay small: ``"N"`` is a small
integer or a value that fails before anything is allocated, so no example
asks for a large array.
"""
import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isospec.chains
import isospec.harmonic
from isospec._cli_chains import load_chain
from isospec._cli_io import MAX_DENSE_BYTES, MAX_STATES
from isospec.cli import main

INF, NAN = float("inf"), float("nan")


def _call(argv):
    """(exit status, stdout, stderr) of main(argv); a numeric warning raises."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _run(tmp, argv, docs):
    """_call(argv) with each of docs written to tmp under its name."""
    for name, doc in docs.items():
        Path(tmp, name).write_text(json.dumps(doc))
    return _call([Path(tmp, a) if a in docs else a for a in argv])


_HINT = re.compile(r"run `isospec( [a-z]+)? --help` for the input schema")


def _assert_lines(err):
    """Every stderr line is a diagnosis, an advisory among them, or the --help hint."""
    for line in err.splitlines():
        assert line.startswith("isospec: ") or _HINT.fullmatch(line), err


def _assert_contract(code, err):
    assert code in (0, 1, 2), code
    assert "Traceback" not in err
    _assert_lines(err)
    if code:
        assert any(line.startswith("isospec:") for line in err.splitlines()), err


def _input_error(tmp_path, argv, docs):
    code, out, err = _run(tmp_path, argv, docs)
    assert code == 2, err
    assert out == ""
    _assert_lines(err)
    return err.splitlines()


# ---------------------------------------------------------------- regressions

POLY_OVERFLOW = {"type": "bd", "birth": {"formula": "poly", "coeffs": [1e308, 5, 1e308]},
                 "death": 1.0}


def test_overflowing_poly_rates_are_input_errors(tmp_path):
    for argv in (["harmonic", "c.json", "--method", "explicit", "--nmax", 4],
                 ["bounds", "c.json", "--nmax", 16]):
        lines = _input_error(tmp_path, argv, {"c.json": POLY_OVERFLOW})
        assert lines[0] == "isospec: 'birth' poly formula is not finite at state 1"
        assert [ln for ln in lines if ln.startswith("isospec:")] == lines[:1]


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


def test_state_count_caps(tmp_path):
    chain = {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -0.1}
    for n in (1e308, 10**15, MAX_STATES + 1):
        lines = _input_error(tmp_path, ["harmonic", "c.json"], {"c.json": {**chain, "N": n}})
        assert lines[0] == f'isospec: "N" must be at most {MAX_STATES}'
    for cmd in (["harmonic", "c.json", "--method", "explicit"], ["bounds", "c.json"]):
        lines = _input_error(tmp_path, [*cmd, "--nmax", 10**15], {"c.json": chain})
        assert lines[0] == f"isospec: --nmax must be at most {MAX_STATES}"
    # the dense cap is checked before any matrix is built
    n = int(MAX_DENSE_BYTES ** 0.5 / 8 ** 0.5)  # the largest state count within the cap
    big = {**chain, "N": n}
    for cmd in (["verify", "c.json", "c.json"], ["harmonic", "c.json", "--method", "solve"]):
        lines = _input_error(tmp_path, cmd, {"c.json": big})
        assert lines[0] == (f"isospec: a dense rate matrix of {n + 1} states exceeds "
                            f"the cap of {MAX_DENSE_BYTES} bytes")
    op = {"a": 0.5, "b": "-x", "interval": [-6, 6], "M": 1e308}
    lines = _input_error(tmp_path, ["diffop", "op.json", "--check", "spectrum"],
                         {"op.json": op})
    assert lines[0] == f'isospec: "M" must be at most {MAX_STATES}'
    # the existing lower bound keeps its text
    lines = _input_error(tmp_path, ["harmonic", "c.json"], {"c.json": {**chain, "N": 0}})
    assert lines[0] == 'isospec: "N" must be at least 1'


def test_running_out_of_memory_is_an_input_error(monkeypatch, tmp_path):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(isospec.chains, "_dense_view", exhausted)
    chain = {"type": "bd", "birth": 1.0, "death": 1.0, "N": 3}
    lines = _input_error(tmp_path, ["verify", "c.json", "c.json"], {"c.json": chain})
    assert lines == ["isospec: MemoryError"]


def test_overflowing_transformed_measure_fails_the_check(tmp_path):
    docs = {"c.json": {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -0.1, "N": 3},
            "h.json": [1, 1e200, 1e200, 1e200]}
    code, out, err = _run(tmp_path, ["verify", "c.json", "c.json", "--h", "h.json"], docs)
    assert code == 1
    assert out == ""
    assert err == "isospec: check failed: h-transformed measure leaves float range at index 1\n"


def test_bd_forward_transform_refuses_a_measure_past_float_range(tmp_path):
    # h is harmonic on 0..700, and h^2 mu leaves float range at state 513
    chain = {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -0.5, "N": 700}
    h = isospec.harmonic.bd_harmonic_explicit(isospec.chains.BirthDeathSpec(1.0, 1.0, -0.5),
                                              701)
    docs = {"c.json": chain, "h.json": h.values.tolist()}
    code, out, err = _run(tmp_path, ["transform", "c.json", "--h", "h.json"], docs)
    assert (code, out) == (1, "")  # no report with Infinity in "mu"
    assert err == ("isospec: check failed: h-transformed measure leaves float range "
                   "at index 513\n")


HUGE = {"type": "bd", "birth": 1e308, "death": 1e308, "killing": 1e-10, "N": 6}
TINY_MU = {"type": "bd", "birth": 0.1, "death": 1e154, "N": 2}
UNDERFLOW = {"type": "bd", "birth": [1e-300, 1.0, 1.0], "death": [0.0, 1e-130, 1.0],
             "killing": [-1e-100, 0.0, 0.0], "N": 1}


@pytest.mark.parametrize("argv, chain, h, code, first", [
    # row sums past float range, banded and dense
    (["transform", "c.json", "--h", "h.json", "--direction", "local", "--set", "0"],
     HUGE, [0.1] * 8, 2, "isospec: total has a NaN or infinite entry"),
    (["verify", "c.json", "c.json"], HUGE, None, 2,
     "isospec: total has a NaN or infinite entry"),
    # the birth-death band's row sum b_1 + a_1 = 2e308, refused before tilting
    (["transform", "c.json", "--h", "h.json"], {**HUGE, "N": 3}, [1, 2, 4, 8, 16], 1,
     "isospec: check failed: total has a NaN or infinite entry"),
    # max(mu) / min(mu) overflows on the band
    (["transform", "c.json", "--direction", "measure"], TINY_MU, None, 1,
     "isospec: check failed: rates has a NaN or infinite entry"),
    # the harmonicity check reads an overflowed residual as inf, not NaN
    (["transform", "c.json", "--h", "h.json"],
     {"type": "qpair", "rates": [[0, 1e308], [1e308, 0]]}, [1, 2], 1,
     "isospec: check failed: max harmonic residual inf exceeds tolerance 1e-08"),
    # a~_1 = 1e-130 h_0 / h_1 rounds to 0: the transform's result, not the document
    (["transform", "c.json", "--h", "h.json", "--direction", "forward"], UNDERFLOW,
     [1.0, 1e200, 1e200], 1,
     "isospec: check failed: transformed death rate leaves float range at index 1"),
    # h_2 of bounds' own recurrence overflows, which is not an h too short
    (["bounds", "c.json", "--nmax", "100"],
     {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -1e300}, None, 1,
     "isospec: check failed: h leaves float range at index 2"),
    # c_0 - q_0 overflows at load: an input error, not a NaN residual
    (["harmonic", "c.json", "--method", "solve", "--theta", "1"],
     {"type": "qpair", "rates": [[0, 1e308], [1e308, 0]], "killing": [-1e308, -1e308]},
     None, 2, "isospec: generator diagonal c[0] - q[0] = -1e+308 - 1e+308 is not finite"),
], ids=["band-sums", "dense-sums", "bd-transform", "measure-ratio", "residual",
        "forward-underflow", "bounds-h", "qpair-diagonal"])
def test_rates_near_float_range_warn_nothing(tmp_path, argv, chain, h, code, first):
    got, out, err = _run(tmp_path, argv, {"c.json": chain, "h.json": h})
    assert (got, err.splitlines()[0]) == (code, first)
    assert out == ""
    _assert_lines(err)


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
