"""The command-line contract on hostile input.

Every request exits 0, 1 or 2, lets no exception escape and raises no
numeric warning; every stderr line is an ``isospec:`` diagnosis or the
hint that points at ``--help``, a nonzero exit prints at least one
``isospec:`` line, and no request prints a traceback.  The property test
drives generated chain documents, h documents, one operator document and
flag sets through ``main`` in-process.  Sizes stay small: ``"N"`` is a small
integer or a value that fails before anything is allocated, so no example
asks for a large array.

``CONTRACT`` holds fixed requests with their exact exit status and stderr.
Each runs in-process; the rows an entry point could change also run through
``python -m isospec.cli`` and through what pip's ``isospec`` script runs.
"""
import contextlib
import gc
import io
import json
import math
import re
import subprocess
import sys
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


class _Stdout(list):
    """A document that is the stdout of the request it holds, on the documents before it."""


def _files(tmp, argv, docs):
    """argv with each name in docs replaced by the path of that document, written to tmp."""
    paths = {}
    for name, doc in docs.items():
        text = (_call([paths.get(a, a) for a in doc])[1] if isinstance(doc, _Stdout)
                else json.dumps(doc))
        paths[name] = Path(tmp, name)
        paths[name].write_text(text)
    return [paths.get(a, a) for a in argv]


def _run(tmp, argv, docs):
    """_call(argv) with each of docs written to tmp under its name."""
    return _call(_files(tmp, argv, docs))


_HINT = re.compile(r"run `isospec( [a-z]+)? --help` for the input schema")


def _hint(cmd):
    """The line that follows an input error of a document or a flag of cmd."""
    return f"run `isospec {cmd} --help` for the input schema\n"


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
    # each input error here is of the document, so the --help hint follows it
    assert (got, out, err) == (code, "", first + "\n" + (_hint(argv[0]) if code == 2 else ""))


# ---------------------------------------------------------------- the contract table

FIB = {"type": "bd", "birth": 1.0, "death": 1.0, "killing": -1.0, "N": 7}
FIB_H = [1.0, 2.0, 5.0, 13.0, 34.0, 89.0, 233.0, 610.0]  # harmonic for FIB on 0..7
ZERO_N = {"type": "bd", "birth": 1.0, "death": 1.0, "N": 0}
THREE = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]  # a path of three states
OP = {"a": 0.5, "b": "-x", "interval": [-6, 6], "M": 200}  # Ornstein-Uhlenbeck, no advisory
PASS = "isospec: PASS\n"
LOCAL = ["transform", "c.json", "--h", "h.json", "--direction", "local"]
_NOTHING = "".__eq__  # no report on stdout


def _report(check):
    """A stdout predicate: check holds of the JSON report."""
    return lambda out: check(json.loads(out))


def _verdict(text):
    return _report(lambda r: r["verdict"] == text)


def _long_chain():
    """A bd chain on 0..600 and its h, whose local transform writes 4 MB of rates."""
    rng = np.random.default_rng(6)
    b, a = rng.uniform(1.0, 2.0, 601), rng.uniform(0.5, 1.5, 601)
    c = -0.5 * 0.8 ** np.arange(601)
    h = isospec.harmonic.bd_harmonic_explicit(isospec.chains.BirthDeathSpec(b, a, c), 600)
    return {"c.json": {"type": "bd", "birth": b.tolist(), "death": a.tolist(),
                       "killing": c.tolist(), "N": 600},
            "h.json": {"values": h.values.tolist()}}


# name -> (documents, argv, exit status, stderr, stdout predicate or None)
CONTRACT = {
    # the README pipeline: h by the explicit recursion, the local transform by it, verify
    "readme-harmonic": ({"c.json": FIB}, ["harmonic", "c.json", "--method", "explicit"], 0, "",
                        _report(lambda r: r["h"] == FIB_H)),
    "readme-transform": ({"c.json": FIB, "h.json": FIB_H}, LOCAL, 0, "",
                         _report(lambda r: r["type"] == "qpair")),
    "readme-verify": ({"c.json": FIB, "h.json": FIB_H, "t.json": _Stdout(LOCAL)},
                      ["verify", "c.json", "t.json", "--h", "h.json"], 0, PASS,
                      _report(lambda r: r["passed"])),
    "long-report": (_long_chain(), LOCAL, 0, "", lambda out: len(out) > 4_000_000),
    "verify-other": ({"c.json": FIB, "o.json": dict(FIB, birth=2.0)},
                     ["verify", "c.json", "o.json"], 1, "isospec: FAIL\n",
                     _report(lambda r: not r["passed"])),
    "h-not-harmonic": ({"c.json": FIB, "h.json": [1.0] * 8}, LOCAL, 1,
                       "isospec: check failed: harmonic residual 1 at index 0 exceeds "
                       "tolerance 1e-08\n", _NOTHING),
    "zero-N": ({"c.json": ZERO_N}, ["harmonic", "c.json", "--method", "explicit"], 2,
               'isospec: "N" must be at least 1\n' + _hint("harmonic"), _NOTHING),
    "verify-zero-N": ({"c.json": FIB, "z.json": ZERO_N}, ["verify", "c.json", "z.json"], 2,
                      'isospec: "N" must be at least 1\n' + _hint("verify"), _NOTHING),
    # a Hardy tail that grows past float range decides lambda0 = 0
    "recurrent": ({"c.json": {"type": "bd", "birth": 1, "death": 5, "N": 2049}},
                  ["bounds", "c.json", "--nmax", "2048"], 0, PASS,
                  _verdict("lambda0 = 0 (Hardy constant diverges)")),
    # birth 1.2 below state 1000 and 1.0 after: the Hardy sums over the states read
    # grow past state 1000, which no window of the first states shows
    "switching": ({"c.json": {"type": "bd", "birth": [1.2] * 1000 + [1.0] * 7192,
                              "death": [1.0] * 8192,
                              "killing": [-0.05] * 10 + [0.0] * 8182}},
                  ["bounds", "c.json", "--nmax", "4096"], 0, PASS,
                  _verdict("lambda0 = 0 (Hardy constant diverges)")),
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
    "positive-at-N": ({"c.json": {"type": "bd", "birth": 1, "death": 1,
                                  "killing": [-1] * 8 + [0.3], "N": 8}},
                      ["harmonic", "c.json", "--method", "explicit"], 0, "", None),
    # the truncation on 0..N drops b_N, and verify takes mu from it
    "zero-birth-at-N": ({"c.json": {"type": "bd", "birth": [1] * 8 + [0], "death": 1,
                                    "killing": -1, "N": 8}},
                        ["verify", "c.json", "c.json"], 0, PASS, None),
    # the h that the forward-underflow row of test_rates_near_float_range_warn_nothing reads
    "underflow-h": ({"c.json": UNDERFLOW}, ["harmonic", "c.json", "--method", "explicit",
                                            "--nmax", "2"], 0, "",
                    _report(lambda r: r["h"] == [1.0, 1e200, 1e200])),
    # an advisory is one diagnosis line
    "positive-potential": ({"c.json": {"type": "bd", "birth": 1.0, "death": 1.0,
                                       "killing": [0.3, -0.5, -0.5, -0.5], "N": 3}},
                           ["harmonic", "c.json", "--method", "explicit"], 0,
                           "isospec: warning: positive potential entries: the explicit "
                           "recursion is computed but its positivity guarantee does not "
                           "apply\n", None),
    # states that cannot reach the anchor: the direct solve leaves h = 0 there
    "unreachable-anchor": ({"c.json": {"type": "qpair", "rates": [[0, 1, 0], [0, 0, 1],
                                                                  [0, 1, 0]]}},
                           ["harmonic", "c.json", "--method", "solve"], 0,
                           "isospec: warning: states [1, 2] cannot reach the anchor state 0; "
                           "the minimal solution vanishes there\n",
                           _report(lambda r: r["h"] == [1.0, 0.0, 0.0])),
    "op-spectrum": ({"op.json": OP}, ["diffop", "op.json", "--check", "spectrum", "--k", "5"],
                    0, "", _report(lambda r: len(r["eigenvalues"]) == 5)),
    # a > 0 on the grid, but a(-1) = 0 at a cell face: the Simpson weights of b/a
    "a-vanishes-at-a-face": ({"op.json": {"a": "(x+1)*(x+1)", "b": 1, "c": 1,
                                          "interval": [-2, 0], "M": 3}},
                             ["diffop", "op.json", "--check", "spectrum", "--k", "2"], 1,
                             "isospec: warning: cell Peclet number reaches 6 > 2; refine the "
                             "grid for trustworthy low modes\n"
                             "isospec: check failed: matrix has a NaN or infinite entry\n",
                             _NOTHING),
    "one-cell": ({"op.json": dict(OP, M=1)}, ["diffop", "op.json", "--check", "spectrum"], 2,
                 'isospec: "M" must be at least 2\n' + _hint("diffop"), _NOTHING),
    # input errors the library finds: h shorter than the chain, a --set index outside
    # it, state counts that differ; one line and no --help hint
    "short-h-local": ({"c.json": FIB, "h.json": [1, 2, 3]}, LOCAL, 2,
                      "isospec: h has shape (3,), want (8,)\n", _NOTHING),
    "short-h-verify": ({"c.json": FIB, "h.json": [1, 2, 3]},
                       ["verify", "c.json", "c.json", "--h", "h.json"], 2,
                       "isospec: h has shape (3,), want (8,)\n", _NOTHING),
    "set-99": ({"c.json": FIB, "h.json": {"values": FIB_H}}, [*LOCAL, "--set", "99"], 2,
               "isospec: harmonic_set = 99 outside 0..7\n", _NOTHING),
    "set-minus-1": ({"c.json": FIB, "h.json": {"values": FIB_H}}, [*LOCAL, "--set", "-1"], 2,
                    "isospec: harmonic_set = -1 outside 0..7\n", _NOTHING),
    "state-counts": ({"c.json": FIB, "n.json": dict(FIB, N=8)}, ["verify", "c.json", "n.json"],
                     2, "isospec: chains have 8 and 9 states; they must have the same number\n",
                     _NOTHING),
    # a "mu" of another length breaks the document, so the hint follows
    "mu-length-verify": ({"c.json": {"type": "qpair", "rates": THREE, "mu": [1, 2]}},
                         ["verify", "c.json", "c.json"], 2,
                         "isospec: mu has shape (2,), want (3,)\n" + _hint("verify"), _NOTHING),
    "mu-length-measure": ({"c.json": {"type": "qpair", "rates": THREE, "mu": [1, 2]}},
                          ["transform", "c.json", "--direction", "measure"], 2,
                          "isospec: mu has shape (2,), want (3,)\n" + _hint("transform"),
                          _NOTHING),
    # mu_N is finite at N = 3893 but mu_N b_N is not; nu_hat_N is 0.0 without a warning
    "mu-limit": ({"c.json": {"type": "bd", "birth": 1.2, "death": 1.0, "N": 3893},
                  "h.json": {"values": [1.0] * 3895}},
                 ["transform", "c.json", "--h", "h.json", "--direction", "forward"], 0, "",
                 _report(lambda r: r["nu_hat"][-1] == 0.0)),
}


@pytest.mark.parametrize("name", CONTRACT)
def test_request_keeps_its_status_and_diagnosis(tmp_path, name):
    docs, argv, status, err, out = CONTRACT[name]
    code, got_out, got_err = _run(tmp_path, argv, docs)
    assert (code, got_err) == (status, err)
    assert out is None or out(got_out)


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
