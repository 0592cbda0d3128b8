"""The library's records behave as the frozen dataclasses they replaced."""
import copy
import dataclasses
import json
import pickle
from fractions import Fraction

import numpy as np
import pytest

from isospec import (BirthDeathSpec, BoundsReport, CompiledExpr, DeltaResult, Discretization,
                     EigenCheck, HarmonicVector, IterationTrace, MeasurePair, Operator1D,
                     PolyGauss, QPairSpec, RiccatiResult, SmoothFunction, SpectrumReport,
                     constant)
from isospec._checks import _Record
from isospec.chains import BandSpec
from isospec.cli import main

# class, fields in order, defaults, compare=False fields, repr=False fields:
# each as its @dataclass(frozen=True) declared them
RECORDS = [
    (QPairSpec, "rates total killing conservative", {}, (), ()),
    (BandSpec, "up down total killing conservative", {}, (), ()),
    (BirthDeathSpec, "birth death killing", {"killing": 0.0}, (), ()),
    (MeasurePair, "mu nu_hat", {}, (), ()),
    (HarmonicVector, "values base_index residual harmonic_set residuals",
     {"residuals": None}, ("residuals",), ()),
    (IterationTrace, "converged final_delta n_iter", {"n_iter": 0}, (), ()),
    (SpectrumReport, "passed max_pair_gap tolerance eigenvalues eigenvalues_other", {}, (), ()),
    (DeltaResult, "value n_sup slack n_terms partial", {"partial": None},
     ("partial",), ("partial",)),
    (BoundsReport, "delta_tilde lower upper lambda0_numeric n_sup truncation_levels verdict "
     "containment epsilon delta_slack delta_detail", {"delta_slack": 0.0, "delta_detail": None},
     ("delta_detail",), ("delta_detail",)),
    (CompiledExpr, "text expr fn", {"fn": None}, ("fn",), ("fn",)),
    (PolyGauss, "coeffs s", {"s": Fraction(0)}, (), ()),
    (Operator1D, "a b c grid boundary", {"boundary": ("neumann", "neumann")}, (), ()),
    (SmoothFunction, "h h1 h2", {}, (), ()),
    (RiccatiResult, "grid phi psi b_tilde phi_prime", {"phi_prime": None}, (), ("phi_prime",)),
    (Discretization, "x birth death killing boundary", {}, (), ()),
    (EigenCheck, "n residual bound passed", {}, (), ()),
]

_ONE, _ZERO = constant(1.0).fn, constant(0.0).fn
# valid fields for the records whose __post_init__ checks and normalises them
_VALID = {
    PolyGauss: {"coeffs": (Fraction(1), Fraction(2)), "s": Fraction(1, 2)},
    Operator1D: {"a": _ONE, "b": _ZERO, "c": _ZERO, "grid": np.linspace(0.0, 1.0, 3),
                 "boundary": ("dirichlet", "neumann")},
    SmoothFunction: {"h": _ONE, "h1": _ZERO, "h2": _ZERO},
}


def _outcome(fn):
    try:
        return fn()
    except TypeError as exc:  # an array field makes both unhashable
        return type(exc)


@pytest.mark.parametrize("cls, names, defaults, uncompared, unshown", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_keep_their_dataclass_behaviour(cls, names, defaults, uncompared, unshown):
    names = tuple(names.split())
    assert len(RECORDS) == 16 and issubclass(cls, _Record)
    assert cls._fields == names and cls._defaults == defaults
    twin = dataclasses.make_dataclass(cls.__name__, [
        (f, object, dataclasses.field(default=defaults.get(f, dataclasses.MISSING),
                                      compare=f not in uncompared, repr=f not in unshown))
        for f in names], frozen=True)
    values = _VALID.get(cls) or {f: f"{f} value" for f in names}
    rec = cls(**values)
    assert rec == cls(*values.values()) and not hasattr(rec, "__dict__")
    held = {f: getattr(rec, f) for f in names}
    like = twin(**held)
    assert repr(rec) == repr(like)
    assert _outcome(lambda: hash(rec)) == _outcome(lambda: hash(like))
    # the defaults fill what is not given
    short = cls(*(values[f] for f in names if f not in defaults))
    assert all(getattr(short, f) == d for f, d in defaults.items())
    for f in names:
        with pytest.raises(AttributeError):
            setattr(rec, f, values[f])
        with pytest.raises(AttributeError):
            delattr(rec, f)
        if cls not in _VALID:  # equality reads exactly the compared fields
            other = dict(held, **{f: "other"})
            assert (cls(**other) == rec) == (twin(**other) == like) == (f in uncompared)
    with pytest.raises(AttributeError):
        rec.extra = 1
    # copies and pickles rebuild through the constructor, as the frozen slots refuse setattr
    assert copy.copy(rec) == rec and repr(copy.deepcopy(rec)) == repr(rec)
    if cls not in (Operator1D, SmoothFunction):  # their functions are closures
        assert pickle.loads(pickle.dumps(rec)) == rec
    with pytest.raises(TypeError):
        cls(*values.values(), "one too many")
    with pytest.raises(TypeError):
        cls(**values, unknown=1)
    with pytest.raises(TypeError):  # a field given by position and by keyword
        cls(*values.values(), **{names[-1]: values[names[-1]]})
    assert rec != object() and rec != like


def test_post_init_normalises_fields():
    op = Operator1D(1.0, "x", 0, [0, 1, 2])
    assert [float(f(2.0)) for f in (op.a, op.b, op.c)] == [1.0, 2.0, 0.0]
    assert op.grid.dtype == float and not op.grid.flags.writeable
    sf = SmoothFunction(2, "x^2", 0.5)
    assert [float(v) for v in sf(3.0)] == [2.0, 9.0, 0.5]
    pg = PolyGauss([1, 2, 0, 0], 0.5)
    assert pg.coeffs == (Fraction(1), Fraction(2)) and pg.s == Fraction(1, 2)


def test_reports_keep_their_key_order(capsys, tmp_path):
    assert list(SpectrumReport(*range(5)).to_dict()) == [
        "passed", "max_pair_gap", "tolerance", "eigenvalues", "eigenvalues_other"]
    assert list(BoundsReport(*range(11)).to_dict()) == [
        "delta_tilde", "lower", "upper", "lambda0_numeric", "n_sup", "truncation_levels",
        "verdict", "containment", "epsilon", "delta_slack"]
    op, gauss = tmp_path / "ou.json", tmp_path / "g.json"
    op.write_text(json.dumps({"a": 0.5, "b": "-x", "interval": [-6.0, 6.0], "M": 400}))
    gauss.write_text(json.dumps({"h": "exp(-x^2/2)"}))
    argv = ["diffop", str(op), "--h", str(gauss), "--check", "eigen", "--nmax", "3"]
    assert main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [list(ch) for ch in checks] == [["n", "residual", "bound", "passed"]] * 4
    assert main(argv + ["--output", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "n,residual,bound,passed"
    assert rows[1:] == [",".join(str(v) for v in ch.values()) for ch in checks]
