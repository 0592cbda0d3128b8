"""Isospectral transforms for killed chains and one-dimensional operators.

Conjugating a generator by a positive function preserves its spectrum
exactly; when the function is harmonic the potential drops out and a killed
process becomes a conservative one with reweighted rates.  This package
carries that correspondence through finite q-matrices, truncated
birth-death chains, and second-order differential operators, together with
the Hardy-weight machinery that encloses the principal eigenvalue from the
transformed side.
"""
import importlib

# Exports resolve on first use (PEP 562), so `import isospec.cli` and the
# chain subcommands never load the expression and operator modules.
_EXPORTS = {
    "_hermite": ("PolyGauss", "hermite_defining_residual", "hermite_polys"),
    "chains": ("BirthDeathSpec", "MeasurePair", "QPairSpec", "bd_measures",
               "bd_to_qpair", "validate_qpair"),
    "diffops": ("Discretization", "EigenCheck", "Operator1D", "RiccatiResult",
                "SmoothFunction", "discretize", "forward_transform",
                "forward_transform_points", "ou_multiplicity", "riccati_dual",
                "verify_lh_eigen"),
    "duality": ("bd_h_transform", "conjugate", "h_transform", "h_transform_local",
                "inverse_transform", "measure_dual", "transform_measure"),
    "eigenbounds": ("BoundsReport", "DeltaResult", "bounds_report", "delta_tilde",
                    "lambda0_variational"),
    "errors": ("BlowUp", "Divergence", "GridTooCoarse", "IsospecError",
               "MalformedExpression", "NegativeRate", "NonConvergence", "NonpositiveH",
               "NotHarmonic", "NotHarmonicAt", "NotLocallyHarmonic", "NotReversible",
               "Overflow", "PotentialExceedsRate", "PreconditionViolated",
               "TailNotResolved", "ZeroH"),
    "expressions": ("CompiledExpr", "compile_expression", "constant"),
    "harmonic": ("HarmonicVector", "IterationTrace", "bd_harmonic_explicit",
                 "harmonic_residual", "is_supersolution", "maximal_solution",
                 "minimal_harmonic"),
    "spectra": ("SpectrumReport", "eig_sym", "isospectral_check", "lowest_eigs_tridiag",
                "quadratic_form", "spectral_radius", "sturm_count", "symmetrize"),
}
# exported name -> (module, attribute)
_WHERE = {name: (mod, name) for mod, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name not in _WHERE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod, attr = _WHERE[name]
    value = getattr(importlib.import_module(f".{mod}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted(_WHERE)
