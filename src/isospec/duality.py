"""Conjugation of jump generators by a positive function and its inverse.

For H = diag(h) with h > 0, the conjugated generator H^{-1} A H has
off-diagonal entries q_ij h_j / h_i and an unchanged diagonal.  Splitting the
diagonal into new conservative totals plus a remainder potential gives the
transform in q-pair form; when h solves A h = 0 the remainder vanishes and
the potential is removed entirely.  The q-pair transforms take a dense
QPairSpec or a tridiagonal BandSpec and return the same form.
"""
from __future__ import annotations

import numpy as np

from .chains import (BandSpec, BirthDeathSpec, MeasurePair, QPairSpec, _band_row_sums,
                     _check_finite, _conjugated_weights, _positive_mu, bd_measures,
                     validate_band, validate_qpair)
from .errors import NotHarmonic, NotLocallyHarmonic, PreconditionViolated
from .harmonic import HarmonicVector, _positive_h, _relative_residual


def _tilt(qp, w, adjoint=False, inverse=False, harmonic=False):
    """Off-diagonals q_ij w_j / w_i, row-sum totals and potential c - q + q~.

    adjoint tilts the transposed rates q_ji, inverse uses the ratio w_i / w_j.
    The potential is exactly zero where harmonic (a bool or a mask) holds.
    A BandSpec is tilted on its band, with the same roundings and errors.
    """
    if isinstance(qp, BandSpec):
        w = np.broadcast_to(w, (qp.n_states,))
        up, down = (qp.down, qp.up) if adjoint else (qp.up, qp.down)
        fwd, bwd = w[1:] / w[:-1], w[:-1] / w[1:]
        if inverse:
            fwd, bwd = bwd, fwd
        # where some w_j / w_i overflows the dense tilt has 0 * inf = NaN off the band
        _check_finite("rates", np.max(w) / np.min(w))
        rt = (up * fwd, down * bwd)
        total = _band_row_sums(*rt)
        validate = validate_band
    else:
        ratio = w[None, :] / w[:, None]
        rt = ((qp.rates.T if adjoint else qp.rates) * (ratio.T if inverse else ratio),)
        total = rt[0].sum(axis=1)
        validate = validate_qpair
    c = np.where(harmonic, 0.0, qp.killing - qp.total + total)
    return validate(*rt, total, c)


def conjugate(qp: QPairSpec | BandSpec, h) -> QPairSpec | BandSpec:
    """Exact similarity transform for any positive h, harmonic or not.

    Off-diagonals become q_ij h_j / h_i; totals are reset to the new row
    sums and the diagonal mismatch is carried as the potential
    c~_i = c_i - q_i + q~_i.  The spectrum is preserved exactly.
    """
    return _tilt(qp, _positive_h(h))


def h_transform(qp: QPairSpec | BandSpec, h, tol: float = 1e-8) -> QPairSpec | BandSpec:
    """Remove the potential by conjugating with a global harmonic h.

    Requires A h = 0 at every state (within tol, measured relative to the
    local rate scale).  The output is conservative with zero potential.
    """
    hv = _positive_h(h)
    worst = float(np.max(_relative_residual(qp, hv)))
    if worst > tol:
        raise NotHarmonic(worst, tol)
    return _tilt(qp, hv, harmonic=True)


def h_transform_local(
    qp: QPairSpec | BandSpec, h, harmonic_set=None, tol: float = 1e-8
) -> QPairSpec | BandSpec:
    """Conjugate with h harmonic only on a subset of states.

    The potential is set to zero exactly on the harmonic set; off the set it
    becomes c~_i = c_i - q_i + q~_i, absorbing the one-sided defect (for a
    truncated birth-death chain this is c_N + a_N (h_{N-1}/h_N - 1)).  The
    default harmonic set is taken from the HarmonicVector, else all states
    but the last.
    """
    hv = _positive_h(h)
    n = qp.n_states
    if harmonic_set is None:
        if isinstance(h, HarmonicVector) and h.harmonic_set:
            harmonic_set = h.harmonic_set
        else:
            harmonic_set = range(n - 1)
    B = np.zeros(n, dtype=bool)
    B[np.asarray(list(harmonic_set), dtype=int)] = True
    res = _relative_residual(qp, hv)
    if np.any(res[B] > tol):
        idx = np.flatnonzero(B)[int(np.argmax(res[B]))]
        raise NotLocallyHarmonic(int(idx), float(res[idx]), tol)
    return _tilt(qp, hv, harmonic=B)


def inverse_transform(qt: QPairSpec | BandSpec, h) -> QPairSpec | BandSpec:
    """Reintroduce a potential by conjugating a conservative chain with 1/h.

    Requires a conservative input with zero potential.  Off-diagonals become
    h_i q~_ij / h_j and the potential c_i = sum_j q~_ij (h_i/h_j - 1) is
    carried explicitly; c_i <= q_i holds automatically.  The symmetrising
    measure maps as mu = mu~ / h^2.
    """
    hv = _positive_h(h)
    if not qt.conservative:
        raise PreconditionViolated("input chain must be conservative")
    if np.any(np.abs(qt.killing) > 1e-12 * np.maximum(1.0, qt.total)):
        raise PreconditionViolated("input chain must have zero potential")
    # h_i / h_j, the tilt by 1/h without rounding 1/h first
    return _tilt(qt, hv, inverse=True)


def transform_measure(mu, h, inverse: bool = False) -> np.ndarray:
    """Forward: mu~ = h^2 mu; inverse: mu = mu~ / h^2."""
    hv = _positive_h(h)
    mu = np.asarray(mu, dtype=float)
    return mu / hv**2 if inverse else mu * hv**2


def bd_h_transform(spec: BirthDeathSpec, h, N: int):
    """Transformed birth-death rates and measures under a positive h.

    Needs h on 0..N+1.  Returns (BirthDeathSpec, MeasurePair) with
    b~_i = b_i h_{i+1}/h_i, a~_i = a_i h_{i-1}/h_i, mu~_i = h_i^2 mu_i and
    nu_hat~_i = nu_hat_i / (h_i h_{i+1}).  When c <= 0 and h is
    nondecreasing the births speed up and the deaths slow down; that
    comparison is checked and a violation raises, since it signals a bad h.
    """
    hv = _positive_h(h)
    if hv.shape[0] < N + 2:
        raise PreconditionViolated(f"need h on 0..{N + 1} (got {hv.shape[0]} values)")
    b, a, c = spec.rate_arrays(N)
    bt = b * hv[1 : N + 2] / hv[: N + 1]
    at = np.zeros(N + 1)
    at[1:] = a[1:] * hv[: N] / hv[1 : N + 1]
    if np.all(c <= 0.0) and np.all(np.diff(hv) >= 0.0):
        if np.any(at[1:] > a[1:] * (1 + 1e-12)) or np.any(bt < b * (1 - 1e-12)):
            raise PreconditionViolated(
                "transformed rates violate the monotone comparison; "
                "h is not harmonic for a killed chain"
            )
    mu_t, nu_t = _conjugated_weights(bd_measures(spec, N).mu, hv[: N + 2], b)
    out = BirthDeathSpec(birth=bt, death=at, killing=0.0, truncation=N)
    return out, MeasurePair(mu=mu_t, nu_hat=nu_t)


def measure_dual(qp: QPairSpec | BandSpec, mu) -> QPairSpec | BandSpec:
    """Adjoint chain with respect to the weights mu.

    Off-diagonals become q-bar_ij = mu_j q_ji / mu_i (the transpose rescaled
    row-wise); the diagonal of the generator is unchanged, so the potential
    adjusts to c-bar_i = c_i - q_i + q-bar_i.  If mu symmetrises qp the
    chain is returned unchanged.
    """
    return _tilt(qp, _positive_mu(mu), adjoint=True)
