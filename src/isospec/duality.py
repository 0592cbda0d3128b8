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

from ._checks import (_check_finite, _float_array, _h_values, _in_float_range, _positive_h,
                      _positive_mu, _states, _tolerance)
from .chains import (BandSpec, BirthDeathSpec, MeasurePair, QPairSpec, _band_row_sums,
                     _conjugated_weights, bd_measures, validate_band, validate_qpair)
from .errors import NotHarmonic, NotLocallyHarmonic, PreconditionViolated


@np.errstate(over="ignore", invalid="ignore")
def _tilt(qp, w, adjoint=False, inverse=False, harmonic=False):
    """Off-diagonals q_ij w_j / w_i, row-sum totals and potential c - q + q~.

    adjoint tilts the transposed rates q_ji, inverse uses the ratio w_i / w_j.
    The potential is exactly zero where harmonic (a bool or a mask) holds.
    A BandSpec is tilted on its band, with the same roundings and errors.
    Entries past float range are refused as non-finite, without a warning.
    """
    if isinstance(qp, BandSpec):
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


@np.errstate(over="ignore", invalid="ignore")
def _relative_residual(qp: QPairSpec | BandSpec, hv: np.ndarray) -> np.ndarray:
    """|(A h)_i| / max(1, q_i h_i, max_j q_ij h_j), the residual on the local rate scale."""
    r = np.abs(qp.apply(hv))
    if isinstance(qp, BandSpec):
        flow = np.zeros(qp.n_states)
        flow[:-1] = qp.up * hv[1:]
        flow[1:] = np.maximum(flow[1:], qp.down * hv[:-1])
    else:
        flow = np.max(qp.rates * hv[None, :], axis=1)
    rel = r / np.maximum(1.0, np.maximum(qp.total * hv, flow))
    rel[np.isnan(rel)] = np.inf  # terms past float range fail every tolerance
    return rel


def conjugate(qp: QPairSpec | BandSpec, h) -> QPairSpec | BandSpec:
    """Exact similarity transform for any positive h, harmonic or not.

    Off-diagonals become q_ij h_j / h_i; totals are reset to the new row
    sums and the diagonal mismatch is carried as the potential
    c~_i = c_i - q_i + q~_i.  The spectrum is preserved exactly.
    """
    return _tilt(qp, _positive_h(h, qp.n_states))


def h_transform(qp: QPairSpec | BandSpec, h, tol: float = 1e-8) -> QPairSpec | BandSpec:
    """Remove the potential by conjugating with a global harmonic h.

    Requires A h = 0 at every state (within tol, measured relative to the
    local rate scale).  The output is conservative with zero potential.
    """
    tol = _tolerance("tol", tol)
    hv = _positive_h(h, qp.n_states)
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
    default harmonic set is h's own nonempty harmonic_set, as a
    HarmonicVector carries, else all states but the last.
    """
    tol = _tolerance("tol", tol)
    n = qp.n_states
    hv = _positive_h(h, n)
    if harmonic_set is None:
        harmonic_set = getattr(h, "harmonic_set", None) or range(n - 1)
    B = np.zeros(n, dtype=bool)
    B[_states("harmonic_set", harmonic_set, n)] = True
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
    hv = _positive_h(h, qt.n_states)
    if not qt.conservative:
        raise PreconditionViolated("input chain must be conservative")
    if np.any(np.abs(qt.killing) > 1e-12 * np.maximum(1.0, qt.total)):
        raise PreconditionViolated("input chain must have zero potential")
    # h_i / h_j, the tilt by 1/h without rounding 1/h first
    return _tilt(qt, hv, inverse=True)


def transform_measure(mu, h, inverse: bool = False) -> np.ndarray:
    """Forward: mu~ = h^2 mu; inverse: mu = mu~ / h^2.

    Where h^2 alone leaves float range, the weight is regrouped as
    (h sqrt(mu))^2 or (sqrt(mu) / h)^2.  Raises Overflow at the first
    weight whose image is still not a positive float.
    """
    mu = _positive_mu(mu, _float_array("mu", mu).size)  # a flat mu of any length
    hv = _positive_h(h, mu.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = mu / hv**2 if inverse else mu * hv**2
        miss = ~(np.isfinite(out) & (out > 0.0))
        if miss.any():
            g = np.sqrt(mu) / hv if inverse else hv * np.sqrt(mu)
            out = np.where(miss, g * g, out)
    return _in_float_range("h-transformed measure", out)


def bd_h_transform(spec: BirthDeathSpec, h, N: int, tol: float = 1e-8):
    """Transformed birth-death rates and measures under h harmonic on 0..N.

    Needs h on 0..N+1.  The chain is tilted as a band on 0..N+1 by
    h_transform_local, which checks A h = 0 at states 0..N within tol; state
    N+1 only lends h_{N+1} to b_N, so its rate back to N and its potential
    are placeholder zeros.  Returns (BirthDeathSpec, MeasurePair) with
    b~_i = b_i (h_{i+1}/h_i), a~_i = a_i (h_{i-1}/h_i), zero potential,
    mu~_i = h_i^2 mu_i and nu_hat~_i = nu_hat_i / (h_i h_{i+1}).  Raises
    Overflow at the first state whose mu~_i is not a positive float.
    """
    b, a, c = spec.rate_arrays(N)
    hv = _positive_h(_h_values(h)[: N + 2], N + 2)
    band = validate_band(b, np.append(a[1:], 0.0), killing=np.append(c, 0.0))
    out = h_transform_local(band, hv, harmonic_set=range(N + 1), tol=tol)
    mu_t, nu_t = _conjugated_weights(bd_measures(spec, N).mu, hv, b)
    return (BirthDeathSpec(birth=out.up, death=np.append(0.0, out.down[:N]), killing=0.0),
            MeasurePair(mu=_in_float_range("h-transformed measure", mu_t), nu_hat=nu_t))


def measure_dual(qp: QPairSpec | BandSpec, mu) -> QPairSpec | BandSpec:
    """Adjoint chain with respect to the weights mu.

    Off-diagonals become q-bar_ij = mu_j q_ji / mu_i (the transpose rescaled
    row-wise); the diagonal of the generator is unchanged, so the potential
    adjusts to c-bar_i = c_i - q_i + q-bar_i.  If mu symmetrises qp the
    chain is returned unchanged.
    """
    return _tilt(qp, _positive_mu(mu, qp.n_states), adjoint=True)
