"""Measure symmetrisation, symmetric eigensolvers, and spectrum comparison.

Full spectra come from LAPACK's symmetric solver through numpy; reports
label the dense and tridiagonal paths "jacobi" and "tridiagonal_ql".  The
bottom of a graded tridiagonal matrix comes from Sturm bisection, the only
path here with componentwise relative accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import QPairSpec, _check_finite, _positive_mu
from .errors import NonConvergence, NotReversible, PreconditionViolated


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    measure_used: np.ndarray
    max_pair_gap: float
    method: str
    passed: bool = True
    eigenvalues_other: np.ndarray | None = field(default=None, compare=False)
    tolerance: float = 0.0


def symmetrize(qp: QPairSpec, mu, rtol: float = 1e-10) -> np.ndarray:
    """Similarity D A D^{-1} with D = diag(sqrt(mu)).

    Requires mu to symmetrise the rates: mu_i q_ij = mu_j q_ji.  The result
    shares the generator's spectrum and is symmetric up to rounding.
    """
    mu = _positive_mu(mu)
    flow = mu[:, None] * qp.rates
    scale = np.maximum(np.abs(flow), np.abs(flow.T))
    viol = np.abs(flow - flow.T) / np.maximum(scale, 1e-300)
    viol[scale == 0.0] = 0.0
    if np.max(viol) > rtol:
        i, j = map(int, np.unravel_index(np.argmax(viol), viol.shape))
        raise NotReversible(i, j, float(viol[i, j]))
    d = np.sqrt(mu)
    s = qp.generator * (d[:, None] / d[None, :])
    return 0.5 * (s + s.T)


def sturm_count(d, e, x: float) -> int:
    """Number of eigenvalues of tridiag(d, e) strictly below x.

    Uses division-first pivots so heavily graded matrices do not overflow.
    d and e may be arrays or lists; lists of Python floats run the same IEEE
    operations faster.
    """
    count = 0
    q = d[0] - x
    if q < 0.0:
        count += 1
    for dk, ek in zip(d[1:], e):
        if q == 0.0:
            q = 1e-300
        q = dk - x - ek * (ek / q)
        if q < 0.0:
            count += 1
    return count


def _bisect(d, e, k: int, lo: float, hi: float, rel_tol: float, floor: float) -> float:
    """Midpoint of [lo, hi] after bisecting it onto the k-th smallest eigenvalue."""
    for _ in range(4096):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if sturm_count(d, e, mid) >= k:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * max(abs(lo), abs(hi), floor):
            break
    return 0.5 * (lo + hi)


def smallest_eig_tridiag(d, e, rel_tol: float = 1e-14) -> float:
    """Smallest eigenvalue by Sturm bisection.

    Bisection on the inertia count keeps full relative accuracy even when
    the matrix entries span hundreds of orders of magnitude, where any
    backward-stable dense method loses the small eigenvalues entirely.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    _check_finite("matrix", d, e)  # a NaN bound would never bracket the eigenvalue
    span = float(np.max(np.abs(e))) if e.size else 0.0
    hi = float(np.max(d)) + 2.0 * span
    lo = min(0.0, float(np.min(d)) - 2.0 * span)
    d, e = d.tolist(), e.tolist()
    while sturm_count(d, e, hi) < 1:
        hi = hi * 2.0 + 1.0
    return _bisect(d, e, 1, lo, hi, rel_tol, 0.0)


def lowest_eigs_tridiag(d, e, k: int, rel_tol: float = 1e-13) -> np.ndarray:
    """The k smallest eigenvalues of tridiag(d, e) by inertia bisection."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = d.shape[0]
    if not 1 <= k <= n:
        raise PreconditionViolated(f"need 1 <= k <= {n}")
    _check_finite("matrix", d, e)
    span = float(np.max(np.abs(e))) if e.size else 0.0
    top = float(np.max(d)) + 2.0 * span
    bot = float(np.min(d)) - 2.0 * span
    d, e = d.tolist(), e.tolist()
    return np.array([_bisect(d, e, i + 1, bot, top, rel_tol, 1e-300) for i in range(k)])


def _eigh(S, vectors=False):
    try:
        return np.linalg.eigh(S) if vectors else np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError:
        # LAPACK's QL/QR iteration gives up after 30 sweeps per eigenvalue
        raise NonConvergence(30 * S.shape[0], float("nan")) from None


def eig_sym(S, vectors: bool = False):
    """All eigenvalues of a symmetric matrix, ascending, by LAPACK.

    With vectors=True returns (w, V) with columns of V the eigenvectors.
    Raises PreconditionViolated on a non-finite or asymmetric matrix and
    NonConvergence when LAPACK does not converge.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise PreconditionViolated("matrix must be square")
    # LAPACK returns numbers for NaN input, so refuse it before the call
    _check_finite("matrix", S)
    scale = max(1.0, float(np.max(np.abs(S), initial=0.0)))
    if np.max(np.abs(S - S.T), initial=0.0) > 1e-10 * scale:
        raise PreconditionViolated("matrix is not symmetric")
    return _eigh(S, vectors)


def eig_tridiag(d, e):
    """Eigenvalues of tridiag(d, e), ascending, by LAPACK.

    numpy ships no tridiagonal LAPACK driver, so this forms the dense
    n x n matrix: O(n^2) memory and O(n^3) time.  For the bottom of a
    graded matrix use smallest_eig_tridiag.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if d.ndim != 1 or e.shape != (max(d.size - 1, 0),):
        raise PreconditionViolated("need a flat d and len(e) == len(d) - 1")
    _check_finite("matrix", d, e)
    n = d.size
    S = np.zeros((n, n))
    S.flat[:: n + 1] = d
    S.flat[1 :: n + 1] = e
    S.flat[n :: n + 1] = e
    return _eigh(S)


def quadratic_form(qp: QPairSpec, mu, f) -> float:
    """(A f, f)_mu = sum_i mu_i f_i (A f)_i with the potential included."""
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    if not (mu.shape == f.shape == (qp.n_states,)):
        raise PreconditionViolated("mu and f must match the number of states")
    return float(mu @ (f * qp.apply(f)))


def spectral_radius(qp: QPairSpec, mu) -> float:
    w = eig_sym(symmetrize(qp, mu))
    return float(np.max(np.abs(w)))


def isospectral_check(qpA, muA, qpB, muB, tol: float | None = None) -> SpectrumReport:
    """Compare the sorted spectra of two measure-symmetrised generators.

    Pairing is by sort order (the equality claim is as multisets).  Default
    tolerance is 1e-9 * max(1, spectral radius of the first operator).
    """
    if qpA.n_states != qpB.n_states:
        raise PreconditionViolated("chains must have the same number of states")
    SA = symmetrize(qpA, muA)
    SB = symmetrize(qpB, muB)
    # symmetric, so the band test needs only the upper triangle
    dense = np.triu(SA, 2).any() or np.triu(SB, 2).any()
    method = "jacobi" if dense else "tridiagonal_ql"
    wA = eig_sym(SA)
    wB = eig_sym(SB)
    gap = float(np.max(np.abs(wA - wB)))
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(wA))))
    return SpectrumReport(
        eigenvalues=wA,
        measure_used=np.asarray(muA, dtype=float),
        max_pair_gap=gap,
        method=method,
        passed=bool(gap <= tol),
        eigenvalues_other=wB,
        tolerance=float(tol),
    )
