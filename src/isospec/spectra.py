"""Measure symmetrisation, symmetric eigensolvers, and spectrum comparison.

Full spectra come from LAPACK's symmetric solver through numpy; the method
names "jacobi", "tridiagonal_ql" and "ql" are kept as labels for the dense
and tridiagonal paths.  The bottom of a graded tridiagonal matrix comes from
Sturm bisection, the only path here with componentwise relative accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import QPairSpec
from .errors import NoConvergence, NotReversible, PreconditionViolated


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
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0.0):
        raise PreconditionViolated("mu must be strictly positive")
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
    """
    n = d.shape[0]
    count = 0
    q = d[0] - x
    if q < 0.0:
        count += 1
    for k in range(1, n):
        if q == 0.0:
            q = 1e-300
        q = d[k] - x - e[k - 1] * (e[k - 1] / q)
        if q < 0.0:
            count += 1
    return count


def smallest_eig_tridiag(d, e, rel_tol: float = 1e-14) -> float:
    """Smallest eigenvalue by Sturm bisection.

    Bisection on the inertia count keeps full relative accuracy even when
    the matrix entries span hundreds of orders of magnitude, where any
    backward-stable dense method loses the small eigenvalues entirely.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    span = float(np.max(np.abs(e))) if e.size else 0.0
    hi = float(np.max(d)) + 2.0 * span
    lo = min(0.0, float(np.min(d)) - 2.0 * span)
    while sturm_count(d, e, hi) < 1:
        hi = hi * 2.0 + 1.0
    for _ in range(4096):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if sturm_count(d, e, mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * max(abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def lowest_eigs_tridiag(d, e, k: int, rel_tol: float = 1e-13) -> np.ndarray:
    """The k smallest eigenvalues of tridiag(d, e) by inertia bisection."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = d.shape[0]
    if not 1 <= k <= n:
        raise PreconditionViolated(f"need 1 <= k <= {n}")
    span = float(np.max(np.abs(e))) if e.size else 0.0
    top = float(np.max(d)) + 2.0 * span
    bot = float(np.min(d)) - 2.0 * span
    out = np.empty(k)
    for i in range(k):
        lo, hi = bot, top
        for _ in range(4096):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if sturm_count(d, e, mid) >= i + 1:
                hi = mid
            else:
                lo = mid
            if hi - lo <= rel_tol * max(abs(lo), abs(hi), 1e-300):
                break
        out[i] = 0.5 * (lo + hi)
    return out


def _is_tridiagonal(S) -> bool:
    n = S.shape[0]
    if n <= 2:
        return True
    mask = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) > 1
    return bool(np.all(S[mask] == 0.0))


def _require_finite(*arrays):
    # LAPACK returns numbers for NaN input, so refuse it before the call
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise PreconditionViolated("matrix has a non-finite entry")


def _eigh(S, vectors=False):
    try:
        return np.linalg.eigh(S) if vectors else np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError:
        # LAPACK's QL/QR iteration gives up after 30 sweeps per eigenvalue
        raise NoConvergence(float("nan"), 30 * S.shape[0]) from None


def eig_sym(S, vectors: bool = False, method: str | None = None):
    """All eigenvalues of a symmetric matrix, ascending, by LAPACK.

    method is "jacobi" (dense) or "tridiagonal_ql"; both name the same
    LAPACK solver and are kept for reports.  With vectors=True returns
    (w, V) with columns of V the eigenvectors, on either path.  Raises
    PreconditionViolated on a non-finite or asymmetric matrix and
    NoConvergence when LAPACK does not converge.
    """
    S = np.asarray(S, dtype=float)
    if method not in (None, "jacobi", "tridiagonal_ql"):
        raise PreconditionViolated(f"unknown method {method!r}")
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise PreconditionViolated("matrix must be square")
    _require_finite(S)
    scale = max(1.0, float(np.max(np.abs(S), initial=0.0)))
    if np.max(np.abs(S - S.T), initial=0.0) > 1e-10 * scale:
        raise PreconditionViolated("matrix is not symmetric")
    return _eigh(S, vectors)


def eig_tridiag(d, e, method: str = "ql"):
    """Eigenvalues of tridiag(d, e), ascending, by LAPACK.

    numpy ships no tridiagonal LAPACK driver, so this forms the dense
    n x n matrix: O(n^2) memory and O(n^3) time.  "ql" is the only method
    name.  For the bottom of a graded matrix use smallest_eig_tridiag.
    """
    if method != "ql":
        raise PreconditionViolated(f"unknown method {method!r}")
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if d.ndim != 1 or e.shape != (max(d.size - 1, 0),):
        raise PreconditionViolated("need a flat d and len(e) == len(d) - 1")
    _require_finite(d, e)
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
    dense = not (_is_tridiagonal(SA) and _is_tridiagonal(SB))
    method = "jacobi" if dense else "tridiagonal_ql"
    wA = eig_sym(SA, method=method)
    wB = eig_sym(SB, method=method)
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
