"""Measure symmetrisation, symmetric eigensolvers, and spectrum comparison.

Full spectra come from LAPACK's symmetric solver through numpy.  The bottom
of a graded tridiagonal matrix comes from Sturm bisection, the only path
here with componentwise relative accuracy.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ._checks import (_Record, _check_finite, _count, _flat, _per_state, _positive_mu, _scalar,
                      _tolerance)
from .errors import InvalidArgument, NotReversible, PreconditionViolated

if TYPE_CHECKING:  # chains is loaded only by the chain paths
    from .chains import QPairSpec

# largest relative violation of mu_i q_ij = mu_j q_ji that symmetrize accepts
_REVERSIBLE_RTOL = 1e-10


class SpectrumReport(_Record):
    """Verdict of isospectral_check, the two spectra and their largest gap."""

    passed: bool
    max_pair_gap: float
    tolerance: float
    eigenvalues: np.ndarray
    eigenvalues_other: np.ndarray

    def to_dict(self):
        """The report's fields in order."""
        return self._asdict()


@np.errstate(over="ignore", invalid="ignore")
def symmetrize(qp: QPairSpec, mu) -> np.ndarray:
    """Similarity D A D^{-1} with D = diag(sqrt(mu)).

    Requires mu to symmetrise the rates: mu_i q_ij = mu_j q_ji.  The result
    shares the generator's spectrum and is symmetric up to rounding.  Entries
    past float range come out non-finite, without a warning; the
    eigensolvers refuse them.
    """
    mu = _positive_mu(mu, qp.n_states)
    flow = mu[:, None] * qp.rates
    scale = np.maximum(np.abs(flow), np.abs(flow.T))
    viol = np.abs(flow - flow.T) / np.maximum(scale, 1e-300)
    if np.max(viol) > _REVERSIBLE_RTOL:
        i, j = map(int, np.unravel_index(np.argmax(viol), viol.shape))
        raise NotReversible(i, j, float(viol[i, j]))
    d = np.sqrt(mu)
    s = qp.generator * (d[:, None] / d[None, :])
    return 0.5 * (s + s.T)


def sturm_count(d, e, x: float) -> int:
    """Number of eigenvalues of tridiag(d, e) strictly below x.

    Uses division-first pivots so heavily graded matrices do not overflow.
    d is a flat array of at least one entry and e one entry shorter; both
    are read into lists of Python floats, which run the same IEEE operations
    faster than numpy scalars.
    """
    d = _flat("d", d, 1, "entry")
    _check_finite("matrix", d, e)
    x = _scalar("x", x)
    e = _per_state("e", e, d.shape[0] - 1)
    return _sturm_count(d.tolist(), e.tolist(), x, d.shape[0])


def _sturm_count(d, e, x: float, stop: int) -> int:
    """min(stop, number of eigenvalues of tridiag(d, e) below x).

    The pivots stop at the stop-th negative one.
    """
    count = 0
    q = d[0] - x
    for dk, ek in zip(d[1:], e):
        if q < 0.0:
            count += 1
            if count == stop:
                return count
        if q == 0.0:
            q = 1e-300
        q = dk - x - ek * (ek / q)
    return count + int(q < 0.0)


def _bisect(count, k: int, lo: float, hi: float, rel_tol: float) -> float:
    """Midpoint of [lo, hi] after bisecting it onto the k-th smallest eigenvalue.

    count(x) is the number of eigenvalues below x.
    """
    for _ in range(4096):
        mid = 0.5 * (lo + hi)
        if count(mid) >= k:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * max(abs(lo), abs(hi), 1e-300):
            break
    return 0.5 * (lo + hi)


def _tridiag(b, a, c):
    """(d, e) = (b + a - c, sqrt(b_i) sqrt(a_i+1)), the mu-free band of a birth-death chain."""
    with np.errstate(over="ignore", invalid="ignore"):  # the eigensolvers refuse inf and NaN
        return b + a - c, np.sqrt(b[:-1]) * np.sqrt(a[1:])


def lowest_eigs_tridiag(d, e, k: int, rel_tol: float = 1e-13) -> np.ndarray:
    """The k smallest eigenvalues of tridiag(d, e) by inertia bisection.

    Bisection on the inertia count keeps full relative accuracy even when
    the matrix entries span hundreds of orders of magnitude, where any
    backward-stable dense method loses the small eigenvalues entirely.
    All k bisections start from one bracket, so their first midpoints
    coincide; each shift is counted once.  Every decision asks whether a
    count reaches some i <= k, so each count stops at k.
    """
    d = _flat("d", d, 1, "entry")
    n = d.shape[0]
    k = _count("k", k, 1, n)
    rel_tol = _tolerance("rel_tol", rel_tol)
    _check_finite("matrix", d, e)
    e = _per_state("e", e, n - 1)
    span = float(np.max(np.abs(e))) if e.size else 0.0
    top = float(np.max(d)) + 2.0 * span
    bot = float(np.min(d)) - 2.0 * span
    if not np.isfinite(2.0 * max(top, -bot)):  # so that every lo + hi is a float
        raise PreconditionViolated(f"eigenvalue bracket [{bot:g}, {top:g}] is too wide")
    d, e = d.tolist(), e.tolist()
    counts = {}

    def count(x):
        c = counts.get(x)
        if c is None:
            c = counts[x] = _sturm_count(d, e, x, k)
        return c

    return np.array([_bisect(count, i + 1, bot, top, rel_tol) for i in range(k)])


def eig_sym(S) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, by LAPACK.

    Raises PreconditionViolated on a non-finite or asymmetric matrix, or
    when LAPACK does not converge.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise PreconditionViolated("matrix must be square")
    # LAPACK returns numbers for NaN input, so refuse it before the call
    _check_finite("matrix", S)
    scale = max(1.0, float(np.max(np.abs(S), initial=0.0)))
    if np.max(np.abs(S - S.T), initial=0.0) > 1e-10 * scale:
        raise PreconditionViolated("matrix is not symmetric")
    try:
        return np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError:
        raise PreconditionViolated("LAPACK eigvalsh did not converge") from None


def quadratic_form(qp: QPairSpec, mu, f) -> float:
    """(A f, f)_mu = sum_i mu_i f_i (A f)_i with the potential included."""
    mu = _per_state("mu", mu, qp.n_states)
    f = _per_state("f", f, qp.n_states)
    return float(mu @ (f * qp.apply(f)))


def spectral_radius(qp: QPairSpec, mu) -> float:
    w = eig_sym(symmetrize(qp, mu))
    return float(np.max(np.abs(w)))


def isospectral_check(qpA, muA, qpB, muB, tol: float | None = None) -> SpectrumReport:
    """Compare the sorted spectra of two measure-symmetrised generators.

    Pairing is by sort order (the equality claim is as multisets).  Default
    tolerance is 1e-9 * max(1, spectral radius of the first operator).  Two
    chains with different state counts raise InvalidArgument.
    """
    if tol is not None:
        tol = _tolerance("tol", tol)
    if qpA.n_states != qpB.n_states:
        raise InvalidArgument(f"chains have {qpA.n_states} and {qpB.n_states} states; "
                              "they must have the same number")
    wA = eig_sym(symmetrize(qpA, muA))
    wB = eig_sym(symmetrize(qpB, muB))
    gap = float(np.max(np.abs(wA - wB)))
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(wA))))
    return SpectrumReport(
        passed=bool(gap <= tol),
        max_pair_gap=gap,
        tolerance=float(tol),
        eigenvalues=wA,
        eigenvalues_other=wB,
    )
