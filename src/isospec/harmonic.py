"""Constructive harmonic functions for jump generators.

Three construction routes: the monotone minimal-solution iteration anchored
at a distinguished state, the explicit birth-death recursion, and the
monotone-decreasing maximal solution started from the constant 1.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._checks import _count, _h_values, _no_positive_killing, _per_state, _states, _tolerance
from .chains import BirthDeathSpec, QPairSpec, _bd_h_recurrence
from .errors import (Divergence, InvalidArgument, NonConvergence, NotMonotone,
                     PreconditionViolated)


@dataclass(frozen=True)
class HarmonicVector:
    """Candidate harmonic function with residual metadata.

    values has one entry per state; residual is the max of |A h| over
    harmonic_set, the indices where harmonicity is asserted.  residuals is
    the per-state residual the construction evaluated, one entry per state.
    """

    values: np.ndarray
    base_index: int | None
    residual: float
    harmonic_set: tuple
    residuals: np.ndarray | None = field(default=None, compare=False)

    def __len__(self):
        return self.values.shape[0]


@dataclass
class IterationTrace:
    converged: bool
    final_delta: float
    n_iter: int = 0


def harmonic_residual(qp: QPairSpec, h, B=None) -> np.ndarray:
    """(A h)_i for i in B, where A is the full generator with potential.

    Zero residual on B certifies local harmonicity there.
    """
    r = qp.apply(_h_values(h))
    if B is None:
        return r
    return r[_states("B", B, qp.n_states)]


def _fixed_point(step, x, tol, max_iter):
    """Iterate x <- step(x, it) for it = 1, 2, ... until max |change| < tol.

    Returns (x, IterationTrace); raises NonConvergence after max_iter steps.
    """
    trace = IterationTrace(converged=False, final_delta=np.inf)
    for it in range(1, max_iter + 1):
        new = step(x, it)
        trace.final_delta = float(np.max(np.abs(new - x))) if x.size else 0.0
        trace.n_iter = it
        x = new
        if trace.final_delta < tol:
            trace.converged = True
            return x, trace
    raise NonConvergence(max_iter, trace.final_delta)


def _hitting_kernel(qp: QPairSpec, theta: int):
    """Substochastic kernel and source of the anchored fixed-point equation.

    Rows carry q_xy / (q_x - c_x) for x != theta, split into the part acting
    on non-anchor states and the source column into theta, which must be a state.
    """
    n = qp.n_states
    _states("theta", [theta], n)
    mask = np.arange(n) != theta
    denom = qp.total[mask] - qp.killing[mask]
    if np.any(denom <= 0.0):
        bad = int(np.flatnonzero(mask)[np.argmin(denom)])
        raise PreconditionViolated(
            f"c[{bad}] must be strictly below q[{bad}] away from the anchor state"
        )
    K = qp.rates[np.ix_(mask, mask)] / denom[:, None]
    s = qp.rates[mask, theta] / denom
    return K, s, mask


def _reachable(qp: QPairSpec, theta: int) -> np.ndarray:
    """Mask of the states that can reach theta; warns when some cannot."""
    n = qp.n_states
    reach = np.zeros(n, dtype=bool)
    reach[theta] = True
    frontier = [theta]
    link = qp.rates > 0.0
    while frontier:
        j = frontier.pop()
        for i in np.flatnonzero(link[:, j]):
            if not reach[i]:
                reach[i] = True
                frontier.append(int(i))
    if not np.all(reach):
        missing = np.flatnonzero(~reach).tolist()
        warnings.warn(
            f"states {missing} cannot reach the anchor state {theta}; "
            "the minimal solution vanishes there",
            stacklevel=3,
        )
    return reach


def minimal_harmonic(
    qp: QPairSpec,
    theta: int,
    tol: float = 1e-12,
    max_iter: int = 100000,
    ceiling: float = 1e150,
    method: str = "iterate",
):
    """Smallest nonnegative solution of the anchored harmonic equation.

    Solves (q_x - c_x) h_x = sum_{y != x} q_xy h_y for x != theta with
    h_theta = 1.  The iterative route runs the monotone fixed-point map from
    zero and is the reference semantics; method "solve" uses a direct linear
    solve of the same equations for cross-checking and speed.

    Returns (HarmonicVector, IterationTrace).
    """
    tol = _tolerance("tol", tol)
    max_iter = _count("max_iter", max_iter, 1)
    n = qp.n_states
    K, s, mask = _hitting_kernel(qp, theta)
    reach = _reachable(qp, theta)[mask]
    m = n - 1

    if method == "solve":
        # I - K is singular on a class that cannot reach theta; h stays 0 there.
        # When every state reaches theta, r is a slice and nothing is copied.
        r = slice(None) if np.all(reach) else np.flatnonzero(reach)
        hm = np.zeros(m)
        hm[r] = np.linalg.solve((np.eye(m) - K)[r][:, r], s[r])
        trace = IterationTrace(converged=True, final_delta=0.0, n_iter=0)
    elif method == "iterate":
        def step(hm, it):
            new = K @ hm + s
            # the map is monotone from zero; tiny float regressions aside
            drop = np.flatnonzero(new < hm - 1e-13 * np.maximum(1.0, np.abs(hm)))
            if drop.size:
                i = int(np.flatnonzero(mask)[drop[0]])
                raise NotMonotone(it, i, float(hm[drop[0]]), float(new[drop[0]]))
            if np.any(new > ceiling):
                raise Divergence(ceiling, it)
            return new

        hm, trace = _fixed_point(step, np.zeros(m), tol, max_iter)
    else:
        raise InvalidArgument(f"unknown method {method!r}")

    h = np.empty(n)
    h[mask] = hm
    h[theta] = 1.0
    res = harmonic_residual(qp, h)  # the anchor row carries the defect
    hv = HarmonicVector(
        values=h,
        base_index=theta,
        residual=float(np.max(np.abs(res[mask]), initial=0.0)),
        harmonic_set=tuple(int(i) for i in range(n) if i != theta),
        residuals=res,
    )
    return hv, trace


def is_supersolution(qp: QPairSpec, theta: int, f, tol: float = 1e-12) -> bool:
    """Whether f satisfies the one-step inequality f >= K f + s off theta.

    Any such f dominates the minimal solution componentwise.
    """
    tol = _tolerance("tol", tol)
    fv = _per_state("f", _h_values(f), qp.n_states)
    K, s, mask = _hitting_kernel(qp, theta)
    lhs = fv[mask]
    rhs = K @ (fv[mask]) + s * fv[theta]
    return bool(np.all(lhs >= rhs - tol * np.maximum(1.0, np.abs(lhs))))


def _bd_h_ftilde(b, a, c, N):
    # Column-streamed double recursion: for each start column i the weights
    # F_n = (a_n F_{n-1} - c_n S_n)/b_n with S_n the running column sum.
    # G_k accumulates sum_j F_k^(j) c_j / b_j across columns.
    G = np.zeros(N)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(N):
            w = c[i] / b[i]
            G[i] += w  # F_i^(i) = 1 term
            F_prev = 1.0
            S = 1.0
            for n in range(i + 1, N):
                F = (a[n] * F_prev - c[n] * S) / b[n]
                G[n] += F * w
                S += F
                F_prev = F
        h = np.empty(N + 1)
        h[0] = 1.0
        h[1:] = 1.0 - np.cumsum(G)
    return h


def _bd_residual(b, a, c, h):
    """b_n (h_{n+1} - h_n) + a_n (h_{n-1} - h_n) + c_n h_n for 0 <= n < len(h) - 1."""
    K = h.shape[0] - 1
    # h can run off to inf under strong killing; NaN residuals there
    with np.errstate(invalid="ignore", over="ignore"):
        r = b[:K] * (h[1:] - h[:K]) + c[:K] * h[:K]
        r[1:] += a[1:K] * (h[: K - 1] - h[1:K])  # state 0 has no death term
    return r


def bd_harmonic_explicit(
    spec: BirthDeathSpec, N: int, method: str = "recurrence"
) -> HarmonicVector:
    """Harmonic function of the killed birth-death chain on 0..N, h_0 = 1.

    Solves b_n (h_{n+1} - h_n) + a_n (h_{n-1} - h_n) + c_n h_n = 0 for
    0 <= n < N (with the a-term absent at n = 0).  The default method
    "recurrence" is the O(N) forward substitution; method "ftilde" evaluates
    the paper's explicit double recursion in O(N^2) time and O(N) memory and
    is kept as the oracle it is checked against.  Both read the rates of
    states 0..N-1 only; state N's are never used.  With c <= 0 on them the
    result is positive and nondecreasing.  residual is the largest
    |b_n (h_{n+1} - h_n) + a_n (h_{n-1} - h_n) + c_n h_n| relative to
    max(1, |b_n h_{n+1}|, |a_n h_n|), up to the first non-finite pair;
    residuals holds the unscaled terms on 0..N-1 and 0 for the boundary state N.
    """
    N = _count("N", N, 1)
    b, a, c = spec.rate_arrays(N - 1)
    if np.any(c > 0.0):
        warnings.warn(
            "positive potential entries: the explicit recursion is computed "
            "but its positivity guarantee does not apply",
            stacklevel=2,
        )
    if method == "ftilde":
        h = _bd_h_ftilde(b, a, c, N)
    elif method == "recurrence":
        h = _bd_h_recurrence(b, a, c, N)
    else:
        raise InvalidArgument(f"unknown method {method!r}")

    finite = np.isfinite(h)
    stop = np.flatnonzero(~(finite[:N] & finite[1:]))
    K = int(stop[0]) if stop.size else N
    r = _bd_residual(b, a, c, h)
    with np.errstate(invalid="ignore", over="ignore"):
        # a[0] = 0, so state 0's scale has no death term
        scale = np.fmax(1.0, np.fmax(np.abs(b[:K] * h[1 : K + 1]), np.abs(a[:K] * h[:K])))
        # fmax skips NaN (inf / inf, inf * 0) as Python's max() with NaN second does
        res = np.fmax.reduce(np.abs(r[:K]) / scale, initial=0.0)
    return HarmonicVector(
        values=h,
        base_index=0,
        residual=float(res),
        harmonic_set=tuple(range(N)),
        residuals=np.append(r, 0.0),  # the boundary state N carries the truncation defect
    )


def maximal_solution(qp: QPairSpec, tol: float = 1e-12, max_iter: int = 100000):
    """Monotone-decreasing limit of z <- P z from z = 1.

    P has rows q_xy / (q_x - c_x); requires sup c <= 0.  Returns
    (z, IterationTrace); z is identically zero within tol exactly when the
    kernel is a strict contraction in the relevant component.
    """
    tol = _tolerance("tol", tol)
    max_iter = _count("max_iter", max_iter, 1)
    _no_positive_killing(qp.killing, "need sup c <= 0")
    denom = qp.total - qp.killing
    # states with no jumps and no killing never move; z stays 1 there
    idle = denom == 0.0
    safe = np.where(idle, 1.0, denom)
    P = qp.rates / safe[:, None]
    # min clips float dust; the map is monotone
    return _fixed_point(lambda z, _: np.minimum(np.where(idle, z, P @ z), z),
                        np.ones(qp.n_states), tol, max_iter)
