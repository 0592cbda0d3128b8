"""Constructive harmonic functions for jump generators.

Three construction routes: the monotone minimal-solution iteration anchored
at a distinguished state, the explicit birth-death recursion, and the
monotone-decreasing maximal solution started from the constant 1.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chains import BandSpec, BirthDeathSpec, QPairSpec
from .errors import Divergence, NonConvergence, NonpositiveH, NotMonotone, PreconditionViolated


@dataclass(frozen=True)
class HarmonicVector:
    """Candidate harmonic function with residual metadata.

    values has one entry per state; residual is the max of |A h| over
    harmonic_set, the indices where harmonicity is asserted.
    """

    values: np.ndarray
    base_index: int | None
    residual: float
    harmonic_set: tuple

    def __len__(self):
        return self.values.shape[0]


@dataclass
class IterationTrace:
    converged: bool
    final_delta: float
    n_iter: int = 0


def _h_values(h) -> np.ndarray:
    return np.asarray(getattr(h, "values", h), dtype=float)


def _positive_h(h) -> np.ndarray:
    hv = _h_values(h)
    if np.any(~(hv > 0.0)):
        i = int(np.argmin(hv > 0.0))
        raise NonpositiveH(i, float(hv[i]))
    return hv


def harmonic_residual(qp: QPairSpec, h, B=None) -> np.ndarray:
    """(A h)_i for i in B, where A is the full generator with potential.

    Zero residual on B certifies local harmonicity there.
    """
    hv = _h_values(h)
    r = qp.apply(hv)
    if B is None:
        return r
    return r[np.asarray(list(B), dtype=int)]


def _relative_residual(qp: QPairSpec | BandSpec, hv: np.ndarray) -> np.ndarray:
    """|(A h)_i| / max(1, q_i h_i, max_j q_ij h_j), the residual on the local rate scale."""
    r = np.abs(qp.apply(hv))
    if isinstance(qp, BandSpec):
        flow = np.zeros(qp.n_states)
        flow[:-1] = qp.up * hv[1:]
        flow[1:] = np.maximum(flow[1:], qp.down * hv[:-1])
    else:
        flow = np.max(qp.rates * hv[None, :], axis=1)
    return r / np.maximum(1.0, np.maximum(qp.total * hv, flow))


def _hitting_kernel(qp: QPairSpec, theta: int):
    """Substochastic kernel and source of the anchored fixed-point equation.

    Rows carry q_xy / (q_x - c_x) for x != theta, split into the part acting
    on non-anchor states and the source column into theta.
    """
    n = qp.n_states
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


def _warn_unreachable(qp: QPairSpec, theta: int):
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
    n = qp.n_states
    if not 0 <= theta < n:
        raise PreconditionViolated(f"theta = {theta} outside 0..{n - 1}")
    K, s, mask = _hitting_kernel(qp, theta)
    _warn_unreachable(qp, theta)
    m = n - 1

    if method == "solve":
        hm = np.linalg.solve(np.eye(m) - K, s) if m else np.empty(0)
        trace = IterationTrace(converged=True, final_delta=0.0, n_iter=0)
    elif method == "iterate":
        hm = np.zeros(m)
        trace = IterationTrace(converged=False, final_delta=np.inf)
        for it in range(1, max_iter + 1):
            new = K @ hm + s
            # the map is monotone from zero; tiny float regressions aside
            drop = np.flatnonzero(new < hm - 1e-13 * np.maximum(1.0, np.abs(hm)))
            if drop.size:
                i = int(np.flatnonzero(mask)[drop[0]])
                raise NotMonotone(it, i, float(hm[drop[0]]), float(new[drop[0]]))
            delta = float(np.max(np.abs(new - hm))) if m else 0.0
            hm = new
            trace.n_iter = it
            trace.final_delta = delta
            if np.any(hm > ceiling):
                raise Divergence(ceiling, it)
            if delta < tol:
                trace.converged = True
                break
        if not trace.converged:
            raise NonConvergence(max_iter, trace.final_delta)
    else:
        raise PreconditionViolated(f"unknown method {method!r}")

    h = np.empty(n)
    h[mask] = hm
    h[theta] = 1.0
    res = harmonic_residual(qp, h)
    res[theta] = 0.0
    hv = HarmonicVector(
        values=h,
        base_index=theta,
        residual=float(np.max(np.abs(res))),
        harmonic_set=tuple(int(i) for i in range(n) if i != theta),
    )
    return hv, trace


def uniqueness_margin(qp: QPairSpec, theta: int) -> float:
    """Smallest singular value of (I - K) for the anchored system.

    A margin near zero signals that the minimal solution may not be the only
    one, in which case it is only a lower bound for other solutions.
    """
    K, _, _ = _hitting_kernel(qp, theta)
    if K.shape[0] == 0:
        return 1.0
    return float(np.linalg.svd(np.eye(K.shape[0]) - K, compute_uv=False)[-1])


def is_supersolution(qp: QPairSpec, theta: int, f, tol: float = 1e-12) -> bool:
    """Whether f satisfies the one-step inequality f >= K f + s off theta.

    Any such f dominates the minimal solution componentwise.
    """
    fv = _h_values(f)
    K, s, mask = _hitting_kernel(qp, theta)
    lhs = fv[mask]
    rhs = K @ (fv[mask]) + s * fv[theta]
    return bool(np.all(lhs >= rhs - tol * np.maximum(1.0, np.abs(lhs))))


def _bd_h_recurrence(b, a, c, N):
    h = np.empty(N + 1)
    h[0] = 1.0
    if N >= 1:
        h[1] = 1.0 - c[0] / b[0]
    # overflow to inf is expected for strong killing; callers mask
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, N):
            h[n + 1] = h[n] + (a[n] * (h[n] - h[n - 1]) - c[n] * h[n]) / b[n]
    return h


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
    is kept as the oracle it is checked against.  With c <= 0 the result is
    positive and nondecreasing.  residual is the largest
    |b_n (h_{n+1} - h_n) + a_n (h_{n-1} - h_n) + c_n h_n| relative to
    max(1, |b_n h_{n+1}|, |a_n h_n|), up to the first non-finite pair.
    """
    if N < 1:
        raise PreconditionViolated("N must be at least 1")
    b, a, c = spec.rate_arrays(N)
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
        raise PreconditionViolated(f"unknown method {method!r}")

    finite = np.isfinite(h)
    stop = np.flatnonzero(~(finite[:N] & finite[1:]))
    K = int(stop[0]) if stop.size else N
    with np.errstate(invalid="ignore", over="ignore"):
        r = _bd_residual(b, a, c, h[: K + 1])
        # a[0] = 0, so state 0's scale has no death term
        scale = np.fmax(1.0, np.fmax(np.abs(b[:K] * h[1 : K + 1]), np.abs(a[:K] * h[:K])))
        # fmax skips NaN (inf / inf, inf * 0) as Python's max() with NaN second does
        res = np.fmax.reduce(np.abs(r) / scale, initial=0.0)
    return HarmonicVector(
        values=h,
        base_index=0,
        residual=float(res),
        harmonic_set=tuple(range(N)),
    )


def maximal_solution(qp: QPairSpec, tol: float = 1e-12, max_iter: int = 100000):
    """Monotone-decreasing limit of z <- P z from z = 1.

    P has rows q_xy / (q_x - c_x); requires sup c <= 0.  Returns
    (z, IterationTrace); z is identically zero within tol exactly when the
    kernel is a strict contraction in the relevant component.
    """
    if np.any(qp.killing > 0.0):
        i = int(np.argmax(qp.killing))
        raise PreconditionViolated(f"c[{i}] = {qp.killing[i]} > 0; need sup c <= 0")
    denom = qp.total - qp.killing
    # states with no jumps and no killing never move; z stays 1 there
    idle = denom == 0.0
    safe = np.where(idle, 1.0, denom)
    P = qp.rates / safe[:, None]
    z = np.ones(qp.n_states)
    trace = IterationTrace(converged=False, final_delta=np.inf)
    for it in range(1, max_iter + 1):
        new = np.where(idle, z, P @ z)
        new = np.minimum(new, z)  # clip float dust; the map is monotone
        delta = float(np.max(z - new))
        z = new
        trace.n_iter = it
        trace.final_delta = delta
        if delta < tol:
            trace.converged = True
            break
    if not trace.converged:
        raise NonConvergence(max_iter, trace.final_delta)
    return z, trace
