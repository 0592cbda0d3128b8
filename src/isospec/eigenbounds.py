"""Two-sided principal-eigenvalue bounds for killed birth-death chains.

The bottom of the spectrum is computed variationally on truncations, and a
weighted Hardy constant gives the certified two-sided enclosure
[1/(4 delta), 1/delta] once the chain has been conjugated onto conservative
form by a positive harmonic function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import BirthDeathSpec, _conjugated_weights
from .errors import Overflow, PreconditionViolated, TailNotResolved
from .harmonic import _h_values, _positive_h, bd_harmonic_explicit
from .spectra import eig_tridiag, smallest_eig_tridiag

_WINDOW = 16


def _killed_rates(spec: BirthDeathSpec, N: int):
    """spec.rate_arrays(N), refusing a positive potential entry."""
    b, a, c = spec.rate_arrays(N)
    if np.any(c > 0.0):
        i = int(np.argmax(c))
        raise PreconditionViolated(f"c[{i}] = {c[i]} > 0; the bound needs c <= 0")
    return b, a, c


def _form_arrays(spec: BirthDeathSpec, N: int):
    b, a, c = _killed_rates(spec, N)
    d = np.empty(N + 1)
    d[0] = b[0] - c[0]
    d[1:] = b[1:] + a[1:] - c[1:]
    e = np.sqrt(b[:N]) * np.sqrt(a[1 : N + 1])
    if not np.all(np.isfinite(d)):
        raise Overflow(int(np.argmin(np.isfinite(d))), "diagonal entry")
    if e.size and not np.all(np.isfinite(e)):
        raise Overflow(int(np.argmin(np.isfinite(e))), "off-diagonal entry")
    return d, e


def lambda0_variational(spec: BirthDeathSpec, N: int, method: str = "bisect") -> float:
    """Bottom of the quadratic form over functions supported in {0..N}.

    Equals the smallest eigenvalue of the symmetrised truncated negative
    generator with a Dirichlet condition at N+1; nonincreasing in N.  The
    bisection route tracks inertia counts and stays accurate even when the
    rates are strongly graded; method "ql" takes the full LAPACK spectrum of
    the dense (N+1)^2 matrix instead (well-scaled matrices only).
    """
    if N < 0:
        raise PreconditionViolated("N must be nonnegative")
    d, e = _form_arrays(spec, N)
    if method == "bisect":
        return float(smallest_eig_tridiag(d, e))
    if method == "ql":
        return float(eig_tridiag(d, e)[0])
    raise PreconditionViolated(f"unknown method {method!r}")


@dataclass(frozen=True)
class DeltaResult:
    """Hardy constant estimate with the index attaining the supremum."""

    value: float
    n_sup: int
    slack: float
    n_terms: int
    partial: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __iter__(self):
        return iter((self.value, self.n_sup))


def _delta_arrays(spec, hv, K):
    b, a, _ = _killed_rates(spec, K)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu = np.concatenate(([1.0], np.cumprod(b[:K] / a[1:])))
    m, t = _conjugated_weights(mu, hv[: K + 2], b)
    bad = np.flatnonzero(~(np.isfinite(m) & np.isfinite(t) & (t > 0.0)))
    kk = int(bad[0]) if bad.size else K + 1
    return m[:kk], t[:kk]


def delta_tilde(
    spec: BirthDeathSpec,
    h,
    N_max: int = 4096,
    tail_tol: float = 1e-10,
) -> DeltaResult:
    """Weighted Hardy constant sup_n sum_{j<=n} mu_j h_j^2 sum_{k>=n} nu~_k.

    The weights are those of the h-conjugated chain: the prefix mass uses
    mu h^2 and the tail uses 1/(h_k h_{k+1} mu_k b_k).  The truncation level
    doubles until a geometric tail estimate certifies the supremum to
    tail_tol, growth across two consecutive doublings by a factor >= 2
    diagnoses divergence (value inf), or N_max is exhausted
    (TailNotResolved).  Entries beyond float range are excluded; the tail
    certificate covers them.
    """
    hv = _h_values(h)
    stop = np.flatnonzero(~np.isfinite(hv))
    hv = _positive_h(hv[: stop[0]] if stop.size else hv)  # only the finite prefix is read
    K_cap = min(N_max, hv.shape[0] - 2)
    if K_cap < 1:
        raise PreconditionViolated("need h on at least 0..2")

    sups = []
    K = min(256, K_cap)
    while True:
        m, t = _delta_arrays(spec, hv, K)
        kk = m.shape[0]
        if kk < 2:
            raise PreconditionViolated("fewer than two finite terms")
        M = np.cumsum(m)
        T = np.cumsum(t[::-1])[::-1]
        cand = M * T
        sup = float(np.max(cand))
        n_sup = int(np.argmax(cand))
        sups.append(sup)

        if len(sups) >= 3 and sups[-1] >= 2.0 * sups[-2] >= 4.0 * sups[-3]:
            return DeltaResult(math.inf, n_sup, math.inf, kk, partial=cand)

        w = min(_WINDOW, kk - 1)
        ratios_t = t[kk - w : kk] / t[kk - w - 1 : kk - 1]
        r_hat = float(np.max(ratios_t))
        if r_hat < 1.0:
            mt = m * t
            ratios_mt = mt[kk - w : kk] / mt[kk - w - 1 : kk - 1]
            s_hat = float(np.max(ratios_mt))
            R = float(t[-1]) * r_hat / (1.0 - r_hat)
            corrected = float(np.max(cand + M * R))
            slack = corrected - sup
            rho = s_hat / r_hat
            if rho > 1.0 + 1e-9:
                growth = rho / (rho - 1.0)
            else:
                growth = 1.0 / (math.e * math.log(1.0 / r_hat)) + 1.0
            future = float(mt[-1]) * r_hat / (1.0 - r_hat) * growth
            slack += max(0.0, future - sup)
            if slack <= tail_tol * max(1.0, sup):
                return DeltaResult(sup, n_sup, float(slack), kk, partial=cand)

        if kk <= K or K >= K_cap:
            # masked early or out of budget without a certificate
            raise TailNotResolved(
                sup, n_sup, math.inf if r_hat >= 1.0 else float(slack), kk
            )
        K = min(2 * K, K_cap)


@dataclass(frozen=True)
class BoundsReport:
    """Two-sided enclosure of the principal eigenvalue via the Hardy constant."""

    delta_tilde: float
    lower: float
    upper: float
    lambda0_numeric: float
    n_sup: int
    truncation_levels: list
    verdict: str
    containment: bool
    epsilon: float
    delta_slack: float = 0.0
    delta_detail: DeltaResult = field(default=None, compare=False, repr=False)

    def to_dict(self):
        return {
            "delta_tilde": self.delta_tilde,
            "lower": self.lower,
            "upper": self.upper,
            "lambda0_numeric": self.lambda0_numeric,
            "n_sup": self.n_sup,
            "truncation_levels": [[int(n), v] for n, v in self.truncation_levels],
            "verdict": self.verdict,
            "containment": self.containment,
            "epsilon": self.epsilon,
            "delta_slack": self.delta_slack,
        }


def bounds_report(
    spec: BirthDeathSpec,
    N_max: int = 2048,
    tail_tol: float = 1e-10,
) -> BoundsReport:
    """Compute h, the Hardy constant, and the variational eigenvalue together.

    Runs the explicit harmonic recursion, evaluates delta_tilde in the
    conjugated weights, and checks the variational value at three nested
    truncations against the enclosure [1/(4 delta) - eps, 1/delta + eps]
    with eps = 1e-8 plus the observed truncation slack.  A finite delta with
    a violated enclosure raises; divergent delta yields the verdict that the
    principal eigenvalue is zero.
    """
    if N_max < 8:
        raise PreconditionViolated("N_max must be at least 8")
    hvec = bd_harmonic_explicit(spec, N_max + 1, method="recurrence")
    delta = delta_tilde(spec, hvec, N_max=N_max, tail_tol=tail_tol)

    levels = sorted({max(1, N_max // 4), max(1, N_max // 2), N_max})
    lam = [(n, lambda0_variational(spec, n)) for n in levels]
    lambda0 = lam[-1][1]
    trunc_slack = abs(lam[-1][1] - lam[-2][1]) if len(lam) > 1 else 0.0

    if math.isinf(delta.value):
        return BoundsReport(
            delta_tilde=math.inf,
            lower=0.0,
            upper=0.0,
            lambda0_numeric=lambda0,
            n_sup=delta.n_sup,
            truncation_levels=lam,
            verdict="lambda0 = 0 (Hardy constant diverges)",
            containment=True,
            epsilon=0.0,
            delta_slack=math.inf,
            delta_detail=delta,
        )

    lower = 1.0 / (4.0 * delta.value)
    upper = 1.0 / delta.value
    eps = 1e-8 + trunc_slack
    contained = (lower - eps <= lambda0 <= upper + eps)
    if not contained:
        raise PreconditionViolated(
            f"variational value {lambda0:g} escapes [{lower:g}, {upper:g}] "
            f"with eps = {eps:g}; increase N_max or check the inputs"
        )
    return BoundsReport(
        delta_tilde=delta.value,
        lower=lower,
        upper=upper,
        lambda0_numeric=lambda0,
        n_sup=delta.n_sup,
        truncation_levels=lam,
        verdict="lambda0 > 0",
        containment=True,
        epsilon=eps,
        delta_slack=delta.slack,
        delta_detail=delta,
    )
