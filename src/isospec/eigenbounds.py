"""Two-sided principal-eigenvalue bounds for killed birth-death chains.

The bottom of the spectrum is computed variationally on truncations, and a
weighted Hardy constant gives the certified two-sided enclosure
[1/(4 delta), 1/delta] once the chain has been conjugated onto conservative
form by a positive harmonic function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .chains import BirthDeathSpec, _bd_band, _conjugated_weights
from .errors import (InvalidArgument, PreconditionViolated, TailNotResolved, _h_values,
                     _positive_h)
from .harmonic import bd_harmonic_explicit
from .spectra import lowest_eigs_tridiag

_WINDOW = 16


def _no_positive_killing(c):
    """Refuse a positive potential entry: the bounds need c <= 0."""
    if np.any(c > 0.0):
        i = int(np.argmax(c))
        raise PreconditionViolated(f"c[{i}] = {c[i]} > 0; the bound needs c <= 0")


def lambda0_variational(spec: BirthDeathSpec, N: int) -> float:
    """Bottom of the quadratic form over functions supported in {0..N}.

    Equals the smallest eigenvalue of the symmetrised truncated negative
    generator with a Dirichlet condition at N+1, the absorbing truncation
    of chains; nonincreasing in N.  Sturm bisection tracks inertia counts
    and stays accurate even when the rates are strongly graded.
    """
    up, down, d, c = _bd_band(spec, N, "absorbing")
    _no_positive_killing(c)
    d -= c
    e = np.sqrt(up) * np.sqrt(down)
    return float(lowest_eigs_tridiag(d, e, 1, 1e-14)[0])


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
    b, a, c = spec.rate_arrays(K)
    _no_positive_killing(c)
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
    tail_tol, growth across two consecutive doublings by a factor >= 2 or
    tail weights that still do not fall when they leave float range
    diagnose divergence (value inf), or N_max is exhausted
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
        with np.errstate(over="ignore"):  # a sum past float range reads inf
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

        if kk <= K and np.min(ratios_t) >= 1.0:
            # tail weights that never fall before leaving float range: the sums diverge
            return DeltaResult(math.inf, n_sup, math.inf, kk, partial=cand)
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
        """The report's fields in order, without the Hardy-constant detail."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


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
        raise InvalidArgument("N_max must be at least 8")
    # a positive c, not the h it may turn negative, is what the bound refuses
    _no_positive_killing(spec._rates("killing", 0, N_max + 1))
    hvec = bd_harmonic_explicit(spec, N_max + 1, method="recurrence")
    delta = delta_tilde(spec, hvec, N_max=N_max, tail_tol=tail_tol)

    levels = sorted({max(1, N_max // 4), max(1, N_max // 2), N_max})
    lam = [[int(n), lambda0_variational(spec, n)] for n in levels]
    lambda0 = lam[-1][1]
    trunc_slack = abs(lam[-1][1] - lam[-2][1]) if len(lam) > 1 else 0.0

    if math.isinf(delta.value):
        lower = upper = eps = 0.0
        verdict = "lambda0 = 0 (Hardy constant diverges)"
    else:
        lower = 1.0 / (4.0 * delta.value)
        upper = 1.0 / delta.value
        eps = 1e-8 + trunc_slack
        if not lower - eps <= lambda0 <= upper + eps:
            raise PreconditionViolated(
                f"variational value {lambda0:g} escapes [{lower:g}, {upper:g}] "
                f"with eps = {eps:g}; increase N_max or check the inputs"
            )
        verdict = "lambda0 > 0"
    return BoundsReport(
        delta_tilde=delta.value,
        lower=lower,
        upper=upper,
        lambda0_numeric=lambda0,
        n_sup=delta.n_sup,
        truncation_levels=lam,
        verdict=verdict,
        containment=True,
        epsilon=eps,
        delta_slack=delta.slack,
        delta_detail=delta,
    )
