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

from ._checks import _count, _h_values, _no_positive_killing, _positive_h, _tolerance
from .chains import BirthDeathSpec, _bd_h_recurrence, _bd_mu, _conjugated_weights
from .errors import InvalidArgument, PreconditionViolated, TailNotResolved
from .spectra import lowest_eigs_tridiag

_WINDOW = 16


def _lambda0(b, a, c, levels):
    """[n, lambda0_variational at n] for each n in levels, read off one band of b, a, c."""
    with np.errstate(over="ignore"):  # a diagonal past float range is refused below
        d = b + a - c
    e = np.sqrt(b[:-1]) * np.sqrt(a[1:])
    return [[n, float(lowest_eigs_tridiag(d[: n + 1], e[:n], 1, 1e-14)[0])] for n in levels]


def lambda0_variational(spec: BirthDeathSpec, N: int) -> float:
    """Bottom of the quadratic form over functions supported in {0..N}.

    Equals the smallest eigenvalue of the symmetrised negative generator with
    a Dirichlet condition at N+1, diagonal b + a - c; nonincreasing in N.
    Sturm bisection stays accurate even when the rates are strongly graded.
    """
    N = _count("N", N, 1)
    b, a, c = spec.rate_arrays(N)
    _no_positive_killing(c)
    return _lambda0(b, a, c, [N])[0][1]


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


def delta_tilde(
    spec: BirthDeathSpec,
    h,
    N_max: int = 4096,
    tail_tol: float = 1e-10,
) -> DeltaResult:
    """Weighted Hardy constant sup_n sum_{j<=n} mu_j h_j^2 sum_{k>=n} nu~_k.

    The weights are those of the h-conjugated chain: the prefix mass uses
    mu h^2 and the tail uses 1/(h_k h_{k+1} mu_k b_k).  The rates are read
    once, on 0..N_max or as far as the finite prefix of h reaches less one
    state, and the read ends at the first state whose tail weight is not a
    positive float or whose prefix mass leaves float range.  The sums over
    the doubling levels 0..256, 0..512, ... of that read only test growth:
    two doublings in a row by a factor >= 2 diagnose divergence (value
    inf).  Past the last state read, a geometric tail estimate certifies
    the supremum to tail_tol, tail weights that still do not fall where the
    read ended early diagnose divergence, and otherwise the tail is
    undecided (TailNotResolved).
    """
    tail_tol = _tolerance("tail_tol", tail_tol)
    hv = _h_values(h)
    stop = np.flatnonzero(~np.isfinite(hv))
    n = stop[0] if stop.size else hv.shape[0]
    hv = _positive_h(hv[:n], n)  # only the finite prefix is read
    K_cap = min(_count("N_max", N_max, 1), hv.shape[0] - 2)
    if K_cap < 1:
        raise InvalidArgument("need h on at least 0..2")

    b, a, c = spec.rate_arrays(K_cap)
    _no_positive_killing(c)
    m, t = _conjugated_weights(_bd_mu(b, a), hv[: K_cap + 2], b)
    with np.errstate(over="ignore"):  # a prefix mass past float range ends the read
        M = np.cumsum(m)
    bad = np.flatnonzero(~(np.isfinite(M) & np.isfinite(t) & (t > 0.0)))
    kk = int(bad[0]) if bad.size else K_cap + 1
    if kk < 2:
        raise PreconditionViolated("fewer than two finite terms")
    m, t, M = m[:kk], t[:kk], M[:kk]

    sups, K = [], 256
    while True:  # the levels 0..K are prefixes of the read, the last one all of it
        L = min(K + 1, kk)
        with np.errstate(over="ignore"):  # a sum past float range reads inf
            T = np.cumsum(t[:L][::-1])[::-1]
            cand = M[:L] * T
        sup = float(np.max(cand))
        n_sup = int(np.argmax(cand))
        sups.append(sup)
        if len(sups) >= 3 and sups[-1] >= 2.0 * sups[-2] >= 4.0 * sups[-3]:
            return DeltaResult(math.inf, n_sup, math.inf, L, partial=cand)
        if L == kk:
            break
        K *= 2

    w = min(_WINDOW, kk - 1)
    ratios_t = t[kk - w : kk] / t[kk - w - 1 : kk - 1]
    r_hat = float(np.max(ratios_t))
    slack = math.inf
    if r_hat < 1.0:
        mt = m * t
        ratios_mt = mt[kk - w : kk] / mt[kk - w - 1 : kk - 1]
        s_hat = float(np.max(ratios_mt))
        R = float(t[-1]) * r_hat / (1.0 - r_hat)
        slack = float(np.max(cand + M * R)) - sup
        rho = s_hat / r_hat
        if rho > 1.0 + 1e-9:
            growth = rho / (rho - 1.0)
        else:
            growth = 1.0 / (math.e * math.log(1.0 / r_hat)) + 1.0
        future = float(mt[-1]) * r_hat / (1.0 - r_hat) * growth
        slack += max(0.0, future - sup)
        if slack <= tail_tol * max(1.0, sup):
            return DeltaResult(sup, n_sup, slack, kk, partial=cand)
    if kk <= K_cap and np.min(ratios_t) >= 1.0:
        # tail weights that never fall before leaving float range: the sums diverge
        return DeltaResult(math.inf, n_sup, math.inf, kk, partial=cand)
    raise TailNotResolved(sup, n_sup, slack, kk)


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
    N_max = _count("N_max", N_max, 8)
    b, a, c = spec.rate_arrays(N_max + 1)
    _no_positive_killing(c[: N_max + 1])  # before h, which a positive c can turn negative
    h = _bd_h_recurrence(b, a, c, N_max + 1)
    delta = delta_tilde(BirthDeathSpec(b, a, c), h, N_max=N_max, tail_tol=tail_tol)

    lam = _lambda0(b, a, c, (N_max // 4, N_max // 2, N_max))
    lambda0 = lam[-1][1]
    trunc_slack = abs(lam[-1][1] - lam[-2][1])

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
