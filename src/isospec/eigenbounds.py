"""Two-sided principal-eigenvalue bounds for killed birth-death chains.

The bottom of the spectrum is computed variationally on truncations, and a
weighted Hardy constant gives the certified two-sided enclosure
[1/(4 delta), 1/delta] once the chain has been conjugated onto conservative
form by a positive harmonic function.
"""
from __future__ import annotations

import math

import numpy as np

from ._checks import (_Record, _count, _h_values, _in_float_range, _no_positive_killing,
                      _positive_h, _tolerance)
from .chains import BirthDeathSpec, _bd_h_recurrence, _bd_mu, _conjugated_weights
from .errors import InvalidArgument, PreconditionViolated, TailNotResolved
from .spectra import _tridiag, lowest_eigs_tridiag


def _lambda0(b, a, c, levels):
    """[n, lambda0_variational at n] for each n in levels, read off one band of b, a, c."""
    d, e = _tridiag(b, a, c)
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


class DeltaResult(_Record):
    """Hardy constant estimate with the index attaining the supremum."""

    value: float
    n_sup: int
    slack: float
    n_terms: int
    partial: np.ndarray | None = None
    _uncompared = _unshown = ("partial",)


def delta_tilde(
    spec: BirthDeathSpec,
    h,
    N_max: int = 4096,
    tail_tol: float = 1e-10,
) -> DeltaResult:
    """Weighted Hardy constant sup_n M_n T_n of the h-conjugated chain.

    M_n sums m = mu h^2 over 0..n and T_n sums t_k = 1/(h_k h_{k+1} mu_k b_k)
    over k >= n; the rates are read once, on 0..N_max or the finite prefix of
    h less one state, up to the first state whose t is not a positive float or
    whose M leaves float range.  The value is inf only where the rates prove
    lambda0 = 0: birth, death and killing all numbers, killing 0 and birth <=
    death (Karlin and McGregor, 1957).  Else, with r_hat < 1 the largest
    t_{k+1}/t_k of the last 16 states read and R = t_last r_hat/(1 - r_hat),
    slack = max_n M_n (T_n + R) - sup <= tail_tol sup certifies sup <= delta <=
    sup + slack (else TailNotResolved) under two assumptions: (i) every
    t_{k+1}/t_k past the read is at most r_hat, which bounds the unread tail
    sum by R, and (ii) no state past the read raises the supremum.
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
    m, t = _conjugated_weights(_bd_mu(b[:-1], a[1:]), hv[: K_cap + 2], b)
    with np.errstate(over="ignore"):  # a prefix mass past float range ends the read
        M = np.cumsum(m)
    bad = np.flatnonzero(~(np.isfinite(M) & np.isfinite(t) & (t > 0.0)))
    kk = int(bad[0]) if bad.size else K_cap + 1
    if kk < 2:
        raise PreconditionViolated("fewer than two finite terms")
    t, M = t[:kk], M[:kk]

    with np.errstate(over="ignore"):  # a sum past float range reads inf
        T = np.cumsum(t[::-1])[::-1]
        cand = M * T
    sup = float(np.max(cand))
    n_sup = int(np.argmax(cand))
    if spec._constant() and c[0] == 0.0 and b[0] <= a[1]:
        return DeltaResult(math.inf, n_sup, math.inf, kk, partial=cand)

    w = min(16, kk - 1)
    r_hat = float(np.max(t[kk - w : kk] / t[kk - w - 1 : kk - 1]))
    slack = math.inf
    if r_hat < 1.0:
        R = float(t[-1]) * r_hat / (1.0 - r_hat)
        slack = float(np.max(cand + M * R)) - sup
        if slack <= tail_tol * sup:
            return DeltaResult(sup, n_sup, slack, kk, partial=cand)
    raise TailNotResolved(sup, n_sup, slack, kk)


class BoundsReport(_Record):
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
    delta_detail: DeltaResult = None
    _uncompared = _unshown = ("delta_detail",)

    def to_dict(self):
        """The report's fields in order, without the Hardy-constant detail."""
        return {f: getattr(self, f) for f in self._fields if f not in self._uncompared}


def bounds_report(
    spec: BirthDeathSpec,
    N_max: int = 2048,
    tail_tol: float = 1e-10,
) -> BoundsReport:
    """Compute h, the Hardy constant, and the variational eigenvalue together.

    Runs the explicit harmonic recursion, evaluates delta_tilde in the
    conjugated weights, and checks the variational value at three nested
    truncations against the enclosure [1/(4 delta) - eps, 1/delta + eps]
    with eps = 1e-8 plus the observed truncation slack.  containment reports
    that test; lambda0 = 0, contained, comes only from delta_tilde's exact
    rule, and a chain it neither proves nor certifies raises TailNotResolved.
    h_0..h_2 past float range raise Overflow.  The rates are read once, on
    0..N_max: h on 0..N_max+1, delta_tilde and the truncations use no state
    past it.
    """
    N_max = _count("N_max", N_max, 8)
    b, a, c = spec.rate_arrays(N_max)
    _no_positive_killing(c)  # before h, which a positive c can turn negative
    h = _bd_h_recurrence(b, a, c, N_max + 1)
    _in_float_range("h", h[:3])  # the least delta_tilde reads; the rest may overflow
    # numbers are read again for free, and only they let delta_tilde's exact rule apply
    read = spec if spec._constant() else BirthDeathSpec(b, a, c)
    delta = delta_tilde(read, h, N_max=N_max, tail_tol=tail_tol)

    lam = _lambda0(b, a, c, (N_max // 4, N_max // 2, N_max))
    lambda0 = lam[-1][1]
    trunc_slack = abs(lam[-1][1] - lam[-2][1])

    if math.isinf(delta.value):
        lower = upper = eps = 0.0
        contained = True
        verdict = "lambda0 = 0 (Hardy constant diverges)"
    else:
        lower = 1.0 / (4.0 * delta.value)
        upper = 1.0 / delta.value
        eps = 1e-8 + trunc_slack
        contained = lower - eps <= lambda0 <= upper + eps
        verdict = "lambda0 > 0"
    return BoundsReport(
        delta_tilde=delta.value,
        lower=lower,
        upper=upper,
        lambda0_numeric=lambda0,
        n_sup=delta.n_sup,
        truncation_levels=lam,
        verdict=verdict,
        containment=contained,
        epsilon=eps,
        delta_slack=delta.slack,
        delta_detail=delta,
    )
