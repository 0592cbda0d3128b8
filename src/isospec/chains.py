"""Data model for finite jump-rate specifications and birth-death chains.

A QPairSpec holds an off-diagonal rate matrix, per-state total rates, and a
signed potential vector c.  Killing means c_i <= 0; the full generator acting
on a vector f is

    (A f)_i = sum_j rates[i, j] (f_j - f_i) + (c_i - defect_i) f_i

which is realised as the matrix with off-diagonal entries rates[i, j] and
diagonal c_i - total_i.  Any gap total_i - sum_j rates[i, j] >= 0 is a jump
rate into an implicit absorbing state (where functions vanish), so it acts as
additional killing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeRate, Overflow, PotentialExceedsRate, PreconditionViolated

_CONS_RTOL = 1e-12


@dataclass(frozen=True)
class QPairSpec:
    """Validated finite-state jump specification with potential."""

    rates: np.ndarray
    total: np.ndarray
    killing: np.ndarray
    conservative: bool

    @property
    def n_states(self) -> int:
        return self.rates.shape[0]

    @property
    def generator(self) -> np.ndarray:
        """Full generator matrix: off-diagonal rates, diagonal c_i - q_i."""
        a = self.rates.copy()
        np.fill_diagonal(a, self.killing - self.total)
        return a

    @property
    def defect(self) -> np.ndarray:
        """Rate into the implicit absorbing state, total_i - row sum."""
        return self.total - self.rates.sum(axis=1)

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        return self.rates @ f + (self.killing - self.total) * f


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise PreconditionViolated(f"{name} has a NaN or infinite entry")


def validate_qpair(rates, total=None, killing=None) -> QPairSpec:
    """Check sign and stability constraints, returning a frozen QPairSpec.

    total defaults to the row sums (a conservative chain); killing defaults
    to zero.  Diagonal entries of rates are ignored; any other NaN or inf
    entry is refused.
    """
    r = np.array(rates, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] < 1:
        raise PreconditionViolated("rates must be a square matrix with n >= 1")
    n = r.shape[0]
    np.fill_diagonal(r, 0.0)
    _check_finite("rates", r)
    if np.any(r < 0.0):
        i, j = map(int, np.argwhere(r < 0.0)[0])
        raise NegativeRate(i, j, r[i, j])
    row = r.sum(axis=1)
    q = row.copy() if total is None else np.array(total, dtype=float)
    if q.shape != (n,):
        raise PreconditionViolated("total must have one entry per state")
    _check_finite("total", q)
    slack = q - row
    scale = np.maximum(1.0, np.maximum(np.abs(q), row))
    if np.any(slack < -_CONS_RTOL * scale):
        i = int(np.argmin(slack / scale))
        raise PreconditionViolated(
            f"total rate q[{i}] = {q[i]} below row sum {row[i]} (not totally stable)"
        )
    c = np.zeros(n) if killing is None else np.array(killing, dtype=float)
    if c.shape != (n,):
        raise PreconditionViolated("killing must have one entry per state")
    _check_finite("killing", c)
    excess = c - q - _CONS_RTOL * np.maximum(1.0, np.abs(q))
    if np.any(excess > 0.0):
        i = int(np.argmax(excess))
        raise PotentialExceedsRate(i, c[i], q[i])
    conservative = bool(np.all(np.abs(slack) <= _CONS_RTOL * scale))
    r.flags.writeable = False
    q.flags.writeable = False
    c.flags.writeable = False
    return QPairSpec(rates=r, total=q, killing=c, conservative=conservative)


def _as_rate_fn(value, name):
    if callable(value):
        return value
    if np.isscalar(value):
        v = float(value)
        return lambda i: v
    arr = np.asarray(value, dtype=float)

    def fn(i, arr=arr):
        if i >= arr.shape[0]:
            raise IndexError(f"{name} array of length {arr.shape[0]} has no index {i}")
        return float(arr[i])

    return fn


@dataclass(frozen=True)
class BirthDeathSpec:
    """Birth-death rates on {0, 1, ...} with a signed potential.

    birth, death, killing each accept a scalar, a sequence indexed by state,
    or a callable i -> value.  death is only consulted for i >= 1.
    """

    birth: object
    death: object
    killing: object = 0.0
    truncation: int | None = None
    _b: object = field(init=False, repr=False, compare=False)
    _a: object = field(init=False, repr=False, compare=False)
    _c: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_b", _as_rate_fn(self.birth, "birth"))
        object.__setattr__(self, "_a", _as_rate_fn(self.death, "death"))
        object.__setattr__(self, "_c", _as_rate_fn(self.killing, "killing"))

    def b(self, i: int) -> float:
        v = self._b(i)
        if not v > 0.0:
            raise PreconditionViolated(f"birth rate b[{i}] = {v} must be positive")
        return v

    def a(self, i: int) -> float:
        v = self._a(i)
        if not v > 0.0:
            raise PreconditionViolated(f"death rate a[{i}] = {v} must be positive")
        return v

    def c(self, i: int) -> float:
        return self._c(i)

    def rate_arrays(self, N: int):
        """Vectors (b, a, c) on states 0..N; a[0] is a placeholder zero."""
        b = np.array([self.b(i) for i in range(N + 1)])
        a = np.empty(N + 1)
        a[0] = 0.0
        a[1:] = [self.a(i) for i in range(1, N + 1)]
        c = np.array([self.c(i) for i in range(N + 1)])
        return b, a, c


@dataclass(frozen=True)
class MeasurePair:
    """Symmetrising measure mu and the dual weights nu_hat = 1/(mu_i b_i)."""

    mu: np.ndarray
    nu_hat: np.ndarray


def bd_measures(spec: BirthDeathSpec, N: int) -> MeasurePair:
    """Running-product measure mu_i = (b_0...b_{i-1})/(a_1...a_i), mu_0 = 1."""
    mu = np.empty(N + 1)
    mu[0] = 1.0
    with np.errstate(over="ignore"):
        for i in range(1, N + 1):
            mu[i] = mu[i - 1] * spec.b(i - 1) / spec.a(i)
            if not np.isfinite(mu[i]):
                raise Overflow(i, "mu")
    nu_hat = np.array([1.0 / (mu[i] * spec.b(i)) for i in range(N + 1)])
    return MeasurePair(mu=mu, nu_hat=nu_hat)


def bd_to_qpair(spec: BirthDeathSpec, N: int, boundary: str = "reflecting") -> QPairSpec:
    """Tridiagonal QPairSpec on {0..N}.

    boundary "reflecting" drops the outgoing birth rate b_N so the truncated
    chain stays conservative; "absorbing" keeps b_N as a defect into the
    implicit absorbing state beyond N.  Positive potential at a boundary
    state is absorbed into the total so c <= q always holds there.
    """
    if N < 1:
        raise PreconditionViolated("truncation level N must be at least 1")
    if boundary not in ("reflecting", "absorbing"):
        raise PreconditionViolated(f"unknown boundary policy {boundary!r}")
    rates = np.zeros((N + 1, N + 1))
    c = np.array([spec.c(i) for i in range(N + 1)])
    for i in range(N):
        rates[i, i + 1] = spec.b(i)
    for i in range(1, N + 1):
        rates[i, i - 1] = spec.a(i)
    total = rates.sum(axis=1)
    total[0] += max(c[0], 0.0)
    if boundary == "absorbing":
        total[N] += spec.b(N)
    total[N] += max(c[N], 0.0)
    return validate_qpair(rates, total, c)
