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

from dataclasses import dataclass

import numpy as np

from ._checks import _check_finite, _count, _float_array, _in_float_range, _per_state
from .errors import (InvalidArgument, NegativeRate, PotentialExceedsRate, PreconditionViolated,
                     _ShortRates)

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
        f = _per_state("f", f, self.n_states)
        return self.rates @ f + (self.killing - self.total) * f

    def nonzero(self):
        """Rows, columns and values of the nonzero rates, ordered as np.nonzero."""
        i, j = np.nonzero(self.rates)
        return i, j, self.rates[i, j]


def validate_qpair(rates, total=None, killing=None) -> QPairSpec:
    """Check sign and stability constraints, returning a frozen QPairSpec.

    total defaults to the row sums (a conservative chain); killing defaults
    to zero.  Diagonal entries of rates are ignored; any other NaN or inf
    entry is refused.
    """
    try:
        r = np.array(rates, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or entries that are not numbers
        r = np.zeros(0)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] < 1:
        raise PreconditionViolated("rates must be a square matrix with n >= 1")
    np.fill_diagonal(r, 0.0)
    _check_finite("rates", r)
    if np.any(r < 0.0):
        i, j = map(int, np.argwhere(r < 0.0)[0])
        raise NegativeRate(i, j, r[i, j])
    with np.errstate(over="ignore"):  # a row sum past float range is refused next
        row = r.sum(axis=1)
    q, c, conservative = _check_totals(row, total, killing)
    r.flags.writeable = False
    return QPairSpec(rates=r, total=q, killing=c, conservative=conservative)


def _check_totals(row, total, killing):
    """Totals, potential and conservativity of a chain with rate row sums row."""
    n = row.shape[0]
    q = _per_state("total", row if total is None else total, n)
    slack = q - row
    scale = np.maximum(1.0, np.maximum(np.abs(q), row))
    if np.any(slack < -_CONS_RTOL * scale):
        i = int(np.argmin(slack / scale))
        raise PreconditionViolated(
            f"total rate q[{i}] = {q[i]} below row sum {row[i]} (not totally stable)"
        )
    c = _per_state("killing", np.zeros(n) if killing is None else killing, n)
    excess = c - q - _CONS_RTOL * np.maximum(1.0, np.abs(q))
    if np.any(excess > 0.0):
        i = int(np.argmax(excess))
        raise PotentialExceedsRate(i, c[i], q[i])
    conservative = bool(np.all(np.abs(slack) <= _CONS_RTOL * scale))
    q.flags.writeable = False
    c.flags.writeable = False
    return q, c, conservative


@dataclass(frozen=True)
class BandSpec:
    """Validated tridiagonal jump specification: a QPairSpec kept as its band.

    up[k] is the rate k -> k+1 and down[k] the rate k+1 -> k; every other
    off-diagonal rate is zero.  Checks, errors and arrays match the dense
    form entry for entry.
    """

    up: np.ndarray
    down: np.ndarray
    total: np.ndarray
    killing: np.ndarray
    conservative: bool

    @property
    def n_states(self) -> int:
        return self.total.shape[0]

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = _per_state("f", f, self.n_states)
        return _band_row_sums(self.up * f[1:], self.down * f[:-1]) + (
            self.killing - self.total) * f

    def nonzero(self):
        """Rows, columns and values of the nonzero rates, ordered as np.nonzero."""
        i, j, v = _band_entries(self.up, self.down)
        keep = v != 0.0
        return i[keep], j[keep], v[keep]


def _band_row_sums(up, down):
    # the dense row sum adds exact zeros to these two terms, so it rounds alike;
    # a sum past float range reads inf, as in the dense sum
    s = np.zeros(up.shape[0] + 1)
    with np.errstate(over="ignore"):
        s[:-1] += up
        s[1:] += down
    return s


def _band_entries(up, down):
    """Rows, columns and values of the band in row-major order.

    Row-major order visits (k, k+1) and then (k+1, k), so the values
    interleave up and down.
    """
    k = np.arange(up.shape[0]).repeat(2)
    v = np.empty(k.shape[0])
    v[0::2], v[1::2] = up, down
    i, j = k.copy(), k.copy()
    i[1::2] += 1
    j[0::2] += 1
    return i, j, v


def validate_band(up, down, total=None, killing=None) -> BandSpec:
    """validate_qpair restricted to the band, with the same errors and arrays."""
    u = _float_array("up", up).copy()
    d = _float_array("down", down).copy()
    if u.ndim != 1 or u.shape != d.shape:
        raise PreconditionViolated("up and down must be flat arrays of one length")
    _check_finite("rates", u, d)
    i, j, v = _band_entries(u, d)
    neg = np.flatnonzero(v < 0.0)
    if neg.size:
        k = neg[0]
        raise NegativeRate(int(i[k]), int(j[k]), v[k])
    q, c, conservative = _check_totals(_band_row_sums(u, d), total, killing)
    u.flags.writeable = False
    d.flags.writeable = False
    return BandSpec(up=u, down=d, total=q, killing=c, conservative=conservative)


_POSITIVE = {"birth": "b", "death": "a"}  # rate fields that must be positive


@dataclass(frozen=True)
class BirthDeathSpec:
    """Birth-death rates on {0, 1, ...} with a signed potential.

    birth, death, killing each accept a scalar, a sequence indexed by state,
    or a callable i -> value.  death is only consulted for i >= 1.
    """

    birth: object
    death: object
    killing: object = 0.0

    def b(self, i: int) -> float:
        return float(self._rates("birth", i, i + 1)[0])

    def a(self, i: int) -> float:
        return float(self._rates("death", i, i + 1)[0])

    def c(self, i: int) -> float:
        return float(self._rates("killing", i, i + 1)[0])

    def _rates(self, key: str, lo: int, hi: int) -> np.ndarray:
        """Values of the field key on states lo <= i < hi.

        Numbers are broadcast, arrays sliced and callables called once per
        index.  Raises at the first failing index: a callable that raises an
        arithmetic, value or type error, a nonpositive birth or death rate,
        or an index past the array.
        """
        value = getattr(self, key)
        if callable(value):
            v = np.empty(hi - lo)
            for i in range(lo, hi):
                try:
                    v[i - lo] = value(i)
                except (ArithmeticError, ValueError, TypeError) as exc:
                    raise InvalidArgument(
                        f"{key} rate at state {i} raised {type(exc).__name__}: {exc}"
                    ) from exc
        elif np.ndim(value) == 0:
            v = np.full(hi - lo, float(value))
        else:
            v = np.asarray(value, dtype=float)[lo:hi].copy()
        if key in _POSITIVE:
            bad = np.flatnonzero(~(v > 0.0))
            if bad.size:
                i = lo + int(bad[0])
                raise PreconditionViolated(
                    f"{key} rate {_POSITIVE[key]}[{i}] = {v[bad[0]]} must be positive")
        if v.shape[0] < hi - lo:
            raise _ShortRates(
                f"{key} array of length {len(value)} has no index {lo + v.shape[0]}")
        return v

    def rate_arrays(self, N: int):
        """Vectors (b, a, c) on states 0..N; a[0] is a placeholder zero."""
        N = _count("N", N, 0)
        b = self._rates("birth", 0, N + 1)
        a = np.empty(N + 1)
        a[0] = 0.0
        a[1:] = self._rates("death", 1, N + 1)
        c = self._rates("killing", 0, N + 1)
        return b, a, c


@dataclass(frozen=True)
class MeasurePair:
    """Symmetrising measure mu and the dual weights nu_hat = 1/(mu_i b_i)."""

    mu: np.ndarray
    nu_hat: np.ndarray


def _bd_mu(b, a):
    """mu_0 = 1 and mu_i = mu_{i-1} * (b_{i-1} / a_i) on the states of b and a.

    An entry past float range reads inf or 0 without a warning; the caller
    decides what that means.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.concatenate(([1.0], np.cumprod(b[:-1] / a[1:])))


def bd_measures(spec: BirthDeathSpec, N: int) -> MeasurePair:
    """Running-product measure mu_i = (b_0...b_{i-1})/(a_1...a_i), mu_0 = 1."""
    b, a, _ = spec.rate_arrays(N)
    mu = _in_float_range("mu", _bd_mu(b, a))
    with np.errstate(over="ignore"):  # mu_N b_N past float range gives nu_hat_N = 0
        return MeasurePair(mu=mu, nu_hat=1.0 / (mu * b))


def _bd_h_recurrence(b, a, c, N):
    """h_0 = 1 and h on 1..N by forward substitution in b, a and c on 0..N-1."""
    # Python floats: the same IEEE operations as on numpy scalars, faster, and
    # overflow to inf (expected for strong killing; callers mask) without a warning
    b, a, c = b.tolist(), a.tolist(), c.tolist()
    h = [1.0, 1.0 - c[0] / b[0]]
    for n in range(1, N):
        h.append(h[n] + (a[n] * (h[n] - h[n - 1]) - c[n] * h[n]) / b[n])
    return np.array(h)


def _conjugated_weights(mu, h, b):
    """mu h^2 and 1/(h_i h_{i+1} mu_i b_i), the weights of the h-conjugated chain.

    h, one entry longer than mu and b, is grouped with sqrt(mu): h^2 alone can
    overflow where mu h^2 cannot.  Entries beyond float range are left to the caller.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.sqrt(mu)
        g = h[:-1] * s
        return g * g, 1.0 / (g * (h[1:] * s) * b)


def _bd_band(spec: BirthDeathSpec, N: int):
    """Super-diagonal, sub-diagonal, totals and potential of the truncation on {0..N}."""
    N = _count("N", N, 1)
    c = spec._rates("killing", 0, N + 1)
    b = spec._rates("birth", 0, N)
    a = spec._rates("death", 1, N + 1)
    total = _band_row_sums(b, a)
    with np.errstate(over="ignore"):  # a total past float range is refused downstream
        total[0] += max(c[0], 0.0)
        total[N] += max(c[N], 0.0)
    return b, a, total, c


def bd_to_band(spec: BirthDeathSpec, N: int) -> BandSpec:
    """Tridiagonal chain on {0..N} in band form; b_N is dropped, so no jump leaves it.

    A positive boundary potential is absorbed into the total, so c <= q holds.
    """
    return validate_band(*_bd_band(spec, N))


def bd_to_qpair(spec: BirthDeathSpec, N: int) -> QPairSpec:
    """Tridiagonal QPairSpec on {0..N}: bd_to_band as a dense rate matrix."""
    up, down, total, c = _bd_band(spec, N)
    rates = np.zeros((N + 1, N + 1))
    i = np.arange(N)
    rates[i, i + 1] = up
    rates[i + 1, i] = down
    return validate_qpair(rates, total, c)
