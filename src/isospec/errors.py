"""Exception and warning types shared across the package."""
import numpy as np


class IsospecError(Exception):
    """Base class for all structured errors raised by this package."""


class NegativeRate(IsospecError):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"rate[{i}][{j}] = {value} is negative")


class PotentialExceedsRate(IsospecError):
    def __init__(self, i, c, q):
        self.i, self.c, self.q = i, c, q
        super().__init__(f"potential c[{i}] = {c} exceeds total rate q[{i}] = {q}")


class Overflow(IsospecError):
    def __init__(self, index, what="value"):
        self.index = index
        super().__init__(f"{what} exceeds the representable range at index {index}")


class Divergence(IsospecError):
    """Monotone iteration exceeded its ceiling; no finite limit exists."""

    def __init__(self, ceiling, iteration):
        self.ceiling, self.iteration = ceiling, iteration
        super().__init__(f"iterate exceeded ceiling {ceiling:g} at step {iteration}")


class NonConvergence(IsospecError):
    def __init__(self, max_iter, final_delta):
        self.max_iter, self.final_delta = max_iter, final_delta
        super().__init__(
            f"no convergence after {max_iter} iterations (last change {final_delta:g})"
        )


class NotMonotone(IsospecError):
    """The minimal-solution iteration, monotone from zero, decreased."""

    def __init__(self, iteration, i, before, after):
        self.iteration, self.i, self.before, self.after = iteration, i, before, after
        super().__init__(
            f"monotone iteration decreased at step {iteration}: "
            f"h[{i}] fell from {before:g} to {after:g}"
        )


class NotHarmonic(IsospecError):
    def __init__(self, residual, tol):
        self.residual, self.tol = residual, tol
        super().__init__(f"max harmonic residual {residual:g} exceeds tolerance {tol:g}")


class NonpositiveH(IsospecError):
    def __init__(self, i, value):
        self.i, self.value = i, value
        super().__init__(f"h[{i}] = {value} must be strictly positive")


class NotLocallyHarmonic(IsospecError):
    def __init__(self, index, residual, tol):
        self.index, self.residual, self.tol = index, residual, tol
        super().__init__(
            f"harmonic residual {residual:g} at index {index} exceeds tolerance {tol:g}"
        )


class NotReversible(IsospecError):
    def __init__(self, i, j, violation):
        self.i, self.j, self.violation = i, j, violation
        super().__init__(
            f"mu[i] q[i][j] != mu[j] q[j][i] for (i, j) = ({i}, {j}); "
            f"relative violation {violation:g}"
        )


class PreconditionViolated(IsospecError):
    pass


class InvalidArgument(PreconditionViolated):
    """An argument outside the range a function accepts: bad input, not a failed check."""


class _ShortRates(InvalidArgument, IndexError):
    """A rate array with no entry for a state read; an IndexError too, for index handlers."""


def _check_finite(name, *arrays):
    """Refuse a NaN or infinite entry in any of arrays, read by _float_array."""
    if not all(np.all(np.isfinite(_float_array(name, a))) for a in arrays):
        raise PreconditionViolated(f"{name} has a NaN or infinite entry")


def _float_array(name, x) -> np.ndarray:
    """x as a float array; text or ragged nesting raise InvalidArgument, None reads as NaN."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgument(f"{name} must hold only numbers, nested evenly") from None


def _per_state(name, x, n) -> np.ndarray:
    """x as a new float array of shape (n,), one finite entry per state."""
    x = _float_array(name, x).copy()
    if x.shape != (n,):
        raise InvalidArgument(f"{name} has shape {x.shape}, want ({n},)")
    _check_finite(name, x)
    return x


def _tolerance(name, t) -> float:
    """A tolerance t as a float: a number >= 0, inf included; NaN, t < 0 or text raise."""
    x = _float_array(name, t)
    if x.ndim != 0 or not x >= 0.0:
        raise InvalidArgument(f"{name} = {t!r} is not a number >= 0")
    return float(x)


def _grid(name, x, min_len) -> np.ndarray:
    """x as a 1-d float array of at least min_len finite, strictly increasing points."""
    x = _float_array(name, x)
    if x.ndim != 1 or x.shape[0] < min_len:
        raise InvalidArgument(f"{name} must be a flat array of at least {min_len} points")
    _check_finite(name, x)
    if np.any(np.diff(x) <= 0.0):
        raise InvalidArgument(f"{name} must be strictly increasing")
    return x


def _count(name, n, lo, hi=None) -> int:
    """n as an int: an integer, not a bool, with lo <= n and, if hi is given, n <= hi."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidArgument(f"{name} = {n!r} is not an integer")
    if n < lo or hi is not None and n > hi:
        rule = f"is below {lo}" if hi is None else f"outside {lo}..{hi}"
        raise InvalidArgument(f"{name} = {n} {rule}")
    return int(n)


def _states(name, idx, n) -> np.ndarray:
    """The state indices idx, an iterable or one index, as an int array; each in 0..n-1."""
    idx = idx if np.iterable(idx) else [idx]
    return np.array([_count(name, i, 0, n - 1) for i in idx], dtype=int)


def _no_positive_killing(c, need="the bound needs c <= 0"):
    """Refuse a positive potential entry c[i]; need names what requires c <= 0."""
    if np.any(c > 0.0):
        i = int(np.argmax(c))
        raise PreconditionViolated(f"c[{i}] = {c[i]} > 0; {need}")


def _positive_mu(mu, n) -> np.ndarray:
    """_per_state(mu, n), refusing an entry that is not finite and positive."""
    mu = _float_array("mu", mu)
    if not np.all(np.isfinite(mu) & (mu > 0.0)):
        raise PreconditionViolated("mu must be finite and strictly positive")
    return _per_state("mu", mu, n)


def _h_values(h) -> np.ndarray:
    """The values of h, a HarmonicVector or numbers, as a float array; a number is one value."""
    return np.atleast_1d(_float_array("h", getattr(h, "values", h)))


def _positive_h(h, n) -> np.ndarray:
    """_per_state of h's values on n states, refusing the first that is not positive."""
    hv = _per_state("h", _h_values(h), n)
    if np.any(hv <= 0.0):
        i = int(np.argmax(hv <= 0.0))
        raise NonpositiveH(i, float(hv[i]))
    return hv


class TailNotResolved(IsospecError):
    """Neither convergence nor divergence of the Hardy supremum could be certified."""

    def __init__(self, partial_sup, n_sup, slack, n_terms):
        self.partial_sup = partial_sup
        self.n_sup = n_sup
        self.slack = slack
        self.n_terms = n_terms
        super().__init__(
            f"tail undecided after {n_terms} terms: partial sup {partial_sup:g} "
            f"at n = {n_sup}, slack bound {slack:g}"
        )


class BlowUp(IsospecError):
    def __init__(self, x, value):
        self.x, self.value = x, value
        super().__init__(f"solution magnitude {value:g} exceeded the guard at x = {x:g}")


class NotHarmonicAt(IsospecError):
    def __init__(self, x, residual, tol):
        self.x, self.residual, self.tol = x, residual, tol
        super().__init__(f"harmonic residual {residual:g} at x = {x:g} exceeds {tol:g}")


class ZeroH(IsospecError):
    def __init__(self, x):
        self.x = x
        super().__init__(f"h vanishes at x = {x:g}")


class MalformedExpression(IsospecError):
    def __init__(self, text, reason):
        self.text, self.reason = text, reason
        shown = text[:77] + "..." if isinstance(text, str) and len(text) > 80 else text
        super().__init__(f"cannot parse {shown!r}: {reason}")


class GridTooCoarse(UserWarning):
    """Local cell Peclet number |b| dx / a exceeds 2 somewhere on the grid."""
