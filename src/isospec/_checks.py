"""The argument checks shared across the library.

Each check reads an argument as numbers and raises an IsospecError that
names it.  They live apart from errors, which imports no numpy.
"""
import numpy as np

from .errors import InvalidArgument, NonpositiveH, Overflow, PreconditionViolated


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


def _scalar(name, x, finite=True, want="a single number") -> float:
    """x as a float: a single number, not an array; with finite set, NaN and inf raise too."""
    v = _float_array(name, x)
    if v.ndim != 0:
        raise InvalidArgument(f"{name} = {x!r} is not {want}")
    if finite:
        _check_finite(name, v)
    return float(v)


def _tolerance(name, t) -> float:
    """A tolerance t as a float: a number >= 0, inf included; NaN, t < 0 or text raise."""
    want = "a number >= 0"
    x = _scalar(name, t, finite=False, want=want)
    if not x >= 0.0:
        raise InvalidArgument(f"{name} = {t!r} is not {want}")
    return x


def _flat(name, x, min_len, noun) -> np.ndarray:
    """x as a 1-d float array of at least min_len entries, which the message calls noun."""
    x = _float_array(name, x)
    if x.ndim != 1 or x.shape[0] < min_len:
        raise InvalidArgument(f"{name} must be a flat array of at least {min_len} {noun}")
    return x


def _grid(name, x, min_len) -> np.ndarray:
    """x as a 1-d float array of at least min_len finite, strictly increasing points."""
    x = _flat(name, x, min_len, "points")
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


def _in_float_range(name, w) -> np.ndarray:
    """The weights w; Overflow, which names them, at the first that is not a positive float."""
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
    if bad.size:
        raise Overflow(int(bad[0]), name)
    return w


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
