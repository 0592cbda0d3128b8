"""Exception and warning types shared across the package.

This module imports no numpy, so the command line can refuse a malformed
request before numpy loads; the argument checks live in _checks.
"""


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
        super().__init__(f"{what} leaves float range at index {index}")


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


class _BadRate(InvalidArgument):
    """A birth-death rate that cannot be read: nonpositive, raised by a callable, or missing."""


class _ShortRates(_BadRate, IndexError):
    """A rate array with no entry for a state read; an IndexError too, for index handlers."""


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
