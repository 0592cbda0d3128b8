"""Exact Hermite towers: polynomial-times-Gaussian terms with rational coefficients.

The oscillator eigenfunction check of diffops.verify_lh_eigen and the
defining identity of the Hermite polynomials run on these; they load only
when one of them is used.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .errors import PreconditionViolated, _count

_S_TAGS = (Fraction(0), Fraction(1, 2), Fraction(1))


def _sum(p: tuple, q: tuple) -> tuple:
    """Coefficientwise sum of two coefficient tuples of any lengths."""
    return tuple(u + v for u, v in zip_longest(p, q, fillvalue=0))


@dataclass(frozen=True)
class PolyGauss:
    """p(x) exp(-s x^2) with exact rational coefficients, s in {0, 1/2, 1}.

    Closed under differentiation, so derivative towers carry no rounding.
    """

    coeffs: tuple
    s: Fraction = Fraction(0)

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "s", Fraction(self.s))
        if self.s not in _S_TAGS:
            raise PreconditionViolated(f"Gaussian tag must be one of {_S_TAGS}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def diff(self, order: int = 1) -> "PolyGauss":
        out = self
        for _ in range(_count("order", order, 0)):
            p = out.coeffs
            dp = tuple(k * p[k] for k in range(1, len(p))) or (Fraction(0),)
            if out.s == 0:
                out = PolyGauss(dp, out.s)
            else:
                # (p e^{-s x^2})' = (p' - 2 s x p) e^{-s x^2}
                shifted = (Fraction(0),) + tuple(-2 * out.s * c for c in p)
                out = PolyGauss(_sum(dp, shifted), out.s)
        return out

    def scale(self, factor) -> "PolyGauss":
        f = Fraction(factor)
        return PolyGauss(tuple(f * c for c in self.coeffs), self.s)

    def add(self, other: "PolyGauss") -> "PolyGauss":
        if self.s != other.s:
            raise PreconditionViolated("Gaussian tags differ")
        return PolyGauss(_sum(self.coeffs, other.coeffs), self.s)

    def mul_x(self) -> "PolyGauss":
        return PolyGauss((Fraction(0),) + self.coeffs, self.s)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        p = np.zeros(x.shape)
        for c in reversed(self.coeffs):
            p = p * x + float(c)
        out = p if self.s == 0 else p * np.exp(-float(self.s) * x * x)
        return out if x.ndim else float(out)


def hermite_polys(n_max: int) -> list:
    """Physicists' Hermite polynomials H_0..H_n as exact-integer PolyGauss.

    H_{n+1} = 2 x H_n - 2 n H_{n-1}.  Guarded at n_max <= 60; coefficients
    stay exact Python integers (as Fractions) at any admissible n.
    """
    n_max = _count("n_max", n_max, 0, 60)  # 60 guards the growth of the coefficients
    polys = [PolyGauss((Fraction(1),)), PolyGauss((Fraction(0), Fraction(2)))]
    for n in range(1, n_max):
        polys.append(polys[n].mul_x().scale(2).add(polys[n - 1].scale(-2 * n)))
    return polys[: n_max + 1]


def hermite_defining_residual(n: int) -> tuple:
    """Exact coefficients of (1/2) H_n'' - x H_n' + n H_n (all zero)."""
    H = hermite_polys(n)[n]
    r = H.diff(2).scale(Fraction(1, 2)).add(H.diff(1).mul_x().scale(-1)).add(
        H.scale(n)
    )
    return r.coeffs
