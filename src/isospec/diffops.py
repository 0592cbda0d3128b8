"""Differential-operator conjugations, Riccati duals, and discretization.

One-dimensional operators L = a d2/dx2 + b d/dx + c.  One kernel conjugates
by g: g^-1 L g has drift b + 2 a g'/g and potential L g / g.  g = h with
L h = 0 removes the potential, g = 1/h brings one back, and the Riccati dual
has the drift of g = e^psi.  The discretization is a finite-volume
birth-death chain in the (mu, nu-hat) weights, reversible in mu by
construction; each rate is formed once, from logs, and no mass is formed.
"""
from __future__ import annotations

import math
import warnings
from functools import partial
from typing import Callable

import numpy as np

from ._checks import _Record, _count, _float_array, _grid, _per_state, _scalar, _tolerance
from .errors import (BlowUp, GridTooCoarse, InvalidArgument, NotHarmonicAt, ZeroH,
                     PreconditionViolated)
from .expressions import _vectorized, compile_expression, constant

_H_FLOOR = 1e-300


def _as_fn(v) -> Callable:
    """Normalize a coefficient (constant, expression text, or callable)."""
    if isinstance(v, str):
        return compile_expression(v).fn
    if callable(v):
        return _vectorized(v)
    return constant(float(v)).fn


_BC = ("dirichlet", "neumann")


class Operator1D(_Record):
    """a d2/dx2 + b d/dx + c on a strictly increasing grid, with a > 0."""

    a: Callable
    b: Callable
    c: Callable
    grid: np.ndarray
    boundary: tuple = ("neumann", "neumann")

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fn(self.a))
        object.__setattr__(self, "b", _as_fn(self.b))
        object.__setattr__(self, "c", _as_fn(self.c))
        g = _grid("grid", self.grid, 2)
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)
        if len(self.boundary) != 2 or any(t not in _BC for t in self.boundary):
            raise PreconditionViolated(f"boundary tags must be from {_BC}")
        av = self.a(g)
        if np.any(~(av > 0.0)):
            i = int(np.argmin(av))
            raise PreconditionViolated(f"a({g[i]:g}) = {av[i]:g} is not positive")

    @classmethod
    def on_interval(cls, a, b, c, lo, hi, M, boundary=("neumann", "neumann")):
        if not math.isfinite(float(hi) - float(lo)):  # linspace would warn and return NaN
            raise InvalidArgument(f"interval [{lo}, {hi}]: hi - lo is not finite")
        M = _count("M", M, 1)
        return cls(a=a, b=b, c=c, grid=np.linspace(lo, hi, M + 1), boundary=boundary)

    def coefficients(self, x=None):
        x = self.grid if x is None else _float_array("x", x)
        return self.a(x), self.b(x), self.c(x)


class SmoothFunction(_Record):
    """Point evaluations of (h, h', h'') with analytically supplied derivatives."""

    h: Callable
    h1: Callable
    h2: Callable

    def __post_init__(self):
        for name in ("h", "h1", "h2"):
            object.__setattr__(self, name, _as_fn(getattr(self, name)))

    def __call__(self, x):
        return self.h(x), self.h1(x), self.h2(x)

    @classmethod
    def from_expression(cls, text: str) -> "SmoothFunction":
        e = compile_expression(text)
        return cls(h=e.fn, h1=e.diff(1).fn, h2=e.diff(2).fn)

    @classmethod
    def from_values(cls, grid, values) -> "SmoothFunction":
        """Finite-difference fallback: central O(dx^2) derivatives of samples.

        Use only when analytic derivatives are unavailable; the differencing
        error enters every residual downstream.
        """
        x = _grid("grid", grid, 5)  # np.interp reads a decreasing grid wrongly
        v = _per_state("values", values, x.shape[0])
        d1 = np.gradient(v, x, edge_order=2)
        d2 = np.gradient(d1, x, edge_order=2)
        return _interpolated(x, v, d1, d2)


def _interpolated(x, hv, h1, h2) -> SmoothFunction:
    """Piecewise-linear interpolants of sampled (h, h', h'') on the grid x."""
    return SmoothFunction(*(partial(np.interp, xp=x, fp=v) for v in (hv, h1, h2)))


def _check_nonzero(hv, x):
    bad = np.flatnonzero(np.abs(np.atleast_1d(hv)) < _H_FLOOR)
    if bad.size:
        i = int(bad[0])
        raise ZeroH(float(np.atleast_1d(x)[i]))


def _conjugate(op: Operator1D, h: SmoothFunction, t, inverse: bool = False):
    """Drift, L g and g of op conjugated by g = h, or by g = 1/h when inverse, at t.

    The conjugate g^-1 L g has drift b + 2 a g'/g and potential L g / g.  1/h
    enters as (h, -h', 2 h'^2/h - h''), which is h^2 (g, g', g'').
    """
    g, g1, g2 = h(t)
    if inverse:
        g1, g2 = -g1, 2.0 * g1 * g1 / g - g2
    a, b, c = op.a(t), op.b(t), op.c(t)
    return b + 2.0 * a * g1 / g, a * g2 + b * g1 + c * g, g


def forward_transform(op: Operator1D, h: SmoothFunction, tol: float = 1e-8) -> Operator1D:
    """Remove the potential of op using an op-harmonic h.

    Checks |a h'' + b h' + c h| <= tol at every grid point, then returns the
    operator with the same diffusion, drift b + 2 a h'/h, and zero potential.
    """
    tol = _tolerance("tol", tol)
    x = op.grid
    _check_nonzero(h(x)[0], x)
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.abs(_conjugate(op, h, x)[1])
    if np.any(~(res <= tol)):  # a NaN residual fails too
        i = int(np.argmax(res))
        raise NotHarmonicAt(float(x[i]), float(res[i]), tol)

    def bt(t, _op=op, _h=h):
        return _conjugate(_op, _h, t)[0]

    return Operator1D(a=op.a, b=bt, c=0.0, grid=op.grid, boundary=op.boundary)


def forward_transform_points(a, b, c, h, grad, hess, tol: float = 1e-8):
    """Pointwise d-dimensional drift update b~ = b + 2 (a grad h)/h.

    Arrays: a is (P,d,d) or (d,d); b and grad are (P,d); c and h are (P,).
    hess (P,d,d) feeds the harmonicity check tr(a hess) + b.grad + c h = 0.
    Returns the (P,d) transformed drift.
    """
    tol = _tolerance("tol", tol)
    b = np.asarray(b, dtype=float)
    grad = np.asarray(grad, dtype=float)
    h = np.asarray(h, dtype=float)
    c = np.asarray(c, dtype=float)
    hess = np.asarray(hess, dtype=float)
    P, d = b.shape
    a = np.asarray(a, dtype=float)
    if a.ndim == 2:
        a = np.broadcast_to(a, (P, d, d))
    _check_nonzero(h, np.arange(P))
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.abs(
            np.einsum("pij,pij->p", a, hess) + np.einsum("pi,pi->p", b, grad) + c * h
        )
    if np.any(~(res <= tol)):
        i = int(np.argmax(res))
        raise NotHarmonicAt(float(i), float(res[i]), tol)
    return b + 2.0 * np.einsum("pij,pj->pi", a, grad) / h[:, None]


def inverse_transform(opt: Operator1D, h: SmoothFunction) -> Operator1D:
    """Reintroduce a potential: conjugate the potential-free opt by 1/h.

    The result has drift b~ - 2 a h'/h and potential
    2 a (h'/h)^2 - (a h'' + b~ h')/h.
    """
    x = opt.grid
    if np.any(np.abs(opt.c(x)) > 1e-12):
        raise PreconditionViolated("input operator must have zero potential")
    _check_nonzero(h(x)[0], x)

    def b_new(t, _op=opt, _h=h):
        return _conjugate(_op, _h, t, inverse=True)[0]

    def c_new(t, _op=opt, _h=h):
        _, lg, g = _conjugate(_op, _h, t, inverse=True)
        return lg / g

    return Operator1D(a=opt.a, b=b_new, c=c_new, grid=opt.grid, boundary=opt.boundary)


class RiccatiResult(_Record):
    """phi, psi = int phi, and the dual drift on the integration grid."""

    grid: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    b_tilde: np.ndarray
    phi_prime: np.ndarray = None
    _unshown = ("phi_prime",)

    def smooth(self, mode: str = "ode") -> SmoothFunction:
        """h = e^psi as a SmoothFunction.

        mode "ode" propagates derivatives through the Riccati identities
        h' = phi h, h'' = (phi' + phi^2) h; mode "fd" differentiates the
        sampled h values and is the independent check.
        """
        hv = np.exp(self.psi - np.max(self.psi))
        if mode == "fd":
            return SmoothFunction.from_values(self.grid, hv)
        if mode != "ode":
            raise InvalidArgument(f"unknown mode {mode!r}")
        phi = self.phi
        return _interpolated(self.grid, hv, phi * hv, (self.phi_prime + phi * phi) * hv)


def riccati_dual(
    opbar: Operator1D,
    phi0: float,
    x0: float | None = None,
    guard: float = 1e6,
) -> RiccatiResult:
    """Construct the dual drift by solving a phi' + a phi^2 + b phi + c = 0.

    Fixed-step classical fourth-order integration on opbar's grid from the
    anchor x0 (a grid point; defaults to the grid point nearest zero, else
    the left end), outward in both directions.  psi is the trapezoidal
    integral of phi with psi(x0) = 0, and b~ = 2 a phi + b.  Escapes of |phi|
    beyond the guard raise BlowUp: Riccati solutions reach infinity where h
    would vanish.
    """
    phi0 = _scalar("phi0", phi0)
    guard = _tolerance("guard", guard)
    x = opbar.grid
    av, bv, cv = opbar.coefficients()

    if x0 is None:
        i0 = int(np.argmin(np.abs(x))) if x[0] <= 0.0 <= x[-1] else 0
    else:
        x0 = _scalar("x0", x0)
        i0 = int(np.argmin(np.abs(x - x0)))
        if abs(x[i0] - x0) > 1e-9 * max(1.0, x[-1] - x[0]):
            raise PreconditionViolated(f"x0 = {x0:g} is not a grid point")

    phi = np.empty_like(x)
    phi[i0] = phi0

    def march(i, step):
        """phi after each step i -> i + step, from phi0 at i[0].

        b/a and c/a are sampled once, on arrays, at the stage abscissae t,
        t + dt/2 and t + dt; the steps then run on Python floats in the
        order of operations of phi' below, so an overflow gives inf, not a
        warning.
        """
        t = x[i]
        dt = x[i + step] - t
        stages = np.concatenate([t, t + dt / 2.0, t + dt])
        a = opbar.a(stages)
        # a > 0 holds on the grid only: a zero between grid points makes a
        # coefficient non-finite, and the march then raises BlowUp
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            B = (opbar.b(stages) / a).reshape(3, -1).tolist()
            C = (opbar.c(stages) / a).reshape(3, -1).tolist()
        p, out = float(phi0), []
        for h, b0, bh, b1, c0, ch, c1 in zip(dt.tolist(), *B, *C):
            k1 = -p * p - b0 * p - c0
            q = p + h * k1 / 2.0
            k2 = -q * q - bh * q - ch
            q = p + h * k2 / 2.0
            k3 = -q * q - bh * q - ch
            q = p + h * k3
            k4 = -q * q - b1 * q - c1
            p = p + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            if not math.isfinite(p) or abs(p) > guard:
                where = float(x[i[len(out)] + step])
                raise BlowUp(where, p if math.isfinite(p) else math.inf)
            out.append(p)
        return out

    phi[i0 + 1 :] = march(np.arange(i0, x.shape[0] - 1), 1)
    phi[:i0] = march(np.arange(i0, 0, -1), -1)[::-1]

    psi = np.empty_like(x)
    psi[i0] = 0.0
    seg = np.diff(x) * (phi[1:] + phi[:-1]) / 2.0
    psi[i0 + 1 :] = np.cumsum(seg[i0:])
    psi[:i0] = -np.cumsum(seg[:i0][::-1])[::-1]

    bt = 2.0 * av * phi + bv  # drift b + 2 a h'/h of the conjugate by h = e^psi, h'/h = phi
    dphi = -phi * phi - (bv / av) * phi - cv / av  # the Riccati equation solved for phi'
    return RiccatiResult(grid=x, phi=phi, psi=psi, b_tilde=bt, phi_prime=dphi)


class Discretization(_Record):
    """The finite-volume operator as a birth-death chain on the kept nodes.

    birth, death and killing = c(x_i) are as BirthDeathSpec.rate_arrays gives them, but
    birth[-1] and death[0] are the rates out through a Dirichlet end, 0 at a Neumann end.
    """

    x: np.ndarray
    birth: np.ndarray
    death: np.ndarray
    killing: np.ndarray
    boundary: tuple

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]

    def lowest(self, k: int = 5):
        """Lowest k eigenvalues of the generator (0 >= l_0 >= l_1 >= ...)."""
        from .spectra import _tridiag, lowest_eigs_tridiag

        return -lowest_eigs_tridiag(*_tridiag(self.birth, self.death, self.killing), k)

    def matrix(self) -> np.ndarray:
        """Dense generator matrix L: the rates off the diagonal, killing - birth - death on it."""
        k = np.arange(self.n_nodes - 1)
        L = np.diag(self.killing - self.birth - self.death)
        L[k, k + 1], L[k + 1, k] = self.birth[:-1], self.death[1:]
        return L


def discretize(op: Operator1D) -> Discretization:
    """Finite-volume chain of L = (d/dmu)(d/dnu-hat) + c on op.grid.

    Cell masses are m = (e^C / a) width and face conductances w = e^C / dx
    with C = int b/a accumulated by Simpson's rule on quarter points.  The
    rate across a face, w over the mass it leaves, is formed once as
    e^(C - log m) / dx: no mass is formed.  Dirichlet ends drop the boundary
    node; the severed coupling stays as a rate out.  Emits GridTooCoarse
    when the cell Peclet number |b| dx / a exceeds 2.
    """
    x = op.grid
    bc = tuple(op.boundary)
    M = x.shape[0] - 1
    keep = slice(1 if bc[0] == "dirichlet" else 0, M if bc[1] == "dirichlet" else None)
    idx = np.arange(M + 1)[keep]
    if idx.shape[0] < 2:
        raise InvalidArgument(f"{M} cells with {bc[0]} and {bc[1]} ends leave fewer than "
                              "two interior nodes")
    dx = np.diff(x)
    # a > 0 holds on the grid only: a zero of a between nodes, or a coefficient
    # past float range, makes a rate non-finite, which the eigensolvers
    # refuse, so numpy need not warn
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        av, bv, cv = op.coefficients()
        pe = np.abs(bv[:-1]) * dx / av[:-1]
        if np.any(pe > 2.0):
            warnings.warn(
                f"cell Peclet number reaches {np.max(pe):.3g} > 2; "
                "refine the grid for trustworthy low modes",
                GridTooCoarse,
                stacklevel=2,
            )
        # C at nodes and faces: Simpson over each half-interval, with b/a sampled
        # once at the 4M + 1 abscissae node, quarter point, face, quarter point, ...
        faces = (x[:-1] + x[1:]) / 2.0
        t = np.empty(4 * M + 1)
        t[0::4] = x
        t[1::4] = (x[:-1] + faces) / 2.0
        t[2::4] = faces
        t[3::4] = (faces + x[1:]) / 2.0
        g = op.b(t) / op.a(t)
        half = dx / 2.0
        C = np.empty(2 * M + 1)
        C[0] = 0.0
        C[1::2] = half / 6.0 * (g[0:-1:4] + 4.0 * g[1::4] + g[2::4])
        C[2::2] = half / 6.0 * (g[2::4] + 4.0 * g[3::4] + g[4::4])
        C = np.cumsum(C)

        width = np.empty(M + 1)
        width[1:-1] = (x[2:] - x[:-2]) / 2.0
        width[0] = dx[0] / 2.0
        width[-1] = dx[-1] / 2.0
        lm = C[0::2] + np.log(width / av)  # log mass
        up, down = np.exp(C[1::2] - lm[:-1]) / dx, np.exp(C[1::2] - lm[1:]) / dx
    return Discretization(x=x[idx], birth=np.append(up, 0.0)[idx],
                          death=np.append(0.0, down)[idx], killing=cv[idx], boundary=bc)


class EigenCheck(_Record):
    n: int
    residual: float
    bound: float
    passed: bool


def verify_lh_eigen(h: SmoothFunction, n_max: int = 10, grid=None) -> list:
    """Residuals of the conjugated oscillator identity on h H_n.

    The operator (1/2) d2/dx2 - (x + h'/h) d/dx + [(h'/h)^2 + x h'/h
    - h''/(2h)] annihilates h H_n shifted by n: the residual r_n =
    L^h (h H_n) + n (h H_n) vanishes identically; each row reports its
    sup-norm over the grid and passes at 1e-8 (1 + sup|h H_n|).
    """
    from ._hermite import hermite_polys

    x = np.linspace(-8.0, 8.0, 1601) if grid is None else _grid("grid", grid, 1)
    hv, h1, h2 = h(x)
    _check_nonzero(hv, x)
    phi = h1 / hv
    drift = -(x + phi)
    pot = phi * phi + x * phi - h2 / (2.0 * hv)
    rows = []
    for n, H in enumerate(hermite_polys(n_max)):
        Hv = H(x)
        H1 = H.diff(1)(x)
        H2 = H.diff(2)(x)
        g = hv * Hv
        g1 = h1 * Hv + hv * H1
        g2 = h2 * Hv + 2.0 * h1 * H1 + hv * H2
        r = 0.5 * g2 + drift * g1 + pot * g + n * g
        sup_r = float(np.max(np.abs(r)))
        bound = 1e-8 * (1.0 + float(np.max(np.abs(g))))
        rows.append(EigenCheck(n=n, residual=sup_r, bound=bound, passed=sup_r <= bound))
    return rows


def ou_multiplicity(n: int, d: int) -> int:
    """Number of d-tuples of nonnegative integers summing to n, exactly."""
    n, d = _count("n", n, 0), _count("d", d, 1)
    return math.comb(n + d - 1, d - 1)
