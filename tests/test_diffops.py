import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from isospec import (
    BlowUp,
    GridTooCoarse,
    NotHarmonicAt,
    Operator1D,
    PolyGauss,
    PreconditionViolated,
    SmoothFunction,
    ZeroH,
    compile_expression,
    discretize,
    forward_transform,
    forward_transform_points,
    hermite_defining_residual,
    hermite_polys,
    ou_multiplicity,
    riccati_dual,
    verify_lh_eigen,
)
from isospec.diffops import inverse_transform
from isospec.errors import InvalidArgument


# ---------------------------------------------------------------- hermite

def test_hermite_first_five_by_hand():
    H = hermite_polys(4)
    assert H[0].coeffs == (1,)
    assert H[1].coeffs == (0, 2)
    assert H[2].coeffs == (-2, 0, 4)
    assert H[3].coeffs == (0, -12, 0, 8)
    assert H[4].coeffs == (12, 0, -48, 0, 16)


def test_hermite_against_sympy():
    # the package builds these from the recurrence over Fractions; sympy
    # expands them symbolically, so agreement is an independent check
    x = sp.Symbol("x")
    ours = hermite_polys(12)
    for n in range(13):
        ref = sp.Poly(sp.hermite(n, x), x).all_coeffs()[::-1]
        assert [Fraction(int(c)) for c in ref] == list(ours[n].coeffs)


def test_hermite_defining_identity_exact():
    for n in range(21):
        assert all(c == 0 for c in hermite_defining_residual(n))


def test_hermite_degree_guard():
    with pytest.raises(PreconditionViolated):
        hermite_polys(61)
    with pytest.raises(InvalidArgument, match="n_max = -1 outside 0..60"):
        hermite_polys(-1)
    assert len(hermite_polys(60)) == 61


# ---------------------------------------------------------------- polygauss

def test_polygauss_diff_matches_sympy():
    x = sp.Symbol("x")
    for s in (Fraction(1, 2), Fraction(1)):
        p = PolyGauss((1, -2, 0, 3), s)
        expr = (1 - 2 * x + 3 * x**3) * sp.exp(-sp.Rational(s) * x**2)
        dp = p.diff()
        ref = sp.lambdify(x, sp.diff(expr, x), "numpy")
        xs = np.linspace(-2.0, 2.0, 41)
        assert np.allclose(dp(xs), ref(xs), rtol=1e-13, atol=1e-13)


def test_polygauss_algebra():
    p = PolyGauss((1, 2))
    q = PolyGauss((0, 0, 3))
    assert p.add(q).coeffs == (1, 2, 3)
    assert p.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 1)
    assert p.mul_x().coeffs == (0, 1, 2)
    assert p.degree == 1 and q.degree == 2
    with pytest.raises(PreconditionViolated):
        p.add(PolyGauss((1,), Fraction(1)))
    with pytest.raises(PreconditionViolated):
        PolyGauss((1,), Fraction(1, 3))


def test_polygauss_eval_scalar_and_array():
    p = PolyGauss((1, 0, 1), Fraction(1, 2))  # (1 + x^2) e^{-x^2/2}
    assert p(0.0) == 1.0
    xs = np.array([0.0, 1.0])
    ref = (1 + xs**2) * np.exp(-(xs**2) / 2)
    assert np.allclose(p(xs), ref, rtol=1e-15)


def test_polygauss_trailing_zeros_trimmed():
    assert PolyGauss((1, 2, 0, 0)).coeffs == (1, 2)


# ---------------------------------------------------------------- smooth

def test_smooth_from_expression_triple():
    h = SmoothFunction.from_expression("exp(-x^2/2)")
    xs = np.linspace(-1.0, 1.0, 11)
    hv, h1, h2 = h(xs)
    assert np.allclose(h1, -xs * hv, rtol=1e-13)
    assert np.allclose(h2, (xs**2 - 1) * hv, rtol=1e-12, atol=1e-14)


def test_smooth_from_values_fd_accuracy():
    xs = np.linspace(-1.0, 1.0, 2001)
    h = SmoothFunction.from_values(xs, np.exp(xs))
    mid = np.linspace(-0.5, 0.5, 7)
    hv, h1, h2 = h(mid)
    assert np.max(np.abs(h1 - np.exp(mid))) < 1e-5
    assert np.max(np.abs(h2 - np.exp(mid))) < 1e-2


def test_smooth_from_values_needs_matching_arrays():
    with pytest.raises(PreconditionViolated):
        SmoothFunction.from_values(np.arange(4.0), np.arange(4.0))
    with pytest.raises(PreconditionViolated):
        SmoothFunction.from_values(np.arange(6.0), np.arange(5.0))


_ONE = SmoothFunction(h=1.0, h1=0.0, h2=0.0)
_X = np.linspace(-1.0, 1.0, 9)

# name -> (call of a grid or sampled values, the malformed arguments and what each raises)
_GRIDS = {
    "Operator1D": (lambda g: Operator1D(a=1.0, b=0.0, c=0.0, grid=g), [
        ([0.0, np.nan, 1.0], PreconditionViolated, "NaN or infinite"),
        ([0.0, 1.0, np.inf], PreconditionViolated, "NaN or infinite"),
        ([[0.0, 1.0], [2.0, 3.0]], InvalidArgument, "flat array"),
        (["0", "x"], InvalidArgument, "only numbers"),
    ]),
    "from_values-grid": (lambda g: SmoothFunction.from_values(g, np.ones(5)), [
        ([0.0, 1.0, np.nan, 3.0, 4.0], PreconditionViolated, "NaN or infinite"),
        (["a"] * 5, InvalidArgument, "only numbers"),
    ]),
    "from_values-values": (lambda v: SmoothFunction.from_values(np.arange(5.0), v), [
        ([1.0, 2.0, np.nan, 4.0, 5.0], PreconditionViolated, "NaN or infinite"),
        ([1.0, 2.0, np.inf, 4.0, 5.0], PreconditionViolated, "NaN or infinite"),
        (["a"] * 5, InvalidArgument, "only numbers"),
    ]),
    "verify_lh_eigen": (lambda g: verify_lh_eigen(_ONE, n_max=2, grid=g), [
        ([[0.0, 1.0], [2.0, 3.0]], InvalidArgument, "flat array"),
        ([], InvalidArgument, "flat array"),
        ([0.0, np.nan], PreconditionViolated, "NaN or infinite"),
        ([1.0, 0.0], InvalidArgument, "strictly increasing"),
    ]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", _GRIDS)
def test_grids_are_flat_finite_and_increasing(name):
    call, cases = _GRIDS[name]
    call(np.linspace(-1.0, 1.0, 5))
    for bad, raised, text in cases:
        with pytest.raises(raised, match=text):
            call(bad)


@pytest.mark.filterwarnings("error")
def test_an_interval_wider_than_float_range_is_refused():
    # both ends are finite, but hi - lo is not: linspace would warn and return NaN
    with pytest.raises(InvalidArgument, match=r"hi - lo is not finite"):
        Operator1D.on_interval(0.5, 0.0, 0.0, -1e308, 1e308, 10)


# ---------------------------------------------------------------- operator

def test_operator_validation():
    with pytest.raises(PreconditionViolated):
        Operator1D(a=1.0, b=0.0, c=0.0, grid=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(PreconditionViolated):
        Operator1D(a=1.0, b=0.0, c=0.0, grid=np.linspace(0, 1, 5),
                   boundary=("neumann", "clamped"))
    with pytest.raises(PreconditionViolated):
        Operator1D(a=lambda x: x, b=0.0, c=0.0, grid=np.linspace(0.0, 1.0, 5))


def test_operator_on_interval_and_coefficients():
    op = Operator1D.on_interval(0.5, "-x", 0.0, -1.0, 1.0, 10)
    assert op.grid.shape == (11,)
    av, bv, cv = op.coefficients(np.array([0.25]))
    assert av[0] == 0.5 and bv[0] == -0.25 and cv[0] == 0.0


# ---------------------------------------------------------------- transforms

def _family_one(gamma, V):
    # gamma (d2 + V(x) d - V(x)/x), harmonic h(x) = x on (0, inf)
    return Operator1D.on_interval(
        gamma,
        lambda x: gamma * V(x),
        lambda x: -gamma * V(x) / x,
        0.5, 2.0, 200,
    )


def test_forward_family_one_closed_form():
    gamma = 0.6
    V = lambda x: 0.3 - 0.2 * x + 0.1 * x**2
    op = _family_one(gamma, V)
    h = SmoothFunction(h=lambda x: x, h1=lambda x: 1.0 + 0.0 * x, h2=0.0)
    out = forward_transform(op, h)
    x = op.grid
    assert np.allclose(out.b(x), gamma * V(x) + 2.0 * gamma / x, rtol=1e-14)
    assert np.all(out.c(x) == 0.0)
    assert np.allclose(out.a(x), gamma, rtol=0)


def test_evaluators_are_not_wrapped_again():
    # a transformed operator keeps op.a, and a SmoothFunction keeps compiled
    # evaluators, instead of nesting one more wrapper per construction
    op = _family_one(0.6, lambda x: 0.3 + 0.0 * x)
    h = SmoothFunction(h=lambda x: x, h1=lambda x: 1.0 + 0.0 * x, h2=0.0)
    out = forward_transform(op, h)
    assert out.a is op.a
    assert Operator1D(a=out.a, b=out.b, c=out.c, grid=out.grid).b is out.b
    e = compile_expression("exp(-x^2/2)")
    assert SmoothFunction(h=e.fn, h1=e.fn, h2=e.fn).h is e.fn


def test_forward_family_two_constant_drift():
    gamma = 0.45
    op = Operator1D.on_interval(
        lambda x: gamma * x, gamma, lambda x: -4.0 * gamma / x, 0.5, 2.0, 150
    )
    h = SmoothFunction(h=lambda x: x**2, h1=lambda x: 2.0 * x, h2=2.0)
    out = forward_transform(op, h)
    x = op.grid
    assert np.max(np.abs(out.b(x) - 5.0 * gamma)) < 1e-13


def test_forward_rejects_non_harmonic_h():
    op = _family_one(0.5, lambda x: 0.4 + 0.0 * x)
    h = SmoothFunction(h=lambda x: x**2, h1=lambda x: 2.0 * x, h2=2.0)
    with pytest.raises(NotHarmonicAt):
        forward_transform(op, h)


def test_forward_rejects_vanishing_h():
    op = Operator1D.on_interval(1.0, 0.0, 0.0, -1.0, 1.0, 20)
    h = SmoothFunction(h=lambda x: x, h1=lambda x: 1.0 + 0.0 * x, h2=0.0)
    with pytest.raises(ZeroH):
        forward_transform(op, h)


def test_inverse_paths_agree_and_recover():
    # strip the OU drift via h = e^{-x^2/2}: the conjugate is the killed
    # oscillator (1/2) d2 + (1 - x^2)/2, and the forward map undoes it
    ou = Operator1D.on_interval(0.5, "-x", 0.0, -3.0, 3.0, 300)
    h = SmoothFunction.from_expression("exp(-x^2/2)")
    x = ou.grid
    inv = inverse_transform(ou, h)
    # the logarithmic form with psi = log h: c = a (psi'^2 - psi'') - b~ psi'
    hv, h1, h2 = h(x)
    p1 = h1 / hv
    p2 = h2 / hv - p1 * p1
    via_psi_c = ou.a(x) * (p1 * p1 - p2) - ou.b(x) * p1
    via_psi_b = ou.b(x) - 2.0 * ou.a(x) * p1
    assert np.max(np.abs(inv.c(x) - via_psi_c)) < 1e-12
    assert np.max(np.abs(inv.b(x) - via_psi_b)) < 1e-12
    assert np.max(np.abs(inv.c(x) - (1.0 - x**2) / 2.0)) < 1e-12
    assert np.max(np.abs(inv.b(x))) < 1e-12
    back = forward_transform(inv, h, tol=1e-10)
    assert np.max(np.abs(back.b(x) - (-x))) < 1e-12
    assert np.all(back.c(x) == 0.0)


def test_inverse_requires_zero_potential():
    op = Operator1D.on_interval(1.0, 0.0, -0.5, 0.0, 1.0, 10)
    h = SmoothFunction.from_expression("exp(x)")
    with pytest.raises(PreconditionViolated):
        inverse_transform(op, h)


def _killed_oscillator(theta, M):
    """The benchmark's killed oscillator (1/2) f'' + (theta - theta^2 x^2)/2 f."""
    t = repr(theta)
    half = 3.0 / np.sqrt(theta)
    op = Operator1D.on_interval(0.5, 0, f"({t} - {t}^2*x^2)/2", -half, half, M)
    return op, SmoothFunction.from_expression(f"exp(-{t}*x^2/2)")


def test_conjugation_keeps_the_bits_of_the_written_out_formulas():
    # the formulas written out, bit for bit: drift b + 2 a h'/h, residual
    # |a h'' + b h' + c h|, inverse drift b - 2 a h'/h and Riccati b~ = 2 a phi + b
    # a callable operator with the harmonic h = e^{x^2/2}: (1 + x^2/4) h'' + x h' + c h = 0
    callable_op = Operator1D.on_interval(lambda x: 1.0 + x * x / 4.0, lambda x: x,
                                         lambda x: -(1.0 + x * x / 4.0) * (1.0 + x * x) - x * x,
                                         -1.0, 1.3, 301)
    gauss = SmoothFunction(h=lambda x: np.exp(x * x / 2.0), h1=lambda x: x * np.exp(x * x / 2.0),
                           h2=lambda x: (1.0 + x * x) * np.exp(x * x / 2.0))
    cases = [_killed_oscillator(1.37, 500), _killed_oscillator(0.61, 1000),
             (callable_op, gauss)]
    for op, h in cases:
        x = op.grid
        av, bv, cv = op.coefficients()
        hv, h1, h2 = h(x)
        res = np.abs(av * h2 + bv * h1 + cv * hv)
        i = int(np.argmax(res))
        # at tol 0 even the rounding noise of a harmonic h is named
        with pytest.raises(NotHarmonicAt) as ei:
            forward_transform(op, h, tol=0.0)
        assert (ei.value.x, ei.value.residual) == (float(x[i]), float(res[i]))
        got = forward_transform(op, h, tol=np.inf).b(x)
        assert np.array_equal(got, bv + 2.0 * av * h1 / hv)
        free = Operator1D(a=op.a, b=op.b, c=0.0, grid=x)
        assert np.array_equal(inverse_transform(free, h).b(x), bv - 2.0 * av * h1 / hv)
        rr = riccati_dual(op, 0.0)
        assert np.array_equal(rr.b_tilde, 2.0 * av * rr.phi + bv)
        forward_transform(op, h)  # h is harmonic at the default tolerance


def test_forward_points_exponential_h_in_dimension_three():
    rng = np.random.default_rng(41)
    w = np.array([0.3, -0.5, 0.2])
    P, d = 40, 3
    pts = rng.normal(size=(P, d))
    hv = np.exp(pts @ w)
    grad = hv[:, None] * w[None, :]
    hess = hv[:, None, None] * np.outer(w, w)[None, :, :]
    a = 0.5 * np.eye(d)
    b = np.zeros((P, d))
    c = np.full(P, -0.5 * float(w @ w))
    bt = forward_transform_points(a, b, c, hv, grad, hess)
    assert np.max(np.abs(bt - w[None, :])) < 1e-12


def test_forward_points_flags_non_harmonic():
    P, d = 5, 2
    hv = np.ones(P)
    grad = np.zeros((P, d))
    hess = np.zeros((P, d, d))
    for c in (1.0, math.nan):  # c h != 0, or NaN, while derivatives vanish
        with pytest.raises(NotHarmonicAt):
            forward_transform_points(np.eye(d), np.zeros((P, d)), np.full(P, c), hv, grad,
                                     hess)


# ---------------------------------------------------------------- riccati

def test_riccati_harmonic_oscillator_recovers_ou_drift():
    op = Operator1D.on_interval(
        0.5, 0.0, lambda x: (1.0 - x**2) / 2.0, -3.0, 3.0, 6000
    )
    res = riccati_dual(op, phi0=0.0)
    assert np.max(np.abs(res.b_tilde - (-res.grid))) < 1e-8
    assert np.max(np.abs(res.phi - (-res.grid))) < 1e-8


def test_riccati_smooth_modes_agree():
    op = Operator1D.on_interval(
        0.5, 0.0, lambda x: (1.0 - x**2) / 2.0, -2.0, 2.0, 4000
    )
    res = riccati_dual(op, phi0=0.0)
    x = np.linspace(-1.5, 1.5, 11)
    ode = res.smooth("ode")
    fd = res.smooth("fd")
    for got, ref in zip(ode(x), fd(x)):
        assert np.max(np.abs(got - ref)) < 1e-5
    with pytest.raises(PreconditionViolated):
        res.smooth("magic")


def test_riccati_blow_up_location():
    # phi' = -phi^2 - 5 from phi(0) = 0 is -sqrt(5) tan(sqrt(5) x),
    # reaching infinity at x = pi / (2 sqrt(5)) ~ 0.7025
    op = Operator1D.on_interval(1.0, 0.0, 5.0, -1.0, 1.0, 4000)
    with pytest.raises(BlowUp) as ei:
        riccati_dual(op, phi0=0.0)
    assert 0.65 < ei.value.x < 0.76


def test_riccati_anchor_off_grid_raises():
    op = Operator1D.on_interval(1.0, 0.0, 0.0, 0.0, 1.0, 10)
    with pytest.raises(PreconditionViolated):
        riccati_dual(op, phi0=0.0, x0=0.123456)


def _riccati_scalar(op, phi0, i0, guard=1e6):
    """phi by RK4 on numpy scalars, calling the coefficients at each stage.

    Returns phi, or ("blow-up", x, value) where |phi| first passes the guard.
    """
    x = op.grid

    def F(t, p):
        a = op.a(t)
        return -p * p - (op.b(t) / a) * p - op.c(t) / a

    phi = np.empty_like(x)
    phi[i0] = phi0
    with np.errstate(all="ignore"):
        for steps, s in ((range(i0, x.size - 1), 1), (range(i0, 0, -1), -1)):
            for i in steps:
                t, p, dt = x[i], phi[i], x[i + s] - x[i]
                k1 = F(t, p)
                k2 = F(t + dt / 2.0, p + dt * k1 / 2.0)
                k3 = F(t + dt / 2.0, p + dt * k2 / 2.0)
                k4 = F(t + dt, p + dt * k3)
                pn = p + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                if not np.isfinite(pn) or abs(pn) > guard:
                    value = float(pn) if np.isfinite(pn) else math.inf
                    return ("blow-up", float(x[i + s]), value)
                phi[i + s] = pn
    return phi


def _riccati_outcome(op, phi0, x0=None):
    try:
        return riccati_dual(op, phi0, x0=x0).phi
    except BlowUp as exc:
        return ("blow-up", exc.x, exc.value)


def test_riccati_march_matches_the_scalar_march_bit_for_bit():
    # no "^" in the coefficients: numpy gives the same bits on arrays and on scalars
    op = Operator1D.on_interval("1.5 + sin(x)", "cos(2*x) - x/3",
                                "exp(-x*x/2) - x*x/4 + log(2 + cos(x))/10",
                                -2.0, 2.5, 777)
    x = op.grid
    for x0, phi0 in ((None, 0.0), (None, 0.37), (x[0], -0.2), (x[-1], 0.6)):
        i0 = int(np.argmin(np.abs(x - (0.0 if x0 is None else x0))))
        got, want = _riccati_outcome(op, phi0, x0), _riccati_scalar(op, phi0, i0)
        assert np.array_equal(got, want), (x0, phi0)
    # phi' = -phi^2 - 5 - sin(x)/10 blows up near x = 0.7
    op = Operator1D.on_interval(1.0, 0.0, "5 + sin(x)/10", -1.0, 1.0, 4000)
    i0 = int(np.argmin(np.abs(op.grid)))
    got, want = _riccati_outcome(op, 0.0), _riccati_scalar(op, 0.0, i0)
    assert got == want and got[0] == "blow-up" and 0.6 < got[1] < 0.8


def test_riccati_dual_drift_and_phi_prime_follow_the_equation_bit_for_bit():
    # phi' = -phi^2 - (b/a) phi - c/a and b~ = 2 a phi + b on the grid
    ops = [Operator1D.on_interval("1.5 + sin(x)", "cos(2*x) - x/3",
                                  "exp(-x*x/2) - x*x/4 + log(2 + cos(x))/10",
                                  -1.0, 1.2, 777),
           Operator1D.on_interval(0.5, 0.0, lambda x: (1.0 - x**2) / 2.0, -2.0, 2.0, 400)]
    for op in ops:
        for phi0 in (0.0, -1e-3):
            rr = riccati_dual(op, phi0)
            x, phi = rr.grid, rr.phi
            a = op.a(x)
            assert np.array_equal(rr.phi_prime, -phi * phi - (op.b(x) / a) * phi - op.c(x) / a)
            assert np.array_equal(rr.b_tilde, 2.0 * a * phi + op.b(x))


def test_riccati_march_with_powers_agrees_to_rounding():
    # numpy's scalar ** calls C pow, whose last bit may differ from the array loop
    op = Operator1D.on_interval(0.5, "x^3/20", "(1.3 - 1.69*x^2)/2", -1.5, 1.5, 1500)
    got = riccati_dual(op, 0.1).phi
    want = _riccati_scalar(op, 0.1, int(np.argmin(np.abs(op.grid))))
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_riccati_huge_anchor_blows_up_without_warnings():
    op = Operator1D.on_interval(0.5, "-x", 0.0, -1.0, 1.0, 40)
    for phi0 in (1e300, -1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUp) as ei:
                riccati_dual(op, phi0)
        assert ei.value.value == math.inf and ei.value.x == op.grid[21]


# ---------------------------------------------------------------- discretize

def test_discretize_matrix_is_mu_symmetric():
    op = Operator1D.on_interval(
        lambda x: 1.0 + 0.2 * np.sin(x), "cos(x)", "-x^2/10", -1.0, 2.0, 60
    )
    dis = discretize(op)
    L = dis.matrix()
    W = dis.mu[:, None] * L
    assert np.max(np.abs(W - W.T)) < 1e-12 * np.max(np.abs(W))


def test_discretize_dirichlet_laplace_reference():
    op = Operator1D.on_interval(
        0.5, 0.0, 0.0, 0.0, 1.0, 200, boundary=("dirichlet", "dirichlet")
    )
    dis = discretize(op)
    assert dis.n_nodes == 199
    lam = dis.lowest(2)
    assert lam[0] == pytest.approx(-np.pi**2 / 2.0, rel=1e-4)
    assert lam[1] == pytest.approx(-4.0 * np.pi**2 / 2.0, rel=1e-3)


def test_discretize_neumann_kernel_exact():
    op = Operator1D.on_interval(0.5, 0.0, 0.0, 0.0, 1.0, 80)
    lam0 = discretize(op).lowest(1)[0]
    assert abs(lam0) < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("M, boundary", [(2, ("dirichlet", "dirichlet")),
                                         (1, ("neumann", "dirichlet"))])
def test_discretize_refuses_a_grid_without_two_interior_nodes(M, boundary):
    # b = 50 would also warn GridTooCoarse, had the refusal not come first
    op = Operator1D.on_interval(0.5, 50.0, 0.0, 0.0, 1.0, M, boundary=boundary)
    with pytest.raises(InvalidArgument, match=f"^{M} cells with .* fewer than two interior"):
        discretize(op)


def test_discretize_warns_on_coarse_grid():
    op = Operator1D.on_interval(0.01, 1.0, 0.0, 0.0, 1.0, 10)
    with pytest.warns(GridTooCoarse):
        discretize(op)


# ---------------------------------------------------------------- eigencheck

def test_verify_lh_eigen_trivial_h():
    rows = verify_lh_eigen(SmoothFunction(h=1.0, h1=0.0, h2=0.0), n_max=10)
    assert len(rows) == 11
    assert all(r.passed for r in rows)


def test_verify_lh_eigen_gaussian_h():
    rows = verify_lh_eigen(SmoothFunction.from_expression("exp(-x^2/2)"), n_max=10)
    assert all(r.passed for r in rows)
    assert rows[0].residual <= rows[0].bound


def test_verify_lh_eigen_custom_grid():
    rows = verify_lh_eigen(
        SmoothFunction(h=1.0, h1=0.0, h2=0.0),
        n_max=3,
        grid=np.linspace(-2.0, 2.0, 101),
    )
    assert [r.n for r in rows] == [0, 1, 2, 3]


# ---------------------------------------------------------------- counting

def test_ou_multiplicity_hand_values():
    assert ou_multiplicity(0, 1) == 1
    assert ou_multiplicity(0, 4) == 1
    assert ou_multiplicity(2, 2) == 3
    assert ou_multiplicity(3, 3) == 10
    assert ou_multiplicity(10, 4) == 286


def test_ou_multiplicity_rejects_bad_input():
    with pytest.raises(PreconditionViolated):
        ou_multiplicity(-1, 2)
    with pytest.raises(PreconditionViolated):
        ou_multiplicity(3, 0)
