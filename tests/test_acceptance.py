"""End-to-end acceptance checks, one test per shipped guarantee.

Each test appends a PASS/FAIL line to the terminal summary so the whole
gate is readable at a glance.  Tolerances and time budgets are part of
the contract and asserted literally.
"""
import itertools
import math
import time

import numpy as np
import pytest

from isospec import (
    BirthDeathSpec,
    Operator1D,
    SmoothFunction,
    bounds_report,
    conjugate,
    delta_tilde,
    discretize,
    forward_transform,
    h_transform,
    h_transform_local,
    hermite_defining_residual,
    inverse_transform,
    isospectral_check,
    lambda0_variational,
    minimal_harmonic,
    ou_multiplicity,
    quadratic_form,
    riccati_dual,
    spectral_radius,
    transform_measure,
    verify_lh_eigen,
)
from isospec.diffops import inverse_transform as diffop_inverse_transform
from conftest import exact_harmonic_pair, make_conservative, make_reversible_killed


def _record(log, num, ok, detail):
    log.append(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_spectrum_preserved_under_transform(acceptance_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_gap, worst_budget = 0.0, np.inf
    for _ in range(50):
        n = int(rng.integers(3, 31))
        qp, mu = make_reversible_killed(rng, n)
        hv, _ = minimal_harmonic(qp, 0, method="solve")
        qpt = h_transform_local(qp, hv.values,
                                harmonic_set=tuple(hv.harmonic_set))
        mut = transform_measure(mu, hv.values)
        rep = isospectral_check(qp, mu, qpt, mut)
        budget = 1e-9 * (1.0 + spectral_radius(qp, mu))
        if rep.max_pair_gap > worst_gap:
            worst_gap, worst_budget = rep.max_pair_gap, budget
        assert rep.max_pair_gap <= budget
    dt = time.perf_counter() - t0
    ok = worst_gap <= worst_budget and dt < 10.0
    _record(acceptance_log, 1, ok,
            f"50 chains, worst gap {worst_gap:.2e} <= {worst_budget:.2e}, "
            f"{dt:.2f}s < 10s")


def test_criterion_2_quadratic_form_identity(acceptance_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 25))
        qp, mu = make_reversible_killed(rng, n)
        h = np.exp(rng.uniform(-1.0, 1.0, n))
        qpc = conjugate(qp, h)
        muc = transform_measure(mu, h)
        for _ in range(20):
            g = rng.normal(size=n)
            lhs = quadratic_form(qpc, muc, g)
            rhs = quadratic_form(qp, mu, h * g)
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
            worst = max(worst, rel)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 5.0
    _record(acceptance_log, 2, ok,
            f"1000 pairs, worst relative gap {worst:.2e} <= 1e-10, "
            f"{dt:.2f}s < 5s")


def test_criterion_3_round_trips(acceptance_log):
    rng = np.random.default_rng(13)

    def rel_gap(A, B):
        return np.max(np.abs(A - B)) / (1.0 + np.max(np.abs(B)))

    worst_chain = 0.0
    for _ in range(25):
        n = int(rng.integers(3, 20))
        qp, h = exact_harmonic_pair(rng, n)
        back = inverse_transform(h_transform(qp, h), h)
        worst_chain = max(worst_chain,
                          rel_gap(back.rates, qp.rates),
                          rel_gap(back.total, qp.total),
                          rel_gap(back.killing, qp.killing))
    for _ in range(25):
        n = int(rng.integers(3, 20))
        qp = make_conservative(rng, n)
        h = np.exp(rng.uniform(-1.0, 1.0, n))
        back = h_transform(inverse_transform(qp, h), h)
        worst_chain = max(worst_chain,
                          rel_gap(back.rates, qp.rates),
                          rel_gap(back.total, qp.total),
                          rel_gap(back.killing, qp.killing))

    worst_op = 0.0
    x = np.linspace(-2.0, 2.0, 51)
    for _ in range(20):
        abar = float(rng.uniform(0.5, 2.0))
        b0, b1 = rng.uniform(-1.0, 1.0, 2)
        w1, w2 = rng.uniform(-0.5, 0.5, 2)
        h = SmoothFunction(
            h=lambda t, w1=w1, w2=w2: np.exp(w1 * t + w2 * t * t),
            h1=lambda t, w1=w1, w2=w2: (w1 + 2 * w2 * t) * np.exp(w1 * t + w2 * t * t),
            h2=lambda t, w1=w1, w2=w2: ((w1 + 2 * w2 * t) ** 2 + 2 * w2)
            * np.exp(w1 * t + w2 * t * t),
        )
        opt = Operator1D(a=abar, b=lambda t, b0=b0, b1=b1: b0 + b1 * t,
                         c=0.0, grid=x)
        fwd = forward_transform(diffop_inverse_transform(opt, h), h)
        worst_op = max(worst_op,
                       rel_gap(fwd.b(x), opt.b(x)),
                       float(np.max(np.abs(fwd.c(x)))))
    ok = worst_chain <= 1e-12 and worst_op <= 1e-12
    _record(acceptance_log, 3, ok,
            f"50 chain + 20 operator fixtures, worst gaps "
            f"{worst_chain:.2e} / {worst_op:.2e} <= 1e-12")


FAMILIES = [
    ("constant", BirthDeathSpec(birth=1.0, death=1.0, killing=-1.0),
     (math.sqrt(5.0) - 1.0) / 2.0),
    ("linear", BirthDeathSpec(birth=lambda i: float(i + 1),
                              death=lambda i: 2.0 * i, killing=-1.0),
     math.log(2.0)),
    ("geometric", BirthDeathSpec(birth=lambda i: 1.1**i,
                                 death=lambda i: 1.1 ** (i - 1), killing=-1.0),
     0.6151699046097924),
]


def _random_family(seed, blo, bhi, alo, ahi, kill):
    rng = np.random.default_rng(seed)
    barr = rng.uniform(blo, bhi, 4002)
    aarr = rng.uniform(alo, ahi, 4002)
    return BirthDeathSpec(birth=barr, death=aarr, killing=kill)


def test_criterion_4_hardy_bounds_on_five_families(acceptance_log):
    t0 = time.perf_counter()
    families = FAMILIES + [
        ("random-1", _random_family(20577, 0.5, 1.0, 1.0, 1.5, -1.0),
         0.7399419418984241),
        ("random-2", _random_family(3141, 0.8, 1.2, 1.3, 1.7, -0.5),
         1.2395196104912665),
    ]
    lines = []
    for name, spec, delta_ref in families:
        rep = bounds_report(spec, N_max=4000)
        lam = dict(rep.truncation_levels)
        rel = abs(lam[4000] - lam[2000]) / abs(lam[4000])
        assert rep.delta_tilde == pytest.approx(delta_ref, rel=1e-12), name
        assert rel <= 1e-6, name
        assert rep.containment, name
        assert rep.lower - 1e-6 <= lam[4000] <= rep.upper + 1e-6, name
        lines.append(f"{name} ok")
    dt = time.perf_counter() - t0
    ok = len(lines) == 5 and dt < 30.0
    _record(acceptance_log, 4, ok,
            f"5 families contained with rel agreement <= 1e-6, {dt:.2f}s < 30s")


def test_criterion_5_free_walk_degenerates(acceptance_log):
    t0 = time.perf_counter()
    spec = BirthDeathSpec(birth=1.0, death=1.0, killing=0.0)
    res = delta_tilde(spec, np.ones(4098))
    lam = lambda0_variational(spec, 10_000)
    dt = time.perf_counter() - t0
    ok = math.isinf(res.value) and lam <= 1e-3 and dt < 10.0
    _record(acceptance_log, 5, ok,
            f"delta diverges, lambda0(10^4) = {lam:.2e} <= 1e-3, "
            f"{dt:.2f}s < 10s")


def test_criterion_6_oscillator_eigenfunctions(acceptance_log):
    for n in range(21):
        assert all(c == 0 for c in hermite_defining_residual(n)), n

    candidates = {
        "h = 1": SmoothFunction(h=1.0, h1=0.0, h2=0.0),
        "gaussian": SmoothFunction.from_expression("exp(-x^2/2)"),
        "pendulum": SmoothFunction(
            h=lambda x: np.exp(1.0 - np.cos(x) - x * x / 2.0),
            h1=lambda x: (np.sin(x) - x) * np.exp(1.0 - np.cos(x) - x * x / 2.0),
            h2=lambda x: ((np.cos(x) - 1.0) + (np.sin(x) - x) ** 2)
            * np.exp(1.0 - np.cos(x) - x * x / 2.0),
        ),
    }
    worst = 0.0
    for name, h in candidates.items():
        rows = verify_lh_eigen(h, n_max=10)
        assert all(r.passed for r in rows), name
        worst = max(worst, max(r.residual / r.bound for r in rows))
    _record(acceptance_log, 6, True,
            f"exact identity n <= 20; three h candidates pass, "
            f"worst residual at {worst:.2f} of bound")


def test_criterion_7_riccati_dual_drift(acceptance_log):
    op = Operator1D.on_interval(
        0.5, 0.0, lambda x: (1.0 - x * x) / 2.0, -3.0, 3.0, 6000
    )
    res = riccati_dual(op, phi0=0.0)
    err_ou = float(np.max(np.abs(res.b_tilde - (-res.grid))))

    # generic potential built from phi*(x) = -(x^3 + 3x)/12; the inverse
    # transform sees only the sampled drift and finite-difference h, so
    # recovering the potential closes the loop without reusing the ODE
    phi_star = lambda x: -(x**3 + 3.0 * x) / 12.0
    dphi_star = lambda x: -(3.0 * x * x + 3.0) / 12.0
    cbar = lambda x: -0.5 * (dphi_star(x) + phi_star(x) ** 2)
    gen = Operator1D.on_interval(0.5, 0.0, cbar, -2.0, 2.0, 8000)
    rr = riccati_dual(gen, phi0=0.0)
    x = rr.grid
    bt = rr.b_tilde

    def b_tilde_fn(t, _x=x, _b=bt):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, _x, _b)
        return out if t.ndim else float(out)

    opt = Operator1D(a=0.5, b=b_tilde_fn, c=0.0, grid=x)
    rec = diffop_inverse_transform(opt, rr.smooth("fd"))
    interior = np.abs(x) <= 1.9
    err_rt = float(np.max(np.abs(rec.c(x)[interior] - cbar(x[interior]))))

    ok = err_ou <= 1e-8 and err_rt <= 1e-6
    _record(acceptance_log, 7, ok,
            f"oscillator drift error {err_ou:.2e} <= 1e-8, "
            f"round-trip residual {err_rt:.2e} <= 1e-6")


def test_criterion_8_ou_spectrum_and_refinement(acceptance_log):
    t0 = time.perf_counter()
    target = -np.arange(5.0)
    ou = Operator1D.on_interval(0.5, "-x", 0.0, -6.0, 6.0, 2000)
    lam = discretize(ou).lowest(5)
    err = float(np.max(np.abs(lam - target)))

    # two discretization routes of the same spectrum: plain killed
    # oscillator versus its drift form; their eigenvalue gaps shrink at
    # the advertised second order
    h = SmoothFunction.from_expression("exp(-x^2/2)")
    gaps = {}
    for M in (1000, 2000):
        osc = Operator1D.on_interval(
            0.5, 0.0, lambda x: (1.0 - x * x) / 2.0, -6.0, 6.0, M
        )
        drift = forward_transform(osc, h)
        gaps[M] = np.abs(discretize(osc).lowest(5) - discretize(drift).lowest(5))
    assert np.all(gaps[2000] > 0.0)
    ratios = gaps[1000] / gaps[2000]
    dt = time.perf_counter() - t0
    ok = err <= 1e-3 and np.all((ratios >= 3.5) & (ratios <= 4.5)) and dt < 20.0
    _record(acceptance_log, 8, ok,
            f"lowest five within {err:.1e} of 0..-4; refinement ratios "
            f"{np.min(ratios):.3f}..{np.max(ratios):.3f} in [3.5, 4.5], "
            f"{dt:.2f}s < 20s")


def test_criterion_9_closed_form_families_and_multiplicity(acceptance_log):
    rng = np.random.default_rng(19)
    x = np.linspace(0.5, 2.0, 61)
    h_lin = SmoothFunction(h=lambda t: t, h1=lambda t: 1.0 + 0.0 * t, h2=0.0)
    h_sq = SmoothFunction(h=lambda t: t * t, h1=lambda t: 2.0 * t, h2=2.0)
    worst = 0.0
    for _ in range(60):
        gamma = float(rng.uniform(0.2, 0.8))
        v0, v1, v2 = rng.uniform(-0.6, 0.6, 3)
        V = lambda t, v0=v0, v1=v1, v2=v2: v0 + v1 * t + v2 * t * t

        op1 = Operator1D(a=gamma, b=lambda t, g=gamma, V=V: g * V(t),
                         c=lambda t, g=gamma, V=V: -g * V(t) / t, grid=x)
        out1 = forward_transform(op1, h_lin)
        worst = max(worst, float(np.max(np.abs(
            out1.b(x) - (gamma * V(x) + 2.0 * gamma / x)))))

        op2 = Operator1D(a=lambda t, g=gamma: g * t, b=gamma,
                         c=lambda t, g=gamma: -4.0 * g / t, grid=x)
        out2 = forward_transform(op2, h_sq)
        worst = max(worst, float(np.max(np.abs(out2.b(x) - 5.0 * gamma))))

    count_ok = True
    for d in range(1, 5):
        for n in range(11):
            brute = sum(
                1 for t in itertools.product(range(n + 1), repeat=d)
                if sum(t) == n
            )
            count_ok = count_ok and brute == ou_multiplicity(n, d)
    ok = worst <= 1e-13 and count_ok
    _record(acceptance_log, 9, ok,
            f"60 randomized fixtures, worst drift residual {worst:.2e} "
            f"<= 1e-13; multiplicities match brute force for n <= 10, d <= 4")
