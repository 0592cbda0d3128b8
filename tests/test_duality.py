import numpy as np
import pytest

from isospec import (
    BirthDeathSpec,
    NonpositiveH,
    NotHarmonic,
    NotLocallyHarmonic,
    Overflow,
    PreconditionViolated,
    bd_h_transform,
    bd_harmonic_explicit,
    bd_measures,
    bd_to_qpair,
    conjugate,
    eig_sym,
    h_transform,
    h_transform_local,
    inverse_transform,
    isospectral_check,
    measure_dual,
    minimal_harmonic,
    symmetrize,
    transform_measure,
    validate_qpair,
)
from isospec.chains import bd_to_band, validate_band
from conftest import exact_harmonic_pair, make_conservative, make_reversible_killed


def test_conjugate_preserves_spectrum_for_any_positive_h():
    # exact similarity: no harmonicity assumed
    rng = np.random.default_rng(42)
    for _ in range(15):
        n = int(rng.integers(3, 20))
        qp, mu = make_reversible_killed(rng, n)
        h = np.exp(rng.uniform(-1.5, 1.5, n))
        qt = conjugate(qp, h)
        rep = isospectral_check(qp, mu, qt, mu * h**2)
        assert rep.passed, rep.max_pair_gap


def test_conjugate_diagonal_unchanged():
    rng = np.random.default_rng(6)
    qp, _ = make_reversible_killed(rng, 9)
    h = np.exp(rng.uniform(-1.0, 1.0, 9))
    qt = conjugate(qp, h)
    d0 = qp.killing - qp.total
    d1 = qt.killing - qt.total
    assert np.max(np.abs(d0 - d1)) < 1e-12


def test_h_transform_requires_harmonic():
    rng = np.random.default_rng(10)
    qp, _ = make_reversible_killed(rng, 8)
    with pytest.raises(NotHarmonic):
        h_transform(qp, np.ones(8), tol=1e-10)


def test_h_transform_removes_potential():
    rng = np.random.default_rng(11)
    qp, h = exact_harmonic_pair(rng, 10)
    qt = h_transform(qp, h)
    assert qt.conservative
    assert np.array_equal(qt.killing, np.zeros(10))
    assert np.allclose(qt.rates, qp.rates * (h[None, :] / h[:, None]), rtol=1e-15)


def test_round_trip_inverse_of_forward():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(3, 16))
        qp, h = exact_harmonic_pair(rng, n)
        back = inverse_transform(h_transform(qp, h), h)
        assert np.max(np.abs(back.rates - qp.rates)) <= 1e-12 * np.max(qp.rates)
        assert np.max(np.abs(back.killing - qp.killing)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(qp.killing)))
        )


def test_round_trip_forward_of_inverse():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(3, 16))
        qt = make_conservative(rng, n)
        h = np.exp(rng.uniform(-1.0, 1.0, n))
        killed = inverse_transform(qt, h)
        back = h_transform(killed, h)
        assert np.max(np.abs(back.rates - qt.rates)) <= 1e-12 * np.max(qt.rates)
        assert np.max(np.abs(back.total - qt.total)) <= 1e-12 * np.max(qt.total)


def test_inverse_requires_conservative_zero_potential():
    rng = np.random.default_rng(14)
    killed, _ = make_reversible_killed(rng, 6)
    with pytest.raises(PreconditionViolated, match="^input chain must have zero potential$"):
        inverse_transform(killed, np.ones(6))
    # zero potential, but totals above the row sums: the chain still loses mass
    qp = make_conservative(rng, 6)
    with pytest.raises(PreconditionViolated, match="^input chain must be conservative$"):
        inverse_transform(validate_qpair(qp.rates, qp.total + 1.0), np.ones(6))
    # |c_i| <= 1e-12 max(1, q_i) reads as zero: 1e-7 is rounding on rates of 1e6
    qt = validate_qpair([[0.0, 1e6], [1e6, 0.0]], killing=[1e-7, 0.0])
    assert inverse_transform(qt, [1.0, 2.0]).rates[0, 1] == 5e5


def test_local_transform_takes_the_harmonic_set_of_a_harmonic_vector():
    # the minimal solution anchored at 0 is harmonic on 1..4, so the potential
    # lands on the anchor, not on the last state
    qp = bd_to_qpair(BirthDeathSpec(1.0, 2.0, -0.5), 4)
    hv, _ = minimal_harmonic(qp, 0, method="solve")
    assert hv.harmonic_set == (1, 2, 3, 4)
    out = h_transform_local(qp, hv)
    assert np.flatnonzero(out.killing).tolist() == [0] and out.killing[0] < 0.0


def test_transform_measure_round_trip():
    rng = np.random.default_rng(15)
    mu = rng.uniform(0.5, 2.0, 20)
    h = np.exp(rng.uniform(-2.0, 2.0, 20))
    back = transform_measure(transform_measure(mu, h), h, inverse=True)
    assert np.max(np.abs(back - mu) / mu) < 1e-14


def test_transform_measure_overflow_names_the_state():
    with pytest.raises(Overflow, match="h-transformed measure .* at index 1"):
        transform_measure(np.ones(4), [1.0, 1e200, 1e200, 1e200])
    with pytest.raises(Overflow, match="h-transformed measure .* at index 2"):
        transform_measure(np.ones(3), [1.0, 1.0, 1e200], inverse=True)
    # finite results are the plain products and quotients
    rng = np.random.default_rng(17)
    mu, h = rng.uniform(0.5, 2.0, 20), np.exp(rng.uniform(-50.0, 50.0, 20))
    assert np.array_equal(transform_measure(mu, h), mu * h**2)
    assert np.array_equal(transform_measure(mu, h, inverse=True), mu / h**2)
    # h^2 alone leaves float range, h^2 mu and mu / h^2 do not
    assert transform_measure([1e-300], [1e200])[0] == pytest.approx(1e100, rel=1e-15)
    assert transform_measure([1e-300], [1e-200], inverse=True)[0] == pytest.approx(
        1e100, rel=1e-15)


def test_bd_measures_refuse_a_measure_that_underflows():
    # mu_3 = 1e-462 is below the smallest subnormal; nu_hat would be 1/0
    with pytest.raises(Overflow, match="mu .* at index 3"):
        bd_measures(BirthDeathSpec(birth=1.0, death=1e154), 3)


def test_positive_h_enforced():
    rng = np.random.default_rng(16)
    qp, _ = make_reversible_killed(rng, 5)
    h = np.array([1.0, 2.0, 0.0, 1.0, 1.0])
    with pytest.raises(NonpositiveH):
        conjugate(qp, h)
    with pytest.raises(NonpositiveH):
        transform_measure(np.ones(5), h - 1.0)


def test_local_transform_absorbs_boundary_defect():
    s = BirthDeathSpec(birth=1.0, death=1.0, killing=-1.0)
    N = 8
    hv = bd_harmonic_explicit(s, N)
    qp = bd_to_qpair(s, N)
    qt = h_transform_local(qp, hv)
    # zero potential on the harmonic set, one-sided defect at the edge
    assert np.array_equal(qt.killing[:N], np.zeros(N))
    expect_edge = -1.0 + 1.0 * (hv.values[N - 1] / hv.values[N] - 1.0)
    assert abs(qt.killing[N] - expect_edge) < 1e-12
    mu = bd_measures(s, N).mu
    rep = isospectral_check(qp, mu, qt, mu * hv.values[: N + 1] ** 2)
    assert rep.passed, rep.max_pair_gap


def test_local_transform_checks_declared_set():
    rng = np.random.default_rng(17)
    qp, _ = make_reversible_killed(rng, 7)
    with pytest.raises(NotLocallyHarmonic):
        h_transform_local(qp, np.ones(7), harmonic_set=range(3))


def test_bd_h_transform_fibonacci_oracle():
    s = BirthDeathSpec(birth=1.0, death=1.0, killing=-1.0)
    N = 6
    hv = bd_harmonic_explicit(s, N + 1)
    out, mp = bd_h_transform(s, hv, N)
    h = hv.values
    for i in range(N + 1):
        assert out.b(i) == h[i + 1] / h[i]
        if i >= 1:
            assert out.a(i) == h[i - 1] / h[i]
        assert out.c(i) == 0.0
        assert mp.mu[i] == h[i] ** 2
        assert mp.nu_hat[i] == 1.0 / (h[i] * h[i + 1])


def test_bd_h_transform_speeds_births_slows_deaths():
    rng = np.random.default_rng(18)
    s = BirthDeathSpec(
        birth=rng.uniform(0.5, 1.5, 60),
        death=rng.uniform(0.5, 1.5, 60),
        killing=-0.4,
    )
    hv = bd_harmonic_explicit(s, 41)
    out, _ = bd_h_transform(s, hv, 40)
    b, a, _ = s.rate_arrays(40)
    bt, at, _ = out.rate_arrays(40)
    assert np.all(bt >= b * (1 - 1e-12))
    assert np.all(at[1:] <= a[1:] * (1 + 1e-12))


def test_bd_h_transform_is_the_band_tilt_bit_for_bit():
    rng = np.random.default_rng(20)
    N = 50
    s = BirthDeathSpec(birth=rng.uniform(0.5, 1.5, N + 2),
                       death=rng.uniform(0.5, 1.5, N + 2),
                       killing=-rng.uniform(0.0, 0.5, N + 2))
    h = bd_harmonic_explicit(s, N + 1).values
    out, _ = bd_h_transform(s, h, N)
    b, a, _ = s.rate_arrays(N)
    bt, at, ct = out.rate_arrays(N)
    assert bt.tobytes() == (b * (h[1:] / h[:-1])).tobytes()
    assert at[1:].tobytes() == (a[1:] * (h[:N] / h[1 : N + 1])).tobytes()
    assert not ct.any()


def test_bd_h_transform_refuses_a_non_harmonic_h():
    s = BirthDeathSpec(birth=1.0, death=1.0, killing=-0.5)
    h = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    with pytest.raises(NotLocallyHarmonic) as e:
        bd_h_transform(s, h, 4)
    assert (e.value.index, e.value.residual) == (0, 0.25)
    out, _ = bd_h_transform(s, h, 4, tol=0.5)
    assert out.rate_arrays(4)[0].tolist() == [h[i + 1] / h[i] for i in range(5)]


def test_bd_h_transform_refuses_a_transformed_rate_that_underflows():
    # a~_1 = a_1 h_0 / h_1 = 1e-130 * 1e-200 rounds to 0.0
    s = BirthDeathSpec(birth=[1e-300, 1.0, 1.0], death=[0.0, 1e-130, 1.0],
                       killing=[-1e-100, 0.0, 0.0])
    h = bd_harmonic_explicit(s, 2).values
    assert h.tolist() == [1.0, 1e200, 1e200]
    with pytest.raises(Overflow) as ei:
        bd_h_transform(s, h, 1)
    assert str(ei.value) == "transformed death rate leaves float range at index 1"


def test_bd_h_transform_needs_h_past_the_edge():
    s = BirthDeathSpec(birth=1.0, death=1.0, killing=-0.5)
    hv = bd_harmonic_explicit(s, 11)
    with pytest.raises(PreconditionViolated):
        bd_h_transform(s, hv.values[:5], 10)


def test_measure_dual_fixes_reversible_chains():
    rng = np.random.default_rng(19)
    qp, mu = make_reversible_killed(rng, 10)
    qd = measure_dual(qp, mu)
    assert np.max(np.abs(qd.rates - qp.rates)) <= 1e-12 * np.max(qp.rates)
    assert np.max(np.abs(qd.killing - qp.killing)) <= 1e-12


def test_measure_dual_is_mu_adjoint_and_involutive():
    rng = np.random.default_rng(20)
    qp = make_conservative(rng, 8)
    mu = rng.uniform(0.5, 2.0, 8)
    qd = measure_dual(qp, mu)
    f = rng.normal(size=8)
    g = rng.normal(size=8)
    lhs = float(mu @ (g * qp.apply(f)))
    rhs = float(mu @ (f * qd.apply(g)))
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))
    qdd = measure_dual(qd, mu)
    assert np.max(np.abs(qdd.rates - qp.rates)) < 1e-12 * np.max(qp.rates)


def test_symmetrized_conjugate_matches_closed_form():
    # A killed walk on a 3 x 5 grid whose symmetrised generator is the
    # Kronecker sum of two Toeplitz tridiagonals, shifted by -s: its spectrum
    # is -4 - s + 2 cos(j pi / 4) + 2 cos(k pi / 6), independent of any solver.
    rng = np.random.default_rng(21)
    p, q, s = 3, 5, 0.4

    def toeplitz(m):
        return -2.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)

    S0 = np.kron(toeplitz(p), np.eye(q)) + np.kron(np.eye(p), toeplitz(q)) - s * np.eye(p * q)
    mu = rng.uniform(0.5, 2.0, p * q)
    rates = S0 * np.sqrt(mu[None, :] / mu[:, None])
    np.fill_diagonal(rates, 0.0)
    total = rates.sum(axis=1)
    qp = validate_qpair(rates, total, np.diag(S0) + total)
    h = np.exp(rng.uniform(-1.0, 1.0, p * q))
    S = symmetrize(conjugate(qp, h), mu * h**2)
    ours = eig_sym(S)
    j, k = np.meshgrid(np.arange(1, p + 1), np.arange(1, q + 1))
    ref = np.sort(
        (-4.0 - s + 2.0 * np.cos(j * np.pi / (p + 1)) + 2.0 * np.cos(k * np.pi / (q + 1))).ravel()
    )
    assert np.max(np.abs(ours - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


def _exact_harmonic_band(rng, n):
    """A tridiagonal chain in dense and band form with an h solving A h = 0."""
    up, down = rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.5, 2.0, n - 1)
    rates = np.diag(up, 1) + np.diag(down, -1)
    h = np.exp(rng.uniform(-1.0, 1.0, n))
    total = rates.sum(axis=1)
    c = total - (rates @ h) / h
    return validate_qpair(rates, total, c), validate_band(up, down, total, c), h


@pytest.mark.parametrize("scale", [1.0, 1e9, 1e12])
def test_harmonic_check_is_relative_to_the_rate_scale(scale):
    # |A h| grows with h; the check divides by max(1, q_i h_i, max_j q_ij h_j)
    rng = np.random.default_rng(23)
    qp, h = exact_harmonic_pair(rng, 10)
    dense, band, hb = _exact_harmonic_band(rng, 12)
    for chain, hv in ((qp, h), (dense, hb), (band, hb)):
        assert not h_transform(chain, scale * hv).killing.any()
        assert not h_transform_local(chain, scale * hv).killing[:-1].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_mu_must_be_finite_and_positive(bad):
    s = BirthDeathSpec(birth=2.0, death=1.0, killing=-0.5)
    mu = bd_measures(s, 4).mu.copy()
    mu[2] = bad
    for fn, qp in ((symmetrize, bd_to_qpair(s, 4)), (measure_dual, bd_to_qpair(s, 4)),
                   (measure_dual, bd_to_band(s, 4))):
        with pytest.raises(PreconditionViolated, match="mu must be finite"):
            fn(qp, mu)
