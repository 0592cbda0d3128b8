"""Property tests of the transform identities on generated chains.

The dense examples are reversible killed chains built from conductances w on
a spanning path plus random extra edges, rates w_ij / mu_i, and a positive h
spanning about six orders of magnitude.  The birth-death examples check the
paper's identities on bd families and the band form against the dense one.
The minimal-solution example runs the anchored iteration on chains whose
killing is negative, zero or positive.
The closed-form examples hold the eigensolvers to chains whose spectra are
known exactly.  The argument-check examples feed the chain exports that take
a state index or a per-state vector valid and malformed arguments.
"""
import argparse
import contextlib
import io
import math
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from isospec import (
    BirthDeathSpec,
    IsospecError,
    PreconditionViolated,
    TailNotResolved,
    bd_h_transform,
    bd_harmonic_explicit,
    bd_measures,
    bd_to_qpair,
    bounds_report,
    conjugate,
    delta_tilde,
    h_transform,
    h_transform_local,
    harmonic_residual,
    inverse_transform,
    is_supersolution,
    isospectral_check,
    lambda0_variational,
    lowest_eigs_tridiag,
    measure_dual,
    minimal_harmonic,
    quadratic_form,
    spectral_radius,
    sturm_count,
    symmetrize,
    transform_measure,
    validate_qpair,
)
from isospec._checks import _Record
from isospec.chains import BandSpec, bd_to_band, validate_band
from isospec.duality import _relative_residual
from isospec.harmonic import _hitting_kernel
from isospec._cli_chains import _emit_qpair_transform
from conftest import exact_harmonic_pair, make_reversible_killed

_RATE = st.floats(0.1, 10.0)


def _vector(n, elements):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@st.composite
def killed_chains(draw, max_n=8):
    """(qp, mu, h, g): a reversible killed chain, its measure, h > 0 and a test vector."""
    n = draw(st.integers(2, max_n))
    w = np.zeros((n, n))
    w[np.arange(n - 1), np.arange(1, n)] = draw(_vector(n - 1, _RATE))
    edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _RATE)
    for i, j, v in draw(st.lists(edges, max_size=n)):
        if i != j:
            w[min(i, j), max(i, j)] += v
    w = w + w.T
    mu = draw(_vector(n, _RATE))
    kill = draw(_vector(n, st.floats(0.0, 5.0)))
    qp = validate_qpair(w / mu[:, None], None, -kill)
    h = np.exp(draw(_vector(n, st.floats(-3.0, 3.0))))
    g = draw(_vector(n, st.floats(-1.0, 1.0)))
    return qp, mu, h, g


def _abs_form(qp, mu, f):
    """sum_i mu_i |f_i| (sum_j q_ij |f_j| + (q_i + |c_i|) |f_i|), the rounding scale."""
    f = np.abs(f)
    return float(mu @ (f * (qp.rates @ f + (qp.total + np.abs(qp.killing)) * f)))


@given(killed_chains())
def test_conjugate_is_isospectral_under_h_squared_mu(case):
    qp, mu, h, _ = case
    rep = isospectral_check(qp, mu, conjugate(qp, h), transform_measure(mu, h))
    assert rep.passed, (rep.max_pair_gap, rep.tolerance)


@given(killed_chains())
def test_quadratic_form_identity(case):
    # (L~ g, g)_{h^2 mu} = (L (h g), h g)_mu
    qp, mu, h, g = case
    qt, mut = conjugate(qp, h), transform_measure(mu, h)
    lhs = quadratic_form(qt, mut, g)
    rhs = quadratic_form(qp, mu, h * g)
    scale = _abs_form(qt, mut, g) + _abs_form(qp, mu, h * g)
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_inverse_undoes_h_transform(n, seed):
    qp, h = exact_harmonic_pair(np.random.default_rng(seed), n)
    qt = h_transform(qp, h)
    back = inverse_transform(qt, h)
    tol = 1e-12 * max(1.0, float(np.max(qt.total)))
    assert np.max(np.abs(back.rates - qp.rates)) <= tol
    assert np.max(np.abs(back.killing - qp.killing)) <= tol


@given(killed_chains(), st.data())
def test_measure_dual_is_an_involution(case, data):
    qp, _, _, _ = case
    nu = data.draw(_vector(qp.n_states, _RATE))
    once = measure_dual(qp, nu)
    twice = measure_dual(once, nu)
    tol = 1e-12 * max(1.0, float(np.max(once.total)), float(np.max(qp.total)))
    assert np.max(np.abs(twice.rates - qp.rates)) <= tol
    assert np.max(np.abs(twice.total - qp.total)) <= tol
    assert np.max(np.abs(twice.killing - qp.killing)) <= tol


@given(st.integers(2, 120), st.sampled_from(["negative", "zero", "positive"]),
       st.integers(0, 2**32 - 1), st.data())
def test_the_anchored_iteration_never_decreases(n, kind, seed, data):
    # K, s >= 0 and the map starts at 0, so every iterate of h <- K h + s is at
    # least the one before in floating point too: no tolerance
    rng = np.random.default_rng(seed)
    rates = np.zeros((n, n))
    k = np.arange(n - 1)
    rates[k, k + 1], rates[k + 1, k] = rng.uniform(0.1, 10.0, (2, n - 1))
    i, j = rng.integers(0, n, (2, int(rng.integers(0, 2 * n + 1))))
    rates[i, j] += rng.uniform(0.1, 10.0, i.size)
    np.fill_diagonal(rates, 0.0)
    total = rates.sum(axis=1)
    killing = {"negative": -rng.uniform(0.0, 5.0, n), "zero": np.zeros(n),
               "positive": rng.uniform(0.0, 0.9, n) * total}[kind]
    theta = data.draw(st.integers(0, n - 1))
    K, s, _ = _hitting_kernel(validate_qpair(rates, total, killing), theta)
    h = np.zeros(n - 1)
    for _ in range(500):
        new = K @ h + s
        assert np.all(new >= h)
        if new.max() > 1e150 or (new - h).max() < 1e-12:  # the ceiling, or converged
            break
        h = new


# ---------------------------------------------------------------- birth-death families

def _rng_chain(seed, N, birth=(0.5, 2.0), death=(0.5, 2.0)):
    """BirthDeathSpec on 0..N+1: seeded rates, summable killing with exact zeros."""
    rng = np.random.default_rng(seed)
    c = -rng.uniform(0.0, 1.0) * rng.uniform(0.3, 0.9) ** np.arange(N + 2)
    c[rng.random(N + 2) < 0.2] = 0.0
    return BirthDeathSpec(birth=rng.uniform(*birth, N + 2), death=rng.uniform(*death, N + 2),
                          killing=c)


def _symmetrized(band):
    """Diagonal and off-diagonal of the symmetrised generator of a reversible band."""
    return band.killing - band.total, np.sqrt(band.up * band.down)


def _counts_bracket(T, U, x, delta):
    """U's Sturm count brackets T's at x: an eigenvalue may move by delta, no more."""
    n = sturm_count(*T, x)
    return sturm_count(*U, x - delta) <= n <= sturm_count(*U, x + delta)


@settings(max_examples=50)  # O(N) kernels at N up to 10^3 per example
@given(st.integers(1, 1000), st.integers(0, 2**32 - 1))
@example(1, 0)
@example(1000, 1)
def test_bd_h_transform_is_isospectral_by_sturm_counts(N, seed):
    # the reflecting truncation of the h-transformed chain keeps its killing at N only
    spec = _rng_chain(seed, N)
    h = bd_harmonic_explicit(spec, N + 1).values
    spec_t, _ = bd_h_transform(spec, h, N)
    b, a, c = spec.rate_arrays(N)
    bt, at, _ = spec_t.rate_arrays(N)
    kt = np.zeros(N + 1)
    kt[N] = c[N] - a[N] + at[N]
    T = _symmetrized(bd_to_band(spec, N))
    U = _symmetrized(bd_to_band(BirthDeathSpec(bt, at, kt), N))
    radius = float(np.max(np.abs(T[0])) + 2.0 * np.max(np.abs(T[1])))
    delta = 1e-9 * max(1.0, radius)
    for x in np.linspace(-radius, 0.0, 13):
        assert _counts_bracket(T, U, x, delta), x
        assert _counts_bracket(U, T, x, delta), x


@settings(max_examples=50)  # O(N) kernels at N up to 10^3 per example
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 1.0))
def test_hardy_enclosure_contains_the_variational_eigenvalue(seed, kill):
    # deaths outpace births under uniform killing, so the Hardy constant is finite
    rng = np.random.default_rng(seed)
    N = 600
    spec = BirthDeathSpec(birth=rng.uniform(0.5, 1.0, N + 2),
                          death=rng.uniform(1.0, 1.5, N + 2), killing=-kill)
    delta = delta_tilde(spec, bd_harmonic_explicit(spec, N + 1), N_max=N).value
    lam = lambda0_variational(spec, N)
    eps = 1e-8 + abs(lam - lambda0_variational(spec, N // 2))
    assert 1.0 / (4.0 * delta) - eps <= lam <= 1.0 / delta + eps


_TAILS = [(1.0, 1.0), (1.2, 1.0), (1.0, 1.2), (2.0, 1.0), (1.0, 2.0), (1.05, 1.0), (1.0, 1.05)]
# b_inf / a_inf within 0.1% to 1% of 1, on either side
_NEAR_CRITICAL = st.tuples(st.floats(0.5, 2.0), st.floats(1e-3, 1e-2), st.sampled_from([-1, 1])
                           ).map(lambda t: (t[0] * (1.0 + t[2] * t[1]), t[0]))
# the ci profile of conftest also draws them at 4096 states
_NEAR_N_MAX = [256, 1024] + [4096] * (settings.get_current_profile_name() == "ci")


@st.composite
def eventually_constant_chains(draw, tails=st.sampled_from(_TAILS), n_max=(256, 1024)):
    """(spec, N_max, b_inf, a_inf, killed): any rates on 0..K, then a constant tail.

    The arrays hold N_max + 2 entries; the tail (b_inf, a_inf) is drawn from tails.
    """
    K = draw(st.integers(1, 39))
    b_inf, a_inf = draw(tails)
    N_max = draw(st.sampled_from(n_max))
    b, a, c = np.full(N_max + 2, b_inf), np.full(N_max + 2, a_inf), np.zeros(N_max + 2)
    b[: K + 1] = draw(_vector(K + 1, _RATE))
    a[: K + 1] = draw(_vector(K + 1, _RATE))
    killed = draw(st.booleans())
    if killed:
        c[: K + 1] = -draw(_vector(K + 1, st.floats(0.1, 5.0)))
    return BirthDeathSpec(b, a, c), N_max, b_inf, a_inf, killed


def _assert_classified(case):
    # lambda0 = 0 exactly for a critical tail, or a tail drifting to 0 without
    # killing; otherwise 0 < lambda0 <= (sqrt b_inf - sqrt a_inf)^2, the bottom
    # of the tail's essential spectrum.  Arrays prove neither, so a refusal is allowed
    spec, N_max, b_inf, a_inf, killed = case
    try:
        rep = bounds_report(spec, N_max=N_max)
    except TailNotResolved:
        event("TailNotResolved")
        return
    zero = b_inf == a_inf or (b_inf < a_inf and not killed)
    assert rep.verdict == ("lambda0 = 0 (Hardy constant diverges)" if zero else "lambda0 > 0")
    assert rep.containment
    if not zero:
        assert rep.lower <= (math.sqrt(b_inf) - math.sqrt(a_inf)) ** 2


@settings(max_examples=100)  # O(N_max) kernels at N_max up to 1024 per example
@given(eventually_constant_chains())
def test_hardy_verdict_matches_the_classification_of_the_tail(case):
    _assert_classified(case)


@settings(max_examples=100)  # O(N_max) kernels at N_max up to 1024, or 4096 in ci
@given(eventually_constant_chains(_NEAR_CRITICAL, _NEAR_N_MAX))
def test_hardy_verdict_matches_the_classification_near_the_critical_ratio(case):
    _assert_classified(case)


@given(st.integers(1, 150), st.integers(0, 2**32 - 1))
def test_ftilde_matches_recurrence(N, seed):
    spec = _rng_chain(seed, N, death=(0.5, 1.5))
    h1 = bd_harmonic_explicit(spec, N, method="ftilde").values
    h2 = bd_harmonic_explicit(spec, N).values
    assert np.max(np.abs(h1 - h2) / h2) < 1e-10


# ---------------------------------------------------------------- closed-form spectra

_EPS = np.finfo(float).eps


def _closed_form(family, lam, mu, beta, N, K):
    """(spec, N, exact, s): a bd chain, its K lowest eigenvalues of -Q, and their rate scale.

    "mminf" is the M/M/inf queue b_i = lam, a_i = mu i.  Its eigenvalues are
    k mu, and the k-th eigenvector of the symmetrised band is sqrt(pi) times
    the k-th orthonormal Charlier polynomial, with rho = lam / mu.
    "linear" is b_i = lam (i + beta), a_i = mu i with mu > lam.  Its
    eigenvalues are k (mu - lam), with Meixner polynomials for c = lam / mu.
    s[k] is sum_i v_i^2 d_i for that eigenvector v and d_i the total rate at
    i.  It is affine in the mean state index under v^2, which is the k-th
    diagonal entry of the polynomials' Jacobi matrix: rho + k for Charlier,
    (k + (k + beta) c) / (1 - c) for Meixner.
    """
    k = np.arange(K)
    if family == "mminf":
        spec = BirthDeathSpec(lam, lambda i: mu * i)
        return spec, N, mu * k, lam + mu * (lam / mu + k)
    c = lam / mu
    spec = BirthDeathSpec(lambda i: lam * (i + beta), lambda i: mu * i)
    return spec, N, (mu - lam) * k, (lam + mu) * (k + (k + beta) * c) / (1 - c) + lam * beta


@st.composite
def closed_form_chains(draw, K=5):
    """_closed_form of an M/M/inf or linear chain, truncated where its tail is below rounding.

    The eigenvectors' mass past N is of order pi_N N^(2K).  For rho <= 10
    and N >= 80 that is below 1e-24 (Poisson pi), and for c <= 2/3 the N
    drawn keeps c^N N^(beta + 2K + 1) below 1e-25 (negative binomial pi).
    Either way the truncation moves no eigenvalue by a rounding unit.
    """
    lam = draw(st.floats(0.5, 5.0))
    if draw(st.booleans()):
        return _closed_form("mminf", lam, draw(st.floats(0.5, 2.0)), 0.0,
                            draw(st.integers(80, 400)), K)
    mu, beta = lam * draw(st.floats(1.5, 4.0)), draw(st.floats(0.5, 3.0))
    n = 50
    while n * np.log(mu / lam) < 25 * np.log(10.0) + (beta + 2 * K + 1) * np.log(n):
        n += 10
    return _closed_form("linear", lam, mu, beta, draw(st.integers(n, n + 100)), K)


@settings(max_examples=30)  # O(N) Sturm counts at N up to about 500 per example
@given(closed_form_chains())
@example(_closed_form("mminf", 5.0, 1.0, 0.0, 400, 4))
@example(_closed_form("mminf", 5.0, 1.0, 0.0, 20000, 4))  # d spans 5 .. 2 * 10^4
@example(_closed_form("linear", 1.0, 3.0, 2.0, 4000, 5))
def test_lowest_eigs_match_closed_form_spectra(case):
    spec, N, exact, s = case
    band = bd_to_band(spec, N)
    d = band.total - band.killing
    e = np.sqrt(band.up) * np.sqrt(band.down)
    got = lowest_eigs_tridiag(d, e, exact.shape[0])
    # The error bound, eigenvalue by eigenvalue:
    # - Bisection stops once its bracket is narrower than rel_tol = 1e-13 times
    #   its larger end and returns the midpoint: at most 0.5e-13 * lambda_k.
    # - Rounding.  Each d_i (a sum of two rates) and e_i (a product of two
    #   square roots) is within 2 eps of exact.  The count at shift x is the
    #   exact count of a band with d_i moved by at most 2 eps |d_i - x| and e_i
    #   by 2.5 eps relatively (Kahan's backward analysis of the pivots).  To
    #   first order the eigenvalue at x then moves by at most
    #   4.5 eps v^T (|T| + x) v, where |T| is T with |e| off the diagonal.
    # - With up_i and down_i the rates i -> i+1 and i+1 -> i, and weights
    #   sqrt(up_i / down_i), 2 |v_i v_(i+1)| e_i <= up_i v_i^2 + down_i v_(i+1)^2.
    #   Summed over i this gives v^T |T| v <= 2 sum_i v_i^2 d_i = 2 s_k.
    tol = 0.5e-13 * exact + 4.5 * _EPS * (2.0 * s + exact)
    assert np.all(np.abs(got - exact) <= tol), (got - exact, tol)


def test_inverse_transform_of_a_closed_form_chain_keeps_its_spectrum():
    # the paper's direction: conjugating the conservative M/M/inf chain by 1/h
    # gives a killed chain with the same spectrum {0, -1, -2, ...}
    N = 200  # 5^i / i! leaves float range in bd_measures from N = 254
    spec = BirthDeathSpec(5.0, lambda i: float(i))
    qp = bd_to_qpair(spec, N)
    h = np.exp(np.random.default_rng(0).uniform(-1.0, 1.0, N + 1))
    killed = inverse_transform(qp, h)
    assert np.min(killed.killing) < -100.0
    mu = bd_measures(spec, N).mu
    mu_killed = transform_measure(mu, h, inverse=True)
    rep = isospectral_check(qp, mu, killed, mu_killed)
    # LAPACK's symmetric eigensolver is backward stable: each eigenvalue is
    # within p(n) eps ||S||_2 of exact, with p(n) a modest function of n,
    # here sqrt(n), and ||S||_2 at most the largest absolute row sum of S
    radius = [np.max(np.abs(symmetrize(q, m)).sum(axis=1))
              for q, m in ((qp, mu), (killed, mu_killed))]
    tol = np.sqrt(N + 1) * _EPS * np.array(radius)
    assert rep.passed and rep.max_pair_gap <= tol.sum()
    top = rep.eigenvalues_other[-6:]
    assert np.all(np.abs(top + np.arange(5.0, -1.0, -1.0)) <= tol[1])


# ---------------------------------------------------------------- band against dense

_BD_RATE = st.floats(0.1, 10.0)
_BD_KILL = st.sampled_from([0.0, -0.5]) | st.floats(-3.0, 0.0)


@st.composite
def bd_cases(draw):
    """(spec, N, h): a bd chain whose boundary potentials may be positive, and h > 0."""
    N = draw(st.sampled_from([1, 2]) | st.integers(3, 30))
    b = draw(_vector(N + 1, _BD_RATE))
    a = draw(_vector(N + 1, _BD_RATE))
    c = draw(_vector(N + 1, _BD_KILL))
    c[0], c[N] = draw(st.floats(-3.0, 1.0)), draw(st.floats(-3.0, 1.0) | st.just(0.0))
    h = np.exp(draw(_vector(N + 1, st.floats(-3.0, 3.0))))
    return BirthDeathSpec(birth=b, death=a, killing=c), N, h


def _dense_bd(spec, N):
    """The reflecting truncation built as a dense matrix from the rate arrays."""
    b, a, c = spec.rate_arrays(N)
    rates = np.zeros((N + 1, N + 1))
    i = np.arange(N)
    rates[i, i + 1] = b[:N]
    rates[i + 1, i] = a[1:]
    total = rates.sum(axis=1)
    total[0] += max(c[0], 0.0)
    total[N] += max(c[N], 0.0)
    return validate_qpair(rates, total, c)


def _dense(band):
    """The dense QPairSpec of a BandSpec."""
    n = band.n_states
    rates = np.zeros((n, n))
    k = np.arange(n - 1)
    rates[k, k + 1], rates[k + 1, k] = band.up, band.down
    return validate_qpair(rates, band.total, band.killing)


def _explicit_h(spec, N):
    """The explicit harmonic of spec on 0..N, scaled to max 1.

    The local transform's residual test is absolute.  At max 1 its rounding
    noise stays far below the tolerance, where the last bit, which BLAS may
    round differently from the band, cannot decide it.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # positive boundary potentials are drawn on purpose
        h = bd_harmonic_explicit(spec, N).values
    return h / np.max(np.abs(h))


def _outcome(fn):
    """fn()'s result in dense form, or the type and text of the error it raised."""
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            out = fn()
    except (IsospecError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(out, BandSpec):
        out = _dense(out)
    return out.rates.tobytes(), out.total.tobytes(), out.killing.tobytes(), out.conservative


def _text(qp, mu, output):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit_qpair_transform(argparse.Namespace(seed=None, output=output), qp, mu)
    return buf.getvalue()


@given(bd_cases())
def test_band_transforms_match_dense(case):
    spec, N, h = case
    band, dense = bd_to_band(spec, N), _dense_bd(spec, N)
    assert _outcome(lambda: _dense(band)) == _outcome(lambda: bd_to_qpair(spec, N)) == _outcome(
        lambda: dense)
    hv = _explicit_h(spec, N)
    mu = bd_measures(spec, N).mu
    cons = bd_to_band(BirthDeathSpec(spec.birth, spec.death), N)
    calls = [
        lambda q: h_transform_local(q, hv),
        lambda q: h_transform_local(q, hv, tol=np.inf),
        lambda q: h_transform_local(q, h, harmonic_set=[0]),
        lambda q: conjugate(q, h),
        lambda q: measure_dual(q, mu),
        lambda q: measure_dual(q, h),
        lambda q: inverse_transform(q, h),
        lambda q: inverse_transform(h_transform_local(q, hv, tol=np.inf), hv),
    ]
    for call in calls:
        assert _outcome(lambda: call(band)) == _outcome(lambda: call(dense))
    # h is not harmonic; both forms divide |A h| by the same local rate scale
    # max(1, q_i h_i, max_j q_ij h_j), so only A h's rounding may set them apart
    # (the bound of test_band_apply_matches_dense, per state)
    terms = np.abs(dense.rates * h).sum(axis=1) + np.abs((dense.killing - dense.total) * h)
    scale = np.maximum(1.0, np.maximum(dense.total * h, np.max(dense.rates * h, axis=1)))
    assert np.all(np.abs(_relative_residual(band, h) - _relative_residual(dense, h))
                  <= 1e-15 * terms / scale)
    assert _outcome(lambda: inverse_transform(cons, h)) == _outcome(
        lambda: inverse_transform(_dense(cons), h))
    for output in ("json", "csv"):
        out = measure_dual(band, h)
        assert _text(out, mu, output) == _text(_dense(out), mu, output)
        assert _text(band, None, output) == _text(dense, None, output)


@given(bd_cases())
def test_band_apply_matches_dense(case):
    spec, N, h = case
    band, dense = bd_to_band(spec, N), _dense_bd(spec, N)
    # the dense product may fuse a multiply-add, so only rounding may differ
    terms = (np.abs(band.up * h[1:]).sum() + np.abs(band.down * h[:-1]).sum()
             + np.abs((band.killing - band.total) * h).sum())
    assert np.allclose(band.apply(h), dense.apply(h), rtol=0.0, atol=1e-15 * terms)


@given(st.integers(1, 12), st.data())
def test_validate_band_matches_validate_qpair(n, data):
    # signed band entries, exact zeros and totals on both sides of the row sums
    up = data.draw(_vector(n, st.sampled_from([0.0, -1.0, 2.0]) | st.floats(-1.0, 5.0)))
    down = data.draw(_vector(n, st.sampled_from([0.0, 1.5]) | st.floats(-1.0, 5.0)))
    total = data.draw(st.none() | _vector(n + 1, st.floats(0.0, 12.0)))
    killing = data.draw(st.none() | _vector(n + 1, st.floats(-3.0, 3.0)))
    rates = np.zeros((n + 1, n + 1))
    rates[np.arange(n), np.arange(1, n + 1)] = up
    rates[np.arange(1, n + 1), np.arange(n)] = down
    assert _outcome(lambda: validate_band(up, down, total, killing)) == _outcome(
        lambda: validate_qpair(rates, total, killing))
    band = validate_band(np.abs(up), np.abs(down))
    i, j, v = band.nonzero()
    assert [i.tolist(), j.tolist(), v.tolist()] == [
        x.tolist() for x in _dense(band).nonzero()]


def test_band_refuses_what_dense_refuses_off_the_band():
    # h_2 / h_0 overflows: the dense tilt has 0 * inf = NaN at (2, 0)
    band = bd_to_band(BirthDeathSpec(1.0, 1.0), 2)
    h = np.array([1e-200, 1.0, 1e200])
    want = _outcome(lambda: inverse_transform(_dense(band), h))
    assert want == (PreconditionViolated, "rates has a NaN or infinite entry")
    assert _outcome(lambda: inverse_transform(band, h)) == want


# ---------------------------------------------------------------- argument checks

_Case = namedtuple("_Case", "qp chain mu h spec")


@st.composite
def _chain_cases(draw, bd=None):
    """A killed chain qp, chain as qp or its band, a measure mu, h > 0 and a bd spec.

    A seeded reversible chain has spec None and chain qp; a seeded bd chain
    (drawn when bd is true, or at random when bd is None) has its band as chain.
    """
    seed, n = draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 8))
    rng = np.random.default_rng(seed)
    h = np.exp(rng.uniform(-3.0, 3.0, n))
    if not (draw(st.booleans()) if bd is None else bd):
        qp, mu = make_reversible_killed(rng, n)
        return _Case(qp, qp, mu, h, None)
    spec = _rng_chain(seed, n - 1)
    return _Case(bd_to_qpair(spec, n - 1), bd_to_band(spec, n - 1),
                 bd_measures(spec, n - 1).mu, h, spec)


_BAD_ENTRIES = (np.nan, np.inf, -np.inf, 0.0, -1.0, "a", None, [1.0], 10**400)


@st.composite
def _vectors(draw, n):
    """A valid per-state argument on n states, then ones of another length, shape or entry."""
    v = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.1, 10.0, n).tolist()
    i = draw(st.integers(0, n - 1))
    k = draw(st.integers(0, n + 2).filter(lambda k: k != n))
    return ([v, np.array(v), (v * 3)[:k], [v], [[x] for x in v], v[0]]
            + [v[:i] + [x] + v[i + 1:] for x in _BAD_ENTRIES])


# things that are not state indices; None is also the default set of harmonic_set and B
_NOT_INDICES = [2.5, 1.0, True, np.True_, "1", None, 10**30]


@st.composite
def _indices(draw, n):
    """One state index, drawn in or out of range, then things that are not indices."""
    i = draw(st.integers(-3, n + 3))
    return [i, np.int64(i)] + _NOT_INDICES


@st.composite
def _index_sets(draw, n):
    """Sets of state indices, drawn in or out of range, then sets with a non-index."""
    idx = draw(st.lists(st.integers(-3, n + 3), max_size=4))
    return ([idx, np.array(idx, dtype=int), range(draw(st.integers(0, n + 3))), "01"]
            + [idx + [x] for x in _NOT_INDICES] + _NOT_INDICES)


# name -> (strategy of the arguments for n states, call of a _Case and one argument)
_CALLS = {
    "conjugate": (_vectors, lambda c, v: conjugate(c.chain, v)),
    "h_transform": (_vectors, lambda c, v: h_transform(c.chain, v)),
    "h_transform_local-h": (_vectors, lambda c, v: h_transform_local(c.chain, v)),
    "h_transform_local-set": (_index_sets,
                              lambda c, v: h_transform_local(c.chain, c.h, harmonic_set=v)),
    "inverse_transform": (_vectors, lambda c, v: inverse_transform(c.chain, v)),
    "measure_dual": (_vectors, lambda c, v: measure_dual(c.chain, v)),
    "transform_measure-mu": (_vectors, lambda c, v: transform_measure(v, c.h)),
    "transform_measure-h": (_vectors, lambda c, v: transform_measure(c.mu, v)),
    "apply": (_vectors, lambda c, v: c.chain.apply(v)),
    "validate_qpair-total": (_vectors, lambda c, v: validate_qpair(c.qp.rates, v)),
    "validate_qpair-killing": (_vectors,
                               lambda c, v: validate_qpair(c.qp.rates, c.qp.total, v)),
    "symmetrize": (_vectors, lambda c, v: symmetrize(c.qp, v)),
    "spectral_radius": (_vectors, lambda c, v: spectral_radius(c.qp, v)),
    "isospectral_check": (_vectors, lambda c, v: isospectral_check(c.qp, c.mu, c.qp, v)),
    "quadratic_form-mu": (_vectors, lambda c, v: quadratic_form(c.qp, v, c.h)),
    "quadratic_form-f": (_vectors, lambda c, v: quadratic_form(c.qp, c.mu, v)),
    "harmonic_residual-h": (_vectors, lambda c, v: harmonic_residual(c.qp, v)),
    "harmonic_residual-B": (_index_sets,
                            lambda c, v: harmonic_residual(c.qp, c.h, B=v)),
    "is_supersolution-f": (_vectors, lambda c, v: is_supersolution(c.qp, 0, v)),
    "is_supersolution-theta": (_indices, lambda c, v: is_supersolution(c.qp, v, c.h)),
    "minimal_harmonic": (_indices,
                         lambda c, v: minimal_harmonic(c.qp, v, method="solve")),
    # h on 0..N+1 of the chain on 0..N
    "bd_h_transform": (lambda n: _vectors(n + 1),
                       lambda c, v: bd_h_transform(c.spec, v, c.qp.n_states - 1)),
}


def _all_finite(out):
    """Whether every number in out, a result or a record or tuple of results, is finite."""
    if isinstance(out, _Record):
        return all(_all_finite(getattr(out, f)) for f in out._fields)
    if isinstance(out, tuple):
        return all(map(_all_finite, out))
    return out is None or isinstance(out, str) or bool(np.all(np.isfinite(out)))


@pytest.mark.parametrize("name", _CALLS)
@settings(max_examples=20)
@given(data=st.data())
def test_chain_exports_return_finite_values_or_raise_isospec_errors(name, data):
    # any argument, well-formed or not, with warnings as errors
    arguments, call = _CALLS[name]
    case = data.draw(_chain_cases(bd=True if name == "bd_h_transform" else None))
    for v in data.draw(arguments(case.qp.n_states), label="arguments"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call(case, v)
            except IsospecError:
                continue
        assert _all_finite(out), (v, out)
