"""Property tests of the transform identities on generated chains.

Each example is a reversible killed chain built from conductances w on a
spanning path plus random extra edges, rates w_ij / mu_i, and a positive h
spanning about six orders of magnitude.
"""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from isospec import (
    conjugate,
    h_transform,
    inverse_transform,
    isospectral_check,
    measure_dual,
    quadratic_form,
    transform_measure,
    validate_qpair,
)
from conftest import exact_harmonic_pair

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
