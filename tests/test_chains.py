import dataclasses

import numpy as np
import pytest

from isospec import (
    BirthDeathSpec,
    NegativeRate,
    Overflow,
    PotentialExceedsRate,
    PreconditionViolated,
    bd_measures,
    bd_to_qpair,
    validate_qpair,
)


def test_validate_defaults_to_conservative():
    rates = np.array([[0.0, 2.0], [1.0, 0.0]])
    qp = validate_qpair(rates)
    assert qp.conservative
    assert np.array_equal(qp.total, [2.0, 1.0])
    assert np.array_equal(qp.killing, [0.0, 0.0])
    assert np.array_equal(qp.defect, [0.0, 0.0])


def test_validate_rejects_negative_rate():
    rates = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(NegativeRate):
        validate_qpair(rates)


def test_validate_rejects_potential_above_rate():
    rates = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(PotentialExceedsRate):
        validate_qpair(rates, None, np.array([2.0, 0.0]))


@pytest.mark.parametrize("field", ["rates", "total", "killing"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_non_finite(field, bad):
    args = {
        "rates": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "total": np.array([1.0, 1.0]),
        "killing": np.array([0.0, 0.0]),
    }
    args[field][(0, 1) if field == "rates" else 1] = bad
    with pytest.raises(PreconditionViolated):
        validate_qpair(args["rates"], args["total"], args["killing"])


def test_apply_matches_hand_computation():
    # 3 states, q01=2, q10=1, q12=3, q21=1, c=(-1, 0, -2)
    rates = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0], [0.0, 1.0, 0.0]])
    c = np.array([-1.0, 0.0, -2.0])
    qp = validate_qpair(rates, None, c)
    f = np.array([1.0, 2.0, -1.0])
    # (Af)_0 = 2*2 - (2+1)*1 = 1
    # (Af)_1 = 1*1 + 3*(-1) - 4*2 = -10
    # (Af)_2 = 1*2 - (1+2)*(-1) = 5
    assert np.allclose(qp.apply(f), [1.0, -10.0, 5.0], rtol=0, atol=1e-14)


def test_generator_diagonal_carries_potential():
    rates = np.array([[0.0, 2.0], [1.0, 0.0]])
    qp = validate_qpair(rates, None, np.array([-0.5, 0.0]))
    A = qp.generator
    assert A[0, 0] == -2.5
    assert A[1, 1] == -1.0
    assert A[0, 1] == 2.0
    f = np.array([0.3, -1.2])
    assert np.allclose(A @ f, qp.apply(f), rtol=0, atol=1e-15)


def test_bd_accepts_scalar_array_and_callable():
    s1 = BirthDeathSpec(birth=2.0, death=1.0)
    s2 = BirthDeathSpec(birth=[2.0, 2.0, 2.0], death=[0.0, 1.0, 1.0])
    s3 = BirthDeathSpec(birth=lambda i: 2.0, death=lambda i: 1.0)
    for s in (s1, s2, s3):
        assert s.b(1) == 2.0
        assert s.a(2) == 1.0
    assert s1.c(5) == 0.0


def test_bd_rejects_nonpositive_rates():
    s = BirthDeathSpec(birth=0.0, death=1.0)
    with pytest.raises(PreconditionViolated):
        s.b(3)
    s = BirthDeathSpec(birth=1.0, death=-1.0)
    with pytest.raises(PreconditionViolated):
        s.a(1)


def test_rate_arrays_layout():
    s = BirthDeathSpec(birth=lambda i: i + 1.0, death=lambda i: 2.0 * i,
                       killing=-1.0)
    b, a, c = s.rate_arrays(3)
    assert np.array_equal(b, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(a, [0.0, 2.0, 4.0, 6.0])
    assert np.array_equal(c, [-1.0, -1.0, -1.0, -1.0])


def test_bd_measures_constant_rates():
    # mu_i = (b/a)^i exactly, nu_hat_i = 1/(mu_i b_i)
    s = BirthDeathSpec(birth=2.0, death=1.0)
    mp = bd_measures(s, 6)
    assert np.array_equal(mp.mu, 2.0 ** np.arange(7))
    assert np.allclose(mp.nu_hat, 0.5 ** np.arange(7) / 2.0, rtol=1e-15)


def test_bd_measures_detailed_balance():
    rng = np.random.default_rng(7)
    s = BirthDeathSpec(birth=rng.uniform(0.5, 2.0, 40),
                       death=rng.uniform(0.5, 2.0, 40))
    mp = bd_measures(s, 30)
    for i in range(30):
        lhs = mp.mu[i] * s.b(i)
        rhs = mp.mu[i + 1] * s.a(i + 1)
        assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs)


def test_bd_measures_overflow():
    s = BirthDeathSpec(birth=10.0, death=1.0)
    with pytest.raises(Overflow):
        bd_measures(s, 400)


def test_bd_to_qpair_reflecting():
    s = BirthDeathSpec(birth=2.0, death=1.0, killing=-0.5)
    qp = bd_to_qpair(s, 3)
    assert qp.n_states == 4
    assert qp.rates[0, 1] == 2.0
    assert qp.rates[3, 2] == 1.0
    assert qp.total[3] == 1.0  # outgoing birth dropped
    assert np.array_equal(qp.killing, [-0.5] * 4)
    assert qp.conservative


def test_bd_to_qpair_absorbing_carries_defect():
    s = BirthDeathSpec(birth=2.0, death=1.0)
    qp = bd_to_qpair(s, 3, boundary="absorbing")
    assert qp.total[3] == 3.0  # a_3 + b_3
    assert qp.defect[3] == 2.0
    assert not qp.conservative


def test_bd_to_qpair_boundary_positive_potential():
    s = BirthDeathSpec(birth=2.0, death=1.0, killing=0.25)
    qp = bd_to_qpair(s, 2)
    # positive c at the ends is folded into the total so c <= q holds
    assert qp.total[0] == 2.25
    assert qp.total[2] == 1.25


def test_bd_to_qpair_rejects_bad_args():
    s = BirthDeathSpec(birth=1.0, death=1.0)
    with pytest.raises(PreconditionViolated):
        bd_to_qpair(s, 0)
    with pytest.raises(PreconditionViolated):
        bd_to_qpair(s, 3, boundary="open")


def _per_index(s, N):
    b = np.array([s.b(i) for i in range(N + 1)])
    a = np.array([0.0] + [s.a(i) for i in range(1, N + 1)])
    c = np.array([s.c(i) for i in range(N + 1)])
    return b, a, c


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


RATES = {
    "number": (1.5, 0.5, -0.25),
    "array": (np.linspace(1.0, 2.0, 9), [0.0, *np.linspace(0.5, 1.0, 8)], [-0.1] * 9),
    "callable": (lambda i: 1.0 + i, lambda i: 0.5 * i, lambda i: -0.1 * i),
}


@pytest.mark.parametrize("kind", RATES)
def test_rate_arrays_match_per_index_path(kind):
    birth, death, killing = RATES[kind]
    s = BirthDeathSpec(birth=birth, death=death, killing=killing)
    for N in (1, 4, 8):
        for got, ref in zip(s.rate_arrays(N), _per_index(s, N)):
            assert np.array_equal(got, ref)
    mixed = BirthDeathSpec(birth=RATES["array"][0], death=0.5, killing=lambda i: -0.1)
    for got, ref in zip(mixed.rate_arrays(8), _per_index(mixed, 8)):
        assert np.array_equal(got, ref)


BAD_RATES = {
    "birth-zero": dict(birth=[1.0, 2.0, 0.0, 1.0], death=1.0),
    "birth-nan": dict(birth=[1.0, np.nan, 1.0, 1.0, 1.0, 1.0, 1.0], death=1.0),
    "birth-short": dict(birth=[1.0, 2.0, 3.0], death=1.0),
    "birth-zero-before-end": dict(birth=[1.0, -1.0], death=1.0),
    "death-scalar": dict(birth=1.0, death=0.0),
    "death-short": dict(birth=1.0, death=[0.0, 1.0]),
    "death-callable": dict(birth=1.0, death=lambda i: 2.0 - i),
    "killing-short": dict(birth=1.0, death=1.0, killing=[-1.0, -1.0]),
}


@pytest.mark.parametrize("fields", BAD_RATES.values(), ids=BAD_RATES.keys())
def test_rate_arrays_raise_as_per_index_path(fields):
    s = BirthDeathSpec(**fields)
    ref = _raised(lambda: _per_index(s, 5))
    assert ref[0] in (PreconditionViolated, IndexError)
    assert _raised(lambda: s.rate_arrays(5)) == ref


def test_bd_to_qpair_reflecting_never_reads_the_last_birth_rate():
    s = BirthDeathSpec(birth=[2.0, 2.0, 2.0], death=1.0)
    assert bd_to_qpair(s, 3).rates[2, 3] == 2.0
    with pytest.raises(IndexError):
        bd_to_qpair(s, 3, boundary="absorbing")


def test_bd_measures_match_running_product_loop():
    rng = np.random.default_rng(5)
    s = BirthDeathSpec(birth=rng.uniform(0.5, 2.0, 60), death=rng.uniform(0.5, 2.0, 60))
    mu = np.empty(51)
    mu[0] = 1.0
    for i in range(1, 51):
        mu[i] = mu[i - 1] * s.b(i - 1) / s.a(i)
    mp = bd_measures(s, 50)
    assert np.array_equal(mp.mu, mu)
    assert np.array_equal(mp.nu_hat, [1.0 / (mu[i] * s.b(i)) for i in range(51)])


def test_bd_spec_holds_only_its_inputs():
    assert [f.name for f in dataclasses.fields(BirthDeathSpec)] == [
        "birth", "death", "killing"]


def test_rate_arrays_call_a_callable_once_per_state():
    calls = []
    s = BirthDeathSpec(birth=lambda i: calls.append(i) or 1.0 + i, death=1.0)
    b, _, _ = s.rate_arrays(5)
    assert calls == list(range(6))
    assert np.array_equal(b, np.arange(1.0, 7.0))
