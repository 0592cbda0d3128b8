
import numpy as np
import pytest

from isospec import (
    BirthDeathSpec,
    IsospecError,
    NegativeRate,
    Operator1D,
    Overflow,
    PotentialExceedsRate,
    PreconditionViolated,
    SmoothFunction,
    bd_h_transform,
    bd_harmonic_explicit,
    bd_measures,
    bd_to_qpair,
    bounds_report,
    compile_expression,
    conjugate,
    delta_tilde,
    forward_transform,
    forward_transform_points,
    h_transform,
    h_transform_local,
    harmonic_residual,
    inverse_transform,
    is_supersolution,
    isospectral_check,
    hermite_polys,
    lambda0_variational,
    lowest_eigs_tridiag,
    maximal_solution,
    measure_dual,
    minimal_harmonic,
    ou_multiplicity,
    quadratic_form,
    riccati_dual,
    sturm_count,
    symmetrize,
    transform_measure,
    validate_qpair,
)
from isospec._cli_chains import ChainInput
from isospec.chains import bd_to_band, validate_band
from isospec.errors import InvalidArgument


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
    # c_i - q_i may pass 0 by the conservativity tolerance 1e-12 max(1, q_i)
    assert validate_qpair(rates, None, [1.0 + 1e-13, 0.0]).killing[0] == 1.0 + 1e-13
    for c0 in (2.0, 1.0 + 1e-11):
        with pytest.raises(PotentialExceedsRate):
            validate_qpair(rates, None, np.array([c0, 0.0]))


def test_validated_arrays_are_read_only():
    qp = validate_qpair([[0.0, 1.0], [1.0, 0.0]], None, [-0.5, 0.0])
    band = validate_band([1.0], [1.0], None, [-0.5, 0.0])
    for arr in (qp.rates, qp.total, qp.killing, band.up, band.down, band.total, band.killing):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2.0


def test_a_generator_diagonal_past_float_range_is_refused_without_a_warning():
    # c_0 - q_0 = -1e308 - 1e308 overflows; RuntimeWarning is an error here
    message = r"^generator diagonal c\[0\] - q\[0\] = -1e\+308 - 1e\+308 is not finite$"
    with pytest.raises(PreconditionViolated, match=message):
        validate_qpair([[0.0, 1e308], [1e308, 0.0]], None, [-1e308, -1e308])
    with pytest.raises(PreconditionViolated, match=message):
        bd_to_band(BirthDeathSpec(1e308, 1.0, -1e308), 3)


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
    assert issubclass(ref[0], (PreconditionViolated, IndexError))
    assert _raised(lambda: s.rate_arrays(5)) == ref


@pytest.mark.filterwarnings("error")
def test_a_short_rate_array_is_an_invalid_argument_and_still_an_index_error():
    with pytest.raises(InvalidArgument, match="death array of length 2 has no index 2") as ei:
        bd_measures(BirthDeathSpec(1.0, [0.0, 1.0]), 5)
    assert isinstance(ei.value, IndexError)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, call, raised, message", [
    (BirthDeathSpec(lambda i: 2.0**i, lambda i: 2.0 ** (i - 1), 0.0),
     lambda s: delta_tilde(s, np.ones(2048)), OverflowError,
     r"^birth rate at state 1024 raised OverflowError: "),
    (BirthDeathSpec(1.0, lambda i: float("one" if i == 3 else 1)),
     lambda s: s.rate_arrays(5), ValueError, r"^death rate at state 3 raised ValueError: "),
    (BirthDeathSpec(1.0, 1.0, lambda i: 1.0 / (i - 2)),
     lambda s: bd_to_band(s, 4), ZeroDivisionError,
     r"^killing rate at state 2 raised ZeroDivisionError: "),
    (BirthDeathSpec(lambda i: 1j, 1.0), lambda s: s.b(0), TypeError,
     r"^birth rate at state 0 raised TypeError: "),
], ids=["overflow", "value", "zero-division", "type"])
def test_a_callable_rate_that_raises_is_an_invalid_argument(spec, call, raised, message):
    with pytest.raises(InvalidArgument, match=message) as ei:
        call(spec)
    assert isinstance(ei.value.__cause__, raised)


@pytest.mark.parametrize("spec, message", [
    (BirthDeathSpec([1.0, 2.0, 0.0, 1.0], 1.0), "birth rate b[2] = 0.0 must be positive"),
    (BirthDeathSpec(1.0, lambda i: 2.0 - i), "death rate a[2] = 0.0 must be positive"),
], ids=["birth-array", "death-callable"])
def test_a_nonpositive_birth_or_death_rate_is_an_invalid_argument(spec, message):
    with pytest.raises(InvalidArgument) as ei:
        spec.rate_arrays(5)
    assert str(ei.value) == message


def _counting(rate):
    """rate as a callable that records each state it is called at."""
    calls = []

    def birth(i):
        calls.append(i)
        return rate

    return birth, calls


def test_bounds_and_the_bd_h_transform_read_each_state_once():
    birth, calls = _counting(1.0)
    bounds_report(BirthDeathSpec(birth, 2.0, -0.05), N_max=64)
    assert calls == list(range(65))
    birth, calls = _counting(1.0)
    h = bd_harmonic_explicit(BirthDeathSpec(1.0, 1.0, -1.0), 21).values
    bd_h_transform(BirthDeathSpec(birth, 1.0, -1.0), h, 20)
    assert calls == list(range(21))


@pytest.mark.parametrize("band", [False, True], ids=["verify", "transform-measure"])
def test_a_chain_and_its_measure_read_each_state_once(band):
    # verify takes the dense chain, transform --direction measure the band, then mu
    birth, calls = _counting(1.0)
    ci = ChainInput(kind="bd", bd=BirthDeathSpec(birth, 2.0, -0.05), N=20)
    assert ci.as_qpair(band=band).n_states == 21
    mu = ci.measure()
    assert calls == list(range(20))
    # the same bits as bd_measures, which also reads b_20
    assert mu.tobytes() == bd_measures(BirthDeathSpec(1.0, 2.0, -0.05), 20).mu.tobytes()


def test_bd_measures_never_reads_the_killing_rates():
    def killing(i):
        raise AssertionError(f"killing rate read at state {i}")

    assert np.array_equal(bd_measures(BirthDeathSpec(2.0, 1.0, killing), 4).mu,
                          [1.0, 2.0, 4.0, 8.0, 16.0])
    # a killing rate that cannot be read is no error where none is needed
    mp = bd_measures(BirthDeathSpec(1.0, 1.0, lambda i: 1.0 / (i - 2)), 4)
    assert np.array_equal(mp.mu, np.ones(5))


def test_bd_to_qpair_reflecting_never_reads_the_last_birth_rate():
    s = BirthDeathSpec(birth=[2.0, 2.0, 2.0], death=1.0)
    assert bd_to_qpair(s, 3).rates[2, 3] == 2.0


def test_bd_measures_match_running_product_loop():
    rng = np.random.default_rng(5)
    s = BirthDeathSpec(birth=rng.uniform(0.5, 2.0, 60), death=rng.uniform(0.5, 2.0, 60))
    mu = np.empty(51)
    mu[0] = 1.0
    for i in range(1, 51):
        mu[i] = mu[i - 1] * (s.b(i - 1) / s.a(i))
    mp = bd_measures(s, 50)
    assert np.array_equal(mp.mu, mu)
    assert np.array_equal(mp.nu_hat, [1.0 / (mu[i] * s.b(i)) for i in range(51)])


def test_bd_spec_holds_only_its_inputs():
    assert BirthDeathSpec._fields == ("birth", "death", "killing")
    assert not hasattr(BirthDeathSpec(1.0, 1.0), "__dict__")


def test_rate_arrays_call_a_callable_once_per_state():
    calls = []
    s = BirthDeathSpec(birth=lambda i: calls.append(i) or 1.0 + i, death=1.0)
    b, _, _ = s.rate_arrays(5)
    assert calls == list(range(6))
    assert np.array_equal(b, np.arange(1.0, 7.0))


# A killed chain and a conservative one on 5 states, each dense and as a band
_KILLED = BirthDeathSpec(birth=1.0, death=2.0, killing=-0.5)
_FREE = BirthDeathSpec(birth=1.0, death=2.0)
_QP, _BAND, _CONS = bd_to_qpair(_KILLED, 4), bd_to_band(_KILLED, 4), bd_to_band(_FREE, 4)
_MU, _ONES = bd_measures(_KILLED, 4).mu, np.ones(5)
_D, _E = np.array([2.0, 3.0, 3.0, 3.0, 1.0]), np.ones(4)

# name -> (call of the argument, a valid argument, whether only its prefix is read)
_PER_STATE = {
    "conjugate-dense": (lambda v: conjugate(_QP, v), _ONES, False),
    "conjugate-band": (lambda v: conjugate(_BAND, v), _ONES, False),
    "h_transform": (lambda v: h_transform(bd_to_qpair(_FREE, 4), v), _ONES, False),
    "h_transform_local": (lambda v: h_transform_local(_CONS, v), _ONES, False),
    "inverse_transform": (lambda v: inverse_transform(_CONS, v), _ONES, False),
    "transform_measure-h": (lambda v: transform_measure(_MU, v), _ONES, False),
    "transform_measure-mu": (lambda v: transform_measure(v, _ONES), _MU, False),
    "measure_dual": (lambda v: measure_dual(_BAND, v), _MU, False),
    "symmetrize": (lambda v: symmetrize(_QP, v), _MU, False),
    # h on 0..N+1 for N = 3; entries past N+1 are not read
    "bd_h_transform": (lambda v: bd_h_transform(_FREE, v, 3), _ONES, True),
    "quadratic_form-mu": (lambda v: quadratic_form(_QP, v, _ONES), _MU, False),
    "quadratic_form-f": (lambda v: quadratic_form(_QP, _MU, v), _ONES, False),
    "QPairSpec.apply": (_QP.apply, _ONES, False),
    "BandSpec.apply": (_BAND.apply, _ONES, False),
    "harmonic_residual": (lambda v: harmonic_residual(_QP, v), _ONES, False),
    "is_supersolution": (lambda v: is_supersolution(_QP, 0, v), _ONES, False),
    "validate_qpair-total": (lambda v: validate_qpair(_QP.rates, v), _QP.total, False),
    "validate_qpair-killing": (lambda v: validate_qpair(_QP.rates, _QP.total, v),
                               _QP.killing, False),
    "validate_band-total": (lambda v: validate_band(_BAND.up, _BAND.down, v),
                            _BAND.total, False),
    "validate_band-killing": (lambda v: validate_band(_BAND.up, _BAND.down, _BAND.total, v),
                              _BAND.killing, False),
    "lowest_eigs_tridiag": (lambda v: lowest_eigs_tridiag(_D, v, 1), _E, False),
    "sturm_count": (lambda v: sturm_count(_D, v, 2.5), _E, False),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", _PER_STATE)
def test_per_state_arguments_need_one_finite_entry_per_state(name):
    call, good, prefix = _PER_STATE[name]
    call(good)
    long = np.append(good, good[-1])
    if prefix:
        call(long)
    for bad in (good[:-1], good[:1]) + (() if prefix else (long,)):
        with pytest.raises(InvalidArgument, match="has shape"):
            call(bad)
    nan = good.copy()
    nan[1] = np.nan
    with pytest.raises(IsospecError):
        call(nan)


# name -> (call of the index argument, a valid argument, malformed ones)
_INDICES = {
    "h_transform_local": (lambda s: h_transform_local(_CONS, _ONES, harmonic_set=s), [0, 3],
                          ([7], [-1], [2.5])),
    "harmonic_residual": (lambda s: harmonic_residual(_QP, _ONES, B=s), [0, 4], ([9], [-1])),
    "is_supersolution": (lambda t: is_supersolution(_QP, t, _ONES), 0, (-1, 9, True)),
    "minimal_harmonic": (lambda t: minimal_harmonic(_QP, t), 4, (-1, 9, True)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", _INDICES)
def test_state_indices_are_integers_of_the_chain(name):
    call, good, bad = _INDICES[name]
    call(good)
    for idx in bad:
        with pytest.raises(InvalidArgument, match="outside 0..4|is not an integer"):
            call(idx)


# name -> call with the tolerance t; max_iter keeps a loop that never stops short
_TOLERANCES = {
    "h_transform": lambda t: h_transform(bd_to_qpair(_FREE, 4), _ONES, tol=t),
    "h_transform_local": lambda t: h_transform_local(_CONS, _ONES, tol=t),
    # h is not harmonic on the killed chain, so only the check refuses it
    "bd_h_transform": lambda t: bd_h_transform(_KILLED, np.linspace(1.0, 3.0, 6), 4, tol=t),
    "minimal_harmonic": lambda t: minimal_harmonic(_QP, 0, tol=t, max_iter=10),
    "maximal_solution": lambda t: maximal_solution(_QP, tol=t, max_iter=10),
    "is_supersolution": lambda t: is_supersolution(_QP, 0, _ONES, tol=t),
    "isospectral_check": lambda t: isospectral_check(_QP, _MU, _QP, _MU, tol=t),
    "lowest_eigs_tridiag": lambda t: lowest_eigs_tridiag([2.0, 3.0], [1.0], 1, rel_tol=t),
    "delta_tilde": lambda t: delta_tilde(_KILLED, bd_harmonic_explicit(_KILLED, 300),
                                         tail_tol=t),
    "bounds_report": lambda t: bounds_report(_KILLED, N_max=16, tail_tol=t),
    "forward_transform": lambda t: forward_transform(
        Operator1D.on_interval(0.5, 0.0, 0.0, -1.0, 1.0, 20), SmoothFunction(1.0, 0.0, 0.0),
        tol=t),
    "forward_transform_points": lambda t: forward_transform_points(
        np.eye(1), np.zeros((2, 1)), np.zeros(2), np.ones(2), np.zeros((2, 1)),
        np.zeros((2, 1, 1)), tol=t),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", _TOLERANCES)
@pytest.mark.parametrize("bad", [np.nan, -1.0], ids=["nan", "negative"])
def test_a_tolerance_is_a_number_at_least_zero(name, bad):
    with pytest.raises(InvalidArgument, match="tol = .* is not a number >= 0"):
        _TOLERANCES[name](bad)


def _count_cases(lo, hi=None):
    """A bool, a float, text and the values just outside lo..hi."""
    return (True, 2.5, "3", lo - 1) + (() if hi is None else (hi + 1,))


_OP = Operator1D.on_interval(0.5, 0.0, 0.0, -1.0, 1.0, 20)
_H300 = bd_harmonic_explicit(_KILLED, 300)

# name -> (argument name, call of the argument, a valid argument, refused ones)
_NUMBER_ARGS = {
    "rate_arrays": ("N", _KILLED.rate_arrays, 4, _count_cases(0)),
    "bd_measures": ("N", lambda n: bd_measures(_KILLED, n), 4, _count_cases(0)),
    "bd_h_transform": ("N", lambda n: bd_h_transform(_FREE, np.ones(6), n), 4,
                       _count_cases(0)),
    "bd_to_qpair": ("N", lambda n: bd_to_qpair(_KILLED, n), 4, _count_cases(1)),
    "bd_to_band": ("N", lambda n: bd_to_band(_KILLED, n), 4, _count_cases(1)),
    "bd_harmonic_explicit": ("N", lambda n: bd_harmonic_explicit(_KILLED, n), 4,
                             _count_cases(1)),
    "lambda0_variational": ("N", lambda n: lambda0_variational(_KILLED, n), 4,
                            _count_cases(1)),
    "delta_tilde": ("N_max", lambda n: delta_tilde(_KILLED, _H300, N_max=n), 256,
                    _count_cases(1)),
    "bounds_report": ("N_max", lambda n: bounds_report(_KILLED, N_max=n), 64, _count_cases(8)),
    "minimal_harmonic": ("max_iter", lambda n: minimal_harmonic(_QP, 0, max_iter=n), 10**5,
                         _count_cases(1)),
    "minimal_harmonic-solve": ("max_iter",
                               lambda n: minimal_harmonic(_QP, 0, max_iter=n, method="solve"),
                               10**5, _count_cases(1)),
    "maximal_solution": ("max_iter", lambda n: maximal_solution(_QP, max_iter=n), 10**5,
                         _count_cases(1)),
    "lowest_eigs_tridiag": ("k", lambda k: lowest_eigs_tridiag(_D, _E, k), 5,
                            _count_cases(1, 5)),
    "hermite_polys": ("n_max", hermite_polys, 60, _count_cases(0, 60)),
    "ou_multiplicity-n": ("n", lambda n: ou_multiplicity(n, 2), 3, _count_cases(0)),
    "ou_multiplicity-d": ("d", lambda d: ou_multiplicity(3, d), 2, _count_cases(1)),
    "CompiledExpr.diff": ("order", compile_expression("x^2").diff, 2, _count_cases(0)),
    "PolyGauss.diff": ("order", hermite_polys(2)[2].diff, 2, _count_cases(0)),
    "Operator1D.on_interval": ("M", lambda m: Operator1D.on_interval(0.5, 0, 0, -1, 1, m), 20,
                               _count_cases(1)),
    # numbers read where a count is not
    "riccati_dual-phi0": ("phi0", lambda v: riccati_dual(_OP, v), 0.0, ("a", [0.0, 1.0])),
    "riccati_dual-x0": ("x0", lambda v: riccati_dual(_OP, 0.0, x0=v), 0.0, ("a", [0.0, 1.0])),
    "riccati_dual-guard": ("guard", lambda v: riccati_dual(_OP, 0.0, guard=v), np.inf,
                           (np.nan, -1.0, "a")),
    "sturm_count": ("x", lambda v: sturm_count([1.0, 2.0], [0.5], v), 1.5, ("a", [1.5])),
    "sturm_count-d": ("d", lambda d: sturm_count(d, [], 0.5), [1.0], (1.0, [])),
    "lowest_eigs_tridiag-d": ("d", lambda d: lowest_eigs_tridiag(d, [0.5], 1), [1.0, 2.0],
                              (["a", 1.0], [[1.0, 2.0]])),
    "lowest_eigs_tridiag-d-scalar": ("d", lambda d: lowest_eigs_tridiag(d, [], 1), [1.0],
                                     (1.0, [])),
    "CompiledExpr.fn": ("x", compile_expression("x^2").fn, [1.0, 2.0], ("abc", [[1, 2], [3]])),
    "Operator1D.coefficients": ("x", _OP.coefficients, [0.0, 0.5], ("abc", [[1, 2], [3]])),
}


_NUMBER_CASES = [(k, v) for k, c in _NUMBER_ARGS.items() for v in c[3]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, bad", _NUMBER_CASES,
                         ids=[f"{k}-{v!r}" for k, v in _NUMBER_CASES])
def test_counts_and_numbers_refuse_other_values_as_invalid_arguments(name, bad):
    arg, call, good, _ = _NUMBER_ARGS[name]
    call(good)
    with pytest.raises(InvalidArgument, match=f"^{arg} (= |must )"):
        call(bad)


def test_sturm_count_refuses_a_nan_shift():
    assert sturm_count([1.0, 2.0], [0.5], 1.5) == 1
    with pytest.raises(PreconditionViolated, match="x has a NaN or infinite entry"):
        sturm_count([1.0, 2.0], [0.5], np.nan)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("arg", ["phi0", "x0"])
def test_riccati_dual_refuses_a_nan_anchor_value(arg):
    with pytest.raises(PreconditionViolated, match=f"^{arg} has a NaN or infinite entry"):
        riccati_dual(_OP, **{"phi0": 0.0, arg: np.nan})


def test_riccati_dual_reads_its_anchor_as_the_number_given():
    # text and 0-d arrays read as the number they hold, as every numeric argument does
    want = riccati_dual(_OP, 0.25, x0=0.5)
    got = riccati_dual(_OP, np.array(0.25), x0="0.5")
    assert np.array_equal(got.phi, want.phi) and np.array_equal(got.psi, want.psi)
    with pytest.raises(PreconditionViolated, match="^x0 = 0.55 is not a grid point$"):
        riccati_dual(_OP, 0.0, x0="0.55")


def test_validate_refuses_ragged_rates():
    with pytest.raises(PreconditionViolated, match="rates must be a square matrix with n >= 1"):
        validate_qpair([[0, 1], [1]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("up, down, raised", [
    (["a"], [1.0], InvalidArgument),
    ([1.0], "b", InvalidArgument),
    ([[1.0], [1.0, 2.0]], [1.0, 1.0], InvalidArgument),
    ([1.0, 1.0], [[1.0], [2.0, 3.0]], InvalidArgument),
    (None, [1.0], PreconditionViolated),
    ([1.0], [None], PreconditionViolated),
], ids=["text-up", "text-down", "ragged-up", "ragged-down", "none-up", "none-entry"])
def test_validate_band_refuses_text_none_and_ragged_rows(up, down, raised):
    with pytest.raises(raised):
        validate_band(up, down)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: minimal_harmonic(_QP, 0, method="newton"),
    lambda: bd_harmonic_explicit(_KILLED, 4, method="newton"),
    lambda: riccati_dual(Operator1D.on_interval(0.5, 0.0, 0.0, -1.0, 1.0, 20), 0.0).smooth(
        "spline"),
], ids=["minimal_harmonic-method", "bd_harmonic_explicit-method", "smooth-mode"])
def test_unknown_option_values_are_invalid_arguments(call):
    with pytest.raises(InvalidArgument, match="unknown"):
        call()
