import warnings

import numpy as np
import pytest

from isospec import (
    BirthDeathSpec,
    Divergence,
    NonConvergence,
    PreconditionViolated,
    bd_harmonic_explicit,
    bd_to_qpair,
    harmonic_residual,
    is_supersolution,
    maximal_solution,
    minimal_harmonic,
    validate_qpair,
)
from isospec.errors import InvalidArgument
from conftest import exact_harmonic_pair, make_conservative, make_reversible_killed


def test_explicit_constant_unit_killing_is_odd_fibonacci():
    # b = a = 1, c = -1: h_{n+1} = 3 h_n - h_{n-1}, h_0 = 1, h_1 = 2
    s = BirthDeathSpec(birth=1.0, death=1.0, killing=-1.0)
    expect = np.array([1.0, 2.0, 5.0, 13.0, 34.0, 89.0, 233.0, 610.0, 1597.0])
    for method in ("ftilde", "recurrence"):
        hv = bd_harmonic_explicit(s, 8, method=method)
        assert np.array_equal(hv.values, expect)
        assert hv.residual == 0.0
        assert hv.harmonic_set == tuple(range(8))
        assert hv.base_index == 0


def test_explicit_methods_agree_on_random_rates():
    rng = np.random.default_rng(314)
    for _ in range(10):
        s = BirthDeathSpec(
            birth=rng.uniform(0.5, 1.5, 80),
            death=rng.uniform(0.5, 1.5, 80),
            killing=-rng.uniform(0.05, 0.5, 80),
        )
        h1 = bd_harmonic_explicit(s, 60, method="ftilde").values
        h2 = bd_harmonic_explicit(s, 60, method="recurrence").values
        assert np.max(np.abs(h1 - h2) / h2) < 1e-10


def _indexed_recurrence(b, a, c, N):
    """The forward recurrence stepped on numpy scalars, indexing the rate arrays."""
    h = np.empty(N + 1)
    h[0] = 1.0
    h[1] = 1.0 - c[0] / b[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, N):
            h[n + 1] = h[n] + (a[n] * (h[n] - h[n - 1]) - c[n] * h[n]) / b[n]
    return h


def test_recurrence_matches_the_indexed_loop_bit_for_bit():
    # rates over twelve orders of magnitude and killing of both signs, so that
    # h overflows to inf and then NaN in some chains; no warning may escape
    rng = np.random.default_rng(2718)
    for _ in range(300):
        N = int(rng.integers(1, 120))
        birth, death = 10.0 ** rng.uniform(-6.0, 6.0, (2, N + 1))
        killing = 10.0 ** rng.uniform(-6.0, 6.0, N + 1) * rng.choice([-1.0, 1.0], N + 1)
        s = BirthDeathSpec(birth=birth, death=death, killing=killing)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the positive-potential advisory
            warnings.simplefilter("error", RuntimeWarning)
            got = bd_harmonic_explicit(s, N).values
        b, a, c = s.rate_arrays(N)
        assert got.tobytes() == _indexed_recurrence(b, a, c, N).tobytes()


def _loop_residual(b, a, c, h, N):
    res = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(N):
            if not (np.isfinite(h[n]) and np.isfinite(h[n + 1])):
                break
            r = b[n] * (h[n + 1] - h[n]) + c[n] * h[n]
            if n >= 1:
                r += a[n] * (h[n - 1] - h[n])
            scale = max(1.0, abs(b[n] * h[n + 1]), abs(a[n] * h[n]) if n else 0.0)
            res = max(res, abs(r) / scale)
    return res


def test_explicit_residual_matches_loop_reference():
    rng = np.random.default_rng(2718)
    specs = [
        BirthDeathSpec(birth=rng.uniform(0.5, 1.5, 301), death=rng.uniform(0.5, 1.5, 301),
                       killing=-rng.uniform(0.05, 0.5, 301)),
        # h overflows to inf part way: the residual stops at the first such pair
        BirthDeathSpec(birth=1.0, death=1.0, killing=-50.0),
        BirthDeathSpec(birth=1.0, death=1.0, killing=0.5),
        # h_1 = 1 - c_0 / b_0 is already inf: no pair is finite
        BirthDeathSpec(birth=1e-300, death=1.0, killing=-1e10),
    ]
    for s in specs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for method in ("recurrence", "ftilde"):
                hv = bd_harmonic_explicit(s, 300, method=method)
                ref = _loop_residual(*s.rate_arrays(300), hv.values, 300)
                assert hv.residual == ref
    assert not np.all(np.isfinite(bd_harmonic_explicit(specs[1], 300).values))


def test_explicit_defaults_to_recurrence():
    s = BirthDeathSpec(birth=1.3, death=0.7, killing=-0.2)
    default = bd_harmonic_explicit(s, 50).values
    assert np.array_equal(default, bd_harmonic_explicit(s, 50, method="recurrence").values)


def test_explicit_positive_and_nondecreasing_for_killing():
    rng = np.random.default_rng(99)
    s = BirthDeathSpec(
        birth=rng.uniform(0.5, 2.0, 120),
        death=rng.uniform(0.5, 2.0, 120),
        killing=-0.3,
    )
    hv = bd_harmonic_explicit(s, 100)
    assert np.all(hv.values > 0.0)
    assert np.all(np.diff(hv.values) >= 0.0)


def test_explicit_residual_on_truncated_chain():
    s = BirthDeathSpec(birth=1.3, death=0.7, killing=-0.2)
    N = 40
    hv = bd_harmonic_explicit(s, N)
    qp = bd_to_qpair(s, N)
    res = harmonic_residual(qp, hv.values, B=range(N))
    assert np.max(np.abs(res)) <= 1e-10 * np.max(hv.values)


def test_explicit_warns_on_positive_potential():
    s = BirthDeathSpec(birth=1.0, death=1.0, killing=0.5)
    with pytest.warns(UserWarning, match="positivity"):
        bd_harmonic_explicit(s, 5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["recurrence", "ftilde"])
def test_explicit_reads_no_rates_of_state_n(method):
    # h on 0..N needs b, a and c on 0..N-1 only: arrays of N entries suffice,
    # and a positive c_N neither warns nor changes h
    h = bd_harmonic_explicit(BirthDeathSpec([1.0] * 8, [1.0] * 8, [-1.0] * 8), 8, method)
    ref = bd_harmonic_explicit(BirthDeathSpec([1.0] * 9, [1.0] * 9, [-1.0] * 8 + [0.3]), 8,
                               method)
    assert h.values.tobytes() == ref.values.tobytes()
    assert h.values[-1] == 1597.0


def test_minimal_iterate_matches_solve():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        n = int(rng.integers(3, 25))
        qp, _ = make_reversible_killed(rng, n)
        h_it, tr = minimal_harmonic(qp, 0, tol=1e-14)
        h_sv, _ = minimal_harmonic(qp, 0, method="solve")
        assert tr.converged
        assert np.max(np.abs(h_it.values - h_sv.values)) < 1e-10
        assert h_it.values[0] == 1.0
        assert np.all(h_it.values > 0.0)


def _minimal_loop(qp, theta, tol, max_iter):
    """The anchored iteration from zero as one loop: (h, n_iter, final_delta)."""
    n = qp.n_states
    mask = np.arange(n) != theta
    denom = qp.total[mask] - qp.killing[mask]
    K = qp.rates[np.ix_(mask, mask)] / denom[:, None]
    s = qp.rates[mask, theta] / denom
    hm = np.zeros(n - 1)
    for it in range(1, max_iter + 1):
        new = K @ hm + s
        delta = float(np.max(np.abs(new - hm))) if n > 1 else 0.0
        hm = new
        if delta < tol:
            break
    h = np.empty(n)
    h[mask] = hm
    h[theta] = 1.0
    return h, it, delta


def test_minimal_iterate_matches_the_loop_bit_for_bit():
    rng = np.random.default_rng(1411)
    for k in range(40):
        n = int(rng.integers(1, 20))
        qp, _ = make_reversible_killed(rng, n, kill_lo=0.01 * (k % 3 + 1), kill_hi=1.0)
        theta = int(rng.integers(0, n))
        tol = 10.0 ** -rng.integers(6, 15)
        max_iter = 5 if k % 8 == 0 else 100000
        h, it, delta = _minimal_loop(qp, theta, tol, max_iter)
        if delta < tol:
            hv, tr = minimal_harmonic(qp, theta, tol=tol, max_iter=max_iter)
            assert np.array_equal(hv.values, h)
            assert (tr.converged, tr.n_iter, tr.final_delta) == (True, it, delta)
        else:
            with pytest.raises(NonConvergence) as ei:
                minimal_harmonic(qp, theta, tol=tol, max_iter=max_iter)
            assert (ei.value.max_iter, ei.value.final_delta) == (max_iter, delta)


def test_minimal_harmonic_residual_off_anchor():
    rng = np.random.default_rng(5)
    qp, _ = make_reversible_killed(rng, 12)
    hv, _ = minimal_harmonic(qp, 3, method="solve")
    res = harmonic_residual(qp, hv, B=[i for i in range(12) if i != 3])
    assert np.max(np.abs(res)) < 1e-11
    assert hv.base_index == 3
    assert 3 not in hv.harmonic_set


def test_minimal_harmonic_rejects_bad_anchor():
    rng = np.random.default_rng(1)
    qp, _ = make_reversible_killed(rng, 5)
    with pytest.raises(PreconditionViolated):
        minimal_harmonic(qp, 7)


def test_minimal_harmonic_requires_subcritical_potential():
    # c = q at a non-anchor state leaves no mass to renormalise
    rates = np.array([[0.0, 1.0], [1.0, 0.0]])
    qp = validate_qpair(rates, None, np.array([0.0, 1.0]))
    with pytest.raises(PreconditionViolated):
        minimal_harmonic(qp, 0)


def test_minimal_harmonic_diverges_on_supercritical_potential():
    # c just below q feeds the iteration a kernel with row sum > 1
    rates = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    qp = validate_qpair(rates, None, np.array([0.0, 1.5, 0.5]))
    with pytest.raises(Divergence):
        minimal_harmonic(qp, 0, ceiling=1e6)


@pytest.mark.parametrize("killing, message", [
    # K h + s from 0 diverges, and I - K has a solution with negative entries
    ([0.0, 1.5, 0.5],
     r"^no finite minimal solution: the direct solve gives h\[1\] = -0\.6666666666666666$"),
    # the spectral radius of K is exactly 1
    ([0.0, 1.0, 0.0], r"^no finite minimal solution: I - K is singular$"),
], ids=["negative", "singular"])
def test_minimal_solve_refuses_where_no_finite_minimal_solution_exists(killing, message):
    rates = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    qp = validate_qpair(rates, None, np.array(killing))
    with pytest.raises(PreconditionViolated, match=message) as ei:
        minimal_harmonic(qp, 0, method="solve")
    assert not isinstance(ei.value, InvalidArgument)  # a failed check, not bad input
    # the reference iteration finds no finite limit either
    with pytest.raises((Divergence, NonConvergence)):
        minimal_harmonic(qp, 0, max_iter=1000)


def test_minimal_harmonic_nonconvergence_budget():
    rng = np.random.default_rng(8)
    qp, _ = make_reversible_killed(rng, 10, kill_lo=0.01, kill_hi=0.02)
    with pytest.raises(NonConvergence):
        minimal_harmonic(qp, 0, tol=1e-14, max_iter=3)


def test_minimal_harmonic_warns_when_anchor_unreachable():
    for rates, killing in (
        # state 2 has no outgoing jumps, so it never hits the anchor
        ([[0, 1, 0], [1, 0, 1], [0, 0, 0]], -0.1),
        # states 1 and 2 form a closed class, on which I - K is singular
        ([[0, 1, 0], [0, 0, 1], [0, 1, 0]], 0.0),
    ):
        qp = validate_qpair(np.array(rates, dtype=float), None, np.full(3, killing))
        runs = []
        for method in ("solve", "iterate"):
            with pytest.warns(UserWarning, match="cannot reach"):
                runs.append(minimal_harmonic(qp, 0, method=method)[0])
        assert runs[0].values[2] == 0.0
        assert runs[0].values.tobytes() == runs[1].values.tobytes()


def test_supersolution_accepts_harmonic_and_constants():
    rng = np.random.default_rng(13)
    qp, h = exact_harmonic_pair(rng, 8)
    assert is_supersolution(qp, 0, h, tol=1e-8)
    killed, _ = make_reversible_killed(rng, 8)
    assert is_supersolution(killed, 0, np.ones(8))


def test_maximal_solution_conservative_stays_one():
    rng = np.random.default_rng(3)
    qp = make_conservative(rng, 7)
    z, tr = maximal_solution(qp)
    assert tr.converged
    assert np.allclose(z, 1.0, rtol=0, atol=1e-12)


def test_maximal_solution_vanishes_under_killing():
    rng = np.random.default_rng(4)
    qp, _ = make_reversible_killed(rng, 7, kill_lo=0.5, kill_hi=1.0)
    z, tr = maximal_solution(qp, tol=1e-13)
    assert tr.converged
    assert np.max(z) < 1e-10


def _maximal_loop(qp, tol, max_iter):
    """z <- min(P z, z) from z = 1 as one loop: (z, n_iter, final_delta)."""
    denom = qp.total - qp.killing
    idle = denom == 0.0
    P = qp.rates / np.where(idle, 1.0, denom)[:, None]
    z = np.ones(qp.n_states)
    for it in range(1, max_iter + 1):
        new = np.minimum(np.where(idle, z, P @ z), z)
        delta = float(np.max(z - new))
        z = new
        if delta < tol:
            break
    return z, it, delta


def test_maximal_solution_matches_the_loop_bit_for_bit():
    rng = np.random.default_rng(1411)
    for k in range(40):
        n = int(rng.integers(1, 20))
        if k % 2:
            qp, _ = make_reversible_killed(rng, n, kill_lo=0.01, kill_hi=0.5)
        else:
            qp = make_conservative(rng, n)
            if k % 4 == 0:  # an idle state: no jumps out and no killing
                rates = qp.rates.copy()
                rates[int(rng.integers(0, n))] = 0.0
                qp = validate_qpair(rates)
        tol = 10.0 ** -rng.integers(6, 15)
        max_iter = 5 if k % 8 == 1 else 100000
        z, it, delta = _maximal_loop(qp, tol, max_iter)
        if delta < tol:
            got, tr = maximal_solution(qp, tol=tol, max_iter=max_iter)
            assert np.array_equal(got, z)
            assert (tr.converged, tr.n_iter, tr.final_delta) == (True, it, delta)
        else:
            with pytest.raises(NonConvergence) as ei:
                maximal_solution(qp, tol=tol, max_iter=max_iter)
            assert (ei.value.max_iter, ei.value.final_delta) == (max_iter, delta)


def test_maximal_solution_rejects_positive_potential():
    rates = np.array([[0.0, 1.0], [1.0, 0.0]])
    qp = validate_qpair(rates, None, np.array([0.5, 0.0]))
    with pytest.raises(PreconditionViolated):
        maximal_solution(qp)
