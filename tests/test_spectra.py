import signal

import numpy as np
import pytest

import isospec.spectra
from isospec import (
    BirthDeathSpec,
    NotReversible,
    PreconditionViolated,
    bd_measures,
    bd_to_qpair,
    eig_sym,
    isospectral_check,
    lambda0_variational,
    lowest_eigs_tridiag,
    quadratic_form,
    spectral_radius,
    sturm_count,
    symmetrize,
    validate_qpair,
)
from conftest import make_reversible_killed


def test_symmetrize_shares_generator_spectrum():
    rng = np.random.default_rng(30)
    qp, mu = make_reversible_killed(rng, 12)
    S = symmetrize(qp, mu)
    assert np.max(np.abs(S - S.T)) == 0.0
    ref = np.sort(np.linalg.eigvals(qp.generator).real)
    ours = np.sort(np.linalg.eigvalsh(S))
    assert np.max(np.abs(ref - ours)) < 1e-8 * max(1.0, np.max(np.abs(ours)))


def test_symmetrize_rejects_wrong_measure():
    rng = np.random.default_rng(31)
    qp, mu = make_reversible_killed(rng, 8)
    with pytest.raises(NotReversible):
        symmetrize(qp, mu * rng.uniform(0.5, 2.0, 8))


def test_eig_sym_matches_a_constructed_spectrum():
    # spectrum known by construction: S = Q diag(w) Q^T with Q orthogonal
    rng = np.random.default_rng(32)
    for n in (2, 5, 17, 40):
        w = np.sort(rng.normal(size=n))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        S = (Q * w) @ Q.T
        ours = eig_sym((S + S.T) / 2.0)
        assert np.max(np.abs(ours - w)) < 1e-11 * max(1.0, np.max(np.abs(w)))


def test_eig_sym_matches_sturm_bisection_on_a_tridiagonal():
    rng = np.random.default_rng(34)
    d = rng.normal(size=25)
    e = rng.normal(size=24)
    S = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ours = eig_sym(S)
    ref = lowest_eigs_tridiag(d, e, 25)
    tol = 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(ours - ref)) < tol


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(PreconditionViolated):
        eig_sym(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(PreconditionViolated):
        eig_sym(np.array([1.0, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_sym_rejects_non_finite(bad):
    # LAPACK itself returns finite-looking eigenvalues for [[nan, 1], [1, 0]]
    with pytest.raises(PreconditionViolated):
        eig_sym(np.array([[bad, 1.0], [1.0, 0.0]]))


def test_eig_sym_lapack_failure_says_what_failed(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(PreconditionViolated, match="^LAPACK eigvalsh did not converge$"):
        eig_sym(np.eye(3))


def test_eig_sym_matches_the_toeplitz_closed_form():
    # closed-form Toeplitz spectrum d + 2 e cos(k pi / (n + 1))
    for d0, e0, n in ((2.0, -1.0, 60), (0.3, 0.7, 17), (1.5, 0.0, 4)):
        k = np.arange(1, n + 1)
        ref = np.sort(d0 + 2.0 * e0 * np.cos(k * np.pi / (n + 1)))
        S = d0 * np.eye(n) + e0 * (np.eye(n, k=1) + np.eye(n, k=-1))
        ours = eig_sym(S)
        assert np.max(np.abs(ours - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_sturm_count_matches_reference_counts():
    rng = np.random.default_rng(36)
    d = rng.normal(size=30)
    e = rng.normal(size=29)
    S = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    w = np.linalg.eigvalsh(S)
    for x in (-2.0, -0.5, 0.0, 0.3, 1.7, w[3] + 1e-9):
        n = int(np.sum(w < x))
        assert sturm_count(d, e, x) == n
        # the bisection's counts stop at k
        for k in (1, 4, 30):
            assert isospec.spectra._sturm_count(d.tolist(), e.tolist(), x, k) == min(n, k)


def test_sturm_count_same_on_lists_and_arrays():
    rng = np.random.default_rng(37)
    # graded over 200 orders of magnitude, and an exact zero pivot at x = 0
    d = 10.0 ** rng.uniform(-100.0, 100.0, 60) * rng.choice([-1.0, 1.0], 60)
    e = 10.0 ** rng.uniform(-100.0, 100.0, 59)
    d[0] = 0.0
    shifts = [0.0, *(10.0 ** rng.uniform(-100.0, 100.0, 20) * rng.choice([-1.0, 1.0], 20))]
    for x in shifts:
        with np.errstate(over="ignore"):  # numpy scalars warn where floats do not
            assert sturm_count(d.tolist(), e.tolist(), x) == sturm_count(d, e, x)


def test_smallest_eig_graded_matrix_full_relative_accuracy():
    # Dirichlet form of b_i = 2^i, a_i = 2^(i-1), c = 0 truncated at N = 40.
    # Entries span twelve orders of magnitude; dense solvers lose the bottom
    # eigenvalue to eps * norm noise.  Reference value from a 50-digit solve.
    N = 40
    b = 2.0 ** np.arange(N + 1)
    a = np.concatenate(([0.0], 2.0 ** (np.arange(1, N + 1) - 1)))
    d = b + a
    e = -np.sqrt(b[:N]) * np.sqrt(a[1:])
    lam = lowest_eigs_tridiag(d, e, 1, 1e-14)[0]
    ref = 0.34387045237988115
    assert abs(lam - ref) < 5e-14 * ref


def test_lowest_eigs_tridiag_matches_reference():
    rng = np.random.default_rng(37)
    d = rng.uniform(1.0, 4.0, 50)
    e = -rng.uniform(0.2, 1.0, 49)
    S = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = np.sort(np.linalg.eigvalsh(S))[:6]
    ours = lowest_eigs_tridiag(d, e, 6)
    assert np.max(np.abs(ours - ref)) < 1e-11 * np.max(np.abs(ref))
    assert lowest_eigs_tridiag(d, e, 1, 1e-14)[0] == pytest.approx(ref[0], rel=1e-12)


def test_bisection_at_zero_tolerance_stops_at_its_step_cap():
    # rel_tol = 0 never ends the bisection; the midpoint stops moving once it
    # meets an end, and the cap of 4096 steps returns it
    got = lowest_eigs_tridiag([2.0, 3.0, 1.0], [1.0, 0.5], 2, rel_tol=0.0)
    assert got.tolist() == [0.8138593383654928, 1.5]


@pytest.mark.parametrize("call", [
    lambda: lowest_eigs_tridiag([-1e308, 1e308], [1e308], 1),
    lambda: lambda0_variational(BirthDeathSpec(6e307, 6e307), 4),
], ids=["tridiagonal", "bd"])
def test_a_bracket_past_float_range_is_refused(call):
    # the Gershgorin bracket max(d) + 2 max|e| overflows though every entry is finite
    with pytest.raises(PreconditionViolated, match=r"^eigenvalue bracket \[.*\] is too wide$"):
        call()


def _bisect_each(d, e, k, rel_tol=1e-13):
    """The k smallest eigenvalues, each by its own bisection from the shared bracket."""
    span = float(np.max(np.abs(e)))
    top, bot = float(np.max(d)) + 2.0 * span, float(np.min(d)) - 2.0 * span
    d, e = d.tolist(), e.tolist()
    out, calls = [], 0
    for i in range(1, k + 1):
        lo, hi = bot, top
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            calls += 1
            if sturm_count(d, e, mid) >= i:
                hi = mid
            else:
                lo = mid
            if hi - lo <= rel_tol * max(abs(lo), abs(hi), 1e-300):
                break
        out.append(0.5 * (lo + hi))
    return out, calls


def _graded(rng):
    """The Dirichlet form of b_i = 2^i, a_i = 2^(i-1), as in the graded test above."""
    b = 2.0 ** np.arange(41)
    a = np.concatenate(([0.0], 2.0 ** np.arange(40)))
    return b + a, -np.sqrt(b[:40]) * np.sqrt(a[1:])


def _graded_200(rng):
    """Graded over 200 orders of magnitude, as in the list-and-array test above."""
    return (10.0 ** rng.uniform(-100.0, 100.0, 60) * rng.choice([-1.0, 1.0], 60),
            10.0 ** rng.uniform(-100.0, 100.0, 59))


@pytest.mark.parametrize("make", [
    lambda rng: (rng.uniform(1.0, 4.0, 50), -rng.uniform(0.2, 1.0, 49)), _graded, _graded_200,
], ids=["random", "graded", "graded-200"])
def test_lowest_eigs_share_counts_and_keep_bits(monkeypatch, make):
    d, e = make(np.random.default_rng(37))
    # the reference runs first: sturm_count calls _sturm_count too
    want, calls = _bisect_each(d, e, 6)
    count, shifts = isospec.spectra._sturm_count, []

    def counted(d, e, x, stop):
        shifts.append(x)
        return count(d, e, x, stop)

    monkeypatch.setattr(isospec.spectra, "_sturm_count", counted)
    got = lowest_eigs_tridiag(d, e, 6)
    assert got.tolist() == want
    assert shifts
    assert len(set(shifts)) == len(shifts) < calls


def test_lowest_eigs_bad_k():
    with pytest.raises(PreconditionViolated):
        lowest_eigs_tridiag(np.ones(4), -np.ones(3), 5)


@pytest.mark.parametrize("d, e", [([float("nan"), 1.0], [0.5]),
                                  ([1.0, 2.0], [float("inf")]),
                                  ([float("-inf"), 1.0, 2.0], [0.5, 0.5])])
def test_bisection_refuses_non_finite_entries(d, e):
    # a NaN bound once made the bracket search spin forever; a timer guards a hang
    def hang(signum, frame):
        raise TimeoutError("bisection did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(PreconditionViolated, match="NaN or infinite"):
            lowest_eigs_tridiag(d, e, 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_quadratic_form_hand_value():
    rates = np.array([[0.0, 2.0], [1.0, 0.0]])
    qp = validate_qpair(rates, None, np.array([-1.0, 0.0]))
    mu = np.array([1.0, 2.0])
    f = np.array([1.0, -1.0])
    # (Af)_0 = -2 - 3 = -5, (Af)_1 = 1 + 1 = 2
    # sum mu f (Af) = 1*1*(-5) + 2*(-1)*2 = -9
    assert quadratic_form(qp, mu, f) == -9.0


def test_quadratic_form_nonpositive_for_killed_reversible():
    rng = np.random.default_rng(38)
    for _ in range(10):
        qp, mu = make_reversible_killed(rng, 11)
        f = rng.normal(size=11)
        assert quadratic_form(qp, mu, f) <= 1e-12


def test_spectral_radius_matches_reference():
    rng = np.random.default_rng(39)
    qp, mu = make_reversible_killed(rng, 13)
    ref = np.max(np.abs(np.linalg.eigvalsh(symmetrize(qp, mu))))
    assert spectral_radius(qp, mu) == pytest.approx(ref, rel=1e-10)


def test_isospectral_check_default_tolerance_and_verdict():
    rng = np.random.default_rng(40)
    qp, mu = make_reversible_killed(rng, 9)
    rep = isospectral_check(qp, mu, qp, mu)
    assert rep.passed
    assert rep.max_pair_gap == 0.0
    assert rep.tolerance == pytest.approx(
        1e-9 * max(1.0, np.max(np.abs(rep.eigenvalues)))
    )
    # shift one potential entry: spectra must split
    c2 = qp.killing.copy()
    c2[4] -= 0.37
    qp2 = validate_qpair(qp.rates, qp.total, c2)
    rep2 = isospectral_check(qp, mu, qp2, mu)
    assert not rep2.passed


def test_isospectral_check_tridiagonal_path():
    s = BirthDeathSpec(birth=1.2, death=0.8, killing=-0.3)
    qp = bd_to_qpair(s, 30)
    mu = bd_measures(s, 30).mu
    rep = isospectral_check(qp, mu, qp, mu)
    assert rep.passed
