import math
from collections import Counter

import numpy as np
import pytest

from isospec import (
    BirthDeathSpec,
    BoundsReport,
    NonpositiveH,
    Overflow,
    PreconditionViolated,
    TailNotResolved,
    bd_h_transform,
    bd_harmonic_explicit,
    bounds_report,
    delta_tilde,
    eigenbounds,
    lambda0_variational,
    lowest_eigs_tridiag,
)
from isospec.errors import InvalidArgument


CONST = BirthDeathSpec(birth=1.0, death=1.0, killing=-1.0)


def test_lambda0_variational_graded_reference():
    # b_i = 2^i, a_i = 2^(i-1), free of killing; 50-digit reference value.
    s = BirthDeathSpec(birth=lambda i: 2.0**i,
                       death=lambda i: 2.0 ** (i - 1),
                       killing=0.0)
    lam = lambda0_variational(s, 40)
    assert lam == pytest.approx(0.34387045237988115, rel=5e-14)


def test_lambda0_variational_methods_agree():
    # Sturm bisection against LAPACK on the dense written-out truncation
    d, e = _written_out_truncation(CONST, 200)
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    lam_q = np.linalg.eigvalsh(dense)[0]
    assert lambda0_variational(CONST, 200) == pytest.approx(lam_q, rel=1e-10)


def test_lambda0_variational_rejects_positive_potential():
    s = BirthDeathSpec(birth=1.0, death=1.0, killing=0.5)
    with pytest.raises(PreconditionViolated):
        lambda0_variational(s, 50)


def test_lambda0_variational_refuses_a_total_past_float_range_without_a_warning():
    # b_2 + a_2 overflows in the absorbing row; RuntimeWarning is an error here
    with pytest.raises(PreconditionViolated, match="NaN or infinite entry"):
        lambda0_variational(BirthDeathSpec(1e308, 1e308), 2)


def _written_out_truncation(spec, N):
    """Diagonal and off-diagonal of the symmetrised Dirichlet truncation on 0..N."""
    b, a, c = spec.rate_arrays(N)
    d = np.empty(N + 1)
    d[0] = b[0] - c[0]
    d[1:] = b[1:] + a[1:] - c[1:]
    e = np.sqrt(b[:N]) * np.sqrt(a[1 : N + 1])
    return d, e


def test_lambda0_matches_the_written_out_truncation_bit_for_bit():
    rng = np.random.default_rng(1411)
    specs = [(BirthDeathSpec(birth=lambda i: 2.0**i, death=lambda i: 2.0 ** (i - 1)), 40)]
    for k in range(300):
        N = 1 if k % 10 == 0 else int(rng.integers(2, 80))
        # one chain in three graded over many orders of magnitude
        scale = 2.0 ** (np.arange(N + 1) * rng.uniform(0.5, 3.0)) if k % 3 == 0 else 1.0
        b = rng.uniform(0.1, 5.0, N + 1) * scale
        a = rng.uniform(0.1, 5.0, N + 1) * scale
        c = 0.0 if k % 4 == 1 else -rng.uniform(0.0, 2.0, N + 1) * rng.uniform(0.0, 1.0)
        specs.append((BirthDeathSpec(birth=b, death=a, killing=c), N))
    for spec, N in specs:
        d, e = _written_out_truncation(spec, N)
        assert lambda0_variational(spec, N) == lowest_eigs_tridiag(d, e, 1, 1e-14)[0]


def test_delta_constant_chain_golden_ratio():
    h = bd_harmonic_explicit(CONST, 4097)
    res = delta_tilde(CONST, h)
    assert res.value == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-14)
    assert res.slack <= 1e-10 * res.value
    assert res.n_terms < 4096


def test_delta_linear_chain_log_two():
    s = BirthDeathSpec(birth=lambda i: float(i + 1),
                       death=lambda i: 2.0 * i,
                       killing=-1.0)
    h = bd_harmonic_explicit(s, 4097)
    res = delta_tilde(s, h)
    assert res.value == pytest.approx(math.log(2.0), rel=1e-12)


def test_delta_geometric_flat_h_exact_two():
    # mu_k = 1 for all k, tail sums telescope to 2^(1-n); sup sits at n = 0.
    # 2.0**i overflows at i = 1024, so h covers only the states the chain defines
    s = BirthDeathSpec(birth=lambda i: 2.0**i,
                       death=lambda i: 2.0 ** (i - 1),
                       killing=0.0)
    res = delta_tilde(s, np.ones(1024), N_max=1000)
    assert res.value == 2.0
    assert res.n_sup == 0


def test_delta_accepts_harmonic_vector_or_array():
    h = bd_harmonic_explicit(CONST, 1026)
    a = delta_tilde(CONST, h, N_max=1024)
    b = delta_tilde(CONST, h.values, N_max=1024)
    assert a.value == b.value


def test_delta_result_reads_value_and_index():
    h = bd_harmonic_explicit(CONST, 1026)
    res = delta_tilde(CONST, h, N_max=1024)
    assert res.value == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-12)
    assert res.n_sup >= 0


def test_delta_polynomial_tail_certifies_at_loose_tolerance():
    # Hardy-type weights with sup sum = pi^2/6; the tail decays like 1/n^2,
    # so the geometric certificate only closes at a loose tolerance.
    s = BirthDeathSpec(birth=lambda i: 2.0**i * (i + 1.0) ** 2,
                       death=lambda i: 2.0**i * float(i) ** 2,
                       killing=0.0)
    res = delta_tilde(s, np.ones(1002), N_max=1000, tail_tol=1e-3)
    assert res.value == pytest.approx(1.6439355646845557, rel=1e-12)
    assert res.n_sup == 0
    assert res.slack == pytest.approx(0.0004987521219415036, rel=1e-9)
    assert res.n_terms == 1001
    # the certified window must still cover the true supremum
    assert res.value + 2.5 * res.slack >= math.pi**2 / 6.0


def test_delta_reads_each_rate_once():
    # the polynomial-tail chain above: every state 0..N_max is read, and only once
    calls = {"birth": Counter(), "death": Counter(), "killing": Counter()}

    def counted(key, rate):
        def f(i):
            calls[key][i] += 1
            return rate(i)
        return f

    s = BirthDeathSpec(birth=counted("birth", lambda i: 2.0**i * (i + 1.0) ** 2),
                       death=counted("death", lambda i: 2.0**i * float(i) ** 2),
                       killing=counted("killing", lambda i: 0.0))
    delta_tilde(s, np.ones(1002), N_max=1000, tail_tol=1e-3)
    assert calls["birth"] == Counter(range(1001))
    assert calls["death"] == Counter(range(1, 1001))
    assert calls["killing"] == Counter(range(1001))


def test_delta_polynomial_tail_unresolved_at_tight_tolerance():
    s = BirthDeathSpec(birth=lambda i: 2.0**i * (i + 1.0) ** 2,
                       death=lambda i: 2.0**i * float(i) ** 2,
                       killing=0.0)
    with pytest.raises(TailNotResolved) as ei:
        delta_tilde(s, np.ones(1002), N_max=1000, tail_tol=1e-10)
    err = ei.value
    assert err.n_terms == 1001
    # partial sup keeps climbing toward pi^2/6 as terms accumulate
    assert 1.6429866477947435 < err.partial_sup < math.pi**2 / 6.0
    assert err.slack > 1e-10 * err.partial_sup


def test_delta_free_walk_diverges():
    s = BirthDeathSpec(birth=1.0, death=1.0, killing=0.0)
    res = delta_tilde(s, np.ones(4098))
    assert math.isinf(res.value)


def test_delta_invariant_under_explicit_transform():
    # computing in the conjugated weights equals transforming the chain
    # first and using h = 1 afterwards
    s = BirthDeathSpec(birth=1.3, death=0.9, killing=-0.6)
    h = bd_harmonic_explicit(s, 1026)
    # h^2 mu leaves float range at state 474: no transformed chain has a measure there
    with pytest.raises(Overflow, match="h-transformed measure .* at index 474$"):
        bd_h_transform(s, h.values, 1024)
    # the tilted rates stay finite past 474, and delta_tilde reads no measure
    N = 1024
    b, a, _ = s.rate_arrays(N)
    hv = h.values[: N + 2]
    tilted = BirthDeathSpec(birth=b * hv[1:] / hv[:-1],
                            death=np.append(0.0, a[1:] * hv[:N] / hv[1:N + 1]), killing=0.0)
    direct = delta_tilde(s, h, N_max=N)
    flat = delta_tilde(tilted, np.ones(N + 1), N_max=N - 1)
    assert direct.value == pytest.approx(flat.value, rel=1e-12)
    # both reads run to the state where the prefix mass leaves float range
    assert direct.n_terms == flat.n_terms == 474


def test_delta_rejects_nonpositive_h():
    h = np.ones(600)
    h[17] = 0.0
    with pytest.raises(NonpositiveH):
        delta_tilde(CONST, h, N_max=512)


def test_delta_needs_enough_h():
    with pytest.raises(PreconditionViolated):
        delta_tilde(CONST, np.ones(2))
    # t_0 = 1/(h_0 h_1 mu_0 b_0) underflows to 0, so no term is finite
    with pytest.raises(PreconditionViolated, match="fewer than two finite terms"):
        delta_tilde(BirthDeathSpec(1e308, 1.0), [1.0, 1e308, 1e308, 1e308])
    # t_1 = 1/(h_1 h_2 mu_1 b_1) overflows to inf, so one term is finite
    with pytest.raises(PreconditionViolated, match="fewer than two finite terms"):
        delta_tilde(BirthDeathSpec(1.0, 1.0, -0.1), [1.0, 1e-200, 1e-200, 1.0, 1.0], N_max=2)


def _assert_levels(rep, spec, N_max):
    """The report's truncation levels are lambda0_variational at N/4, N/2 and N, bit for bit."""
    want = [[n, lambda0_variational(spec, n)] for n in (N_max // 4, N_max // 2, N_max)]
    assert rep.truncation_levels == want
    assert rep.lambda0_numeric == want[-1][1]


def test_bounds_report_constant_chain():
    rep = bounds_report(CONST, N_max=2048)
    _assert_levels(rep, CONST, 2048)
    assert isinstance(rep, BoundsReport)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert rep.delta_tilde == pytest.approx(golden, rel=1e-12)
    assert rep.lower == pytest.approx(1.0 / (4.0 * golden), rel=1e-12)
    assert rep.upper == pytest.approx(1.0 / golden, rel=1e-12)
    assert rep.containment
    assert rep.verdict == "lambda0 > 0"
    assert rep.lower - rep.epsilon <= rep.lambda0_numeric <= rep.upper + rep.epsilon
    d = rep.to_dict()
    assert "delta_detail" not in d
    assert d["delta_tilde"] == rep.delta_tilde
    assert rep.delta_detail.partial is not None


def test_bounds_report_free_walk_verdict():
    s = BirthDeathSpec(birth=1.0, death=1.0, killing=0.0)
    rep = bounds_report(s, N_max=4096)
    _assert_levels(rep, s, 4096)
    assert rep.verdict == "lambda0 = 0 (Hardy constant diverges)"
    assert rep.lower == 0.0 and rep.upper == 0.0
    assert math.isinf(rep.delta_tilde)
    assert rep.lambda0_numeric < 1e-3


def test_bounds_report_reports_a_variational_value_outside_the_enclosure(monkeypatch):
    # delta~ = 0.618... encloses lambda0 in [0.4045, 1.618]; a stub puts it at 1000
    monkeypatch.setattr(eigenbounds, "_lambda0", lambda b, a, c, ns: [[n, 1e3] for n in ns])
    rep = bounds_report(CONST, N_max=64)
    assert rep.containment is False
    assert rep.verdict == "lambda0 > 0"
    assert (rep.lower, rep.upper, rep.lambda0_numeric, rep.epsilon) == pytest.approx(
        (0.25 / 0.6180339887498949, 1.0 / 0.6180339887498949, 1e3, 1e-8), rel=1e-12)


def test_bounds_report_refuses_an_h_it_computes_past_float_range():
    # h_1 = 1e300 and h_2 overflows: the recurrence's value, not a short h from a caller
    s = BirthDeathSpec(birth=1.0, death=1.0, killing=-1e300)
    with pytest.raises(Overflow) as ei:
        bounds_report(s, N_max=100)
    assert str(ei.value) == "h leaves float range at index 2"
    # a caller's h with fewer than three finite values is still an argument error
    with pytest.raises(InvalidArgument, match="^need h on at least 0..2$"):
        delta_tilde(CONST, [1.0, 2.0, np.inf, 4.0])


def test_bounds_report_rejects_tiny_n_max():
    with pytest.raises(PreconditionViolated):
        bounds_report(CONST, N_max=4)
    with pytest.raises(PreconditionViolated, match="N = 0 is below 1"):
        lambda0_variational(CONST, 0)


def test_bounds_report_never_claims_lambda0_positive_on_the_switching_chain():
    # birth 1.2 below state 1000 and 1.0 from there on: the Hardy sums over
    # 0..K grow without bound past state 1000, and lambda0 is about 2.6e-7 at
    # N = 4096, so a finite delta certified from the first states is wrong;
    # the tail has b = a = 1, so lambda0 = 0, which arrays cannot prove: no verdict
    n = np.arange(4098)
    s = BirthDeathSpec(birth=np.where(n < 1000, 1.2, 1.0), death=np.ones(4098),
                       killing=np.where(n < 10, -0.05, 0.0))
    with pytest.raises(TailNotResolved) as ei:
        bounds_report(s, N_max=4096)
    assert ei.value.n_terms == 4097
    assert ei.value.n_sup > 1000


def test_hardy_sums_past_float_range_raise_no_warning():
    # a recurrent chain: the tail weights 1/(mu_k b_k) grow like 5^k, so the
    # tail sums leave float range; constant rates with deaths ahead decide lambda0 = 0
    s = BirthDeathSpec(birth=1.0, death=5.0, killing=0.0)
    rep = bounds_report(s, N_max=2048)
    _assert_levels(rep, s, 2048)
    assert rep.verdict == "lambda0 = 0 (Hardy constant diverges)"
    assert math.isinf(rep.delta_tilde)


@pytest.mark.parametrize("N", [256, 1024, 4096])
@pytest.mark.parametrize("b, a", [(2.0, 1.0), (5.0, 1.0), (1.5, 1.0)])
def test_lambda0_constant_rates_closed_form(b, a, N):
    # lambda0 = (sqrt b - sqrt a)^2 for b > a.  A truncation only raises the
    # variational value; it is the Dirichlet Toeplitz matrix with diagonal
    # a + b and off-diagonal -sqrt(ab) minus a e0 e0^T, so by Weyl's
    # inequality it exceeds lambda0 by at most the Toeplitz excess.
    s = BirthDeathSpec(birth=b, death=a, killing=0.0)
    exact = (math.sqrt(b) - math.sqrt(a)) ** 2
    excess = lambda0_variational(s, N) - exact
    slack = 1e-13 * exact
    assert -slack <= excess
    assert excess <= 2.0 * math.sqrt(a * b) * (1.0 - math.cos(math.pi / (N + 2))) + slack


@pytest.mark.parametrize("b, a", [(2.0, 1.0), (5.0, 1.0), (1.5, 1.0)])
def test_bounds_report_encloses_the_closed_form(b, a):
    spec = BirthDeathSpec(birth=b, death=a, killing=0.0)
    rep = bounds_report(spec, N_max=2048)
    _assert_levels(rep, spec, 2048)
    assert rep.verdict == "lambda0 > 0"
    assert rep.containment
    assert rep.lower <= (math.sqrt(b) - math.sqrt(a)) ** 2 <= rep.upper


# b = 1, a = 5 is test_hardy_sums_past_float_range_raise_no_warning
@pytest.mark.parametrize("b, a", [(1.0, 2.0), (1.0, 1.0)])
def test_bounds_report_zero_when_death_dominates(b, a):
    spec = BirthDeathSpec(birth=b, death=a, killing=0.0)
    rep = bounds_report(spec, N_max=2048)
    _assert_levels(rep, spec, 2048)
    assert rep.verdict == "lambda0 = 0 (Hardy constant diverges)"
