"""Tests for rational Herglotz functions and their representations.

Oracles: direct pole-sum evaluation, numpy polynomial derivative and value
checks on the quotient form, hand-integrated gap moments for the two-site
example, and matrix moments for the trace identities.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from toda import (
    AtPole,
    ConvergenceFailure,
    Divisor,
    InvalidData,
    JacobiMatrix,
    KreinData,
    NotHerglotz,
    RationalHerglotz,
    ah_formula_xi,
    evaluate,
    from_quotient,
    krein,
    moments,
    pi_from,
    random_jacobi,
    rational_weyl,
    theta_prime,
    to_quotient,
    trace_moments,
    trace_via_delta,
    trace_via_krein,
    weyl,
    zeros,
)
from toda.rational_weyl import PolyQuotient


def random_w(rng, n, normalized=True):
    poles = np.cumsum(rng.uniform(0.2, 1.0, n)) + rng.uniform(-1.0, 1.0)
    residues = rng.uniform(0.2, 2.0, n)
    if normalized:
        residues = residues / residues.sum()
    return RationalHerglotz(poles, residues)


E1_W = RationalHerglotz(np.array([0.0, 2.0]), np.array([0.5, 0.5]))


def test_validation():
    with pytest.raises(InvalidData):
        RationalHerglotz(np.array([1.0, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(NotHerglotz):
        RationalHerglotz(np.array([0.0, 1.0]), np.array([0.5, -0.5]))
    with pytest.raises(InvalidData):
        RationalHerglotz(np.array([0.0, 1.0]), np.array([0.5]))
    with pytest.raises(InvalidData):
        RationalHerglotz(np.array([]), np.array([]))
    with pytest.raises(InvalidData):
        Divisor(np.array([1.0, 1.0]))


def test_normalized_property():
    assert E1_W.normalized
    assert not RationalHerglotz(np.array([0.0]), np.array([0.5])).normalized


def test_evaluate_is_the_pole_sum():
    assert evaluate(E1_W, -1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert evaluate(E1_W, 3.0) == pytest.approx(-2.0 / 3.0, rel=1e-14)
    z = 0.3 + 0.7j
    want = 0.5 / (0.0 - z) + 0.5 / (2.0 - z)
    assert evaluate(E1_W, z) == pytest.approx(want, rel=1e-14)
    with pytest.raises(AtPole):
        evaluate(E1_W, 2.0)


def test_zeros_interlace_and_vanish():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 6):
        w = random_w(rng, n)
        g = zeros(w).gammas
        assert g.size == n - 1
        assert np.all(g > w.poles[:-1]) and np.all(g < w.poles[1:])
        for x in g:
            # |w'| >= total_residue / span^2 on the gap, so the value at the
            # bisected zero is tiny compared with that scale
            span = w.poles[-1] - w.poles[0]
            assert abs(evaluate(w, x)) < 1e-10 * max(1.0, 1.0 / span**2)


def test_two_site_zero_sits_in_the_middle():
    assert zeros(E1_W).gammas == pytest.approx([1.0], abs=1e-14)


def test_zeros_with_vanishing_residue_stick_to_the_pole():
    w = RationalHerglotz(np.array([0.0, 1.0]), np.array([1e-300, 1.0]))
    g = zeros(w).gammas
    assert 0.0 < g[0] < 1e-10


def test_quotient_satisfies_residue_identity():
    """q(pole_k) = p'(pole_k) * residue_k, with p monic at the poles."""
    rng = np.random.default_rng(32)
    for n in (1, 2, 4, 6):
        w = random_w(rng, n)
        pq = to_quotient(w)
        np.testing.assert_allclose(pq.p, npoly.polyfromroots(w.poles), rtol=1e-12, atol=1e-12)
        dp = npoly.polyval(w.poles, npoly.polyder(pq.p))
        np.testing.assert_allclose(
            npoly.polyval(w.poles, pq.q), dp * w.residues, rtol=1e-9, atol=1e-12
        )
        # the float coefficients are the rounded decimal payload, exactly
        np.testing.assert_array_equal(pq.p, [float(x) for x in pq.p_dec])
        np.testing.assert_array_equal(pq.q, [float(x) for x in pq.q_dec])


@pytest.mark.parametrize("n", [16, 32])
def test_quotient_coefficients_are_correctly_rounded(n):
    """Within one ulp of an 80-digit expansion of p and q."""
    mpmath = pytest.importorskip("mpmath")
    w = weyl(random_jacobi(np.random.default_rng(60 + n), n))
    pq = to_quotient(w)
    with mpmath.workdps(80):
        lam = [mpmath.mpf(x) for x in w.poles]

        def expand(roots):
            c = [mpmath.mpf(1)]
            for r in roots:
                c = [-r * c[0]] + [c[i - 1] - r * c[i] for i in range(1, len(c))] + [c[-1]]
            return c

        p = expand(lam)
        q = [mpmath.mpf(0)] * n
        for k in range(n):
            for i, ci in enumerate(expand(lam[:k] + lam[k + 1:])):
                q[i] += mpmath.mpf(w.residues[k]) * ci
        for got, want in ((pq.p, p), (pq.q, q)):
            for g, e in zip(got, want):
                assert abs(mpmath.mpf(g) - e) <= np.spacing(abs(float(e)))


def test_quotient_roundtrip_recovers_poles_and_residues():
    rng = np.random.default_rng(33)
    for n in (1, 2, 3, 5):
        w = random_w(rng, n, normalized=False)
        back = from_quotient(to_quotient(w))
        np.testing.assert_allclose(back.poles, w.poles, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(back.residues, w.residues, rtol=1e-9, atol=1e-12)


def test_divisor_points_are_roots_of_q():
    rng = np.random.default_rng(34)
    w = random_w(rng, 5)
    pq = to_quotient(w)
    vals = npoly.polyval(zeros(w).gammas, pq.q)
    assert np.max(np.abs(vals)) < 1e-9


def test_from_quotient_rejects_non_herglotz_input():
    with pytest.raises(NotHerglotz):
        from_quotient(PolyQuotient(p=np.array([1.0, 0.0, 1.0]), q=np.array([0.0, 1.0])))
    with pytest.raises(NotHerglotz):
        from_quotient(PolyQuotient(p=np.array([-1.0, 0.0, 1.0]), q=np.array([-3.0, 1.0])))


def test_exp_representation_residual_is_small():
    rng = np.random.default_rng(35)
    for n in (1, 2, 4, 7):
        w = random_w(rng, n)
        assert krein(w).exp_residual < 1e-10


def _exp_form_residual(w):
    """The exponential-form residual of ``w``, recomputed from its shifted
    poles and divisor rather than read off ``krein``."""
    return rational_weyl._exp_residual(*rational_weyl._shifted(w)[1:], w.residues)


def test_divisor_is_solved_once(monkeypatch):
    """Every reader of the divisor shares the one solve kept on the record."""
    calls = []
    solve = rational_weyl._zeros

    def counting(lam, rho):
        calls.append(1)
        return solve(lam, rho)

    monkeypatch.setattr(rational_weyl, "_zeros", counting)
    w = random_w(np.random.default_rng(37), 5)
    lo, hi = float(w.poles[0]) - 1.0, float(w.poles[-1]) + 1.0
    first = zeros(w)
    for fn in (
        zeros, krein, _exp_form_residual, pi_from, theta_prime,
        lambda w: ah_formula_xi(w, lo, hi),
    ):
        fn(w)
    assert len(calls) == 1
    assert zeros(w) is first
    calls.clear()
    zeros(RationalHerglotz(w.poles, w.residues))
    assert len(calls) == 1


def test_kept_stack_rows_are_the_divisors_zeros_solves(monkeypatch):
    """``_keep_zeros`` solves pole sums of one size as one stack and keeps
    each row, bitwise what ``zeros`` solves alone, so no reader solves
    again; a stack that fails keeps nothing, and each pole sum then solves
    alone on first use."""
    rng = np.random.default_rng(40)
    ws = [random_w(rng, 6) for _ in range(5)]
    rational_weyl._keep_zeros(ws)
    calls = []
    solve = rational_weyl._zeros

    def counting(lam, rho):
        calls.append(lam.shape)
        return solve(lam, rho)

    monkeypatch.setattr(rational_weyl, "_zeros", counting)
    for w in ws:
        krein(w)
        alone = zeros(RationalHerglotz(w.poles, w.residues))
        np.testing.assert_array_equal(zeros(w).gammas, alone.gammas)
    assert calls == [(6,)] * 5

    def failing(lam, rho):
        raise ConvergenceFailure("bracketed Newton hit the iteration cap")

    fresh = [RationalHerglotz(w.poles, w.residues) for w in ws]
    monkeypatch.setattr(rational_weyl, "_zeros", failing)
    rational_weyl._keep_zeros(fresh)
    monkeypatch.setattr(rational_weyl, "_zeros", counting)
    calls.clear()
    for w, kept in zip(fresh, ws):
        np.testing.assert_array_equal(zeros(w).gammas, zeros(kept).gammas)
    assert calls == [(6,)] * 5


def test_divisor_and_krein_data_are_read_only():
    w = random_w(np.random.default_rng(38), 4)
    with pytest.raises(ValueError):
        zeros(w).gammas[0] = 0.0
    with pytest.raises(ValueError):
        krein(w).gammas[0] = 0.0


def test_krein_keeps_its_exponential_form_residual():
    rng = np.random.default_rng(39)
    for n in (1, 2, 5, 9):
        w = random_w(rng, n)
        assert krein(w).exp_residual == _exp_form_residual(w)
    kd = krein(E1_W)
    assert np.isnan(KreinData(kd.lambdas0, kd.gammas, kd.f, kd.shift).exp_residual)


def test_krein_two_site_moments():
    """Gap [1, 2] integrated against z^k: f = (-1, -3/2, -7/3, -15/4)."""
    kd = krein(E1_W)
    assert kd.shift == 0.0
    np.testing.assert_allclose(kd.lambdas0, [0.0, 2.0])
    np.testing.assert_allclose(kd.gammas, [1.0], atol=1e-14)
    np.testing.assert_allclose(kd.f, [-1.0, -1.5, -7.0 / 3.0, -15.0 / 4.0], rtol=1e-12)


def test_krein_moments_are_shift_invariant():
    rng = np.random.default_rng(36)
    w = random_w(rng, 4)
    shifted = RationalHerglotz(w.poles + 5.75, w.residues)
    np.testing.assert_allclose(krein(w).f, krein(shifted).f, rtol=1e-9, atol=1e-12)
    assert krein(shifted).shift == pytest.approx(w.poles[0] + 5.75)


def test_krein_requires_normalization():
    w = RationalHerglotz(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidData):
        krein(w)


def test_trace_routes_agree_on_two_site_example():
    """Shifted power sums of the two-site example are (1, 1, 2, 4)."""
    kd = krein(E1_W)
    want = np.array([1.0, 1.0, 2.0, 4.0])
    np.testing.assert_allclose(trace_moments(E1_W, 3), want, rtol=1e-13)
    np.testing.assert_allclose(trace_via_delta(kd, 3), want, rtol=1e-12)
    np.testing.assert_allclose(trace_via_krein(kd), want, rtol=1e-12)


def test_trace_routes_match_matrix_moments():
    """All three trace routes equal the matrix moments after the shift."""
    rng = np.random.default_rng(37)
    for n in (2, 3, 5):
        m = JacobiMatrix(rng.uniform(-1, 1, n), rng.uniform(0.1, 2.0, n - 1))
        w = weyl(m)
        kd = krein(w)
        shifted = moments(JacobiMatrix(m.v - kd.shift, m.c), 3)
        w0 = RationalHerglotz(kd.lambdas0, w.residues)
        np.testing.assert_allclose(trace_moments(w0, 3), shifted, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(trace_via_delta(kd, 3), shifted, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(trace_via_krein(kd), shifted, rtol=1e-9, atol=1e-10)


def test_first_two_moments_read_off_the_matrix_corner():
    rng = np.random.default_rng(38)
    m = JacobiMatrix(rng.uniform(-1, 1, 4), rng.uniform(0.1, 2.0, 3))
    s = trace_moments(weyl(m), 2)
    assert s[1] == pytest.approx(m.v[0], abs=1e-12)
    assert s[2] == pytest.approx(m.v[0] ** 2 + m.c[0] ** 2, abs=1e-12)


def test_trace_via_delta_order_is_capped():
    kd = krein(E1_W)
    with pytest.raises(InvalidData):
        trace_via_delta(kd, 13)


@pytest.mark.parametrize("n_max", [-1, -2])
def test_trace_via_delta_order_must_be_nonnegative(n_max):
    with pytest.raises(InvalidData, match="series order must be nonnegative"):
        trace_via_delta(krein(E1_W), n_max)


@pytest.mark.parametrize("n_max", [2.5, 3.0, "3", True])
def test_trace_via_delta_order_must_be_an_integer(n_max):
    with pytest.raises(InvalidData, match="series order must be an integer"):
        trace_via_delta(krein(E1_W), n_max)
    assert trace_via_delta(krein(E1_W), np.int64(3)).shape == (4,)


@pytest.mark.parametrize("n_max", [-1, -2])
def test_trace_moments_order_must_be_nonnegative(n_max):
    with pytest.raises(InvalidData, match="series order must be nonnegative"):
        trace_moments(E1_W, n_max)


@pytest.mark.parametrize("n_max", [2.5, 3.0, "3"])
def test_trace_moments_order_must_be_an_integer(n_max):
    with pytest.raises(InvalidData, match="series order must be an integer"):
        trace_moments(E1_W, n_max)
    assert trace_moments(E1_W, np.int64(3)).shape == (4,)


@pytest.mark.parametrize("n_max", [True, False])
def test_trace_moments_order_must_not_be_a_bool(n_max):
    with pytest.raises(InvalidData, match="series order must be an integer"):
        trace_moments(E1_W, n_max)


def test_trace_via_krein_needs_three_moments():
    kd = krein(E1_W)
    short = KreinData(kd.lambdas0, kd.gammas, kd.f[:2], kd.shift)
    with pytest.raises(InvalidData):
        trace_via_krein(short)


def test_krein_data_validation():
    with pytest.raises(InvalidData):
        KreinData(np.array([1.0, 2.0]), np.array([1.5]), np.zeros(4), 0.0)
    with pytest.raises(InvalidData):
        KreinData(np.array([0.0, 2.0]), np.array([1.0, 1.5]), np.zeros(4), 0.0)
