"""Tests for the angle and divisor coordinate charts.

Oracles: product-form residue and polynomial-value identities evaluated
directly from poles and zeros, plus closed forms for the two-site example
(angle and quasimomentum both vanish there by symmetry).
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from toda import (
    ActionAngle,
    DivisorQuasimomentum,
    InterlacingViolated,
    InvalidData,
    JacobiMatrix,
    NoHerglotzSolution,
    Overflow,
    RationalHerglotz,
    TodaError,
    abel_period_check,
    pi_from,
    random_jacobi,
    theta_from,
    theta_prime,
    to_quotient,
    w_from_divisor,
    w_from_gamma,
    w_from_theta,
    weyl,
    zeros,
)

E1_W = RationalHerglotz(np.array([0.0, 2.0]), np.array([0.5, 0.5]))


def random_w(rng, n):
    poles = np.cumsum(rng.uniform(0.2, 1.0, n)) + rng.uniform(-1.0, 1.0)
    residues = rng.uniform(0.2, 2.0, n)
    return RationalHerglotz(poles, residues / residues.sum())


def test_chart_validation():
    with pytest.raises(InvalidData):
        ActionAngle(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(InvalidData):
        ActionAngle(np.array([1.0, 0.0]), np.array([0.0]))
    with pytest.raises(InvalidData):
        DivisorQuasimomentum(np.array([0.0, 1.0]), np.array([0.0]), 1.0)
    with pytest.raises(InvalidData):
        DivisorQuasimomentum(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1.0)


def test_empty_divisor_is_the_one_pole_at_the_casimir():
    dq = DivisorQuasimomentum(np.array([]), np.array([]), -2.5)
    assert dq.n == 1
    w = w_from_divisor(dq)
    assert w.poles.tolist() == [-2.5] and w.residues.tolist() == [1.0]
    with pytest.raises(InvalidData):
        DivisorQuasimomentum(np.array([]), np.array([0.0]), 1.0)


@pytest.mark.parametrize("pole", [1.0, 0.3, -2.5])
def test_one_pole_quasimomenta_are_the_empty_divisor(pole):
    """``pi_from`` is total: one pole gives the empty divisor at its
    Casimir, the inverse of ``w_from_divisor``'s empty case."""
    w = RationalHerglotz(np.array([pole]), np.array([1.0]))
    dq = pi_from(w)
    assert dq.gammas.size == dq.pis.size == 0 and dq.casimir == pole
    back = w_from_divisor(dq)
    assert back.poles.tolist() == [pole] and back.residues.tolist() == [1.0]


def test_two_site_angle_and_quasimomentum_vanish():
    aa = theta_from(E1_W)
    assert aa.thetas == pytest.approx([0.0], abs=1e-14)
    dq = pi_from(E1_W)
    assert dq.gammas == pytest.approx([1.0], abs=1e-14)
    assert dq.pis == pytest.approx([0.0], abs=1e-13)
    assert dq.casimir == pytest.approx(2.0)
    assert theta_prime(E1_W) == pytest.approx([0.0], abs=1e-13)


def test_angles_match_numerator_ratio():
    """theta_k = log((-1)^k q(lambda_k) / q(lambda_0)) for the quotient numerator."""
    rng = np.random.default_rng(61)
    for n in (2, 3, 5):
        w = random_w(rng, n)
        qv = npoly.polyval(w.poles, to_quotient(w).q)
        signs = (-1.0) ** np.arange(n)
        ratio = signs * qv / qv[0]
        assert np.all(ratio[1:] > 0.0)
        np.testing.assert_allclose(theta_from(w).thetas, np.log(ratio[1:]), rtol=1e-9, atol=1e-10)


def test_angle_chart_requires_normalization():
    w = RationalHerglotz(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidData):
        theta_from(w)
    with pytest.raises(InvalidData):
        pi_from(w)
    with pytest.raises(InvalidData):
        theta_prime(w)


def test_angle_chart_is_total_and_roundtrips():
    """Any angle vector in [-50, 50] produces a pole sum and comes back."""
    rng = np.random.default_rng(62)
    for n in (2, 3, 6):
        lam = np.cumsum(rng.uniform(0.2, 1.0, n))
        for extreme in (False, True):
            th = rng.uniform(-50.0, 50.0, n - 1) if extreme else rng.uniform(-3.0, 3.0, n - 1)
            w = w_from_theta(lam, th)
            assert w.normalized
            np.testing.assert_allclose(theta_from(w).thetas, th, rtol=1e-11, atol=1e-9)


def test_theta_roundtrip_from_pole_sum():
    rng = np.random.default_rng(63)
    w = random_w(rng, 4)
    aa = theta_from(w)
    back = w_from_theta(aa.lambdas, aa.thetas)
    np.testing.assert_allclose(back.residues, w.residues, rtol=1e-11)


def test_w_from_gamma_constructs_prescribed_zeros():
    rng = np.random.default_rng(64)
    for n in (2, 4, 6):
        lam = np.cumsum(rng.uniform(0.3, 1.0, n))
        gam = lam[:-1] + rng.uniform(0.1, 0.9, n - 1) * np.diff(lam)
        w = w_from_gamma(lam, gam)
        assert w.normalized
        np.testing.assert_allclose(zeros(w).gammas, gam, rtol=1e-10, atol=1e-10)


def test_w_from_gamma_two_site_midpoint():
    w = w_from_gamma(np.array([0.0, 2.0]), np.array([1.0]))
    np.testing.assert_allclose(w.residues, [0.5, 0.5], atol=1e-14)


def test_w_from_gamma_rejects_bad_divisor():
    with pytest.raises(InterlacingViolated):
        w_from_gamma(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5]))
    with pytest.raises(InterlacingViolated):
        w_from_gamma(np.array([0.0, 1.0]), np.array([1.5]))


def test_quasimomentum_is_log_of_pole_polynomial():
    """|p(gamma_k)| = exp(pi_k) with p monic over the poles."""
    rng = np.random.default_rng(65)
    w = random_w(rng, 5)
    dq = pi_from(w)
    p = npoly.polyfromroots(w.poles)
    vals = npoly.polyval(dq.gammas, p)
    k = np.arange(1, w.n)
    signs = np.where((w.n + k) % 2 == 0, 1.0, -1.0)
    assert np.all(signs * vals > 0.0)
    np.testing.assert_allclose(np.log(signs * vals), dq.pis, rtol=1e-9, atol=1e-9)


def test_divisor_chart_roundtrips():
    rng = np.random.default_rng(66)
    for n in (2, 3, 5, 7):
        w = random_w(rng, n)
        dq = pi_from(w)
        back = w_from_divisor(dq)
        np.testing.assert_allclose(back.poles, w.poles, rtol=1e-10, atol=1e-9)
        np.testing.assert_allclose(back.residues, w.residues, rtol=1e-8, atol=1e-10)


def test_divisor_inverse_satisfies_defining_conditions():
    """The recovered pole polynomial is monic, has the prescribed spectral
    sum, and takes the prescribed alternating values on the divisor."""
    rng = np.random.default_rng(67)
    n = 5
    gam = np.cumsum(rng.uniform(0.3, 1.0, n - 1))
    pis = rng.uniform(-1.5, 1.5, n - 1)
    casimir = float(np.sum(gam)) + rng.uniform(-1.0, 1.0)
    dq = DivisorQuasimomentum(gam, pis, casimir)
    w = w_from_divisor(dq)
    assert float(np.sum(w.poles)) == pytest.approx(casimir, rel=1e-10)
    p = npoly.polyfromroots(w.poles)
    k = np.arange(1, n)
    signs = np.where((n + k) % 2 == 0, 1.0, -1.0)
    np.testing.assert_allclose(
        npoly.polyval(gam, p), signs * np.exp(pis), rtol=1e-8, atol=1e-10
    )


def test_divisor_chart_overflow_guard():
    dq = DivisorQuasimomentum(np.array([0.0, 1.0]), np.array([800.0, 0.0]), 1.5)
    with pytest.raises(Overflow):
        w_from_divisor(dq)


def test_divisor_chart_roundtrips_to_rounding_level():
    """Worst pole error seen over 3000 such pole sums at N = 2..16 was
    5.3e-16 of the spectrum scale; the bar leaves a factor of about 8."""
    rng = np.random.default_rng(70)
    for n in range(2, 17):
        for _ in range(10):
            w = random_w(rng, n)
            back = w_from_divisor(pi_from(w))
            scale = max(1.0, float(np.max(np.abs(w.poles))))
            np.testing.assert_allclose(back.poles, w.poles, rtol=0, atol=4e-15 * scale)


def test_divisor_chart_extreme_quasimomenta_interlace():
    """pi = +-30 puts poles about e^15 away from the divisor or within
    about e^-30 of it; both still come out interlacing."""
    rng = np.random.default_rng(71)
    for n in (2, 3, 4, 6):
        for pi in (30.0, -30.0):
            gam = np.cumsum(rng.uniform(0.3, 1.0, n - 1))
            casimir = float(np.sum(gam)) + rng.uniform(-1.0, 1.0)
            w = w_from_divisor(DivisorQuasimomentum(gam, np.full(n - 1, pi), casimir))
            assert np.all(w.poles[:-1] < gam) and np.all(gam < w.poles[1:])
            scale = float(np.max(np.abs(w.poles)))
            assert abs(float(np.sum(w.poles)) - casimir) <= 1e-14 * n * scale


def test_divisor_chart_out_of_range_weights():
    """A pole weight exp(pi_k) / |Omega'(gamma_k)| past double range is an
    Overflow; a pole bracket past double range is NoHerglotzSolution."""
    near = DivisorQuasimomentum(np.array([0.0, 1e-300]), np.array([700.0, 0.0]), 0.5)
    with pytest.raises(Overflow):
        w_from_divisor(near)
    far = DivisorQuasimomentum(np.array([0.0, 1.0]), np.array([0.0, 0.0]), -1e308)
    with pytest.raises(NoHerglotzSolution):
        w_from_divisor(far)


def test_theta_prime_equals_log_residue_minus_offset():
    """theta'_k = log rho_k - sum_s log(gamma_s / lambda_s) after anchoring
    the leftmost pole at the origin."""
    rng = np.random.default_rng(68)
    for n in (2, 3, 5):
        w = random_w(rng, n)
        lam0 = w.poles - w.poles[0]
        gam0 = zeros(w).gammas - w.poles[0]
        xi0 = np.sum(np.log(gam0) - np.log(lam0[1:]))
        want = np.log(w.residues[1:]) - xi0
        np.testing.assert_allclose(theta_prime(w), want, rtol=1e-9, atol=1e-9)


def _loop_theta_prime(w):
    """theta_prime as one loop over the poles, with np.delete for the other
    poles: the reference the array form must match."""
    n = w.n
    shift = w.poles[0]
    lam = w.poles - shift
    gam = zeros(w).gammas - shift
    xi0 = float(np.sum(np.log(gam) - np.log(lam[1:])))
    out = np.empty(n - 1)
    for k in range(1, n):
        gam_part = float(np.sum(np.log(np.abs(gam - lam[k]))))
        lam_part = float(np.sum(np.log(np.abs(np.delete(lam[1:], k - 1) - lam[k]))))
        out[k - 1] = gam_part - lam_part - xi0 - np.log(lam[k])
    theta = theta_from(w).thetas
    for k in range(1, n):
        others = np.delete(lam[1:], k - 1)
        offset = float(np.sum(np.log(np.abs((others - lam[k]) / others))))
        if abs(theta[k - 1] - out[k - 1] - offset) > 1e-7 * max(1.0, abs(theta[k - 1])):
            raise TodaError("angle conventions disagree beyond tolerance")
    return out


@pytest.mark.parametrize("n", (9, 12, 16))
def test_theta_prime_matches_the_loop_form(n):
    """Same values to 1e-13 of max(1, |theta'|), and the same draws raise:
    the offset check fails where the zeros sit at the stuck-edge offset (2,
    23 and 86 of these 200 draws at N = 9, 12 and 16 when this was written)."""
    rng = np.random.default_rng(5)
    raised = [[], []]
    for i in range(200):
        w = weyl(random_jacobi(rng, n))
        for side, form in enumerate((theta_prime, _loop_theta_prime)):
            try:
                got = form(w)
            except TodaError:
                raised[side].append(i)
                continue
            if side == 0:
                array_form = got
            elif i not in raised[0]:
                assert np.all(np.abs(array_form - got) <= 1e-13 * np.maximum(1.0, np.abs(got)))
    assert raised[0] == raised[1] and raised[0]


def test_abel_periods_form_identity_matrix():
    lam = np.array([-1.0, 0.3, 0.9, 2.5])
    two_pi_i = 2.0j * np.pi
    for k in (1, 2, 3):
        for p in (1, 2, 3):
            got = abel_period_check(lam, k, p)
            want = two_pi_i if k == p else 0.0
            assert got == pytest.approx(want, abs=1e-12)


def test_abel_period_around_anchor_pole():
    """The normalizing term contributes -2 pi i on the anchor contour."""
    lam = np.array([-1.0, 0.3, 0.9])
    assert abel_period_check(lam, 1, 0) == pytest.approx(-2.0j * np.pi, abs=1e-12)


def test_abel_period_validation():
    lam = np.array([0.0, 1.0])
    with pytest.raises(InvalidData):
        abel_period_check(lam, 0, 1)
    with pytest.raises(InvalidData):
        abel_period_check(lam, 2, 0)
    with pytest.raises(InvalidData):
        abel_period_check(np.array([1.0]), 1, 0)


def test_charts_compose_through_the_matrix():
    """Matrix -> Weyl -> charts -> Weyl -> matrix closes to high accuracy."""
    rng = np.random.default_rng(69)
    m = JacobiMatrix(rng.uniform(-1, 1, 5), rng.uniform(0.1, 2.0, 4))
    w = weyl(m)
    via_theta = w_from_theta(w.poles, theta_from(w).thetas)
    via_pi = w_from_divisor(pi_from(w))
    np.testing.assert_allclose(via_theta.residues, w.residues, rtol=1e-10)
    np.testing.assert_allclose(via_pi.poles, w.poles, rtol=1e-9, atol=1e-9)
