"""Tests for the two inverse spectral transforms.

Oracles: hand-performed polynomial division for the small closed-form
quotients, moment identities for the orthogonalization route, the two
routes cross-checking each other on random matrices, the forward transform
for the quotient reader, and ``mpmath`` roots and residues of bare float
quotients.
"""

import warnings

import numpy as np
import pytest

from toda import (
    Breakdown,
    InvalidData,
    JacobiMatrix,
    NotHerglotz,
    RationalHerglotz,
    SpectralData,
    eigen,
    from_quotient,
    lanczos_reconstruct,
    stieltjes_reconstruct,
    to_quotient,
    weyl,
    weyl_from_spectral,
)
from toda.rational_weyl import PolyQuotient


def random_matrix(rng, n):
    return JacobiMatrix(rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 2.0, max(n - 1, 0)))


def entry_distance(a, b):
    d = np.max(np.abs(a.v - b.v))
    if a.c.size:
        d = max(d, np.max(np.abs(a.c - b.c)))
    return float(d)


def test_stieltjes_closed_form_divisions():
    """p = z^2-2z over q = z-1 peels off v_0=1, c_0^2=1, then v_1=1."""
    m = stieltjes_reconstruct(PolyQuotient(p=np.array([0.0, -2.0, 1.0]), q=np.array([-1.0, 1.0])))
    np.testing.assert_allclose(m.v, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(m.c, [1.0], atol=1e-12)

    m = stieltjes_reconstruct(PolyQuotient(p=np.array([-4.5, 1.0]), q=np.array([1.0])))
    np.testing.assert_allclose(m.v, [4.5], atol=1e-15)
    assert m.c.size == 0

    m = stieltjes_reconstruct(PolyQuotient(p=np.array([-1.0, 0.0, 1.0]), q=np.array([0.0, 1.0])))
    np.testing.assert_allclose(m.v, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(m.c, [1.0], atol=1e-12)


def test_stieltjes_rejects_nonpositive_coupling():
    """q = z+1 gives residue -1/2 at the pole 0; division must refuse."""
    with pytest.raises(NotHerglotz):
        stieltjes_reconstruct(PolyQuotient(p=np.array([0.0, -2.0, 1.0]), q=np.array([1.0, 1.0])))


def test_stieltjes_requires_monic_q():
    with pytest.raises(InvalidData):
        stieltjes_reconstruct(PolyQuotient(p=np.array([0.0, -2.0, 1.0]), q=np.array([-2.0, 2.0])))


def test_lanczos_closed_forms():
    m = lanczos_reconstruct(SpectralData(np.array([0.0, 2.0]), np.array([0.5, 0.5])))
    np.testing.assert_allclose(m.v, [1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(m.c, [1.0], atol=1e-14)

    m = lanczos_reconstruct(SpectralData(np.array([-2.25]), np.array([1.0])))
    np.testing.assert_allclose(m.v, [-2.25])

    m = lanczos_reconstruct(SpectralData(np.array([-1.0, 1.0]), np.array([0.5, 0.5])))
    np.testing.assert_allclose(m.v, [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(m.c, [1.0], atol=1e-14)


def test_lanczos_breakdown_on_degenerate_measure():
    sd = SpectralData(np.array([0.0, 1e-8]), np.array([1.0 - 1e-10, 1e-10]))
    with pytest.raises(Breakdown):
        lanczos_reconstruct(sd)


def test_roundtrip_error_closed_forms():
    """Both reconstruction routes return the symmetric two-site matrix to
    rounding, and the one-site matrix exactly."""

    def roundtrip_error(m):
        sd = eigen(m)
        cf = stieltjes_reconstruct(to_quotient(weyl_from_spectral(sd)))
        lz = lanczos_reconstruct(sd)
        return max(entry_distance(cf, m), entry_distance(lz, m))

    assert roundtrip_error(JacobiMatrix(np.array([1.0, 1.0]), np.array([1.0]))) <= 1e-12
    assert roundtrip_error(JacobiMatrix(np.array([0.6]), np.array([]))) == 0.0


def test_lanczos_breakdown_raises_no_numpy_warning():
    """A coupling that underflows to zero raises only ``Breakdown``."""
    sd = SpectralData(np.array([0.0, 1e-300]), np.array([0.9999999999, 1e-10]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Breakdown, match="step 0"):
            lanczos_reconstruct(sd)


_SMALL_COUPLINGS = (1e-9, 1e-12, 1e-14, 1e-15, 1e-17, 1e-20)


def _with_small_coupling(k):
    """Twenty random 8-site matrices with c_3 = k, drawn from one seeded
    generator in the order of ``_SMALL_COUPLINGS``."""
    rng = np.random.default_rng(1)
    for small in _SMALL_COUPLINGS:
        draws = []
        for _ in range(20):
            m = random_matrix(rng, 8)
            c = m.c.copy()
            c[3] = small
            draws.append(JacobiMatrix(m.v, c))
        if small == k:
            return draws


def _assert_breakdown_or_close(k):
    for m in _with_small_coupling(k):
        try:
            lz = lanczos_reconstruct(eigen(m))
        except Breakdown:
            continue
        assert entry_distance(lz, m) <= 1e-8, (k, entry_distance(lz, m))


@pytest.mark.parametrize("k", [1e-15, 1e-17, 1e-20])
def test_lanczos_below_its_floor_raises_or_is_right(k):
    """Lanczos on ``eigen``'s data either raises ``Breakdown`` or returns the
    matrix.  Today the absolute 1e-13 floor raises on every draw; without
    it, ``eigen``'s inaccurate small weights come back as entries off by up
    to 3.5 (ROADMAP items 1 and 13)."""
    _assert_breakdown_or_close(k)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: eigen's weights at a 1e-12 coupling")
def test_lanczos_above_its_floor_is_right():
    """At c_3 = 1e-12 no draw raises, and entries come back off by up to
    0.15, because ``eigen``'s weights are; Lanczos on 60-digit weights
    lands within 1e-13."""
    _assert_breakdown_or_close(1e-12)


def test_both_routes_agree_with_input_and_each_other():
    """Agreement to 1e-8 for N <= 8 and 1e-6 for N <= 12."""
    rng = np.random.default_rng(55)
    for n in range(2, 13):
        tol = 1e-8 if n <= 8 else 1e-6
        for _ in range(5):
            m = random_matrix(rng, n)
            sd = eigen(m)
            cf = stieltjes_reconstruct(to_quotient(weyl_from_spectral(sd)))
            lz = lanczos_reconstruct(sd)
            assert entry_distance(cf, m) <= tol
            assert entry_distance(lz, m) <= tol
            assert entry_distance(cf, lz) <= tol


def test_node_route_handles_large_sizes():
    """Past the sizes gate 1 covers, the decimal coefficient payload keeps
    the division at full accuracy."""
    rng = np.random.default_rng(56)
    for n in (13, 16, 24, 32):
        m = random_matrix(rng, n)
        cf = stieltjes_reconstruct(to_quotient(weyl(m)))
        assert entry_distance(cf, m) <= 1e-9


def test_reconstruction_without_decimal_payload():
    """Float64 coefficients alone still reconstruct well-separated data."""
    rng = np.random.default_rng(57)
    for n in (5, 2, 8):
        w = weyl(random_matrix(rng, n))
        pq = to_quotient(w)
        bare = PolyQuotient(p=pq.p, q=pq.q)
        m = stieltjes_reconstruct(bare)
        back = to_quotient(weyl(m))
        np.testing.assert_allclose(back.p, pq.p, rtol=1e-7, atol=1e-9)


def test_shift_covariance():
    """Shifting every pole by a shifts the diagonal by a and fixes c."""
    rng = np.random.default_rng(58)
    m = random_matrix(rng, 6)
    w = weyl(m)
    shifted = RationalHerglotz(w.poles + 3.5, w.residues)
    rec = stieltjes_reconstruct(to_quotient(shifted))
    np.testing.assert_allclose(rec.v, m.v + 3.5, atol=1e-9)
    np.testing.assert_allclose(rec.c, m.c, atol=1e-9)


def test_stieltjes_couplings_are_positive_for_valid_input():
    rng = np.random.default_rng(59)
    for n in (2, 5, 9):
        poles = np.cumsum(rng.uniform(0.2, 1.0, n))
        residues = rng.uniform(0.1, 1.0, n)
        w = RationalHerglotz(poles, residues / residues.sum())
        rec = stieltjes_reconstruct(to_quotient(w))
        assert np.all(rec.c > 0.0)


def test_from_quotient_reads_the_payload_at_large_sizes():
    """Valid quotients with their decimal payload invert past the sizes the
    gate covers: no positivity error, poles at rounding level and residues
    to 1e-9 relative up to N = 20."""
    for n in (16, 20, 24):
        rng = np.random.default_rng(31000 + n)
        for _ in range(40):
            w = weyl(random_matrix(rng, n))
            back = from_quotient(to_quotient(w))
            np.testing.assert_array_less(
                np.abs(back.poles - w.poles), 1e-12 * np.maximum(1.0, np.abs(w.poles))
            )
            if n <= 20:
                np.testing.assert_allclose(back.residues, w.residues, rtol=1e-9, atol=0)


def test_from_quotient_of_bare_floats_matches_mpmath_oracle():
    """A bare float quotient (what ``toda weyl`` prints) inverts to the
    roots and residues of exactly those float coefficients."""
    mpmath = pytest.importorskip("mpmath")
    for n in (8, 12):
        rng = np.random.default_rng(32000 + n)
        for _ in range(10):
            pq = to_quotient(weyl(random_matrix(rng, n)))
            back = from_quotient(PolyQuotient(p=pq.p, q=pq.q))
            with mpmath.workdps(80):
                coef = [mpmath.mpf(x) for x in pq.p[::-1]]
                roots = sorted(mpmath.re(r) for r in mpmath.polyroots(coef, maxsteps=200, extraprec=200))
                num = [mpmath.mpf(x) for x in pq.q[::-1]]
                lam = np.array([float(r) for r in roots])
                rho = np.array([
                    float(mpmath.polyval(num, r) / mpmath.fprod(r - s for s in roots if s is not r))
                    for r in roots
                ])
            np.testing.assert_array_less(
                np.abs(back.poles - lam), 1e-12 * np.maximum(1.0, np.abs(lam))
            )
            np.testing.assert_allclose(back.residues, rho, rtol=1e-12, atol=0)
