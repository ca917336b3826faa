"""Tests for the tridiagonal matrix type and its recurrence polynomials.

Oracles: the determinant three-term recursion
D_{n+1} = (lam - v_n) D_n - c_{n-1}^2 D_{n-1} for leading principal minors
of lam*I - L, plus dense determinants and matrix powers from numpy.
"""

import numpy as np
import pytest

from toda import InvalidData, JacobiMatrix, moments, truncate
from toda.jacobi_core import _recurrence_table


def random_matrix(rng, n):
    return JacobiMatrix(rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 2.0, max(n - 1, 0)))


def minor_dets(m, lam):
    """det(lam*I - L_{[0,n-1]}) for n = 0..N by the three-term recursion."""
    d = [1.0, lam - m.v[0]]
    for k in range(1, m.n):
        d.append((lam - m.v[k]) * d[k] - m.c[k - 1] ** 2 * d[k - 1])
    return np.array(d)


def test_validation_rejects_malformed_input():
    with pytest.raises(InvalidData):
        JacobiMatrix(np.array([]), np.array([]))
    with pytest.raises(InvalidData):
        JacobiMatrix(np.array([1.0, 2.0]), np.array([]))
    with pytest.raises(InvalidData):
        JacobiMatrix(np.array([1.0, 2.0]), np.array([-0.5]))
    with pytest.raises(InvalidData):
        JacobiMatrix(np.array([1.0, 2.0]), np.array([0.0]))
    with pytest.raises(InvalidData):
        JacobiMatrix(np.array([1.0, np.nan]), np.array([1.0]))
    with pytest.raises(InvalidData):
        JacobiMatrix(np.array([[1.0, 2.0]]), np.array([1.0]))


def test_entries_are_copied_and_readonly():
    v = np.array([0.5, -0.5])
    c = np.array([1.5])
    m = JacobiMatrix(v, c)
    v[0] = 99.0
    assert m.v[0] == 0.5
    with pytest.raises(ValueError):
        m.v[0] = 1.0


def test_closing_coefficient_inverts_offdiagonal_product():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 8):
        m = random_matrix(rng, n)
        assert m.closing_c == pytest.approx(1.0 / np.prod(m.c) if n > 1 else 1.0, rel=1e-14)
    # the closing coefficient never appears in the dense form
    m = JacobiMatrix(np.array([0.0, 0.0]), np.array([2.0]))
    dense = m.as_dense()
    assert dense[0, 1] == 2.0 and dense[1, 0] == 2.0
    assert m.closing_c == pytest.approx(0.5)


def test_matvec_matches_dense_product():
    rng = np.random.default_rng(23)
    for n in (1, 2, 4, 9):
        m = random_matrix(rng, n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(m.matvec(x), m.as_dense() @ x, rtol=1e-13, atol=1e-13)


def test_first_kind_values_match_determinant_recursion():
    """P_n(lam) * (c_0 ... c_{n-1}) equals the n-th leading minor of lam*I - L."""
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 7):
        m = random_matrix(rng, n)
        for lam in (-2.0, -0.3, 0.9, 2.7):
            p = _recurrence_table(m, lam, True)
            d = minor_dets(m, lam)
            scale = np.concatenate(([1.0], np.cumprod(m.c)))
            np.testing.assert_allclose(p[:n] * scale, d[:n], rtol=1e-10, atol=1e-10)
            # the last value is monic: the closing coefficient makes the
            # product of all recurrence couplings equal one
            assert p[n] == pytest.approx(d[n], rel=1e-10, abs=1e-10)


def test_last_first_kind_value_is_characteristic_polynomial():
    rng = np.random.default_rng(6)
    for n in (1, 2, 4, 6):
        m = random_matrix(rng, n)
        for lam in (-1.7, 0.2, 3.1):
            det = np.linalg.det(lam * np.eye(n) - m.as_dense())
            assert _recurrence_table(m, lam, True)[n] == pytest.approx(det, rel=1e-9, abs=1e-9)


def test_second_kind_values_match_truncated_determinants():
    """Q_n(lam) * (c_0 ... c_{n-1}) is the char. det of rows 1..n-1."""
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 7):
        m = random_matrix(rng, n)
        dense = m.as_dense()
        for lam in (-2.1, 0.4, 1.9):
            q = _recurrence_table(m, lam, False)
            scale = np.concatenate(([1.0], np.cumprod(m.c)))
            assert q[0] == 0.0
            for k in range(1, n):
                block = dense[1:k, 1:k]
                det = np.linalg.det(lam * np.eye(k - 1) - block) if k > 1 else 1.0
                assert q[k] * scale[k] == pytest.approx(det, rel=1e-9, abs=1e-9)
            # last value: monic characteristic polynomial of the truncation
            det = np.linalg.det(lam * np.eye(n - 1) - dense[1:, 1:])
            assert q[n] == pytest.approx(det, rel=1e-9, abs=1e-9)


def test_two_site_values_at_zero():
    """For v=(1,1), c=(1): P(0) = (1,-1,0) and Q(0) = (0,1,-1)."""
    m = JacobiMatrix(np.array([1.0, 1.0]), np.array([1.0]))
    np.testing.assert_allclose(_recurrence_table(m, 0.0, True), [1.0, -1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(_recurrence_table(m, 0.0, False), [0.0, 1.0, -1.0], atol=1e-15)


def test_single_site_polynomials():
    m = JacobiMatrix(np.array([2.5]), np.array([]))
    assert _recurrence_table(m, 4.0, True)[1] == pytest.approx(1.5)
    assert _recurrence_table(m, 4.0, False)[1] == pytest.approx(1.0)  # 1/closing_c with empty product


def test_truncate_selects_principal_block():
    rng = np.random.default_rng(8)
    m = random_matrix(rng, 6)
    t = truncate(m, 2, 4)
    np.testing.assert_allclose(t.v, m.v[2:5])
    np.testing.assert_allclose(t.c, m.c[2:4])
    whole = truncate(m, 0, 5)
    np.testing.assert_allclose(whole.as_dense(), m.as_dense())


def test_truncate_rejects_bad_windows():
    m = JacobiMatrix(np.zeros(3), np.ones(2))
    for k, p in ((-1, 1), (0, 3), (2, 1)):
        with pytest.raises(IndexError):
            truncate(m, k, p)


def test_moments_match_matrix_powers():
    """moments(L, k)[j] equals the (0,0) entry of L^j."""
    rng = np.random.default_rng(9)
    for n in (1, 3, 6):
        m = random_matrix(rng, n)
        got = moments(m, 5)
        dense = m.as_dense()
        want = [np.linalg.matrix_power(dense, k)[0, 0] for k in range(6)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_moments_rejects_negative_order():
    m = JacobiMatrix(np.array([1.0]), np.array([]))
    with pytest.raises(InvalidData):
        moments(m, -1)
