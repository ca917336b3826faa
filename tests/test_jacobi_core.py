"""Tests for the tridiagonal matrix type, its principal blocks and moments.

Oracles: dense products and matrix powers from numpy.
"""

import numpy as np
import pytest

from toda import InvalidData, JacobiMatrix, moments, truncate


def random_matrix(rng, n):
    return JacobiMatrix(rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 2.0, max(n - 1, 0)))


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


def test_matvec_matches_dense_product():
    rng = np.random.default_rng(23)
    for n in (1, 2, 4, 9):
        m = random_matrix(rng, n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(m.matvec(x), m.as_dense() @ x, rtol=1e-13, atol=1e-13)


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
        with pytest.raises(InvalidData, match="truncation window out of range"):
            truncate(m, k, p)
    for bad in (1.5, True, "1"):
        for k, p in ((bad, 2), (0, bad)):
            with pytest.raises(InvalidData, match="must be an integer"):
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
