"""The library against the exact spectral data of three finite families.

Oracles: the closed forms of ``families`` (Krawtchouk, Hahn, dual Hahn),
exact at every size with no extended precision.  The weights of ``eigen``
are checked only where its forward recurrence still holds them; the
entries marked xfail record where it does not (ROADMAP item 1).
"""

import math

import numpy as np
import pytest

from families import dual_hahn, hahn, krawtchouk
from toda import JacobiMatrix, SpectralData, eigen, lanczos_reconstruct, lax_integrate
from toda.spectral_direct import _distinct_eigenvalues

FAMILIES = {
    "krawtchouk(1/2)": lambda n: krawtchouk(n, 0.5),
    "hahn(1/2, 2)": lambda n: hahn(n, 0.5, 2.0),
    "dual_hahn(1/2, 2)": lambda n: dual_hahn(n, 0.5, 2.0),
}
LANCZOS_FAMILIES = dict(FAMILIES, **{"krawtchouk(1/10)": lambda n: krawtchouk(n, 0.1)})


def _scale(lam):
    return max(1.0, float(np.max(np.abs(lam))))


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in FAMILIES for n in (64, 128, 256)]
    + [("krawtchouk(1/2)", 1024), ("hahn(1/2, 2)", 1024)],
)
def test_eigenvalues_are_exact(name, n):
    v, c, lam, _ = FAMILIES[name](n)
    got = _distinct_eigenvalues(JacobiMatrix(v, c))
    assert float(np.max(np.abs(got - lam))) <= 1e-15 * _scale(lam)


def _assert_lanczos_rebuilds(family):
    v, c, lam, log_rho = family
    m = lanczos_reconstruct(SpectralData(lam, np.exp(log_rho)))
    err = max(float(np.max(np.abs(m.v - v))), float(np.max(np.abs(m.c - c))))
    assert err <= 1e-13 * _scale(lam)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("n", [64, 128, 256])
def test_lanczos_rebuilds_the_exact_matrix(name, n):
    _assert_lanczos_rebuilds(FAMILIES[name](n))


@pytest.mark.parametrize(
    "name, n",
    [("krawtchouk(1/2)", n) for n in (8, 1024)]
    + [("krawtchouk(1/10)", n) for n in (8, 64, 128, 256)]
    + [("hahn(1/2, 2)", n) for n in (8, 512, 1024)]
    + [("dual_hahn(1/2, 2)", n) for n in (8, 512)],
)
def test_lanczos_rebuilds_the_exact_matrix_out_to_1024_sites(name, n):
    """Out to the sizes where the smallest weights fall below 1e-154, so
    that a squared coupling formed as t * t / sig underflows; past them
    (Krawtchouk(1/10) at 512 sites) the weights underflow themselves."""
    _assert_lanczos_rebuilds(LANCZOS_FAMILIES[name](n))


def test_matrix_flow_carries_krawtchouk_along_its_family():
    """The first flow for time t takes K_N(1/2) to K_N(p), p/(1-p) = e^t."""
    t = 3.0
    v, c, _, _ = krawtchouk(64, 0.5)
    m, _ = lax_integrate(JacobiMatrix(v, c), t)
    v_t, c_t, _, _ = krawtchouk(64, 1.0 / (1.0 + math.exp(-t)))
    assert max(float(np.max(np.abs(m.v - v_t))), float(np.max(np.abs(m.c - c_t)))) <= 1e-12


def _weight_error(name, n):
    v, c, lam, log_rho = FAMILIES[name](n)
    rho = np.exp(log_rho)
    return float(np.max(np.abs(eigen(JacobiMatrix(v, c)).rhos - rho) / rho))


@pytest.mark.parametrize(
    "name, n", [("krawtchouk(1/2)", 64), ("hahn(1/2, 2)", 36), ("dual_hahn(1/2, 2)", 36)]
)
def test_eigen_weights_where_the_recurrence_holds(name, n):
    assert _weight_error(name, n) <= 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("name, n", [("hahn(1/2, 2)", 60), ("krawtchouk(1/2)", 128)])
def test_eigen_weights_past_the_recurrence(name, n):
    assert _weight_error(name, n) <= 1e-12
