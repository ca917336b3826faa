"""Quadratic Poisson structures on rational pole sums.

The bracket of two evaluations of the function at distinct points is a
quadratic expression in the two values; in pole-residue coordinates this
becomes an explicit antisymmetric tensor, in either the full chart or the
chart restricted to unit total residue.  This module builds those tensors
from one raw-array formula, together with their analytic partial
derivatives as whole-array expressions (for Jacobi-identity checks).
Every report contracts gradient rows against one tensor build: the
constrained reduction from the full chart to the restricted one reads all
its brackets off one Gram matrix, and the coordinate-bracket verifications
used by the acceptance suite pair closed-form chart Jacobians.  Every
observable carries its analytic gradient, so no derivative is differenced.

Report generators are pure functions of their inputs and may be fanned out
over sample points concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._poly import _readonly
from .errors import (
    AtPole,
    CoincidentArguments,
    ConstraintDegenerate,
    InvalidData,
)
from .rational_weyl import RationalHerglotz, _exp_values, _shifted, _values, _zeros, evaluate

CHART_UNRESTRICTED = "unrestricted"
CHART_RESTRICTED = "restricted"


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A point in pole-residue coordinates, tagged with its chart.

    Restricted points must have residues summing to one.  Points with a
    residue below 1e-8 sit near the chart boundary; brackets still evaluate
    there but emit a warning.

    The Poisson tensor (``tensor_at``) is built on first use and kept on the
    point: the point is frozen and its arrays are read-only, so the kept
    tensor cannot go stale, and every report on the point shares one build.
    """

    lambdas: np.ndarray
    rhos: np.ndarray
    chart: str = CHART_RESTRICTED

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _readonly(self.lambdas))
        object.__setattr__(self, "rhos", _readonly(self.rhos))
        if self.chart not in (CHART_UNRESTRICTED, CHART_RESTRICTED):
            raise InvalidData("unknown chart %r" % (self.chart,))
        lam, rho = self.lambdas, self.rhos
        if lam.ndim != 1 or lam.size < 1 or rho.shape != lam.shape:
            raise InvalidData("need matching pole and residue arrays")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(rho))):
            raise InvalidData("poles and residues must be finite")
        if lam.size > 1 and not np.all(np.diff(lam) > 0.0):
            raise InvalidData("poles must be strictly increasing")
        if not np.all(rho > 0.0):
            raise InvalidData("residues must be positive")
        if self.chart == CHART_RESTRICTED and abs(float(np.sum(rho)) - 1.0) > 1e-8:
            raise InvalidData("restricted chart requires unit total residue")

    @property
    def n(self) -> int:
        return self.lambdas.size

    @property
    def near_boundary(self) -> bool:
        return bool(np.min(self.rhos) < 1e-8)

    @cached_property
    def _poisson_tensor(self) -> PoissonTensor:
        return PoissonTensor(_tensor(self.lambdas, self.rhos, self.chart == CHART_RESTRICTED))


@dataclass(frozen=True, eq=False)
class PoissonTensor:
    """Antisymmetric bracket matrix in coordinates (rho_0..rho_{N-1},
    lambda_0..lambda_{N-1})."""

    j: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "j", _readonly(self.j))
        m = self.j
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise InvalidData("tensor must be square of even dimension")
        if not np.array_equal(m, -m.T):
            raise InvalidData("tensor must be exactly antisymmetric")


@dataclass(frozen=True)
class Observable:
    """Scalar function of a chart point: ``fn(lambdas, rhos)`` returns the
    value and ``grad(lambdas, rhos)`` its derivative vector, ordered
    (d/drho, d/dlambda).  Both take raw arrays rather than a chart point
    only so that the tests' finite-difference oracle may step off the
    unit-residue slice.
    """

    fn: Callable[[np.ndarray, np.ndarray], float]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def value(self, pt: ChartPoint) -> float:
        return float(self.fn(pt.lambdas, pt.rhos))


def _inverse_gaps(lam: np.ndarray) -> np.ndarray:
    """Matrix inv[k, n] = 1/(lam_n - lam_k) with zero diagonal."""
    d = lam[None, :] - lam[:, None]
    np.fill_diagonal(d, 1.0)
    inv = 1.0 / d
    np.fill_diagonal(inv, 0.0)
    return inv


def _chart_gaps(
    lam: np.ndarray, rho: np.ndarray, restricted: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Gap matrix inv (see ``_inverse_gaps``) and the restricted chart's
    correction s_k = sum_m rho_m / (lam_m - lam_k), zero on the full chart."""
    inv = _inverse_gaps(lam)
    s = (rho[None, :] * inv).sum(axis=1) if restricted else np.zeros(lam.size)
    return inv, s


def _tensor(lam: np.ndarray, rho: np.ndarray, restricted: bool) -> np.ndarray:
    """Bracket matrix on raw arrays, so that the tests' finite-difference
    oracle may step off the unit-residue slice: residue block
    A_kq = 2 rho_k rho_q (inv_kq + s_q - s_k) and mixed block B = diag(rho),
    minus rho rho^T when restricted."""
    inv, s = _chart_gaps(lam, rho, restricted)
    rr = np.outer(rho, rho)
    a = 2.0 * rr * inv + 2.0 * rr * (s[None, :] - s[:, None])
    np.fill_diagonal(a, 0.0)
    b = np.diag(rho) - rr if restricted else np.diag(rho)
    j = np.block([[a, b], [-b.T, np.zeros_like(a)]])
    return 0.5 * (j - j.T)  # exact antisymmetry down to signed zeros


def tensor_at(pt: ChartPoint) -> PoissonTensor:
    """Bracket tensor of the chart at the given point.

    Built once per point and kept on it: ``pt`` is frozen with read-only
    arrays, so every call returns the same ``PoissonTensor``, whose ``j`` is
    read-only too.
    """
    return pt._poisson_tensor


def _tensor_partials(pt: ChartPoint) -> np.ndarray:
    """Analytic partials dJ[l, i, j] = d J_ij / d x_l, x = (rho, lambda).

    Each block is one array expression indexed [m, k, q], the partial along
    rho_m or lambda_m of entry (k, q).  With d the Kronecker symbol, base =
    inv + s_q - s_k and ds_x[m, k] = d s_k / d x_m (zero on the full chart):
      dA/drho_m = 2 (d_mk rho_q + d_mq rho_k) base + 2 rho_k rho_q (ds_rho[m, q] - ds_rho[m, k]),
      dA/dlam_m = 2 rho_k rho_q ((d_mk - d_mq) inv^2 + ds_lam[m, q] - ds_lam[m, k]),
      dB/drho_m = E_mm, minus (e_m rho^T + rho e_m^T) on the restricted chart.
    The diagonal k = q is zero, as base, inv and the ds differences are.
    """
    lam, rho = pt.lambdas, pt.rhos
    n = pt.n
    restricted = pt.chart == CHART_RESTRICTED
    inv, s = _chart_gaps(lam, rho, restricted)
    inv2 = inv * inv
    eye = np.eye(n)
    rr = np.outer(rho, rho)
    d_rho = eye[:, :, None] * rho + eye[:, None, :] * rho[:, None]
    base = inv + (s[None, :] - s[:, None])
    db = eye[:, :, None] * eye[:, None, :]
    ds_rho = ds_lam = np.zeros((n, n))
    if restricted:
        ds_rho = inv.T
        ds_lam = (np.diag((rho * inv2).sum(axis=1)) - rho * inv2).T
        db = db - d_rho
    dj = np.zeros((2 * n, 2 * n, 2 * n))
    dj[:n, :n, :n] = 2.0 * d_rho * base + 2.0 * rr * (ds_rho[:, None, :] - ds_rho[:, :, None])
    dj[:n, :n, n:] = db
    dj[:n, n:, :n] = -db.transpose(0, 2, 1)
    dj[n:, :n, :n] = 2.0 * rr * (
        (eye[:, :, None] - eye[:, None, :]) * inv2 + (ds_lam[:, None, :] - ds_lam[:, :, None])
    )
    return dj


def jacobi_residual(pt: ChartPoint) -> float:
    """Max cyclic-sum residual of the Jacobi identity with analytic partials."""
    j = tensor_at(pt).j
    dj = _tensor_partials(pt)
    # a[i, j, k] = sum_l J_il dJ_jk/dx_l; the cyclic sum permutes it.
    a = (j @ dj.reshape(j.shape[0], -1)).reshape(dj.shape)
    t = a + a.transpose(2, 0, 1) + a.transpose(1, 2, 0)
    return float(np.max(np.abs(t)))


def antisymmetry_residual(pt: ChartPoint) -> float:
    """Exactly zero by construction; kept as an explicit health check."""
    j = tensor_at(pt).j
    return float(np.max(np.abs(j + j.T)))


def gradient(obs: Observable, pt: ChartPoint) -> np.ndarray:
    """Gradient of an observable at a point, checked to have length 2N."""
    g = np.asarray(obs.grad(pt.lambdas, pt.rhos), dtype=float)
    if g.shape != (2 * pt.n,):
        raise InvalidData("gradient must have length 2N")
    return g


def _warn_near_boundary(pt: ChartPoint) -> None:
    if pt.near_boundary:
        warnings.warn(
            "bracket evaluated near a chart boundary (tiny residue)",
            RuntimeWarning,
            stacklevel=3,
        )


def bracket(f: Observable, g: Observable, pt: ChartPoint) -> float:
    """Poisson bracket {f, g} at the point, via the chart tensor."""
    _warn_near_boundary(pt)
    j = tensor_at(pt).j
    return float(gradient(f, pt) @ j @ gradient(g, pt))


def ah_formula(w: RationalHerglotz, lam: float, mu: float, restricted: bool = False) -> float:
    """Two-point bracket of function values, in closed form.

    Unrestricted: (w(lam) - w(mu))^2 / (lam - mu).  Restricted to unit total
    residue the constrained correction subtracts the product of the values:
    (w(lam) - w(mu)) * ((w(lam) - w(mu))/(lam - mu) - w(lam) w(mu)).
    """
    lam = float(lam)
    mu = float(mu)
    if abs(lam - mu) < 1e-6:
        raise CoincidentArguments("bracket arguments closer than 1e-6")
    wl = evaluate(w, lam)
    wm = evaluate(w, mu)
    d = wl - wm
    if restricted:
        return float(d * (d / (lam - mu) - wl * wm))
    return float(d * d / (lam - mu))


def ah_formula_xi(w: RationalHerglotz, lam: float, mu: float) -> float:
    """Restricted two-point bracket computed in exponent form.

    The function values are rebuilt from the divisor through the signed gap
    product (the exponential representation route, anchored at the lowest
    pole) instead of the pole sum, and combined as
    (w(lam)-w(mu))^2/((lam-mu) w(lam) w(mu)) - w(lam) + w(mu),
    which is the bracket of the log-exponents; multiplied by
    w(lam)*w(mu) it must agree with the restricted closed form.
    """
    lam = float(lam)
    mu = float(mu)
    if abs(lam - mu) < 1e-6:
        raise CoincidentArguments("bracket arguments closer than 1e-6")
    if not w.normalized:
        raise InvalidData("exponent form requires unit total residue")
    shift, poles0, gam0 = _shifted(w)

    def value(x: float) -> float:
        if np.min(np.abs(np.concatenate((poles0, gam0)) - x)) < 1e-14:
            raise AtPole("evaluation point coincides with a pole or zero")
        return float(_exp_values(poles0, gam0, x))

    wl = value(lam - shift)
    wm = value(mu - shift)
    d = wl - wm
    return float(d * d / ((lam - mu) * wl * wm) - wl + wm)


def weyl_value(x: float) -> Observable:
    """Observable: value of the pole sum at a fixed off-spectrum point."""
    x = float(x)

    def fn(lam: np.ndarray, rho: np.ndarray) -> float:
        return float(_values(lam, rho, x))

    def grad(lam: np.ndarray, rho: np.ndarray) -> np.ndarray:
        return np.concatenate((1.0 / (lam - x), -rho / (lam - x) ** 2))

    return Observable(fn, grad)


def verify_formula_vs_tensor(pt: ChartPoint, lam: float, mu: float) -> float:
    """Relative gap between the closed-form two-point bracket and the tensor
    contraction of the two evaluation observables."""
    w = RationalHerglotz(pt.lambdas, pt.rhos)
    formula = ah_formula(w, lam, mu, restricted=pt.chart == CHART_RESTRICTED)
    tens = bracket(weyl_value(lam), weyl_value(mu), pt)
    return abs(formula - tens) / max(1.0, abs(formula))


def dirac_reduce(pt: ChartPoint, f: Observable, g: Observable) -> float:
    """Constrained bracket on the full chart.

    Uses the top coefficients of the quotient form as the constraint pair:
    the total residue (whose log is the first constraint) and minus the
    spectral sum.  Their pairing is constant, but it is checked anyway; on
    the unit-residue slice the result equals the restricted-chart bracket.
    All brackets are read off one Gram matrix of the gradients of f, g,
    log q0 and p0 against one tensor build.
    """
    if pt.chart != CHART_UNRESTRICTED:
        raise InvalidData("reduction starts from the unrestricted chart")
    _warn_near_boundary(pt)
    zero, one = np.zeros(pt.n), np.ones(pt.n)
    rows = np.stack((
        gradient(f, pt),
        gradient(g, pt),
        np.concatenate((one / float(np.sum(pt.rhos)), zero)),  # log q0
        np.concatenate((zero, -one)),  # p0
    ))
    m = rows @ tensor_at(pt).j @ rows.T
    if abs(m[3, 2]) < 1e-8:
        raise ConstraintDegenerate("constraint pairing vanished")
    return float(m[0, 1] + m[2, 1] * m[0, 3] - m[3, 1] * m[0, 2])


def _chart_jacobians(
    lam: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Divisor, dual residues, and the closed-form Jacobians in (rho, lambda)
    of the angles, divisor, quasimomenta, exponential-representation angles
    and dual residues, all from one divisor solve on the raw arrays.

    The divisor moves by implicit differentiation of w(gamma) = 0, where
    w'(gamma) = sum rho/(lambda - gamma)^2 > 0 on every gap; the other maps
    follow from their log formulas by the chain rule through (lambda, gamma).
    """
    n = lam.size
    gam = _zeros(lam, rho)
    inv = _inverse_gaps(lam)
    d = 1.0 / (lam[None, :] - gam[:, None])  # d[s, m] = 1/(lam_m - gam_s)
    wp = (rho * d * d).sum(axis=1)
    j_gamma = np.hstack((-d, rho * d * d)) / wp[:, None]
    # theta_k = L_k - L_0 with L_k = log rho_k + sum_{j != k} log|lam_k - lam_j|.
    j_l = np.hstack((np.diag(1.0 / rho), inv - np.diag(inv.sum(axis=1))))
    j_theta = j_l[1:] - j_l[0]
    # pi_s = sum_m log|gam_s - lam_m|.
    j_pi = -d.sum(axis=1)[:, None] * j_gamma
    j_pi[:, n:] += d
    # theta'_k = A_k - A_0 with A_k = sum_s log|gam_s - lam_k|
    # - sum_{j != k} log|lam_j - lam_k|: the divisor form of the angles, kept
    # apart from theta so that thetaprime_lambda checks the divisor route.
    j_a = -d.T @ j_gamma
    j_a[:, n:] += np.diag(d.sum(axis=0) + inv.sum(axis=1)) - inv
    j_thp = j_a[1:] - j_a[0]
    # rho'_s = -p(gam_s) / (q0 prod_{t != s} (gam_s - gam_t)), differentiated
    # through log|rho'_s| = pi_s - log q0 - sum_{t != s} log|gam_s - gam_t|.
    q0 = float(np.sum(rho))
    dg = gam[:, None] - gam[None, :]
    np.fill_diagonal(dg, 1.0)
    rhop = -np.prod(gam[:, None] - lam[None, :], axis=1) / (q0 * np.prod(dg, axis=1))
    ginv = _inverse_gaps(gam)
    j_log_rhop = j_pi + (np.diag(ginv.sum(axis=1)) - ginv) @ j_gamma
    j_log_rhop[:, :n] -= 1.0 / q0
    jac = {
        "theta": j_theta,
        "gamma": j_gamma,
        "pi": j_pi,
        "thetaprime": j_thp,
        "rhoprime": rhop[:, None] * j_log_rhop,
    }
    return gam, rhop, jac


def _pair(ja: np.ndarray, j: np.ndarray, jb: np.ndarray) -> np.ndarray:
    return ja @ j @ jb.T


def canonical_report(pt: ChartPoint) -> dict[str, float]:
    """Residuals of the canonical relations in the restricted chart.

    Checks, with delta the Kronecker symbol: angle/pole brackets equal
    delta_k^n - delta_0^n, angles commute, quasimomentum/divisor brackets are
    the identity, divisor points and quasimomenta separately commute, the
    exponential-representation angles pair with the non-anchor poles as the
    identity, and the spectral-sum Casimir commutes with every family.
    """
    if pt.chart != CHART_RESTRICTED:
        raise InvalidData("canonical relations live on the restricted chart")
    if pt.n < 2:
        raise InvalidData("needs at least two poles")
    n = pt.n
    j = tensor_at(pt).j
    _, _, jac = _chart_jacobians(pt.lambdas, pt.rhos)
    j_theta, j_gamma, j_pi, j_thp = (
        jac["theta"], jac["gamma"], jac["pi"], jac["thetaprime"]
    )
    j_lam = np.hstack((np.zeros((n, n)), np.eye(n)))
    j_rho = np.hstack((np.eye(n), np.zeros((n, n))))
    j_cas = np.concatenate((np.zeros(n), np.ones(n)))[None, :]
    expect_tl = np.eye(n)[1:] - np.eye(n)[0]
    eye = np.eye(n - 1)
    report = {
        "theta_lambda": float(np.max(np.abs(_pair(j_theta, j, j_lam) - expect_tl))),
        "theta_theta": float(np.max(np.abs(_pair(j_theta, j, j_theta)))),
        "pi_gamma": float(np.max(np.abs(_pair(j_pi, j, j_gamma) - eye))),
        "gamma_gamma": float(np.max(np.abs(_pair(j_gamma, j, j_gamma)))),
        "pi_pi": float(np.max(np.abs(_pair(j_pi, j, j_pi)))),
        "thetaprime_lambda": float(
            np.max(np.abs(_pair(j_thp, j, j_lam)[:, 1:] - eye))
        ),
        "casimir_theta": float(np.max(np.abs(_pair(j_cas, j, j_theta)))),
        "casimir_gamma": float(np.max(np.abs(_pair(j_cas, j, j_gamma)))),
        "casimir_pi": float(np.max(np.abs(_pair(j_cas, j, j_pi)))),
        "casimir_rho": float(np.max(np.abs(_pair(j_cas, j, j_rho)))),
    }
    return report


def dual_identities(pt: ChartPoint) -> dict[str, float]:
    """Bracket identities for the dual data (divisor-side residues, the top
    quotient coefficients) on the unrestricted chart; residuals are scaled
    by max(1, |expected|)."""
    if pt.chart != CHART_UNRESTRICTED:
        raise InvalidData("dual identities live on the unrestricted chart")
    if pt.n < 2:
        raise InvalidData("needs at least two poles")
    n = pt.n
    lam, rho = pt.lambdas, pt.rhos
    j = tensor_at(pt).j
    gam, rhop, jac = _chart_jacobians(lam, rho)
    q0_val = float(np.sum(rho))
    j_gamma, j_rhop = jac["gamma"], jac["rhoprime"]
    j_q0 = np.concatenate((np.ones(n), np.zeros(n)))[None, :]
    j_p0 = np.concatenate((np.zeros(n), -np.ones(n)))[None, :]

    def rel(x: np.ndarray, expected: np.ndarray) -> float:
        return float(np.max(np.abs(x - expected) / np.maximum(1.0, np.abs(expected))))

    inv = _inverse_gaps(gam)
    expect_rr = 2.0 * np.outer(rhop, rhop) * inv
    report = {
        "rhoprime_gamma": rel(_pair(j_rhop, j, j_gamma), np.diag(rhop)),
        "rhoprime_rhoprime": rel(_pair(j_rhop, j, j_rhop), expect_rr),
        "gamma_gamma": rel(_pair(j_gamma, j, j_gamma), np.zeros((n - 1, n - 1))),
        "q0_gamma": rel(_pair(j_q0, j, j_gamma), np.zeros((1, n - 1))),
        "q0_rhoprime": rel(_pair(j_q0, j, j_rhop), np.zeros((1, n - 1))),
        "rhoprime_p0": rel(_pair(j_rhop, j, j_p0), rhop[:, None]),
        "p0_gamma": rel(_pair(j_p0, j, j_gamma), np.zeros((1, n - 1))),
        "p0_q0": rel(_pair(j_p0, j, j_q0), np.array([[q0_val]])),
    }
    return report


def entry_bracket_residual(pt: ChartPoint) -> float:
    """Residual of the leading matrix-entry bracket {c_0, v_0} = -c_0 / 2,
    with v_0 and c_0 expressed through the first two moments."""
    if pt.chart != CHART_RESTRICTED:
        raise InvalidData("matrix-entry brackets live on the restricted chart")
    _warn_near_boundary(pt)
    lam, rho = pt.lambdas, pt.rhos
    m1 = float(np.sum(rho * lam))
    c0 = float(np.sqrt(float(np.sum(rho * lam**2)) - m1 * m1))
    grad_v0 = np.concatenate((lam, rho))
    grad_c0 = np.concatenate((lam**2 - 2 * m1 * lam, 2 * rho * (lam - m1))) / (2.0 * c0)
    return abs(float(grad_c0 @ tensor_at(pt).j @ grad_v0) + 0.5 * c0)
