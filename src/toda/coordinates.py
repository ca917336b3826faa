"""Canonical coordinate charts on the manifold of normalized pole sums.

Two charts are provided: logarithmic angles paired with the poles, and
logarithmic quasimomenta paired with the divisor (the zeros), with the pole
sum itself recoverable from either side.  Sign bookkeeping matters
throughout: the interlacing of poles and zeros makes every quantity under a
logarithm positive once the alternating parity factors are combined, and
the code asserts that instead of assuming it.

The chart maps run on kernels with a leading stack axis (one call maps all
samples of a flow), which the typed functions call on one point; a stack
raises what its lowest failing row raises on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _poly
from ._poly import _readonly
from .errors import (
    InterlacingViolated,
    InvalidData,
    NoHerglotzSolution,
    Overflow,
    TodaError,
)
from .rational_weyl import RationalHerglotz, _shifted, _zeros, zeros


@dataclass(frozen=True, eq=False)
class ActionAngle:
    """Poles plus logarithmic angle variables (one per non-anchor pole)."""

    lambdas: np.ndarray
    thetas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _readonly(self.lambdas))
        object.__setattr__(self, "thetas", _readonly(self.thetas))
        if self.lambdas.ndim != 1 or self.lambdas.size < 1:
            raise InvalidData("need at least one pole")
        if self.lambdas.size > 1 and not np.all(np.diff(self.lambdas) > 0.0):
            raise InvalidData("poles must be strictly increasing")
        if self.thetas.shape != (self.lambdas.size - 1,):
            raise InvalidData("need one angle per non-anchor pole")
        if not (np.all(np.isfinite(self.lambdas)) and np.all(np.isfinite(self.thetas))):
            raise InvalidData("chart values must be finite")

    @property
    def n(self) -> int:
        return self.lambdas.size


@dataclass(frozen=True, eq=False)
class DivisorQuasimomentum:
    """Divisor points with logarithmic quasimomenta and the spectral sum
    (a Casimir) that pins down the complementary direction.  The divisor of
    one site is empty: its pole sum is the one pole at the Casimir."""

    gammas: np.ndarray
    pis: np.ndarray
    casimir: float

    def __post_init__(self):
        object.__setattr__(self, "gammas", _readonly(self.gammas))
        object.__setattr__(self, "pis", _readonly(self.pis))
        object.__setattr__(self, "casimir", float(self.casimir))
        if self.gammas.ndim != 1:
            raise InvalidData("divisor points must be one-dimensional")
        if self.gammas.size > 1 and not np.all(np.diff(self.gammas) > 0.0):
            raise InvalidData("divisor points must be strictly increasing")
        if self.pis.shape != self.gammas.shape:
            raise InvalidData("need one quasimomentum per divisor point")
        if not (
            np.all(np.isfinite(self.gammas))
            and np.all(np.isfinite(self.pis))
            and np.isfinite(self.casimir)
        ):
            raise InvalidData("chart values must be finite")

    @property
    def n(self) -> int:
        return self.gammas.size + 1


def _log_abs_dp(lam: np.ndarray) -> np.ndarray:
    """log |prod_{j != k} (lam_k - lam_j)| for every k, over the last axis."""
    return np.log(np.abs(lam[..., :, None] - lam[..., None, :]) + np.eye(lam.shape[-1])).sum(-1)


def theta_from(w: RationalHerglotz) -> ActionAngle:
    """Angle variables of a normalized pole sum.

    theta_k compares the numerator values at pole k and at the anchor pole;
    in terms of the data this is log of (rho_k |p'_k|) / (rho_0 |p'_0|),
    which is positive for every pole sum, so the chart is total.
    """
    if not w.normalized:
        raise InvalidData("angles are defined for unit total residue")
    return ActionAngle(w.poles, _thetas(w.poles, w.residues))


def _thetas(lam: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``theta_from`` of each row of poles and residues (..., N)."""
    logs = np.log(rho) + _log_abs_dp(lam)
    return logs[..., 1:] - logs[..., :1]


def w_from_theta(lambdas: np.ndarray, thetas: np.ndarray) -> RationalHerglotz:
    """Inverse of :func:`theta_from` for the given poles.

    The residue ratios fixed by the angles leave a single overall scale,
    pinned by the unit-sum normalization; evaluated in log space so that
    angles of order +-50 stay inside double range.
    """
    lam = np.asarray(lambdas, dtype=float)
    th = np.asarray(thetas, dtype=float)
    if lam.ndim != 1 or th.shape != (lam.size - 1,):
        raise InvalidData("need one angle per non-anchor pole")
    logdp = _log_abs_dp(lam)
    scaled = np.concatenate(([0.0], th + logdp[0] - logdp[1:]))
    scaled -= scaled.max()
    weights = np.exp(scaled)
    return RationalHerglotz(lam, weights / weights.sum())


def _check_interlacing(lam: np.ndarray, gam: np.ndarray) -> None:
    """Raise unless ``gam`` holds one point strictly inside each gap of the
    increasing poles ``lam``."""
    if lam.ndim != 1 or gam.shape != (lam.size - 1,):
        raise InvalidData("need one divisor point per spectral gap")
    if not (np.all(lam[:-1] < gam) and np.all(gam < lam[1:])):
        raise InterlacingViolated("divisor must interlace the poles")


def w_from_gamma(lambdas: np.ndarray, gammas: np.ndarray) -> RationalHerglotz:
    """Pole sum with prescribed poles and zeros.

    Residues are q(pole_k)/p'(pole_k) with both polynomials in product form,
    evaluated as paired quotients to keep magnitudes balanced.  The unit sum
    of the residues is an identity of the construction, not a rescaling.
    """
    lam = np.asarray(lambdas, dtype=float)
    gam = np.asarray(gammas, dtype=float)
    _check_interlacing(lam, gam)
    rho, positive = _residues(lam, gam)
    _poly._raise_lowest(positive)
    return RationalHerglotz(lam, rho)


def _residues(lam: np.ndarray, gam: np.ndarray):
    """``w_from_gamma`` residues over the last axis, and their positivity check."""
    n = lam.shape[-1]
    gaps = (lam[..., :, None] - lam[..., None, :])[..., ~np.eye(n, dtype=bool)]
    gaps = gaps.reshape(lam.shape + (n - 1,))
    rho = np.prod((lam[..., :, None] - gam[..., None, :]) / gaps, axis=-1)
    return rho, (~np.all(rho > 0.0, axis=-1), InterlacingViolated,
                 "interlacing failed to produce positive residues")


def pi_from(w: RationalHerglotz) -> DivisorQuasimomentum:
    """Quasimomenta: log of the alternating-sign values of the monic pole
    polynomial at the divisor points, plus the spectral-sum Casimir.  One
    pole gives the empty divisor, as ``w_from_divisor`` reads it.

    The divisor is the one ``zeros`` keeps on ``w`` (a frozen record with
    read-only arrays, so it cannot go stale): after ``krein`` or
    ``theta_prime`` on the same ``w`` nothing is solved again.
    """
    if not w.normalized:
        raise InvalidData("quasimomenta are defined for unit total residue")
    gam = zeros(w).gammas
    return DivisorQuasimomentum(gam, _pis(gam, w.poles), float(np.sum(w.poles)))


def _quasimomenta(lam: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pi_from`` divisor and quasimomenta of each row of poles and residues."""
    gam = _zeros(lam, rho)
    return gam, _pis(gam, lam)


def _pis(gam: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Quasimomenta of the divisor ``gam`` (..., N - 1) of the poles ``lam`` (..., N)."""
    # (-1)^(N+k) p(gamma_k) > 0: gamma_k has N-k poles above it, and the
    # parity prefactor cancels the resulting sign exactly.
    return np.log(np.abs(gam[..., :, None] - lam[..., None, :])).sum(axis=-1)


def w_from_divisor(dq: DivisorQuasimomentum) -> RationalHerglotz:
    """Pole sum with the prescribed divisor, quasimomenta and spectral sum.

    Writing the monic pole polynomial as p = (z + alpha) Omega + I, with
    Omega the monic divisor polynomial and I interpolating the prescribed
    alternating values on the divisor, the spectral sum fixes alpha in
    closed form and the poles are the roots of

        g(x) = p / Omega = x + alpha - sum_k a_k / (x - gamma_k),
        a_k = exp(pi_k) / |Omega'(gamma_k)| > 0

    (the alternating signs make every a_k positive).  g increases from
    -inf to +inf on each gap and beyond each end, so there is one pole
    there: ``_poly.secular_roots`` (beta = 1) finds it, the outer brackets
    coming from the bound sum_k a_k / |x - gamma_k| <= A / d at distance d
    from the divisor, A = sum_k a_k.  ``_poles_from_divisor`` stacks.
    An empty divisor gives the one pole at the spectral sum.
    """
    if dq.gammas.size == 0:
        return RationalHerglotz(np.array([dq.casimir]), np.ones(1))
    lam, rho = _poles_from_divisor(dq.gammas[None], dq.pis[None], np.array([dq.casimir]))
    return RationalHerglotz(lam[0], rho[0])


def _poles_from_divisor(gam: np.ndarray, pis: np.ndarray, casimir: np.ndarray) -> tuple:
    """``w_from_divisor`` of each row of divisor points and quasimomenta
    (B, N - 1) with Casimirs (B,): poles and residues (B, N)."""
    log_a = pis - _log_abs_dp(gam)
    alpha = gam.sum(axis=-1) - casimir
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.exp(log_a)
        root_a = np.sqrt(a.sum(axis=-1))
        left = gam[:, 0] - (np.abs(gam[:, 0] + alpha) + root_a + 1.0)
        right = gam[:, -1] + (np.abs(gam[:, -1] + alpha) + root_a + 1.0)
        early = (
            ((np.abs(pis).max(axis=-1) > 700.0) | (log_a.max(axis=-1) > 700.0), Overflow,
             "quasimomentum exponent out of double range"),
            (~np.isfinite(right - left), NoHerglotzSolution,
             "pole brackets beyond the divisor are not finite"),
        )
    # Rows past the lowest one that fails here cannot change what is raised.
    stop = min([int(bad.argmax()) for bad, _, _ in early if bad.any()], default=len(gam))
    gam, a, alpha, casimir = gam[:stop], a[:stop], alpha[:stop, None], casimir[:stop]
    lo = np.concatenate((left[:stop, None], gam), axis=1)
    hi = np.concatenate((gam, right[:stop, None]), axis=1)
    lam = _poly.secular_roots(gam, a, 1.0, alpha, lo, hi, np.abs(gam).max(axis=1, keepdims=True))
    rho, positive = _residues(lam, gam)
    _poly._raise_lowest(
        *early,
        (~(np.all(lam[:, :-1] < gam, axis=1) & np.all(gam < lam[:, 1:], axis=1)),
         NoHerglotzSolution, "recovered poles do not interlace the divisor"),
        (np.abs(lam.sum(axis=1) - casimir) > 1e-6 * np.maximum(1.0, np.abs(casimir)),
         TodaError, "spectral sum drifted during divisor inversion"),
        positive,
    )
    return lam, rho


def theta_prime(w: RationalHerglotz) -> np.ndarray:
    """Exponential-representation angles, evaluated in the real convention.

    After shifting the anchor pole to the origin (``_shifted``), angle k is
    the finite part of the shift-integral at pole k, all k at once; all
    alternating parity factors combine to +1 so only logarithms of absolute
    values appear.  The fixed offset between these angles and the plain
    angles (a function of the poles alone) is verified before returning.
    """
    if not w.normalized:
        raise InvalidData("angles are defined for unit total residue")
    _, lam, gam = _shifted(w)
    lam = lam[1:]
    log_lam = np.log(lam)
    xi0 = float(np.sum(np.log(gam) - log_lam))
    out = np.log(np.abs(gam - lam[:, None])).sum(axis=-1) - _log_abs_dp(lam) - xi0 - log_lam
    offset = np.log(np.abs((lam - lam[:, None]) / lam) + np.eye(lam.size)).sum(axis=-1)
    theta = theta_from(w).thetas
    if np.any(np.abs(theta - out - offset) > 1e-7 * np.maximum(1.0, np.abs(theta))):
        raise TodaError("angle conventions disagree beyond tolerance")
    return out


def abel_period_check(lambdas: np.ndarray, k: int, p: int) -> complex:
    """Contour period of the k-th normalized pole differential around pole p.

    The differential (1/(z - lambda_k) - 1/(z - lambda_0)) dz is integrated
    over a circle of half the minimal gap radius centered at pole p with the
    256-node trapezoid rule, which is exact to machine precision here; the
    result should be 2 pi i (delta_kp - delta_0p).
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.size < 2 or not np.all(np.diff(lam) > 0.0):
        raise InvalidData("need at least two increasing poles")
    if not (1 <= k < lam.size) or not (0 <= p < lam.size):
        raise InvalidData("differential or contour index out of range")
    radius = 0.5 * float(np.min(np.abs(np.delete(lam, p) - lam[p])))
    t = 2.0 * np.pi * np.arange(256) / 256.0
    z = lam[p] + radius * np.exp(1j * t)
    dz = 1j * radius * np.exp(1j * t)
    f = 1.0 / (z - lam[k]) - 1.0 / (z - lam[0])
    return complex(np.sum(f * dz) * (2.0 * np.pi / 256.0))
