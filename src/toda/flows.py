"""Hierarchy flows: exact evolution in spectral coordinates and direct
integration of the matrix equations of motion.

The tangent ("H") flows are isospectral: in pole-residue coordinates they
reweight the residues by exponential factors, in angle coordinates they
translate the angles linearly.  The transversal ("T") flows fix the divisor
and translate the quasimomenta linearly.  The same tangent dynamics acts on
matrix entries through a commutator equation, integrated here with
classical fourth-order Runge-Kutta and a per-step spectrum-drift audit
(the spectrum is conserved, so drift measures integration error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coordinates import DivisorQuasimomentum
from .errors import InvalidData, Overflow, StepTooLarge
from .jacobi_core import JacobiMatrix
from .rational_weyl import RationalHerglotz
from .spectral_direct import _pivot_sweep, eigen

# Sign convention tying the residue flow to the matrix flow: with this
# factor, integrating the matrix equations for time t reproduces the
# exponential residue evolution at the same t (fixed by the N=2 quadratic
# flow, where both sides are explicit exponentials, then invariant in N).
HFLOW_LAX_TIME_SIGN = 1.0

_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class FlowSpec:
    """A flow of the hierarchy: ``family`` "H" (moves residues/angles, index
    1..N) or "T" (moves quasimomenta, index 1..N-1), power index ``j``
    (1-based), and flow time ``t``."""

    family: str
    j: int
    t: float = 0.0

    def __post_init__(self):
        if self.family not in ("H", "T"):
            raise InvalidData("flow family must be 'H' or 'T'")
        if int(self.j) != self.j or self.j < 1:
            raise InvalidData("flow index must be a positive integer")
        if not math.isfinite(self.t):
            raise InvalidData("flow time must be finite")
        object.__setattr__(self, "j", int(self.j))
        object.__setattr__(self, "t", float(self.t))


def flow_H(w0: RationalHerglotz, j: int, t: float) -> RationalHerglotz:
    """Exact j-th tangent flow: residues reweighted by exp(t * pole^(j-1))
    and renormalized; poles are conserved."""
    j = int(j)
    if not w0.normalized:
        raise InvalidData("tangent flows act on normalized pole sums")
    if not 1 <= j <= w0.n:
        raise InvalidData("flow index must lie in 1..N")
    t = float(t)
    speed = w0.poles ** (j - 1)
    if np.max(np.abs(t * speed)) > _EXP_LIMIT:
        raise Overflow("flow time too large for stable reweighting")
    logs = np.log(w0.residues) + t * speed
    logs -= np.max(logs)
    weights = np.exp(logs)
    return RationalHerglotz(w0.poles.copy(), weights / np.sum(weights))


def theta_flow(thetas: np.ndarray, lambdas: np.ndarray, j: int, t: float) -> np.ndarray:
    """The tangent flow in angle coordinates: a straight-line translation
    with speed lambda_k^(j-1) - lambda_0^(j-1)."""
    lambdas = np.asarray(lambdas, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    j = int(j)
    if not 1 <= j <= lambdas.size:
        raise InvalidData("flow index must lie in 1..N")
    speed = lambdas ** (j - 1)
    return thetas + float(t) * (speed[1:] - speed[0])


def flow_T(dq0: DivisorQuasimomentum, j: int, t: float) -> DivisorQuasimomentum:
    """Exact j-th transversal flow: quasimomenta translated with speed
    gamma_k^(j-1); the divisor and the spectral-sum Casimir are fixed."""
    j = int(j)
    if not 1 <= j <= dq0.gammas.size:
        raise InvalidData("flow index must lie in 1..N-1")
    pis = dq0.pis + float(t) * dq0.gammas ** (j - 1)
    return DivisorQuasimomentum(dq0.gammas.copy(), pis, dq0.casimir)


def _lax_rhs(v: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equations of motion of the first matrix flow:
    dv_k = c_k^2 - c_{k-1}^2, dc_k = c_k (v_{k+1} - v_k) / 2."""
    dv = np.zeros_like(v)
    c2 = c * c
    dv[:-1] += c2
    dv[1:] -= c2
    dc = 0.5 * c * (v[1:] - v[:-1])
    return dv, dc


def _track_newton(v: np.ndarray, c: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Polish reference eigenvalues against the current entries (audits
    per-step spectral drift without re-running full eigensolves)."""
    x = lam.copy()
    for _ in range(3):
        step = _pivot_sweep(v, c, x)[1]
        x = x - np.where(np.isfinite(step), step, 0.0)
    return x


def lax_integrate(
    m: JacobiMatrix, t: float, dt: float = 1e-3
) -> tuple[JacobiMatrix, float]:
    """Integrate the first matrix flow for time ``t`` with RK4.

    Returns the evolved matrix and the worst per-step eigenvalue drift; a
    drift above 1e-6 in any step (or a positivity breakdown of the
    off-diagonal) raises StepTooLarge, pointing at the step size.
    """
    t = float(t)
    dt = float(dt)
    if not dt > 0.0:
        raise InvalidData("step size must be positive")
    if abs(t) / dt > 1e7:
        raise InvalidData("too many integration steps requested")
    nsteps = max(1, math.ceil(abs(t) / dt - 1e-12))
    h = (HFLOW_LAX_TIME_SIGN * t) / nsteps
    v = m.v.copy()
    c = m.c.copy()
    lam = eigen(m).lambdas
    worst = 0.0
    for _ in range(nsteps):
        k1v, k1c = _lax_rhs(v, c)
        k2v, k2c = _lax_rhs(v + 0.5 * h * k1v, c + 0.5 * h * k1c)
        k3v, k3c = _lax_rhs(v + 0.5 * h * k2v, c + 0.5 * h * k2c)
        k4v, k4c = _lax_rhs(v + h * k3v, c + h * k3c)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        c = c + (h / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if not np.all(np.isfinite(v)) or not np.all(np.isfinite(c)):
            raise StepTooLarge("integration diverged; reduce the step size")
        if np.any(c <= 0.0):
            raise StepTooLarge("off-diagonal lost positivity; reduce the step size")
        tracked = _track_newton(v, c, lam)
        drift = float(np.max(np.abs(np.sort(tracked) - lam)))
        scaled = drift / max(1.0, float(np.max(np.abs(lam))))
        worst = max(worst, scaled)
        if scaled > 1e-6:
            raise StepTooLarge("eigenvalue drift exceeded 1e-6 in one step")
    return JacobiMatrix(v, c), worst


def flaschka(q: np.ndarray, p: np.ndarray) -> JacobiMatrix:
    """Change of variables from particle positions/momenta to matrix
    entries: v = -p, c_k = exp((q_k - q_{k+1})/2)."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != p.shape or q.ndim != 1 or q.size < 1:
        raise InvalidData("positions and momenta must be matching vectors")
    v = -p
    c = np.exp(0.5 * (q[:-1] - q[1:]))
    return JacobiMatrix(v, c)
