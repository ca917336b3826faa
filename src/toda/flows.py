"""Hierarchy flows: exact evolution in spectral coordinates and direct
integration of the matrix equations of motion.

The tangent ("H") flows are isospectral: in pole-residue coordinates they
reweight the residues by exponential factors, in angle coordinates they
translate the angles linearly.  The transversal ("T") flows fix the divisor
and translate the quasimomenta linearly.  Both exact flows run on row
kernels (``_flow_H_rows``, ``_flow_T_rows``) that move one start to every
sample time at once; ``flow_H`` and ``flow_T`` are the kernels at one time,
and the sampled flow of ``toda flow`` (``_trajectory``) calls them on all of
its samples, then carries the stacks through the divisor inversion, Lanczos
and the charts.  The same tangent
dynamics acts on matrix entries through a commutator equation, integrated
here with classical fourth-order Runge-Kutta and a per-step spectrum-drift
audit (the spectrum is conserved, so drift measures integration error).
The RK4 stepper owns its buffers, laid out as
[c^2 (N + 1) | v (N) | 0 | c (N - 1) | 0]: a stage is three ufunc calls
(square the padded couplings, subtract the buffer from itself shifted by
one slot, multiply the v differences by c), with the 1/2 of dc carried by
stage weights halved on the c part, and a step is 23 calls.  The audit is
Newton on the LDL^T pivots started from the initial eigenvalues, run on a
whole block of steps at once (max(64, 2^16 / N^2) steps), which takes one
pivot sweep per block.  Every flow raises InvalidData on a flow time that
is not finite, and Overflow where a finite time moves its coordinates past
float64.
"""

from __future__ import annotations

import math

import numpy as np

from . import _poly
from ._poly import _EPS
from .coordinates import (
    ActionAngle,
    DivisorQuasimomentum,
    _poles_from_divisor,
    _quasimomenta,
    _thetas,
)
from .errors import InvalidData, Overflow, StepTooLarge
from .jacobi_core import JacobiMatrix
from .rational_weyl import _NORMALIZATION_TOL, RationalHerglotz
from .spectral_direct import _distinct_eigenvalues, _eigenvalues, _nudged_sweep
from .spectral_inverse import _lanczos

_EXP_LIMIT = 700.0
_AUDIT_SWEEPS = 4
_AUDIT_BLOCK = 64  # fewest RK4 steps per drift audit


def _flow_time(t) -> float:
    """``t`` as a float; every flow raises on a time that is not finite."""
    t = float(t)
    if not math.isfinite(t):
        raise InvalidData("flow time must be finite")
    return t


def flow_H(w0: RationalHerglotz, j: int, t: float) -> RationalHerglotz:
    """Exact j-th tangent flow: residues reweighted by exp(t * pole^(j-1))
    and renormalized; poles are conserved.  Raises ``Overflow`` when the
    reweighting leaves float64: an exponent t * pole^(j-1) past 700, or a
    residue that underflows to zero."""
    rho = _flow_H_rows(w0, j, np.array([_flow_time(t)]))[0]
    return RationalHerglotz(w0.poles.copy(), rho)


def _flow_H_rows(w0: RationalHerglotz, j: int, times: np.ndarray) -> np.ndarray:
    """Residue rows (S, N) of ``flow_H`` at each of the S ``times``; raises
    what the lowest failing sample raises on its own."""
    j = int(j)
    if not w0.normalized:
        raise InvalidData("tangent flows act on normalized pole sums")
    if not 1 <= j <= w0.n:
        raise InvalidData("flow index must lie in 1..N")
    speed = w0.poles ** (j - 1)
    # A row with a time that is not finite, too large, or past a failing one
    # may overflow or carry inf * 0 or inf - inf: only the checks read it.
    with np.errstate(over="ignore", invalid="ignore"):
        moves = times[:, None] * speed
        logs = np.log(w0.residues) + moves
        logs -= logs.max(axis=1, keepdims=True)
        weights = np.exp(logs)
        rho = weights / weights.sum(axis=1, keepdims=True)
    _poly._raise_lowest(
        (~np.isfinite(times), InvalidData, "flow time must be finite"),
        (np.abs(moves).max(axis=1) > _EXP_LIMIT, Overflow,
         "flow time too large for stable reweighting"),
        (~np.isfinite(rho).all(axis=1), InvalidData, "poles and residues must be finite"),
        (~(rho > 0.0).all(axis=1), Overflow, "a reweighted residue underflows float64"),
    )
    return rho


def theta_flow(thetas: np.ndarray, lambdas: np.ndarray, j: int, t: float) -> np.ndarray:
    """The tangent flow in angle coordinates: a straight-line translation
    with speed lambda_k^(j-1) - lambda_0^(j-1).  The poles and angles are
    checked as an ``ActionAngle`` chart point."""
    t = _flow_time(t)
    point = ActionAngle(lambdas, thetas)
    j = int(j)
    if not 1 <= j <= point.n:
        raise InvalidData("flow index must lie in 1..N")
    speed = point.lambdas ** (j - 1)
    return point.thetas + t * (speed[1:] - speed[0])


def flow_T(dq0: DivisorQuasimomentum, j: int, t: float) -> DivisorQuasimomentum:
    """Exact j-th transversal flow: quasimomenta translated with speed
    gamma_k^(j-1); the divisor and the spectral-sum Casimir are fixed.
    Raises ``Overflow`` when the move t * gamma^(j-1) leaves float64."""
    pis = _flow_T_rows(dq0, j, np.array([_flow_time(t)]))[0]
    return DivisorQuasimomentum(dq0.gammas.copy(), pis, dq0.casimir)


def _flow_T_rows(dq0: DivisorQuasimomentum, j: int, times: np.ndarray) -> np.ndarray:
    """Quasimomentum rows (S, N - 1) of ``flow_T`` at each of the S
    ``times``; raises what the lowest failing sample raises on its own."""
    j = int(j)
    if not 1 <= j <= dq0.gammas.size:
        raise InvalidData("flow index must lie in 1..N-1")
    # inf * 0 at a time that is not finite; past float64 at a large one.
    with np.errstate(over="ignore", invalid="ignore"):
        pis = dq0.pis + times[:, None] * dq0.gammas ** (j - 1)
    _poly._raise_lowest(
        (~np.isfinite(times), InvalidData, "flow time must be finite"),
        (~np.isfinite(pis).all(axis=1), Overflow, "quasimomenta leave float64 at this flow time"),
    )
    return pis


def _trajectory(start, j: int, t0: float, t1: float, samples: int) -> tuple:
    """The sampled flow of ``toda flow`` from ``start``, a pole sum (H flow)
    or a divisor chart point (T flow), at ``samples`` times from t0 to t1:
    the stacks (t, v, c, lambdas, rhos, thetas, gammas, pis), a row per
    time.  Each layer runs once on all samples, and a stack raises what its
    lowest failing sample raises on its own."""
    if samples < 1:
        raise InvalidData("need at least one sample time")
    t0, t1 = _flow_time(t0), _flow_time(t1)
    if not math.isfinite(t1 - t0):
        raise Overflow("flow time span t1 - t0 leaves float64")
    times = np.linspace(t0, t1, samples)
    if isinstance(start, DivisorQuasimomentum):
        pis = _flow_T_rows(start, j, times)
        gam = np.tile(start.gammas, (samples, 1))
        lam, rho = _poles_from_divisor(gam, pis, np.full(samples, start.casimir))
        _poly._raise_lowest(
            (~np.isfinite(rho).all(axis=1), InvalidData, "poles and residues must be finite")
        )
    else:
        rho = _flow_H_rows(start, j, times)
        lam = np.tile(start.poles, (samples, 1))
    _poly._raise_lowest(
        (~(np.abs(rho.sum(axis=1) - 1.0) <= _NORMALIZATION_TOL), InvalidData,
         "spectral data requires unit total residue")
    )
    return (times, *_lanczos(lam, rho), lam, rho, _thetas(lam, rho), *_quasimomenta(lam, rho))


def lax_integrate(
    m: JacobiMatrix, t: float, dt: float = 1e-3
) -> tuple[JacobiMatrix, float]:
    """Integrate the first matrix flow for time ``t`` with RK4.

    Returns the evolved matrix and the worst per-step eigenvalue drift; a
    drift above 1e-6 in any step (or a positivity breakdown of the
    off-diagonal) raises StepTooLarge, pointing at the step size.  Errors
    keep the order of the steps: a drift raises before a later step that
    diverges or loses positivity.

    The steps are taken by ``_LaxStepper`` on buffers allocated once, 23
    ufunc calls a step (its stage weights carry the 1/2 of dc, so each step
    is bitwise the plain RK4 step).  The audit does not feed back into the
    integration, so the steps run in blocks of max(``_AUDIT_BLOCK``,
    2^16 // N^2) rows (64 from N = 32 on, 4096 at N = 4, where a 500-step
    trajectory is one block), whose pivot table stays within
    max(64 N^2, 2^16) floats, and each block is audited at once, by Newton
    on the LDL^T pivots of all its states, every lane started from the
    initial eigenvalues lambda_k (the spectrum is conserved).  From
    x = lambda_k + e a Newton step delta leaves the error
    delta^2 S_k (1 + e S_k), where S_k is the sum over j != k of
    1/(lambda_k - lambda_j): convergence is quadratic, so once
    |delta| <= sqrt(eps * scale / sum_j 1/|lambda_k - lambda_j|) what is
    left is below one rounding unit of the scale.  The pivots resolve no
    step below their own rounding, so that tolerance never goes under
    4 eps * scale, the stopping rule of ``bracketed_newton``.  The drift of
    an accurate integration is far below the tolerance, so one pivot sweep
    per block is the rule.

    ``eigen`` does not split eigenvalues closer than 1e-14 * scale; chains
    of such gaps form clusters, inside which Newton steps are rounding noise
    and the Sturm counts cannot order the lanes.  A cluster's lanes stop at
    a 1e-14 * scale tolerance, may count any eigenvalue of their cluster,
    and are compared with the spectrum in sorted order.  A pivot at
    rounding level (x_k within rounding of an eigenvalue of a leading
    block) gives no finite step at x_k; that lane takes the Newton step
    from 8 eps * scale above instead, which lifts the pivot clear of
    rounding since every pivot falls with slope at least one in x.

    Where Newton still cannot vouch for a step (no finite step from above
    either, a Sturm count outside x_k's cluster, or no convergence within
    four sweeps), that step is audited by its own call of the
    Sturm-certified solve behind ``eigen`` instead.  NaN steps are never
    read as a drift.
    """
    t = _flow_time(t)
    dt = float(dt)
    if not dt > 0.0:
        raise InvalidData("step size must be positive")
    if abs(t) / dt > 1e7:
        raise InvalidData("too many integration steps requested")
    n = m.n
    if n == 1:
        return JacobiMatrix(m.v.copy(), m.c.copy()), 0.0
    nsteps = max(1, math.ceil(abs(t) / dt - 1e-12))
    stepper = _LaxStepper(m, t / nsteps)
    lam = _distinct_eigenvalues(m)
    scale = max(1.0, float(np.max(np.abs(lam))))
    floor = 4.0 * _EPS * scale
    gaps = np.maximum(np.abs(np.subtract.outer(lam, lam)), floor)
    np.fill_diagonal(gaps, np.inf)
    tol = np.maximum(np.sqrt(_EPS * scale / (1.0 / gaps).sum(axis=1)), floor)
    # Lane k may see any count from the first to one past the last index of
    # its cluster; a lone eigenvalue is a cluster of one (k or k + 1).
    split = 1e-14 * scale
    first = np.flatnonzero(np.diff(lam, prepend=-np.inf) > split)
    size = np.diff(first, append=n)
    ranks = np.repeat(first, size), np.repeat(first + size, size)
    tol = np.where(ranks[1] - ranks[0] > 1, np.maximum(tol, split), tol)
    # One block's pivot table holds at most max(64 N^2, 2^16) floats.
    block = max(_AUDIT_BLOCK, 2**16 // (n * n))
    worst = 0.0
    for start in range(0, nsteps, block):
        ys = np.empty((min(block, nsteps - start), 2 * n + 1))
        # A step that diverges is caught below; the rest of its block only
        # carries the non-finite values along.
        with np.errstate(over="ignore", invalid="ignore"):
            stepper.run(ys)
        v, c = ys[:, :n], ys[:, n + 1 : 2 * n]
        finite = np.isfinite(ys).all(axis=1)
        bad = np.flatnonzero(~finite | (c <= 0.0).any(axis=1))
        good = bad[0] if bad.size else ys.shape[0]
        if good:
            drift = _block_drift(v[:good], c[:good], lam, tol, ranks, 2.0 * floor)
            scaled = drift / scale
            worst = max(worst, scaled)
            if scaled > 1e-6:
                raise StepTooLarge("eigenvalue drift exceeded 1e-6 in one step")
        if bad.size:
            if not finite[good]:
                raise StepTooLarge("integration diverged; reduce the step size")
            raise StepTooLarge("off-diagonal lost positivity; reduce the step size")
    return JacobiMatrix(v[-1], c[-1]), worst


class _LaxStepper:
    """Classical RK4 on the first matrix flow, on buffers it owns.

    The state and the stage point are laid out as

        [c^2 (N + 1) | v_0..v_{N-1} | 0 | c_0..c_{N-2} | 0],

    where the zeros stand for the missing end couplings and the first
    N + 1 slots hold the squares of the padded couplings [0, c, 0].  A
    stage is three ufunc calls on views made once:

    1. square the padded couplings into the c^2 slots;
    2. subtract the buffer from itself shifted by one slot: the first N
       differences are dv_k = c^2[k+1] - c^2[k], the last N - 1 are
       v_{k+1} - v_k, and the one in between is junk (v_0);
    3. multiply the v differences by c in place, which gives 2 dc.

    A stage row, one of the four rows of ``_k``, lines up with the
    [v | 0 | c] part of the state.  The junk slot has stage weight 0, so
    the padding zero stays +0, and the 1/2 of dc_k = c_k (v_{k+1} - v_k) / 2
    is carried by the stage weights, halved on the c part: halving is exact
    in binary (above the subnormal range).  A step forms k1 + 2 k2 + 2 k3 + k4
    with one exact multiply by the column [1, 2, 2, 1] and one
    ``np.add.reduce`` down the rows, which adds them in order, so it is
    bitwise y + (h/6) (k1 + 2 k2 + 2 k3 + k4) on the plain right-hand side
    with the sum taken left to right.  A step is 23 ufunc calls, the last
    one the copy of the new state into its row.
    """

    def __init__(self, m: JacobiMatrix, h: float):
        n = m.n
        self._n = n
        self._y = np.zeros(3 * n + 2)
        self._y[n + 1 : 2 * n + 1] = m.v
        self._y[2 * n + 2 : 3 * n + 1] = m.c
        self._point = np.zeros(3 * n + 2)
        self._k = np.zeros((4, 2 * n))
        self._rk4 = np.array([[1.0], [2.0], [2.0], [1.0]])  # k1 + 2 k2 + 2 k3 + k4
        weights = []
        for w in (0.5 * h, h, h / 6.0):
            row = np.full(2 * n, w)
            row[n] = 0.0
            row[n + 1 :] = 0.5 * w
            weights.append(row)
        self._weights = tuple(weights)

    def _views(self, b: np.ndarray) -> tuple:
        """Of one buffer: the c^2 slots, the padded couplings, the buffer
        shifted by one and not, the couplings, and the [v | 0 | c] part."""
        n = self._n
        sq, pad, hi, lo = b[: n + 1], b[2 * n + 1 :], b[1 : 2 * n + 1], b[: 2 * n]
        return sq, pad, hi, lo, b[2 * n + 2 : 3 * n + 1], b[n + 1 : 3 * n + 1]

    def run(self, rows: np.ndarray) -> None:
        """Take one step per row of ``rows`` (the [v | 0 | c | 0] part of
        the state) and store each new state there."""
        n = self._n
        mul, sub, add = np.multiply, np.subtract, np.add
        y_sq, y_pad, y_hi, y_lo, y_c, y_state = self._views(self._y)
        p_sq, p_pad, p_hi, p_lo, p_c, p_state = self._views(self._point)
        k = self._k
        k1, k2, k3, k4 = k
        k1c, k2c, k3c, k4c = k[:, n + 1 :]
        half, full, sixth = self._weights
        rk4, total = self._rk4, np.empty(2 * n)
        out = self._y[n + 1 :]
        for row in rows:
            mul(y_pad, y_pad, y_sq)
            sub(y_hi, y_lo, k1)
            mul(k1c, y_c, k1c)
            mul(half, k1, p_state)
            add(y_state, p_state, p_state)
            mul(p_pad, p_pad, p_sq)
            sub(p_hi, p_lo, k2)
            mul(k2c, p_c, k2c)
            mul(half, k2, p_state)
            add(y_state, p_state, p_state)
            mul(p_pad, p_pad, p_sq)
            sub(p_hi, p_lo, k3)
            mul(k3c, p_c, k3c)
            mul(full, k3, p_state)
            add(y_state, p_state, p_state)
            mul(p_pad, p_pad, p_sq)
            sub(p_hi, p_lo, k4)
            mul(k4c, p_c, k4c)
            mul(k, rk4, k)
            add.reduce(k, 0, None, total)  # axis 0, out=total; positional is cheaper
            mul(sixth, total, total)
            add(y_state, total, y_state)
            row[:] = out


def _block_drift(
    v: np.ndarray,
    c: np.ndarray,
    lam: np.ndarray,
    tol: np.ndarray,
    ranks: tuple[np.ndarray, np.ndarray],
    nudge: float,
) -> float:
    """Largest |eigenvalue - lambda| over the matrices with diagonals v[b]
    and off-diagonals c[b], by Newton sweeps over the whole stack started
    from ``lam``; each row Newton cannot vouch for goes to its own
    ``_eigenvalues`` call, the Sturm-certified solve."""
    x = np.tile(lam, (v.shape[0], 1))
    live = np.arange(v.shape[0])  # rows still iterating
    lost = np.zeros(v.shape[0], dtype=bool)
    for _ in range(_AUDIT_SWEEPS):
        cnt, step = _nudged_sweep(v[live], c[live], x[live], nudge)
        failed = ~np.isfinite(step).all(axis=1) | (
            (cnt < ranks[0]) | (cnt > ranks[1])
        ).any(axis=1)
        x[live] -= step
        lost[live[failed]] = True
        live = live[~failed & (np.abs(step) > tol).any(axis=1)]
        if not live.size:
            break
    lost[live] = True
    for b in np.flatnonzero(lost):
        x[b] = _eigenvalues(v[b], c[b])
    return float(np.max(np.abs(np.sort(x, axis=1) - lam)))

