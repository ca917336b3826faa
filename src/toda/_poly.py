"""Root kernel and sampling plumbing shared by the transform layers.

Root finding never goes through a companion matrix: every root in the
package (eigenvalues, Weyl zeros, the divisor inversion) comes out of a
certified bracket refined by ``bracketed_newton``, the Weyl zeros and the
divisor inversion through one secular solve (``secular_roots``).  No layer
finds the roots of a coefficient array: the quotient form is read through
its continued fraction (``spectral_inverse``).

``bracketed_newton`` steps its brackets in numpy lockstep, ``_newton_lane``
one bracket on Python floats, bitwise each lane; small eigenvalue and
secular solves take the lane.  Both secular paths add every sum over the
poles in numpy's pairwise order, never through a matmul, so the divisor
and the poles from it do not depend on the BLAS build.

``_readonly`` (a float copy with writes disabled) lives here for every frozen
record type in the package, and ``_index`` for every integer argument (a
flow index, a series or moment order); this module imports only ``errors``,
so any layer can import it without an import cycle.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure, InvalidData

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_NEWTON_TOL = 4.0 * _EPS  # a root is done within _NEWTON_TOL * max(scale, |x|)
# secular_roots solves up to _SCALAR_TERMS lane-terms (brackets times poles,
# over the whole stack) lane by lane on Python floats (``_secular_lanes``):
# there numpy's fixed cost per call outweighs the arithmetic.  400 is the
# measured crossover (zeros of random_jacobi Weyl functions at N sites,
# rows x N (N - 1) lane-terms; us per call, best of 7 on a 2-vCPU VM, numpy
# against per lane: 1 row 232/34 at N = 4, 472/250 at 16, 519/354 at 20,
# 579/584 at 24, 687/1095 at 32; 4 rows 262/86 at 4, 470/374 at 10,
# 754/607 at 12, 602/958 at 16; 11 rows 286/208 at 4, 403/426 at 6,
# 606/692 at 8).  The divisor inversion breaks even at the same sizes.
# Compiling one M's sums takes 0.2 ms at M = 4 and about 0.6 ms at 16,
# once per process.
_SCALAR_TERMS = 400

# offspectrum_samples: the samples span the avoided set padded by _SAMPLE_PAD
# of its width on each side, and keep _SAMPLE_CLEARANCE of that width from
# every avoided point.
_SAMPLE_PAD = 0.37
_SAMPLE_CLEARANCE = 0.02


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _index(value, what: str) -> int:
    """``value`` as an int; ``InvalidData`` unless it is an int or a numpy
    integer (a bool is not one), so a fractional index is never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidData(f"{what} must be an integer")
    return int(value)


def bracketed_newton(
    step_side: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    scale: float | np.ndarray = 1.0,
) -> np.ndarray:
    """Refine one root per bracket [lo_i, hi_i], starting at its midpoint.

    ``step_side(x)`` returns the Newton correction at x and whether the root
    lies below x.  The bracket shrinks to x on that side; a step that would
    leave it, is not finite, or is more than half the move before last (a
    crawl) becomes its midpoint.  A root is done when its step or bracket is
    within 4 eps * max(scale, |x|) (``scale``, say a matrix norm, is the
    floor for roots near zero), or raises ``ConvergenceFailure`` at step 200.
    A zero-width bracket is its own root.  ``scale`` may be an array that
    broadcasts against stacked brackets, so each row stops where it would alone.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x = 0.5 * (lo + hi)
    last = older = hi - lo
    active = lo != hi
    for _ in range(200):
        step, below = step_side(x)
        lo = np.where(active & ~below, x, lo)
        hi = np.where(active & below, x, hi)
        tol = _NEWTON_TOL * np.maximum(scale, np.abs(x))
        small = np.abs(step) <= tol
        nxt = x - step
        # A step below the rounding of x may land on the bracket end it just set.
        newton = small | ((nxt > lo) & (nxt < hi) & (2.0 * np.abs(step) <= older))
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        older, last = last, np.abs(nxt - x)
        x = np.where(active, nxt, x)
        active &= ~(small | (hi - lo <= tol))
        if not active.any():
            return x
    raise ConvergenceFailure("bracketed Newton hit the iteration cap")


def _newton_lane(point: Callable, want, lo: float, hi: float, scale: float) -> float:
    """``bracketed_newton`` for one bracket on Python floats.  ``point(x)``
    returns a key and the Newton correction at x; the root lies below x when
    key >= want.  The lanes of the lockstep never mix, so this takes the same
    IEEE operations in its order, with NaN read as ``np.maximum`` reads it,
    and returns the lockstep's bits or raises its message at the cap."""
    x = 0.5 * (lo + hi)
    if lo == hi:
        return x
    last = older = hi - lo
    for _ in range(200):
        key, step = point(x)
        if key >= want:
            hi = x
        else:
            lo = x
        mag = abs(x)
        tol = _NEWTON_TOL * (scale if scale >= mag else mag)
        small = abs(step) <= tol
        nxt = x - step
        if not (small or (lo < nxt < hi and 2.0 * abs(step) <= older)):
            nxt = 0.5 * (lo + hi)
        older, last = last, abs(nxt - x)
        x = nxt
        if small or hi - lo <= tol:
            return x
    raise ConvergenceFailure("bracketed Newton hit the iteration cap")


def secular_roots(d: np.ndarray, a: np.ndarray, beta: float, alpha, lo, hi, scale) -> np.ndarray:
    """Roots of h(x) = beta x + alpha + sum_k a_k / (d_k - x), a > 0, one per
    bracket [lo, hi] (..., K) of poles d and weights a (..., M) with the
    leading shape of lo, alpha and ``scale`` broadcasting against lo:
    ``bracketed_newton`` on h prod (d - x), the side from the sign of h,
    which increases in x.

    Up to ``_SCALAR_TERMS`` lane-terms (K M times the stack's rows) the
    lanes go one by one on Python floats (``_secular_lanes``), above it in
    numpy lockstep (``_secular_lockstep``); the two are bitwise equal."""
    solve = _secular_lanes if np.size(lo) * d.shape[-1] <= _SCALAR_TERMS else _secular_lockstep
    return solve(d, a, beta, alpha, lo, hi, scale)


def _secular_lockstep(d, a, beta, alpha, lo, hi, scale) -> np.ndarray:
    """``secular_roots`` with every lane in one ``bracketed_newton``.  Each
    sum over the poles is numpy's last-axis sum, in numpy's fixed pairwise
    order (no BLAS), which ``_secular_sums`` writes out."""
    d, a = d[..., None, :], a[..., None, :]

    def step_side(x):
        t = 1.0 / (d - x[..., None])
        h = beta * x + alpha + (t * a).sum(axis=-1)
        return h / (beta + (t * t * a).sum(axis=-1) - h * t.sum(axis=-1)), h > 0.0

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return bracketed_newton(step_side, lo, hi, scale=scale)


def _secular_lanes(d, a, beta, alpha, lo, hi, scale) -> np.ndarray:
    """``_secular_lockstep`` on Python floats: one ``_newton_lane`` per
    bracket, its point ``_secular_sums`` on that bracket's row, so bitwise
    the lockstep, and a lane past the cap raises what the lockstep raises."""
    shape = np.shape(lo)
    rows, m = math.prod(shape[:-1]), d.shape[-1]
    sums = _secular_sums(m)
    per_lane = [np.broadcast_to(np.asarray(v, dtype=float), shape).reshape(rows, shape[-1]).tolist()
                for v in (alpha, scale, lo, hi)]
    roots = [
        _newton_lane(functools.partial(sums, dr, ar, beta, shift), True, left, right, floor)
        for dr, ar, *lanes in zip(d.reshape(rows, m).tolist(), a.reshape(rows, m).tolist(), *per_lane)
        for shift, floor, left, right in zip(*lanes)
    ]
    return np.array(roots, dtype=float).reshape(shape)


@functools.cache
def _secular_sums(m: int):
    """``sums(d, a, beta, alpha, x)``: whether h(x) > 0 and the Newton step
    of ``_secular_lockstep`` at x, for m poles on Python floats, compiled
    once per m from ``_sums_source(m)``.  A division by zero gives what
    numpy gives under ``errstate(ignore)``: p / +-0 is p * (+-inf)."""
    namespace = {"copysign": math.copysign, "inf": math.inf}
    exec(compile(_sums_source(m), f"<secular sums, M = {m}>", "exec"), namespace)
    return namespace["sums"]


def _sums_source(m: int) -> str:
    """Source of ``sums(d, a, beta, alpha, x)`` for m poles: straight-line
    code that adds each of the sums t a, t t a and t over the poles, t = 1 /
    (d - x), in the order of numpy's pairwise last-axis sum."""
    poles = range(m)
    lines = [
        "def sums(d, a, beta, alpha, x):",
        "    (" + "".join(f"d{k}, " for k in poles) + ") = d",
        "    (" + "".join(f"a{k}, " for k in poles) + ") = a",
    ]
    for k in poles:
        lines += [f"    e{k} = d{k} - x", f"    t{k} = 1.0 / e{k} if e{k} else copysign(inf, e{k})"]
    s, s2, s1 = ("(0.0 + " + _pairwise_source([term.format(k=k) for k in poles]) + ")"
                 for term in ("t{k} * a{k}", "t{k} * t{k} * a{k}", "t{k}"))
    lines += [
        f"    h = beta * x + alpha + {s}",
        f"    den = beta + {s2} - h * {s1}",
        "    return h > 0.0, h / den if den else h * copysign(inf, den)",
    ]
    return "\n".join(lines)


def _pairwise_source(terms: list) -> str:
    """The sum of ``terms`` (expressions) as numpy adds a row of doubles
    (``pairwise_sum``): in order below 8 terms; up to 128, 8 accumulators
    over the terms strided by 8, combined as ((0 + 1) + (2 + 3)) + ((4 + 5)
    + (6 + 7)), then the leftover terms in order; above, the two halves
    (the first a multiple of 8 long) apart.  The reduction starts from +0,
    which the caller adds."""
    n = len(terms)
    if n < 8:
        return "(" + " + ".join(["0.0", *terms]) + ")"
    if n <= 128:
        whole = n - n % 8
        r = ["(" + " + ".join(terms[j:whole:8]) + ")" for j in range(8)]
        blocks = "(({} + {}) + ({} + {})) + (({} + {}) + ({} + {}))".format(*r)
        return "(" + " + ".join([blocks, *terms[whole:]]) + ")"
    half = n // 2 - n // 2 % 8
    return f"({_pairwise_source(terms[:half])} + {_pairwise_source(terms[half:])})"


def _raise_lowest(*checks) -> None:
    """Raise what the lowest failing row of a stack raises on its own; ``checks``
    are (bad rows, error class, message) in the order one row is checked."""
    failing = [(int(bad.argmax()), i) for i, (bad, _, _) in enumerate(checks) if bad.any()]
    if failing:
        error, message = checks[min(failing)[1]][1:]
        raise error(message)


def offspectrum_samples(avoid: np.ndarray, n: int) -> np.ndarray:
    """Deterministic real sample points staying clear of the ``avoid`` set."""
    avoid = np.sort(np.asarray(avoid, dtype=float))
    span = max(avoid[-1] - avoid[0], 1.0)
    pts = np.linspace(avoid[0] - _SAMPLE_PAD * span, avoid[-1] + _SAMPLE_PAD * span, n)
    floor = _SAMPLE_CLEARANCE * span
    step = 0.61 * floor
    for _ in range(201):
        close = np.abs(pts[:, None] - avoid).min(axis=1) < floor
        if not close.any():
            return pts
        pts[close] += step
    raise ConvergenceFailure("could not place sample away from the spectrum")
