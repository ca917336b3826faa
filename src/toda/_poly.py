"""Polynomial plumbing shared by the transform layers.

Coefficient arrays are ordered constant term first.  Root finding never goes
through a companion matrix: every root comes out of a certified bracket
refined by ``bracketed_newton``.

``_readonly`` (a float copy with writes disabled) lives here for every frozen
record type in the package; this module imports only ``errors``, so any
layer can import it without an import cycle.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConvergenceFailure, InvalidData

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def bracketed_newton(
    step_side: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    scale: float = 1.0,
) -> np.ndarray:
    """Refine one root per bracket [lo_i, hi_i], starting at its midpoint.

    ``step_side(x)`` returns the Newton correction at x and whether the root
    lies below x.  The bracket shrinks to x on that side; a step that would
    leave it, is not finite, or is more than half the move before last (a
    crawl) becomes its midpoint.  A root is done when its step or bracket is
    within 4 eps * max(scale, |x|) (``scale``, say a matrix norm, is the
    floor for roots near zero), or raises ``ConvergenceFailure`` at step 200.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x = 0.5 * (lo + hi)
    last = older = hi - lo
    active = np.ones(x.shape, dtype=bool)
    for _ in range(200):
        step, below = step_side(x)
        lo = np.where(active & ~below, x, lo)
        hi = np.where(active & below, x, hi)
        tol = 4.0 * _EPS * np.maximum(scale, np.abs(x))
        small = np.abs(step) <= tol
        nxt = x - step
        # A step below the rounding of x may land on the bracket end it just set.
        newton = small | ((nxt > lo) & (nxt < hi) & (2.0 * np.abs(step) <= older))
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        older, last = last, np.abs(nxt - x)
        x = np.where(active, nxt, x)
        active &= ~(small | (hi - lo <= tol))
        if not np.any(active):
            return x
    raise ConvergenceFailure("bracketed Newton hit the iteration cap")


def real_simple_roots(coef: np.ndarray) -> np.ndarray:
    """All roots of a polynomial expected to have real simple roots only.

    Recursively locates the critical points (roots of the derivative), which
    split the line into monotone pieces; each piece is then checked for a
    sign change and refined by bracketed Newton.  Raises ``InvalidData``
    when the polynomial cannot have the full count of real simple roots.
    """
    c = np.asarray(coef, dtype=float)
    if c.size == 0 or c[-1] == 0.0:
        raise InvalidData("leading coefficient must be nonzero")
    deg = c.size - 1
    if deg == 0:
        return np.empty(0)
    if deg == 1:
        return np.array([-c[0] / c[1]])
    dc = npoly.polyder(c)
    crit = real_simple_roots(dc)
    bound = 1.0 + np.max(np.abs(c[:-1])) / abs(c[-1])
    bound = max(bound, np.max(np.abs(crit)) * 1.5 + 1.0)
    edges = np.concatenate(([-bound], crit, [bound]))
    vals = npoly.polyval(edges, c)
    change = np.sign(vals[:-1]) * np.sign(vals[1:]) < 0
    if int(np.count_nonzero(change)) != deg:
        raise InvalidData("polynomial does not have %d real simple roots" % deg)
    sign_hi = np.sign(vals[1:][change])

    def step_side(x):  # f' vanishes at most at the ends of a monotone piece
        fx = npoly.polyval(x, c)
        return fx / npoly.polyval(x, dc), fx * sign_hi >= 0.0

    return np.sort(bracketed_newton(step_side, edges[:-1][change], edges[1:][change]))


def offspectrum_samples(avoid: np.ndarray, n: int, *, pad: float = 0.37, clearance: float = 0.02) -> np.ndarray:
    """Deterministic real sample points staying clear of the ``avoid`` set."""
    avoid = np.sort(np.asarray(avoid, dtype=float))
    span = max(avoid[-1] - avoid[0], 1.0)
    pts = np.linspace(avoid[0] - pad * span, avoid[-1] + pad * span, n)
    floor = clearance * span
    step = 0.61 * floor
    for i in range(pts.size):
        guard = 0
        while np.min(np.abs(pts[i] - avoid)) < floor:
            pts[i] += step
            guard += 1
            if guard > 200:
                raise ConvergenceFailure("could not place sample away from the spectrum")
    return pts
