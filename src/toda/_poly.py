"""Root kernel and sampling plumbing shared by the transform layers.

Root finding never goes through a companion matrix: every root in the
package (eigenvalues, Weyl zeros, the divisor inversion) comes out of a
certified bracket refined by ``bracketed_newton``, the Weyl zeros and the
divisor inversion through one secular solve (``secular_roots``).  No layer
finds the roots of a coefficient array: the quotient form is read through
its continued fraction (``spectral_inverse``).

``_readonly`` (a float copy with writes disabled) lives here for every frozen
record type in the package; this module imports only ``errors``, so any
layer can import it without an import cycle.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConvergenceFailure

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# offspectrum_samples: the samples span the avoided set padded by _SAMPLE_PAD
# of its width on each side, and keep _SAMPLE_CLEARANCE of that width from
# every avoided point.
_SAMPLE_PAD = 0.37
_SAMPLE_CLEARANCE = 0.02


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


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
        tol = 4.0 * _EPS * np.maximum(scale, np.abs(x))
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


def secular_roots(d: np.ndarray, a: np.ndarray, beta: float, alpha, lo, hi, scale) -> np.ndarray:
    """Roots of h(x) = beta x + alpha + sum_k a_k / (d_k - x), a > 0, one per
    bracket [lo, hi] (..., K) of poles d and weights a (..., M), alpha and
    ``scale`` broadcasting against lo: ``bracketed_newton`` on h prod (d - x),
    the side from the sign of h, which increases in x."""
    d, a = d[..., None, :], a[..., :, None]

    def step_side(x):
        t = 1.0 / (d - x[..., None])
        h = beta * x + alpha + (t @ a)[..., 0]
        return h / (beta + ((t * t) @ a)[..., 0] - h * t.sum(axis=-1)), h > 0.0

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return bracketed_newton(step_side, lo, hi, scale=scale)


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
