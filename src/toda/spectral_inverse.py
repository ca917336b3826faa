"""Inverse spectral transforms: rebuild the tridiagonal matrix.

Two independent routes are kept deliberately separate so they can
cross-check each other.  The continued-fraction route peels one diagonal
entry at a time from the quotient form by polynomial division; the Lanczos
route rebuilds the matrix from the spectral measure, one point mass at a
time, by the rotation recursion of Gragg and Harrod, in O(N^2) work and with
no reorthogonalization.

The division is also the one reader of the quotient form (``from_quotient``);
it runs in ``rational_weyl``, once per quotient, and both readers share it.
"""

from __future__ import annotations

import numpy as np

from ._poly import _raise_lowest
from .errors import Breakdown, InvalidData, NotHerglotz, PrecisionLimit
from .jacobi_core import JacobiMatrix
from .rational_weyl import PolyQuotient, RationalHerglotz
from .spectral_direct import SpectralData, eigen

_OVERFLOW = "spectral data beyond float64: the reconstruction overflows"


def stieltjes_reconstruct(pq: PolyQuotient) -> JacobiMatrix:
    """Continued-fraction inversion of the quotient form.

    Each division step p = (z - v0) q - c0^2 q~ reads off one diagonal entry
    and one squared coupling; the recursion then descends to (q, q~).  The
    input must be normalized (q monic); a nonpositive squared coupling means
    the quotient did not come from a positive spectral measure.  The
    division reads the decimal payload when there is one, and is kept on the
    quotient (``PolyQuotient._cf_matrix``); the accuracy of a bare float
    quotient drops quickly with the degree, because small residues are lost
    in the rounding of its coefficients.
    """
    if abs(pq.q[-1] - 1.0) > 1e-8:
        raise InvalidData("quotient must be normalized: q monic")
    return pq._cf_matrix[0]


def from_quotient(pq: PolyQuotient) -> RationalHerglotz:
    """Recover poles and residues from the quotient form.

    They are the spectral data of the continued-fraction matrix kept on the
    quotient (``PolyQuotient._cf_matrix``), with the weights scaled by the
    total residue.  A nonpositive total residue or squared coupling means
    the quotient is not a positive pole sum; poles that float64 cannot
    separate raise ``PrecisionLimit`` from ``eigen``.
    """
    if not pq.q[-1] > 0.0:
        raise NotHerglotz("quotient has a nonpositive total residue")
    m, total = pq._cf_matrix
    sd = eigen(m)
    return RationalHerglotz(sd.lambdas, sd.rhos * total)


def lanczos_reconstruct(sd: SpectralData) -> JacobiMatrix:
    """Inversion of the spectral data by the Gragg-Harrod rotation recursion.

    The matrix of the measure sum rho_k delta(lambda_k) is built up one
    eigenvalue at a time: each new point mass is rotated into the Jacobi
    matrix of the ones before it (Gragg & Harrod, Numer. Math. 44, 1984).
    This is the Lanczos process on the diagonal matrix of eigenvalues with
    the start vector sqrt(rho), carried out by plane rotations, so it needs
    no reorthogonalization.  ``_lanczos`` inverts a stack of spectral data
    at once.
    """
    v, c = _lanczos(sd.lambdas[None], sd.rhos[None])
    return JacobiMatrix(v[0], c[0])


def _lanczos(lam: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries v (B, N), c (B, N - 1) from rows of eigenvalues and weights.

    Each row runs, on Python floats, the square-root-free form of the
    recursion (Gautschi's RKPW, *Orthogonal Polynomials: Computation and
    Approximation*, OUP 2004), so each stacked row is bitwise its single
    call.  A stack raises what its lowest failing row raises: first
    ``PrecisionLimit`` when an entry overflows float64, then ``Breakdown``
    when a coupling is below the absolute floor 1e-13.
    """
    n = lam.shape[1]
    w = rho / rho.sum(axis=1, keepdims=True)
    vb = np.array([_rkpw(x, p) for x, p in zip(lam.tolist(), w.tolist())])
    v, c = vb[:, :n], np.sqrt(vb[:, n:])
    high = c >= 1e-13
    if not (np.isfinite(vb).all() and high.all()):
        low_rows = ~high.all(axis=1)
        step = int(high[low_rows.argmax()].argmin())  # of the lowest such row
        _raise_lowest(
            (~np.isfinite(vb).all(axis=1), PrecisionLimit, _OVERFLOW),
            (low_rows, Breakdown, "orthogonalization norm underflow at step %d" % step),
        )
    return v, c


def _rkpw(lam: list, w: list) -> list:
    """The diagonal, then the squared couplings, of the Jacobi matrix of one
    row.  Point n enters as a rotation through rows 0..n of the matrix of
    points 0..n - 1; b[0] carries the total weight.  The new squared
    coupling is t * (t / sig): t * t underflows once a weight is below
    about 1e-154."""
    a = list(lam)
    b = [w[0]] + [0.0] * (len(lam) - 1)
    for n in range(1, len(lam)):
        pn, x = w[n], lam[n]
        gam, sig, t = 1.0, 0.0, 0.0
        for k in range(n + 1):
            bk = b[k]
            r = bk + pn
            b[k] = gam * r
            tsig = sig
            if r <= 0.0:
                gam, sig = 1.0, 0.0
            else:
                gam, sig = bk / r, pn / r
            tk = sig * (a[k] - x) - gam * t
            a[k] -= tk - t
            t = tk
            pn = tsig * bk if sig <= 0.0 else t * (t / sig)
    return a + b[1:]
