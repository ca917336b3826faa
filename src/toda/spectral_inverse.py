"""Inverse spectral transforms: rebuild the tridiagonal matrix.

Two independent routes are kept deliberately separate so they can
cross-check each other.  The continued-fraction route peels one diagonal
entry at a time from the quotient form by polynomial division; the
orthogonalization route runs the discrete Stieltjes procedure (Lanczos with
full reorthogonalization) against the spectral measure.

The division is also the one reader of the quotient form (``from_quotient``);
it runs in ``rational_weyl``, once per quotient, and both readers share it.
"""

from __future__ import annotations

import numpy as np

from .errors import Breakdown, InvalidData, NotHerglotz
from .jacobi_core import JacobiMatrix
from .rational_weyl import PolyQuotient, RationalHerglotz
from .spectral_direct import SpectralData, eigen


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
    """Discrete Stieltjes / Lanczos inversion of the spectral data.

    Orthonormalizes 1, z, z^2, ... against the measure sum rho_k delta(lambda_k)
    with full reorthogonalization (applied twice) at every step; recurrence
    coefficients of the orthonormal family are the matrix entries.
    ``_lanczos`` inverts a stack of spectral data at once.
    """
    v, c = _lanczos(sd.lambdas[None], sd.rhos[None])
    return JacobiMatrix(v[0], c[0])


def _lanczos(lam: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries v (B, N), c (B, N - 1) from rows of eigenvalues and weights.

    The family is a block of vectors times sqrt(rho), orthonormal in the
    plain inner product; each new one is reorthogonalized against the block
    twice (classical Gram-Schmidt, two contractions per pass).
    """
    b, n = lam.shape
    lam = lam[:, None, :]
    q = np.zeros((b, n, n))  # q[:, k]: the k-th orthonormal vector, times sqrt(rho)
    q[:, 0] = np.sqrt(rho / rho.sum(axis=1, keepdims=True))
    v = np.empty((b, n, 1, 1))
    c = np.zeros((b, n, 1, 1))  # c[:, k - 1] couples vectors k - 1 and k; c[:, -1] stays 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1):
            phi = q[:, k : k + 1]
            w = lam * phi
            v[:, k] = w @ phi.transpose(0, 2, 1)
            u = w - v[:, k] * phi - c[:, k - 1] * q[:, k - 1, None]
            block = q[:, : k + 1]
            for _ in range(2):
                u = u - (u @ block.transpose(0, 2, 1)) @ block
            c[:, k] = np.sqrt(u @ u.transpose(0, 2, 1))
            q[:, k + 1 : k + 2] = u / c[:, k]
        phi = q[:, n - 1 : n]
        v[:, n - 1] = (lam * phi) @ phi.transpose(0, 2, 1)
    c = c[:, :-1, 0, 0]
    low = ~(c >= 1e-13)  # a row goes NaN after its breakdown
    if np.any(low):
        step = np.argmax(low[np.any(low, axis=1)][0])  # of the lowest such row
        raise Breakdown("orthogonalization norm underflow at step %d" % step)
    return v[:, :, 0, 0], c

