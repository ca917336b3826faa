"""Finite symmetric tridiagonal matrices and their polynomial recurrences.

A matrix is stored by its diagonal ``v`` (length N) and positive
off-diagonal ``c`` (length N-1).  The three-term recurrence additionally
uses a closing coefficient for the final step, fixed as the reciprocal of
the product of the stored off-diagonals.  With that normalization the last
first-kind polynomial is exactly the monic characteristic polynomial, and
the last second-kind polynomial is the monic characteristic polynomial of
the matrix with its first row and column removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._poly import _index, _readonly
from .errors import InvalidData


@dataclass(frozen=True, eq=False)
class JacobiMatrix:
    """Symmetric tridiagonal matrix with strictly positive off-diagonal."""

    v: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _readonly(self.v))
        object.__setattr__(self, "c", _readonly(self.c))
        if self.v.ndim != 1 or self.v.size < 1:
            raise InvalidData("diagonal must be a nonempty 1-d array")
        if self.c.shape != (self.v.size - 1,):
            raise InvalidData("off-diagonal must have length N-1")
        if not np.isfinite(self.v).all() or not np.isfinite(self.c).all():
            raise InvalidData("matrix entries must be finite")
        if self.c.size and not (self.c > 0.0).all():
            raise InvalidData("off-diagonal entries must be positive")

    @property
    def n(self) -> int:
        return self.v.size

    @property
    def closing_c(self) -> float:
        """Coefficient closing the recurrence; never stored as a matrix entry."""
        return float(1.0 / np.prod(self.c)) if self.c.size else 1.0

    def as_dense(self) -> np.ndarray:
        m = np.diag(self.v)
        if self.c.size:
            m += np.diag(self.c, 1) + np.diag(self.c, -1)
        return m

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = self.v * x
        if self.c.size:
            y[:-1] += self.c * x[1:]
            y[1:] += self.c * x[:-1]
        return y


def _matrix_distance(a: JacobiMatrix, b: JacobiMatrix) -> float:
    """Worst entrywise distance between two matrices of the same size."""
    return max(
        float(np.max(np.abs(a.v - b.v))),
        float(np.max(np.abs(a.c - b.c))) if a.c.size else 0.0,
    )


def _recurrence_table(m: JacobiMatrix, lam, first_kind: bool) -> np.ndarray:
    """Table of polynomial values, shape (N+1,) + shape(lam).

    First kind starts (1, ...), second kind starts (0, 1/c_0, ...); both obey
    c_{n-1} y_{n-1} + v_n y_n + c_n y_{n+1} = lam * y_n with the closing
    coefficient supplying c_{N-1}.
    """
    lam = np.asarray(lam, dtype=float)
    n = m.n
    out = np.zeros((n + 1,) + lam.shape)
    c = np.concatenate((m.c, [m.closing_c]))
    if first_kind:
        out[0] = 1.0
        out[1] = (lam - m.v[0]) / c[0]
    else:
        out[1] = 1.0 / c[0]
    for k in range(1, n):
        out[k + 1] = ((lam - m.v[k]) * out[k] - c[k - 1] * out[k - 1]) / c[k]
    return out


def truncate(m: JacobiMatrix, k: int, p: int) -> JacobiMatrix:
    """Principal block on rows/columns k..p inclusive."""
    if not (0 <= k <= p < m.n):
        raise IndexError("truncation window out of range")
    return JacobiMatrix(m.v[k : p + 1], m.c[k:p])


def moments(m: JacobiMatrix, k_max: int) -> np.ndarray:
    """Moments of the spectral measure at the first coordinate vector:
    entry k is the (0, 0) element of the k-th matrix power, k = 0..k_max."""
    k_max = _index(k_max, "moment order")
    if k_max < 0:
        raise InvalidData("moment order must be nonnegative")
    u = np.zeros(m.n)
    u[0] = 1.0
    out = np.empty(k_max + 1)
    out[0] = 1.0
    for k in range(1, k_max + 1):
        u = m.matvec(u)
        out[k] = u[0]
    return out
