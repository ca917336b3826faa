"""Three finite families of Jacobi matrices with closed-form spectral data.

Krawtchouk, Hahn and dual Hahn (Koekoek, Lesky & Swarttouw, *Hypergeometric
Orthogonal Polynomials and Their q-Analogues*, Springer 2010, sections 9.11,
9.5 and 9.6): exact eigenvalues and weights at every size, an oracle that
needs no extended precision.  Each builder returns the diagonal v, the
off-diagonal c, the eigenvalues in increasing order and the natural logs of
the weights, normalized to sum to one.  The logs come from ``math.lgamma``,
so weights far below the float64 range stay readable.

Hahn and dual Hahn have N = M + 1 sites, indexed n = 0..M, with
v_n = A_n + C_n and c_n = sqrt(A_n C_{n+1}).
"""

from __future__ import annotations

import math

import numpy as np


def _normalized(log_w: np.ndarray) -> np.ndarray:
    top = float(np.max(log_w))
    return log_w - (top + math.log(float(np.sum(np.exp(log_w - top)))))


def _from_recurrence(a: np.ndarray, cc: np.ndarray):
    """v, c of the three-term recurrence with coefficients A_n and C_n."""
    return a + cc, np.sqrt(a[:-1] * cc[1:])


def krawtchouk(n: int, p: float):
    """K_N(p): v_k = p(N-1-k) + k(1-p) - (N-1)/2, c_k = sqrt(p(1-p) k (N-k));
    eigenvalues k - (N-1)/2 with weights C(N-1, k) p^k (1-p)^(N-1-k)."""
    k = np.arange(n, dtype=float)
    v = p * (n - 1 - k) + k * (1.0 - p) - 0.5 * (n - 1)
    c = np.sqrt(p * (1.0 - p) * k[1:] * (n - k[1:]))
    lgam = np.array([math.lgamma(x + 1.0) for x in k])
    log_w = lgam[-1] - lgam - lgam[::-1] + k * math.log(p) + (n - 1 - k) * math.log1p(-p)
    return v, c, k - 0.5 * (n - 1), _normalized(log_w)


def hahn(n: int, alpha: float, beta: float):
    """Hahn(alpha, beta) at N = M + 1 sites: eigenvalues x = 0..M with
    weights proportional to C(alpha + x, x) C(beta + M - x, M - x)."""
    m = n - 1
    j = np.arange(n, dtype=float)
    s = alpha + beta
    a = (j + s + 1) * (j + alpha + 1) * (m - j) / ((2 * j + s + 1) * (2 * j + s + 2))
    cc = np.zeros(n)
    jj = j[1:]
    cc[1:] = jj * (jj + s + m + 1) * (jj + beta) / ((2 * jj + s) * (2 * jj + s + 1))
    v, c = _from_recurrence(a, cc)

    def log_binom(top: float, k: float) -> float:
        return math.lgamma(top + 1.0) - math.lgamma(k + 1.0) - math.lgamma(top - k + 1.0)

    log_w = np.array([log_binom(alpha + x, x) + log_binom(beta + m - x, m - x) for x in j])
    return v, c, j, _normalized(log_w)


def dual_hahn(n: int, gamma: float, delta: float):
    """Dual Hahn(gamma, delta) at N = M + 1 sites: eigenvalues
    x (x + gamma + delta + 1), weights proportional to
    (2x + gamma + delta + 1) (gamma + 1)_x M! /
    ((M - x)! (x + gamma + delta + 1)_{M+1} (delta + 1)_x x!)."""
    m = n - 1
    j = np.arange(n, dtype=float)
    s = gamma + delta + 1
    v, c = _from_recurrence((j + gamma + 1) * (m - j), j * (m + delta + 1 - j))

    def log_poch(z: float, k: float) -> float:
        return math.lgamma(z + k) - math.lgamma(z)

    log_w = np.array([
        math.log(2 * x + s) + log_poch(gamma + 1, x) + math.lgamma(m + 1.0)
        - math.lgamma(m - x + 1.0) - log_poch(x + s, m + 1) - log_poch(delta + 1, x)
        - math.lgamma(x + 1.0)
        for x in j
    ])
    return v, c, j * (j + s), _normalized(log_w)
