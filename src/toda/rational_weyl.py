"""Rational Herglotz functions in three interchangeable representations.

A function here is a finite sum of simple poles on the real line with
positive residues.  It can equally be written as a quotient -q(z)/p(z) of
real polynomials with interlacing roots, or through the exponential of a
spectral-shift integral once the leftmost pole is moved to the origin.
This module builds the quotient from the pole sum (``to_quotient``), the
exponential form from either, and evaluates the moment (trace) sums in all
of them; agreement of the routes is a core consistency check used by the
test suite.  The quotient is read back through its continued fraction,
divided here once per record and kept on it, which both readers in
``spectral_inverse`` (``stieltjes_reconstruct``, ``from_quotient``) share:
no root finder runs on its float coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cached_property, reduce

import numpy as np

from . import _poly
from ._poly import _readonly
from .errors import AtPole, InvalidData, NotHerglotz, Overflow, TodaError
from .jacobi_core import JacobiMatrix

_NORMALIZATION_TOL = 1e-12
_EXP_SAMPLES = 32  # sample points of the exponential-form check
_KREIN_MOMENTS = 4  # shift moments that krein returns; trace_via_krein reads 3

# Decimal digits of the PolyQuotient payload, and of the continued-fraction
# division that reads it; both live in this module only.  The division chain
# subtracts nearly equal quantities at every level; fifty digits leave a wide
# margin over the conditioning of the sizes the acceptance gate covers.  The
# count is fixed, not adapted to the smallest residue of the data.
_DEC_DIGITS = 50


@dataclass(frozen=True, eq=False)
class Divisor:
    """Strictly increasing zero locations of a rational Herglotz function."""

    gammas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gammas", _readonly(self.gammas))
        g = self.gammas
        if g.ndim != 1 or not np.isfinite(g).all():
            raise InvalidData("divisor must be a finite 1-d array")
        if g.size > 1 and not (np.diff(g) > 0.0).all():
            raise InvalidData("divisor points must be strictly increasing")

    @property
    def n(self) -> int:
        return self.gammas.size


@dataclass(frozen=True, eq=False)
class RationalHerglotz:
    """Sum of simple real poles with positive residues.

    The divisor (``zeros``) is solved on first use and kept on the record:
    the record is frozen and its arrays are read-only, so the kept divisor
    cannot go stale, and every later reader (the exponential form, the Krein
    data, the quasimomenta) shares the one solve.
    """

    poles: np.ndarray
    residues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "poles", _readonly(self.poles))
        object.__setattr__(self, "residues", _readonly(self.residues))
        if self.poles.ndim != 1 or self.poles.size < 1:
            raise InvalidData("pole list must be a nonempty 1-d array")
        if self.residues.shape != self.poles.shape:
            raise InvalidData("residue list must match pole list")
        if not (np.isfinite(self.poles).all() and np.isfinite(self.residues).all()):
            raise InvalidData("poles and residues must be finite")
        if self.poles.size > 1 and not (np.diff(self.poles) > 0.0).all():
            raise InvalidData("poles must be strictly increasing")
        if not (self.residues > 0.0).all():
            raise NotHerglotz("all residues must be positive")

    @property
    def n(self) -> int:
        return self.poles.size

    @property
    def normalized(self) -> bool:
        """True when the residues sum to one, so the function is a Stieltjes
        transform of a probability measure."""
        return bool(abs(float(np.sum(self.residues)) - 1.0) <= _NORMALIZATION_TOL)

    @cached_property
    def _divisor(self) -> Divisor:
        return Divisor(_zeros(self.poles, self.residues))


@dataclass(frozen=True, eq=False)
class PolyQuotient:
    """Coefficients (constant term first) of the quotient form -q/p.

    ``p`` is monic of degree N, ``q`` has degree N-1.  When built by
    :func:`to_quotient` the instance also carries fixed-precision decimal
    coefficients (``p_dec``/``q_dec``, ``_DEC_DIGITS`` digits), of which
    ``p``, ``q`` are the correctly rounded values.  The continued-fraction
    division reads the payload when there is one, since float64 monomial
    coefficients cannot carry a very small residue to better than absolute
    rounding error.  It runs on first use and is kept on the record
    (``_cf_matrix``), so both inverse transforms, ``stieltjes_reconstruct``
    and ``from_quotient``, share one division.
    """

    p: np.ndarray
    q: np.ndarray
    p_dec: tuple | None = None
    q_dec: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", _readonly(self.p))
        object.__setattr__(self, "q", _readonly(self.q))
        if self.p.ndim != 1 or self.q.ndim != 1 or self.p.size != self.q.size + 1:
            raise InvalidData("need deg p = deg q + 1 = N")
        if self.p.size < 2:
            raise InvalidData("quotient needs at least one pole")
        if not (np.isfinite(self.p).all() and np.isfinite(self.q).all()):
            raise InvalidData("coefficients must be finite")
        if abs(self.p[-1] - 1.0) > 1e-8:
            raise InvalidData("p must be monic")
        if self.q[-1] == 0.0:
            raise InvalidData("q must have exact degree N-1")

    @property
    def n(self) -> int:
        return self.q.size

    @cached_property
    def _cf_matrix(self) -> tuple[JacobiMatrix, float]:
        """The continued-fraction matrix of -q/p over its total residue
        q_top/p_top, and that total; ``NotHerglotz`` on a nonpositive
        squared coupling.

        The division runs at ``_DEC_DIGITS`` digits on the decimal payload,
        which resolves every residue to full relative accuracy, or else on the
        exact decimal values of the float coefficients.
        """
        with localcontext() as ctx:
            ctx.prec = _DEC_DIGITS
            p = [Decimal(x) for x in self.p_dec or self.p.tolist()]
            q = [Decimal(x) for x in self.q_dec or self.q.tolist()]
            v, csq = _cf_division([x / p[-1] for x in p], [x / q[-1] for x in q], self.n)
            total = float(q[-1] / p[-1])
        return JacobiMatrix(v, np.sqrt(csq)), total


@dataclass(frozen=True, eq=False)
class KreinData:
    """Shifted spectrum, divisor and the moments of the spectral-shift
    integrand; ``shift`` records how far the original poles were moved so
    that the leftmost one sits at the origin.  ``exp_residual`` is the gap
    to the exponential form that ``krein``'s self-check read, kept so that
    no reader samples it again; it is NaN on a record built by hand, so
    that no unchecked record passes for a checked one."""

    lambdas0: np.ndarray
    gammas: np.ndarray
    f: np.ndarray
    shift: float
    exp_residual: float = float("nan")

    def __post_init__(self):
        object.__setattr__(self, "lambdas0", _readonly(self.lambdas0))
        object.__setattr__(self, "gammas", _readonly(self.gammas))
        object.__setattr__(self, "f", _readonly(self.f))
        if self.lambdas0.size < 1 or self.lambdas0[0] != 0.0:
            raise InvalidData("shifted spectrum must start at zero")
        if self.gammas.shape != (self.lambdas0.size - 1,):
            raise InvalidData("divisor must have one point per spectral gap")


def evaluate(w: RationalHerglotz, z) -> complex | float:
    """Value of the pole sum at ``z``; refuses points within 1e-14 of a pole."""
    zc = complex(z)
    if np.min(np.abs(zc - w.poles)) < 1e-14:
        raise AtPole("evaluation point coincides with a pole")
    val = _values(w.poles, w.residues, zc)
    if isinstance(z, complex):
        return complex(val)
    return float(val.real)


def _values(poles: np.ndarray, residues: np.ndarray, x) -> np.ndarray:
    """The pole sum sum_k residue_k / (pole_k - x), over the shape of ``x``."""
    x = np.asarray(x)
    return (residues / (poles - x[..., None])).sum(axis=-1)


def _exp_values(lam0: np.ndarray, gam0: np.ndarray, x) -> np.ndarray:
    """The exponential form -(1/x) prod_s (gam0_s - x)/(lam0_{s+1} - x) on the
    shifted spectrum (``lam0[0]`` = 0), over the shape of ``x``."""
    x = np.asarray(x)
    return -np.prod((gam0 - x[..., None]) / (lam0[1:] - x[..., None]), axis=-1) / x


def zeros(w: RationalHerglotz) -> Divisor:
    """The N-1 real zeros, one in each gap between consecutive poles.

    The function increases from -inf to +inf across every gap, so each zero
    is the root of the secular equation w = 0 (``_poly.secular_roots``,
    beta = alpha = 0) in its gap; when a residue is so small that the zero is
    not resolvable away from its pole, the pole-side gap endpoint is returned.
    ``_zeros`` solves a stack of pole sums at once.

    The divisor is solved once per record and kept on it: ``w`` is frozen
    with read-only arrays, so every call returns the same ``Divisor``, whose
    own array is read-only too.
    """
    return w._divisor


def _zeros(lam: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``zeros`` of each row of poles and residues (..., N): (..., N - 1)."""
    gaps = np.diff(lam)
    eps_edge = 8 * _poly._EPS * np.maximum(1.0, np.abs(lam))
    lo = lam[..., :-1] + np.maximum(1e-13 * gaps, eps_edge[..., :-1])
    hi = lam[..., 1:] - np.maximum(1e-13 * gaps, eps_edge[..., 1:])
    # Degenerate sides: the zero hugs the pole closer than the edge offset.
    poles, residues = lam[..., None, :], rho[..., None, :]
    left_stuck = _values(poles, residues, lo) >= 0.0
    stuck = left_stuck | (_values(poles, residues, hi) <= 0.0)
    edge = np.where(left_stuck, lo, hi)
    lo, hi = np.where(stuck, edge, lo), np.where(stuck, edge, hi)
    return _poly.secular_roots(lam, rho, 0.0, 0.0, lo, hi, np.abs(lam).max(-1, keepdims=True))


def _keep_zeros(ws) -> None:
    """Solve the divisors of pole sums of one size as one ``_zeros`` stack
    and keep each row on its pole sum, where ``zeros`` reads it: each row is
    bitwise the solve ``zeros`` makes alone.  A stack that fails keeps
    nothing, so each pole sum solves on first use and raises where it
    would have."""
    try:
        gam = _zeros(np.array([w.poles for w in ws]), np.array([w.residues for w in ws]))
        divisors = [Divisor(row) for row in gam]
    except TodaError:
        return
    for w, divisor in zip(ws, divisors):
        w.__dict__["_divisor"] = divisor  # the slot of the cached property


def _dec_quotient(lam: np.ndarray, rho: np.ndarray):
    """Decimal coefficients of p = prod (x - lam_k) and q = sum_k rho_k p/(x - lam_k).

    Float64 inputs convert to decimal exactly; the expansion keeps every
    residue's contribution at full relative accuracy, which float64
    coefficients cannot (a weight near 1e-16 drowns in the rounding of the
    other terms).  Both grow one pole at a time: with p, q the quotient of
    the poles so far, q <- q (x - lam_k) + rho_k p, then p <- p (x - lam_k).
    """
    with localcontext() as ctx:
        ctx.prec = _DEC_DIGITS
        p, q, zero = [Decimal(1)], [], [Decimal(0)]
        for x, r in zip(lam.tolist(), rho.tolist()):
            dx, dr = Decimal(x), Decimal(r)
            q = [hi - dx * lo + dr * pi for hi, lo, pi in zip(zero + q, q + zero, p)]
            p = [hi - dx * lo for hi, lo in zip(zero + p, p + zero)]
    return tuple(p), tuple(q)


def _cf_division(p: list, q: list, m: int):
    """Division recursion on decimal coefficient lists (context set by caller)."""
    v = np.empty(m)
    csq = np.empty(max(m - 1, 0))
    zero = Decimal(0)
    for step in range(m, 0, -1):
        sub_q = q[step - 2] if step >= 2 else zero
        v0 = sub_q - p[step - 1]
        v[m - step] = float(v0)
        if step == 1:
            break
        r = [p[i] + v0 * q[i] - (q[i - 1] if i else zero) for i in range(step - 1)]
        c2 = -r[step - 2]
        if not c2.is_finite() or c2 <= 0:
            raise NotHerglotz(
                "quotient is not a positive pole sum: division produced a nonpositive coupling"
            )
        csq[m - step] = float(c2)
        q_next = [ri / (-c2) for ri in r]
        q_next[-1] = Decimal(1)
        p, q = q, q_next
    return v, csq


def _residue_sum(pq: PolyQuotient, roots: np.ndarray) -> float:
    """sum_k q(root_k) / p'(root_k) on the decimal payload of a
    ``to_quotient`` record, by Horner's rule at ``_DEC_DIGITS`` digits: the
    total residue when the roots are the poles.  The rounded float
    coefficients lose a small residue's term, as they would in the division."""
    total = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = _DEC_DIGITS
        dp = [k * a for k, a in enumerate(pq.p_dec)][1:]
        for x in map(Decimal, roots.tolist()):
            qx, dpx = (reduce(lambda acc, a: acc * x + a, reversed(c)) for c in (pq.q_dec, dp))
            total += qx / dpx
    return float(total)


def to_quotient(w: RationalHerglotz) -> PolyQuotient:
    """Quotient form: p monic with roots at the poles, q the unique
    polynomial of degree N-1 with q(pole_k) = p'(pole_k) * residue_k; the
    floats round ``_dec_quotient``'s expansion (``Overflow`` past float64)."""
    p_dec, q_dec = _dec_quotient(w.poles, w.residues)
    pq = np.array(p_dec + q_dec, dtype=float)
    if not np.isfinite(pq).all():
        raise Overflow("quotient coefficients overflow float64")
    return PolyQuotient(pq[: len(p_dec)], pq[len(p_dec) :], p_dec, q_dec)


def _shifted(w: RationalHerglotz) -> tuple[float, np.ndarray, np.ndarray]:
    """Shift moving the leftmost pole to the origin, with the shifted poles
    and divisor (the one ``zeros`` keeps on ``w``)."""
    shift = float(w.poles[0])
    return shift, w.poles - shift, zeros(w).gammas - shift


def _exp_residual(lam0: np.ndarray, gam0: np.ndarray, rho: np.ndarray) -> float:
    """Max gap between the pole sum and the exponential form, both on the
    shifted spectrum, at ``_EXP_SAMPLES`` off-spectrum sample points."""
    pts = _poly.offspectrum_samples(np.concatenate((lam0, gam0)), _EXP_SAMPLES)
    return float(np.max(np.abs(_values(lam0, rho, pts) - _exp_values(lam0, gam0, pts))))


def krein(w: RationalHerglotz) -> KreinData:
    """Spectral-shift data of a normalized pole sum.

    Entry k - 1 of ``f`` is the integral of z^k over the union of gap
    intervals [lambda_s, gamma_s] (shifted spectrum), k = 1.._KREIN_MOMENTS.
    The exponential representation is verified on sample points, on the
    divisor kept on ``w`` (``zeros``), before returning; the residual of
    that check is kept as ``exp_residual``.
    """
    if not w.normalized:
        raise InvalidData("exponential representation requires unit total residue")
    shift, lam0, gam0 = _shifted(w)
    k = np.arange(1, _KREIN_MOMENTS + 1, dtype=float)
    f = (np.sum(gam0[None, :] ** k[:, None], axis=1) - np.sum(lam0[None, 1:] ** k[:, None], axis=1)) / k
    resid = _exp_residual(lam0, gam0, w.residues)
    if resid > 1e-8:
        raise TodaError("exponential representation failed self-check: %.3e" % resid)
    return KreinData(lambdas0=lam0, gammas=gam0, f=f, shift=shift, exp_residual=resid)


def trace_moments(w: RationalHerglotz, n_max: int) -> np.ndarray:
    """Power sums s_n = sum_k residue_k * pole_k^n for n = 0..n_max, the
    series of w at infinity: w(z) = -sum_n s_n z^(-n-1)."""
    n_max = _poly._index(n_max, "series order")
    if n_max < 0:
        raise InvalidData("series order must be nonnegative")
    n = np.arange(n_max + 1)
    return (w.residues[None, :] * w.poles[None, :] ** n[:, None]).sum(axis=1)


def trace_via_delta(kd: KreinData, n_max: int) -> np.ndarray:
    """Power sums of the shifted spectrum from the gap data alone.

    Each gap contributes a one-sided series with coefficients 1 and
    lambda^(p-1) (lambda - gamma); the power sums are the coefficients of the
    product of those series.  The order is capped: the convolution count and
    conditioning both grow with n.
    """
    n_max = _poly._index(n_max, "series order")
    if n_max < 0:
        raise InvalidData("series order must be nonnegative")
    if n_max > 12:
        raise InvalidData("series order capped at 12")
    lam = kd.lambdas0[1:]
    gam = kd.gammas
    conv = np.zeros(n_max + 1)
    conv[0] = 1.0
    p = np.arange(1, n_max + 1, dtype=float)
    for s in range(lam.size):
        factor = np.empty(n_max + 1)
        factor[0] = 1.0
        factor[1:] = lam[s] ** (p - 1) * (lam[s] - gam[s])
        conv = np.convolve(conv, factor)[: n_max + 1]
    return conv


def trace_via_krein(kd: KreinData) -> np.ndarray:
    """First four power sums of the shifted spectrum from the shift moments."""
    if kd.f.size < 3:
        raise InvalidData("need the first three shift moments")
    f0, f1, f2 = kd.f[0], kd.f[1], kd.f[2]
    return np.array([1.0, -f0, f0**2 / 2.0 - f1, f0 * f1 - f2 - f0**3 / 6.0])
