"""Direct spectral transform of a finite Jacobi matrix.

Eigenvalues come from Sturm counts (inertia counts of the shifted LDL^T
factorization): one sweep at the top nodes of the bisection tree brackets
every eigenvalue at once (multisection), bisection goes on only where
eigenvalues still share a cell, and bracketed Newton on the same pivots
finishes; weights are reciprocal sums of squared first-kind polynomial
values.  Both kernels solve one matrix.  Bisection runs in lockstep over
its eigenvalues at every N, Newton above N = 16; up to N = 16 Newton takes
one ``_newton_lane`` per eigenvalue on Python floats, bitwise the lockstep,
and the pole check of ``gluing_check`` goes pole by pole.  The matrix
with its first row and column removed supplies the divisor, whose points
interlace the eigenvalues.  The two gate-4 checks hold a pole sum against
the matrix: at its poles by the Newton step, elsewhere against
((T - x)^-1)_00 from the backward pivot sweep (``_resolvent_gap``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._poly import _EPS, _TINY, _newton_lane, _readonly, bracketed_newton, offspectrum_samples
from .errors import AtPole, ConvergenceFailure, InvalidData, PrecisionLimit
from .jacobi_core import JacobiMatrix, truncate
from .rational_weyl import Divisor, RationalHerglotz, _values


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Simple eigenvalues with positive weights summing to one."""

    lambdas: np.ndarray
    rhos: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _readonly(self.lambdas))
        object.__setattr__(self, "rhos", _readonly(self.rhos))
        lam, rho = self.lambdas, self.rhos
        if lam.ndim != 1 or lam.size < 1 or rho.shape != lam.shape:
            raise InvalidData("need matching 1-d eigenvalue and weight arrays")
        if not (np.isfinite(lam).all() and np.isfinite(rho).all()):
            raise InvalidData("spectral data must be finite")
        if lam.size > 1 and not (np.diff(lam) > 0.0).all():
            raise InvalidData("eigenvalues must be strictly increasing")
        if not (rho > 0.0).all():
            raise InvalidData("weights must be positive")
        if abs(float(np.sum(rho)) - 1.0) > 1e-8:
            raise InvalidData("weights must sum to one")

    @property
    def n(self) -> int:
        return self.lambdas.size


# A matrix of at most _SCALAR_LANES sites takes its Newton steps
# (``_newton_lane``) and its pole check (``_pole_residual``) lane by lane on
# Python floats, one ``_scalar_point`` per point; the constant picks nothing
# else.  There numpy's cost per call, about eight calls per site, outweighs
# the arithmetic.  16 is the measured crossover (per sweep at N = 12 on a
# 2-vCPU VM: 14 us against numpy's 86 at 4 points, 48 against 73 at 16, 78
# against 87 or 86 against 81 at 32).
_SCALAR_LANES = 16
_SPLIT = 1e-14  # bisection leaves eigenvalues within _SPLIT * max(1, |x|) unsplit
_NUDGE = 8.0 * _EPS  # a step not finite at x is retaken from x + _NUDGE * scale


def _pivot_sweep(v: np.ndarray, c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sturm count and Newton step at each x from one LDL^T sweep of T - x.

    The negative pivots d_k count the eigenvalues below x; sum d_k'/d_k is
    the log-derivative of det(x - T), the reciprocal of the Newton step.
    An interior pivot at rounding level makes that sum meaningless (it may
    overflow): the step is then NaN, a bisection step for bracketed Newton;
    a zero sum gives an infinite step, which is one as well.

    Two layouts of numpy rows, one row per site over all points.  One
    matrix (v and x 1-D), as in the multisection grid of about 32 N points
    or Newton above N = 16, is swept at all its points at once.  At two or
    more points numpy sums each point's ratios from +0 in site order, as
    ``_scalar_point`` does, so the two give the same bits; at one point it
    sums them pairwise from 8 sites on.  A stack of B matrices (v of shape
    (B, N), c of shape (B, N - 1)) is swept in one pass at points x of shape
    (B, K), matrix b at x[b]; counts and steps then have shape (B, K).  Each
    row takes its pivot floor and its rounding level from its own largest
    entries (``_floors``), so a row of a stack is its own sweep, bit for bit.
    """
    c2, weak, pivmin = _floors(v, c)
    if v.ndim == 1:
        piv = np.subtract.outer(v, x)  # row k: v_k - x, turned into d_k in place
    else:
        pivtop = float(pivmin.max())
        c2 = c2.T[:, :, None]  # c2[k]: column of c_k^2 over the stack
        piv = v.T[:, :, None] - x  # piv[k, b]: v_bk - x[b]
    ratio = np.empty_like(piv)  # row k: d_k'/d_k
    r = last = 0.0  # row 0 has no coupling above it: its ratio is -1/d_0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(v.shape[-1]):
            d = piv[k]
            if k:
                r = c2[k - 1] / piv[k - 1]
                d -= r
            # A pivot below the floor becomes -pivmin; a stack compares with
            # its largest floor first and reads the rows' own only if any is below.
            if v.ndim == 1:
                d[np.abs(d) < pivmin] = -pivmin
            else:
                low = np.abs(d) < pivtop
                if low.any():
                    np.copyto(d, -pivmin, where=low & (np.abs(d) < pivmin))
            last = np.divide(r * last - 1.0, d, out=ratio[k])
        step = np.where((np.abs(piv[:-1]) > weak).all(0), 1.0 / ratio.sum(0), np.nan)
    return (piv < 0.0).sum(0), step


def _floors(v: np.ndarray, c: np.ndarray) -> tuple:
    """The squared couplings, the rounding level of an interior pivot and the
    pivot floor (tiny / eps) * max(1, max c^2): Python floats for one matrix
    (cheap in the site loops; an overflow is inf without a warning), (B, 1)
    columns (the squares (B, N - 1)) for a stack, each row's from its own."""
    if v.ndim == 1:
        c2 = [ck * ck for ck in c.tolist()]
        top, vtop = max(c2, default=0.0), max(map(abs, v.tolist()))
        sqrt, maximum = math.sqrt, max
    else:
        with np.errstate(over="ignore"):
            c2 = c * c
        top, vtop = c2.max(1, keepdims=True, initial=0.0), np.abs(v).max(1, keepdims=True)
        sqrt, maximum = np.sqrt, np.maximum
    return c2, _EPS * (vtop + 2.0 * sqrt(top)), (_TINY / _EPS) * maximum(1.0, top)


def _scalar_matrix(v: np.ndarray, c: np.ndarray) -> tuple[float, list, float, float]:
    """One matrix as ``_scalar_point`` reads it: v_0, the (v_k, c_{k-1}^2)
    of the sites past the first, and the ``_floors``."""
    c2, weak, pivmin = _floors(v, c)
    v0, *rest = v.tolist()
    return v0, list(zip(rest, c2)), weak, pivmin


def _scalar_point(matrix: tuple, xj: float) -> tuple[int, float]:
    """Sturm count and Newton step of the ``_scalar_matrix`` at the one
    point xj, on Python floats with the numpy rows' operations in their
    order: the same floors, the ratios summed in site order from +0 (as
    numpy sums the rows of two or more lanes), so a zero sum is +0 and its
    step +inf.  The counts and steps are bitwise those of ``_pivot_sweep``
    at two or more points."""
    v0, sites, weak, pivmin = matrix
    d = v0 - xj
    if abs(d) < pivmin:
        d = -pivmin
    ratio = -1.0 / d
    total = 0.0 + ratio
    below = d < 0.0
    clear = True  # every pivot but the last above rounding level
    for vk, ck2 in sites:
        if not abs(d) > weak:
            clear = False
        r = ck2 / d
        d = (vk - xj) - r
        if abs(d) < pivmin:
            d = -pivmin
        ratio = (r * ratio - 1.0) / d
        total += ratio
        below += d < 0.0
    if not clear:
        return below, math.nan
    return below, 1.0 / total if total else math.inf


def _nudged_sweep(v: np.ndarray, c: np.ndarray, x: np.ndarray, nudge: float) -> tuple:
    """``_pivot_sweep`` at x, with each step that is not finite (a pivot at
    rounding level: x within rounding of an eigenvalue of a leading block)
    retaken from x + nudge and moved back.  Every pivot falls with slope at
    least one in x, so a few eps * scale lift it clear of rounding.  Of a
    stack, only the rows with such a step are swept again."""
    cnt, step = _pivot_sweep(v, c, x)
    stuck = ~np.isfinite(step)
    if stuck.any():
        rows = np.flatnonzero(stuck.any(axis=1)) if v.ndim > 1 else slice(None)
        _, beside = _pivot_sweep(v[rows], c[rows], x[rows] + nudge)
        step[rows] = np.where(stuck[rows], beside - nudge, step[rows])
    return cnt, step


def _eigenvalues(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Jacobi matrix with diagonal v and off-diagonal c
    (at least 2x2), one per rank; not checked to be strictly increasing.

    One pivot sweep counts the eigenvalues below every node of the top
    levels of the bisection tree (multisection): the nodes are the
    midpoints bisection would form, down to about 32 N cells for N <= 32
    and N / 2..N cells above (the sweep's pivot table then stays within the
    N x N of one bisection step).  Each eigenvalue takes its cell from the
    counts; eigenvalues still sharing a cell bisect on Sturm counts until
    each is alone (or to ``_SPLIT`` * max(1, |lambda|) for a pair too close
    to split), in lockstep, one sweep per step; the loop is skipped where no
    cell is shared, as for most small matrices.  Bracketed Newton then takes
    its side from the count and its step from the pivots: in lockstep, or up
    to ``_SCALAR_LANES`` sites one ``_newton_lane`` per eigenvalue, bitwise
    the same.  Every eigenvalue bisects before any takes a Newton step.

    A diagonal whose bracket leaves float64 raises ``PrecisionLimit``
    before any sweep.
    """
    n = v.size
    reach = np.concatenate((c, [0.0])) + np.concatenate(([0.0], c))
    lo0 = float(np.min(v - reach))
    hi0 = float(np.max(v + reach))
    pad = 1e-6 * max(1.0, hi0 - lo0)
    a, b = lo0 - pad, hi0 + pad
    # A bracket whose ends, width b - a or midpoint sum a + b leave float64
    # cannot be bisected: its cell widths or midpoints overflow.
    if not all(map(math.isfinite, (a, b, b - a, a + b))):
        raise PrecisionLimit("diagonal beyond float64: the eigenvalue bracket overflows")
    # No level may reach bisection's split floor below (twice it covers the
    # rounding of the midpoints): a cluster then bisects on from the bracket
    # that bisection from [a, b] would have reached.
    levels = min((32 * n).bit_length(), 10) if n <= 32 else n.bit_length() - 1
    while levels and (b - a) * 0.5**levels <= 2.0 * _SPLIT * max(1.0, abs(a), abs(b)):
        levels -= 1
    grid = np.array([a, b])
    for _ in range(levels):
        finer = np.empty(2 * grid.size - 1)
        finer[::2] = grid
        finer[1::2] = 0.5 * (grid[:-1] + grid[1:])
        grid = finer
    counts = np.empty(grid.size, dtype=np.intp)
    counts[0], counts[-1] = 0, n
    counts[1:-1] = _pivot_sweep(v, c, grid[1:-1])[0]
    # count(lo) < want <= count(hi): eigenvalue want - 1 lies in [lo, hi].
    # The computed count never falls as x grows, so a search finds the cell.
    want = np.arange(1, n + 1)
    cell = np.searchsorted(counts, want)
    lo, hi, clo, chi = grid[cell - 1], grid[cell], counts[cell - 1], counts[cell]
    for _ in range(200):
        todo = chi - clo > 1  # most cells of a small matrix hold one eigenvalue
        if todo.any():
            mid = 0.5 * (lo + hi)
            todo &= ~((hi - lo) <= _SPLIT * np.maximum(1.0, np.abs(mid)))
        if not todo.any():
            break
        cnt, _ = _pivot_sweep(v, c, mid)
        upper = todo & (cnt >= want)
        lower = todo & (cnt < want)
        hi, chi = np.where(upper, mid, hi), np.where(upper, cnt, chi)
        lo, clo = np.where(lower, mid, lo), np.where(lower, cnt, clo)
    else:
        raise ConvergenceFailure("eigenvalue bisection hit the iteration cap")
    scale = max(abs(lo0), abs(hi0))
    if n <= _SCALAR_LANES:
        point = functools.partial(_scalar_point, _scalar_matrix(v, c))
        return np.array([_newton_lane(point, k, *cell, scale)
                         for k, cell in enumerate(zip(lo.tolist(), hi.tolist()), 1)])

    def step_side(x):
        cnt, step = _pivot_sweep(v, c, x)
        return step, cnt >= want

    return bracketed_newton(step_side, lo, hi, scale=scale)


def _weights(v: np.ndarray, c: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Weights 1 / sum_k P_k(lambda)^2 at the eigenvalues ``lam``, from the
    forward recurrence of the first-kind polynomials P_0..P_{N-1}, and
    projected onto sum rho = 1.  Entries past float64 come out as inf, NaN
    or 0 without a warning."""
    n = v.size
    p = np.empty((n, lam.size))  # p[k]: P_k at each eigenvalue
    p[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if n > 1:
            p[1] = (lam - v[0]) / c[0]
        for k in range(1, n - 1):
            p[k + 1] = ((lam - v[k]) * p[k] - c[k - 1] * p[k - 1]) / c[k]
        rho = 1.0 / (p**2).sum(axis=0)
        # The weights satisfy sum rho = 1 identically; project the rounding
        # drift of the recurrence sums back onto that constraint.
        return rho / rho.sum()


def _distinct_eigenvalues(m: JacobiMatrix) -> np.ndarray:
    """Eigenvalues of a matrix of any size.  ``PrecisionLimit`` where the
    couplings' squares leave float64 (every pivot sweep would floor all
    pivots at an infinite ``pivmin``), where the eigenvalue bracket
    overflows, and where distinct eigenvalues round together (Wilkinson's
    W23)."""
    with np.errstate(over="ignore"):
        if not np.isfinite(m.c * m.c).all():
            raise PrecisionLimit("couplings beyond float64: their squares overflow")
    lam = np.array([m.v[0]]) if m.n == 1 else _eigenvalues(m.v, m.c)
    if not (np.diff(lam) > 0.0).all():
        raise PrecisionLimit("eigenvalues closer than float64 can separate")
    return lam


def eigen(m: JacobiMatrix) -> SpectralData:
    """Full spectral data of the matrix: its ``_distinct_eigenvalues`` and
    their ``_weights``.  Weights whose recurrence sums overflow (the
    documented random family from N of about 300) raise ``PrecisionLimit``."""
    lam = _distinct_eigenvalues(m)
    rho = _weights(m.v, m.c, lam)
    if not (np.isfinite(rho) & (rho > 0.0)).all():
        raise PrecisionLimit("weights beyond float64: the recurrence sums overflow")
    return SpectralData(lam, rho)


def divisor(m: JacobiMatrix) -> Divisor:
    """Eigenvalues (no weights) of the matrix past its first row and column."""
    if m.n < 2:
        raise InvalidData("divisor needs at least a 2x2 matrix")
    return Divisor(_distinct_eigenvalues(truncate(m, 1, m.n - 1)))


def weyl(m: JacobiMatrix) -> RationalHerglotz:
    """Weyl function: the (0, 0) resolvent entry as a pole sum."""
    return weyl_from_spectral(eigen(m))


def weyl_from_spectral(sd: SpectralData) -> RationalHerglotz:
    return RationalHerglotz(sd.lambdas, sd.rhos)


def spectral_from_weyl(w: RationalHerglotz) -> SpectralData:
    if not w.normalized:
        raise InvalidData("spectral data requires unit total residue")
    return SpectralData(w.poles, w.residues)


def weyl_solution_residual(m: JacobiMatrix, w: RationalHerglotz, lam: float) -> float:
    """Gap between the pole sum w and u_0 = ((T - lam)^-1)_00, the first
    entry of the Weyl solution of (T - lam) u = e_0, over w's rounding
    bound: ``_resolvent_gap`` at lam.  At rounding level exactly when w
    takes the value of the Weyl function of m at lam."""
    lam = float(lam)
    if np.min(np.abs(lam - w.poles)) < 1e-12:
        raise AtPole("the Weyl solution has a pole on the spectrum")
    return _resolvent_gap(m, w, np.array([lam]))


def _resolvent_gap(m: JacobiMatrix, w: RationalHerglotz, pts: np.ndarray) -> float:
    """Worst |u_0(x) - w(x)| / sum_k rho_k / |lambda_k - x| over the points
    x, where u_0(x) = ((T - x)^-1)_00 and w(x) is the pole sum (``_values``).

    u_0(x) is the reciprocal of the last pivot of T - x swept from the last
    site up: Stieltjes' continued fraction of the Weyl function, backward
    stable at every N.  Each pivot is floored at -pivmin (``_floors``), as
    in ``_scalar_point``.  A pivot that vanishes, where x is an eigenvalue
    of a trailing block, so makes the next one about c^2 / pivmin and the
    one after it v - x, the limit of the exact continued fraction.
    """
    v0, sites, _, pivmin = _scalar_matrix(m.v[::-1], m.c[::-1])
    u0 = []
    for x in pts.tolist():
        d = v0 - x
        if abs(d) < pivmin:
            d = -pivmin
        for vk, ck2 in sites:
            d = (vk - x) - ck2 / d
            if abs(d) < pivmin:
                d = -pivmin
        u0.append(1.0 / d)
    bound = np.abs(w.residues / (w.poles - pts[:, None])).sum(axis=-1)
    return float(np.max(np.abs(np.array(u0) - _values(w.poles, w.residues, pts)) / bound))


def _pole_residual(m: JacobiMatrix, poles: np.ndarray) -> float:
    """Worst Newton correction |P_N / P_N'| at the poles, over
    max(1, max |pole|): about the distance to the nearest eigenvalue, read
    off the LDL^T pivots (ratios of consecutive P_k).

    It stays at rounding level for every N; the residual |P_N| /
    ||(P_0, ..., P_{N-1})|| does not, since forward-recurrence rounding
    grows with N.  A pole within rounding of an eigenvalue of a leading
    block has a pivot at rounding level and no finite step; it takes the
    step from ``_NUDGE`` (8 eps) * scale above instead, as the
    ``lax_integrate`` audit does.  Up to ``_SCALAR_LANES`` sites the poles
    go one ``_scalar_point`` each, above in one ``_nudged_sweep``.
    """
    top = max(1.0, float(np.max(np.abs(poles))))
    nudge = _NUDGE * top
    if m.n <= _SCALAR_LANES:
        matrix = _scalar_matrix(m.v, m.c)
        step = []
        for x in poles.tolist():
            s = _scalar_point(matrix, x)[1]
            step.append(s if math.isfinite(s) else _scalar_point(matrix, x + nudge)[1] - nudge)
    else:
        _, step = _nudged_sweep(m.v, m.c, poles, nudge)
    return float(np.max(np.abs(step))) / top


def gluing_check(m: JacobiMatrix, w: RationalHerglotz) -> float:
    """Consistency of the pole sum w with the matrix m.

    If w is the Weyl function of m, each pole is an eigenvalue: the pole
    check is ``_pole_residual``.  Off the spectrum w must be the (0, 0)
    entry of (T - x)^-1: ``_resolvent_gap`` at 16 points
    (``offspectrum_samples``), relative to w's rounding bound.  Returns the
    worst deviation over both checks; 0.0 for a 1x1 matrix.
    """
    if m.n == 1:
        return 0.0
    resid = _pole_residual(m, w.poles)
    return max(resid, _resolvent_gap(m, w, offspectrum_samples(w.poles, 16)))
