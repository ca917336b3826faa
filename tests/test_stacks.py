"""Stacked kernels against the single-point functions that wrap them.

Each chart map, the divisor solve and the Lanczos inversion run on one
array kernel with a leading stack axis; the typed public functions call the
same kernel on one point.  Every row of a stack must match its own public
call, and a stack that fails must raise what its lowest failing row raises
alone.  ``eigen`` solves one matrix; of its kernels only the Newton sweep
keeps a stack axis, for the audit of ``lax_integrate``, and each row of
that sweep must be its own sweep.
"""

import time
import warnings

import numpy as np
import pytest

from test_spectral_direct import CLOSE_EIGENVALUES, OFFSET_CLUSTERS
from toda import (
    Breakdown,
    DivisorQuasimomentum,
    JacobiMatrix,
    NoHerglotzSolution,
    Overflow,
    PrecisionLimit,
    SpectralData,
    eigen,
    flow_H,
    lanczos_reconstruct,
    pi_from,
    random_jacobi,
    spectral_direct,
    suites,
    theta_from,
    w_from_divisor,
    weyl,
    zeros,
)
from toda._poly import _EPS, _raise_lowest, bracketed_newton, secular_roots
from toda.coordinates import _log_abs_dp, _poles_from_divisor, _quasimomenta, _thetas
from toda.rational_weyl import _values, _zeros
from toda.spectral_direct import _eigenvalues, _nudged_sweep
from toda.spectral_inverse import _lanczos

SIZES = range(2, 13)


def close_in_ulps(stacked, single, ulps=4):
    """|stacked - single| within ``ulps`` units of max(1, |single|)."""
    stacked, single = np.asarray(stacked), np.asarray(single)
    assert stacked.shape == single.shape
    bar = ulps * _EPS * np.maximum(1.0, np.abs(single))
    return bool(np.all(np.abs(stacked - single) <= bar))


def pole_sums(n, count=7, seed=0):
    """Normalized pole sums of one size: Weyl functions of random matrices,
    some pushed along an H flow so the residues spread."""
    rng = np.random.default_rng(1000 * n + seed)
    out = []
    for i in range(count):
        w = weyl(random_jacobi(rng, n))
        out.append(flow_H(w, 1 + i % n, 0.3 * (i % 3)) if i % 2 else w)
    return out


def stack(ws):
    return np.array([w.poles for w in ws]), np.array([w.residues for w in ws])


@pytest.mark.parametrize("n", SIZES)
def test_stacked_zeros_thetas_and_quasimomenta_match_single_calls(n):
    ws = pole_sums(n)
    lam, rho = stack(ws)
    gam = _zeros(lam, rho)
    thetas = _thetas(lam, rho)
    gam_q, pis = _quasimomenta(lam, rho)
    for i, w in enumerate(ws):
        assert close_in_ulps(gam[i], zeros(w).gammas)
        assert close_in_ulps(thetas[i], theta_from(w).thetas)
        dq = pi_from(w)
        assert close_in_ulps(gam_q[i], dq.gammas)
        assert close_in_ulps(pis[i], dq.pis)


@pytest.mark.parametrize("n", SIZES)
def test_quasimomenta_are_bitwise_rows_of_the_stack(n):
    """``pi_from`` reads the divisor kept on its pole sum and ``toda flow``
    solves a stack; both go through ``_pis``, to the same bits."""
    ws = pole_sums(n, seed=2)
    gam, pis = _quasimomenta(*stack(ws))
    for i, w in enumerate(ws):
        dq = pi_from(w)
        np.testing.assert_array_equal(dq.gammas, gam[i])
        np.testing.assert_array_equal(dq.pis, pis[i])


@pytest.mark.parametrize("n", SIZES)
def test_stacked_divisor_inversion_matches_single_calls(n):
    dqs = [pi_from(w) for w in pole_sums(n, seed=1)]
    poles, residues = _poles_from_divisor(
        np.array([dq.gammas for dq in dqs]),
        np.array([dq.pis for dq in dqs]),
        np.array([dq.casimir for dq in dqs]),
    )
    for i, dq in enumerate(dqs):
        w = w_from_divisor(dq)
        assert close_in_ulps(poles[i], w.poles)
        assert close_in_ulps(residues[i], w.residues)


def _zero_brackets(lam, rho):
    """The brackets of ``_zeros``: just inside each gap, or pinned at the
    pole-side edge where the zero hugs its pole."""
    gaps = np.diff(lam)
    eps_edge = 8 * _EPS * np.maximum(1.0, np.abs(lam))
    lo = lam[..., :-1] + np.maximum(1e-13 * gaps, eps_edge[..., :-1])
    hi = lam[..., 1:] - np.maximum(1e-13 * gaps, eps_edge[..., 1:])
    poles, residues = lam[..., None, :], rho[..., None, :]
    left_stuck = _values(poles, residues, lo) >= 0.0
    stuck = left_stuck | (_values(poles, residues, hi) <= 0.0)
    edge = np.where(left_stuck, lo, hi)
    return np.where(stuck, edge, lo), np.where(stuck, edge, hi)


def _closure_zeros(lam, rho, lo, hi):
    """The zero solve before the secular kernel: Newton on w p by its own
    closure."""
    poles = lam[..., None, :]

    def step_side(x):
        t = 1.0 / (poles - x[..., None])
        val = (t @ rho[..., None])[..., 0]
        return val / (((t * t) @ rho[..., None])[..., 0] - val * t.sum(axis=-1)), val > 0.0

    return bracketed_newton(step_side, lo, hi, scale=np.abs(lam).max(-1, keepdims=True))


def _divisor_problem(gam, pis, casimir):
    """Weights, shift and brackets of ``_poles_from_divisor``."""
    a = np.exp(pis - _log_abs_dp(gam))
    alpha = gam.sum(axis=-1) - casimir
    root_a = np.sqrt(a.sum(axis=-1))
    left = gam[:, 0] - (np.abs(gam[:, 0] + alpha) + root_a + 1.0)
    right = gam[:, -1] + (np.abs(gam[:, -1] + alpha) + root_a + 1.0)
    lo = np.concatenate((left[:, None], gam), axis=1)
    hi = np.concatenate((gam, right[:, None]), axis=1)
    return a, alpha[:, None], lo, hi


def _closure_poles(gam, a, alpha, lo, hi):
    """The divisor inversion before the secular kernel: Newton on p = g Omega
    by its own closure."""
    a = a[:, :, None]

    def step_side(x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = 1.0 / (x[:, :, None] - gam[:, None, :])
            g = x + alpha - (t @ a)[..., 0]
            return g / (1.0 + ((t * t) @ a)[..., 0] + g * t.sum(axis=-1)), g > 0.0

    return bracketed_newton(step_side, lo, hi, scale=np.abs(gam).max(axis=1, keepdims=True))


def extreme_charts(n):
    """Divisor charts with every quasimomentum at +30 or -30: poles about
    e^15 from the divisor, or within about e^-30 of it."""
    rng = np.random.default_rng(4000 + n)
    gam = np.cumsum(rng.uniform(0.3, 1.0, (6, n - 1)), axis=1)
    pis = np.repeat([[30.0], [-30.0]], 3, axis=0) * np.ones(n - 1)
    return gam, pis, gam.sum(axis=1) + rng.uniform(-1.0, 1.0, 6)


@pytest.mark.parametrize("n", SIZES)
def test_secular_kernel_is_bitwise_the_two_closures_it_replaced(n):
    """beta = 0 reproduces the zero solve and beta = 1 the divisor inversion
    bit for bit, on the same brackets, and so do their callers."""
    lam, rho = stack(pole_sums(n) + pole_sums(n, seed=2))
    lo, hi = _zero_brackets(lam, rho)
    gam = secular_roots(lam, rho, 0.0, 0.0, lo, hi, np.abs(lam).max(-1, keepdims=True))
    np.testing.assert_array_equal(gam, _closure_zeros(lam, rho, lo, hi))
    np.testing.assert_array_equal(_zeros(lam, rho), gam)
    _, pis = _quasimomenta(lam, rho)
    charts = (gam, pis, lam.sum(axis=1)), extreme_charts(n)
    for chart in charts:
        a, alpha, lo, hi = _divisor_problem(*chart)
        scale = np.abs(chart[0]).max(axis=1, keepdims=True)
        poles = secular_roots(chart[0], a, 1.0, alpha, lo, hi, scale)
        np.testing.assert_array_equal(poles, _closure_poles(chart[0], a, alpha, lo, hi))
        # From N = 8 on, some pi = -30 poles round onto their divisor point
        # (NoHerglotzSolution from the caller's interlacing check).
        if chart is charts[0] or n < 8:
            np.testing.assert_array_equal(_poles_from_divisor(*chart)[0], poles)


@pytest.mark.parametrize("n", [*SIZES, 16, 32, 64])
def test_stacked_lanczos_matches_single_calls(n):
    """Stacks of 11 rows, as many as a sampled flow inverts at once."""
    sds = [eigen(random_jacobi(np.random.default_rng(2000 + n + k), n)) for k in range(11)]
    v, c = _lanczos(np.array([sd.lambdas for sd in sds]), np.array([sd.rhos for sd in sds]))
    for i, sd in enumerate(sds):
        m = lanczos_reconstruct(sd)
        np.testing.assert_array_equal(v[i], m.v)
        np.testing.assert_array_equal(c[i], m.c)


def test_raise_lowest_picks_the_lowest_row_then_the_first_check():
    class First(Exception):
        pass

    class Second(Exception):
        pass

    no, row1, row2 = (np.array(f) for f in ([0, 0, 0], [0, 1, 0], [0, 0, 1]))
    _raise_lowest((no, First, "a"), (no, Second, "b"))
    with pytest.raises(Second):
        _raise_lowest((row2, First, "a"), (row1, Second, "b"))
    with pytest.raises(First):
        _raise_lowest((row1, First, "a"), (row1, Second, "b"))
    # A check computed on a leading part of the stack only.
    with pytest.raises(Second):
        _raise_lowest((row2, First, "a"), (np.array([0, 1]), Second, "b"))


def test_stacked_divisor_inversion_raises_for_its_lowest_failing_row():
    """A row with brackets beyond double range fails with
    NoHerglotzSolution, a row with a huge quasimomentum with Overflow; the
    stack raises for whichever comes first, whatever the other rows hold."""
    good = DivisorQuasimomentum(np.array([-0.5, 0.5]), np.array([0.1, -0.2]), 0.3)
    wide = DivisorQuasimomentum(np.array([-5e307, 5e307]), np.array([0.0, 0.0]), 0.0)
    big = DivisorQuasimomentum(np.array([-0.5, 0.5]), np.array([800.0, 0.0]), 0.0)
    with pytest.raises(NoHerglotzSolution):
        w_from_divisor(wide)
    with pytest.raises(Overflow):
        w_from_divisor(big)

    def run(*dqs):
        return _poles_from_divisor(
            np.array([dq.gammas for dq in dqs]),
            np.array([dq.pis for dq in dqs]),
            np.array([dq.casimir for dq in dqs]),
        )

    poles, _ = run(good, good)
    np.testing.assert_array_equal(poles[1], w_from_divisor(good).poles)
    with pytest.raises(NoHerglotzSolution):
        run(good, wide, big)
    with pytest.raises(Overflow):
        run(good, big, wide)


def test_stacked_lanczos_raises_for_its_lowest_failing_row():
    """Each data set breaks down alone at its own step; a stack reports the
    step of its lowest failing row."""
    late = SpectralData(np.array([0.0, 1.0, 1.0 + 1e-8]), np.array([0.5, 0.5 - 1e-20, 1e-20]))
    early = SpectralData(np.array([0.0, 1e-8, 2e-8]), np.array([1 - 2e-12, 1e-12, 1e-12]))
    fine = SpectralData(np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))
    with pytest.raises(Breakdown, match="step 1"):
        lanczos_reconstruct(late)
    with pytest.raises(Breakdown, match="step 0"):
        lanczos_reconstruct(early)
    for rows, step in (((fine, late, early), 1), ((fine, early, late), 0)):
        with pytest.raises(Breakdown, match="step %d" % step):
            _lanczos(np.array([sd.lambdas for sd in rows]), np.array([sd.rhos for sd in rows]))


def test_stacked_lanczos_raises_overflow_or_breakdown_for_its_lowest_failing_row():
    """A row whose matrix overflows float64 raises ``PrecisionLimit`` alone
    and in a stack below a row that breaks down; above it, ``Breakdown``."""
    over = SpectralData(np.array([-1e300, 0.0, 1e300]), np.array([0.25, 0.5, 0.25]))
    late = SpectralData(np.array([0.0, 1.0, 1.0 + 1e-8]), np.array([0.5, 0.5 - 1e-20, 1e-20]))
    fine = SpectralData(np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionLimit, match="reconstruction overflows"):
            lanczos_reconstruct(over)
    for rows, error in (((fine, over, late), PrecisionLimit), ((fine, late, over), Breakdown)):
        with pytest.raises(error):
            _lanczos(np.array([sd.lambdas for sd in rows]), np.array([sd.rhos for sd in rows]))


def _parent_lanczos(lam, rho):
    """The list-based route that the block Lanczos replaced: modified
    Gram-Schmidt against each earlier vector in turn, twice, in the
    rho-weighted inner product."""
    n = lam.size

    def ip(a, b):
        return float(np.sum(rho * a * b))

    phi = np.ones(n) / np.sqrt(float(np.sum(rho)))
    phi_prev, basis = np.zeros(n), [phi]
    v, c, c_prev = np.empty(n), np.empty(n - 1), 0.0
    for k in range(n):
        v[k] = ip(lam * phi, phi)
        if k == n - 1:
            break
        u = (lam - v[k]) * phi - c_prev * phi_prev
        for _ in range(2):
            for b in basis:
                u = u - ip(u, b) * b
        c[k] = c_prev = np.sqrt(ip(u, u))
        phi_prev, phi = phi, u / c[k]
        basis.append(phi)
    return v, c


@pytest.mark.parametrize("n", range(1, 17))
def test_block_lanczos_matches_the_list_route(n):
    rng = np.random.default_rng(3000 + n)
    for _ in range(10):
        sd = eigen(random_jacobi(rng, n))
        m = lanczos_reconstruct(sd)
        v, c = _parent_lanczos(sd.lambdas, sd.rhos)
        np.testing.assert_allclose(m.v, v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.c, c, rtol=0, atol=1e-12)


def test_lanczos_at_128_sites_is_fast():
    """Best of five under 10 ms (the list route took about 100 ms)."""
    sd = eigen(random_jacobi(np.random.default_rng(128), 128))
    best = np.inf
    for _ in range(5):
        start = time.perf_counter()
        lanczos_reconstruct(sd)
        best = min(best, time.perf_counter() - start)
    assert best < 10e-3



def _eigen_outcome(m):
    """``eigen(m)`` as its two arrays, or as the class and message it raises."""
    try:
        sd = eigen(m)
    except PrecisionLimit as exc:
        return type(exc), str(exc)
    return sd.lambdas, sd.rhos


def assert_stacked_eigen_is_single_eigen(ms):
    """Each matrix's ``_eigenvalues`` are bitwise the eigenvalues of its
    ``eigen`` (where that does not raise), and the Newton sweep of the
    stack (``_nudged_sweep``, as the audit of ``lax_integrate`` runs it) at
    each row's eigenvalues, and at points a little off them, is bitwise
    each row's own sweep."""
    lam = np.array([_eigenvalues(m.v, m.c) for m in ms])
    for row, m in zip(lam, ms):
        out = _eigen_outcome(m)
        if not isinstance(out[0], type):
            np.testing.assert_array_equal(row, out[0])
    v, c = np.array([m.v for m in ms]), np.array([m.c for m in ms])
    scale = float(np.max(np.abs(lam)))
    nudge = 8.0 * _EPS * scale
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (lam, lam * (1.0 + 1e-9), lam + 1e-3 * scale):
            cnt, step = _nudged_sweep(v, c, x, nudge)
            assert cnt.shape == step.shape == x.shape
            for b in range(len(ms)):
                want_cnt, want_step = _nudged_sweep(v[b], c[b], x[b], nudge)
                np.testing.assert_array_equal(cnt[b], want_cnt)
                np.testing.assert_array_equal(step[b], want_step)


@pytest.mark.parametrize("n", range(2, 33))
def test_stacked_eigen_rows_are_bitwise_single_calls(n):
    """Random draws, and draws rescaled by up to 1e2 either way (diagonal
    and couplings apart), so that the rows of a stack differ in scale."""
    rng = np.random.default_rng(5000 + n)
    ms = [random_jacobi(rng, n) for _ in range(4)]
    ms += [
        JacobiMatrix(m.v * 10.0 ** rng.uniform(-2, 2), m.c * 10.0 ** rng.uniform(-2, 2))
        for m in (random_jacobi(rng, n) for _ in range(3))
    ]
    assert_stacked_eigen_is_single_eigen(ms)


@pytest.mark.parametrize(
    "m", [*CLOSE_EIGENVALUES.values(), *OFFSET_CLUSTERS.values()],
    ids=[*CLOSE_EIGENVALUES, *OFFSET_CLUSTERS],
)
def test_stacked_eigen_rows_on_close_eigenvalues(m):
    """Each matrix of the multisection close set, stacked with its mirror
    image and a random draw of its size."""
    rng = np.random.default_rng(m.n)
    assert_stacked_eigen_is_single_eigen(
        [m, JacobiMatrix(m.v[::-1], m.c[::-1]), random_jacobi(rng, m.n)]
    )


def test_stacked_eigen_rows_of_mixed_grid_depths(monkeypatch):
    """Offsets of 1e11 and 1e13 cut the multisection tree short (its cells
    would reach bisection's floor): each matrix takes the depth of its own
    bracket, so the unshifted draws take the full tree and the shifted ones
    two shorter depths, and every row is still
    its own solve and its own sweep."""
    grids = []
    sweep = spectral_direct._pivot_sweep

    def recording(v, c, x):
        grids.append(x.size)
        return sweep(v, c, x)

    rng = np.random.default_rng(61)
    ms = []
    for offset in (0.0, 1e11, 1e13, 0.0, 1e13):
        m = random_jacobi(rng, 6)
        ms.append(JacobiMatrix(m.v + offset, m.c))
    monkeypatch.setattr(spectral_direct, "_pivot_sweep", recording)
    for m in ms:
        _eigenvalues(m.v, m.c)
    monkeypatch.undo()
    # N = 6 refines lane by lane, so the grid is each solve's only sweep.
    assert len(grids) == len(ms)
    assert grids[0] == grids[3] == max(grids) and len(set(grids)) == 3
    assert_stacked_eigen_is_single_eigen(ms)


def test_stacked_eigen_raises_for_its_lowest_failing_row(monkeypatch):
    """Wilkinson's W23 raises ``PrecisionLimit`` for eigenvalues float64
    cannot separate, a chain with couplings of 1e-30 for weights past
    float64.  The verify samples solve their matrices one by one in draw
    order, so a draw with both raises the message of whichever comes
    first."""
    rng = np.random.default_rng(23)
    fine = random_jacobi(rng, 23)
    w23 = JacobiMatrix(np.abs(np.arange(23) - 11.0), np.ones(22))
    heavy = JacobiMatrix(np.arange(23.0), np.full(22, 1e-30))
    close, overflow = _eigen_outcome(w23), _eigen_outcome(heavy)
    assert close[0] is overflow[0] is PrecisionLimit and close[1] != overflow[1]
    draw = suites.random_jacobi
    for rows, want in (((fine, w23, heavy, fine), close), ((fine, heavy, w23, fine), overflow)):
        queue = list(rows)
        monkeypatch.setattr(
            suites, "random_jacobi", lambda rng, n: queue.pop(0) if n == 23 else draw(rng, n)
        )
        suites._samples.cache_clear()
        try:
            with pytest.raises(PrecisionLimit, match=want[1]):
                suites._samples(7, 23)
        finally:
            suites._samples.cache_clear()
        assert queue == []
    monkeypatch.undo()
    assert_stacked_eigen_is_single_eigen([fine, heavy, w23])
