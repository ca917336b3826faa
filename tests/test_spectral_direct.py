"""Tests for the forward spectral transform.

Oracle: numpy's dense symmetric eigensolver; weights are the squared first
components of the normalized eigenvectors.
"""

import math
import warnings

import numpy as np
import pytest

from toda import (
    AtPole,
    ConvergenceFailure,
    InvalidData,
    JacobiMatrix,
    PrecisionLimit,
    RationalHerglotz,
    SpectralData,
    TodaError,
    divisor,
    eigen,
    gluing_check,
    random_jacobi,
    spectral_direct,
    spectral_from_weyl,
    truncate,
    weyl,
    weyl_from_spectral,
    weyl_solution_residual,
    zeros,
)
from families import dual_hahn, hahn, krawtchouk
from toda._poly import _EPS, _TINY, bracketed_newton, offspectrum_samples


def random_matrix(rng, n):
    return JacobiMatrix(rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 2.0, max(n - 1, 0)))


def dense_spectrum(m):
    lam, vec = np.linalg.eigh(m.as_dense())
    return lam, vec[0, :] ** 2


# Off-diagonal at 1e-8 with a 10% spread: the characteristic polynomial
# underflows at bracket ends, so only the Sturm count can tell the sides.
BADLY_SCALED = JacobiMatrix(np.zeros(30), 1e-8 + np.linspace(0.0, 1e-9, 29))
# Wilkinson's W21+: its top two eigenvalues are about 7e-14 apart.
WILKINSON_21 = JacobiMatrix(np.abs(np.arange(21) - 10.0), np.ones(20))
_UNIT = random_jacobi(np.random.default_rng(49), 12)


def test_eigen_matches_dense_solver():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 5, 8, 12):
        for _ in range(4):
            m = random_matrix(rng, n)
            sd = eigen(m)
            lam, rho = dense_spectrum(m)
            scale = max(1.0, np.max(np.abs(lam)))
            np.testing.assert_allclose(sd.lambdas, lam, atol=1e-11 * scale, rtol=0)
            np.testing.assert_allclose(sd.rhos, rho, atol=1e-10, rtol=0)


def test_weights_sum_to_one_tightly():
    rng = np.random.default_rng(42)
    for n in (2, 5, 9):
        sd = eigen(random_matrix(rng, n))
        assert abs(float(np.sum(sd.rhos)) - 1.0) <= 1e-12


def test_single_site_spectrum():
    sd = eigen(JacobiMatrix(np.array([3.25]), np.array([])))
    assert sd.lambdas == pytest.approx([3.25])
    assert sd.rhos == pytest.approx([1.0])


def test_two_site_example_spectrum():
    sd = eigen(JacobiMatrix(np.array([1.0, 1.0]), np.array([1.0])))
    np.testing.assert_allclose(sd.lambdas, [0.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(sd.rhos, [0.5, 0.5], atol=1e-14)


def test_spectral_data_validation():
    with pytest.raises(InvalidData):
        SpectralData(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(InvalidData):
        SpectralData(np.array([0.0, 1.0]), np.array([-0.5, 1.5]))
    with pytest.raises(InvalidData):
        SpectralData(np.array([0.0, 1.0]), np.array([0.5, 0.4]))
    with pytest.raises(InvalidData):
        SpectralData(np.array([0.0, np.inf]), np.array([0.5, 0.5]))


def test_divisor_is_spectrum_of_truncation():
    rng = np.random.default_rng(43)
    for n in (2, 4, 7):
        m = random_matrix(rng, n)
        got = divisor(m).gammas
        want = np.linalg.eigvalsh(truncate(m, 1, n - 1).as_dense())
        np.testing.assert_allclose(got, want, atol=1e-11, rtol=0)
    with pytest.raises(InvalidData):
        divisor(JacobiMatrix(np.array([1.0]), np.array([])))


def test_divisor_forms_no_weights():
    """At N = 400 the weight sums of ``eigen`` overflow (PrecisionLimit), but
    the divisor needs eigenvalues only; the one-point divisor of N = 2 is
    the second diagonal entry."""
    m = random_jacobi(np.random.default_rng(0), 400)
    with pytest.raises(PrecisionLimit, match="overflow"):
        eigen(truncate(m, 1, 399))
    want = np.linalg.eigvalsh(truncate(m, 1, 399).as_dense())
    np.testing.assert_allclose(divisor(m).gammas, want, rtol=1e-12, atol=0)
    assert divisor(JacobiMatrix(np.array([0.5, -0.25]), np.array([1.0]))).gammas.tolist() == [-0.25]


def test_weyl_equals_resolvent_corner():
    """w(z) = sum rho_k/(lambda_k - z) is the (0,0) entry of (L - z)^(-1);
    compare against a dense linear solve."""
    rng = np.random.default_rng(44)
    m = random_matrix(rng, 5)
    w = weyl(m)
    from toda import evaluate

    for z in (-4.0, 0.123 + 1.0j, 7.5):
        dense = np.asarray(m.as_dense(), dtype=complex)
        e0 = np.zeros(m.n)
        e0[0] = 1.0
        corner = np.linalg.solve(dense - z * np.eye(m.n), e0)[0]
        want = corner if isinstance(z, complex) else corner.real
        assert evaluate(w, z) == pytest.approx(want, rel=1e-10)


def test_spectral_weyl_conversions_roundtrip():
    rng = np.random.default_rng(45)
    m = random_matrix(rng, 6)
    sd = eigen(m)
    w = weyl_from_spectral(sd)
    back = spectral_from_weyl(w)
    np.testing.assert_allclose(back.lambdas, sd.lambdas, rtol=0, atol=0)
    np.testing.assert_allclose(back.rhos, sd.rhos, rtol=0, atol=0)


def test_spectral_from_weyl_requires_normalization():
    w = RationalHerglotz(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(InvalidData):
        spectral_from_weyl(w)


def test_weyl_solution_solves_the_jacobi_equation():
    """w(lam) is the first entry u_0 of the solution of (L - lam) u = e_0,
    at interior gap midpoints (tight bound) and just beyond the edges
    (loose bound)."""
    rng = np.random.default_rng(46)
    for n in (2, 4, 8, 10):
        m = random_matrix(rng, n)
        w = weyl(m)
        lam0 = w.poles
        span = lam0[-1] - lam0[0]
        for g in 0.5 * (lam0[:-1] + lam0[1:]):
            if np.min(np.abs(g - lam0)) > 1e-3:
                assert weyl_solution_residual(m, w, g) <= 1e-9
        for pt in (lam0[0] - 0.05 * span, lam0[-1] + 0.05 * span):
            assert weyl_solution_residual(m, w, pt) <= 1e-8


def test_weyl_solution_closed_form_examples():
    e1 = JacobiMatrix(np.array([1.0, 1.0]), np.array([1.0]))
    assert weyl_solution_residual(e1, weyl(e1), -1.0) <= 1e-12
    single = JacobiMatrix(np.array([0.7]), np.array([]))
    assert weyl_solution_residual(single, weyl(single), 1.7) <= 1e-15
    chain = JacobiMatrix(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0]))
    assert weyl_solution_residual(chain, weyl(chain), 10.0) <= 1e-9


def test_weyl_solution_rejects_spectrum_points():
    m = JacobiMatrix(np.array([1.0, 1.0]), np.array([1.0]))
    with pytest.raises(AtPole, match="the Weyl solution has a pole on the spectrum"):
        weyl_solution_residual(m, weyl(m), 2.0)


def test_gluing_check_is_small():
    rng = np.random.default_rng(47)
    for n in (2, 5, 10):
        m = random_matrix(rng, n)
        assert gluing_check(m, weyl(m)) <= 1e-9


def test_gluing_pole_half_stays_at_rounding_level():
    """The pole half of gluing_check reads the Newton correction at each
    pole: at most 2.6e-16 over 300 matrices per size, N = 4 to 64, no growth
    in N."""
    rng = np.random.default_rng(49)
    for n in (14, 16, 18, 20, 32, 64):
        for _ in range(10):
            m = random_jacobi(rng, n)
            assert spectral_direct._pole_residual(m, weyl(m).poles) <= 1e-15


def test_gluing_pole_half_on_leading_block_eigenvalues():
    """Eigenvalue 0 of these chains is also one of the leading 1x1 block,
    where the first pivot vanishes and the step is taken from beside it."""
    for v in ([0.0, 1.0, 0.0], [0.0, 0.0, 0.0]):
        m = JacobiMatrix(np.array(v), np.ones(2))
        w = weyl(m)
        assert spectral_direct._pole_residual(m, w.poles) <= 1e-15
        assert gluing_check(m, w) <= 1e-14


def _nudged_pole_residual(m, poles):
    """The pole check as one ``_nudged_sweep`` over all poles, the route it
    takes above N = 16."""
    top = max(1.0, float(np.max(np.abs(poles))))
    _, step = spectral_direct._nudged_sweep(m.v, m.c, poles, 8.0 * _EPS * top)
    return float(np.max(np.abs(step))) / top


def _assert_pole_residual_is_the_nudged_sweep(m, poles):
    got = spectral_direct._pole_residual(m, poles)
    want = _nudged_pole_residual(m, poles)
    assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)


def test_pole_residual_is_the_nudged_sweep_bitwise():
    """Up to N = 16 the poles go one ``_scalar_point`` each, a retake from
    beside the pole included, bitwise the one-sweep route: on random draws
    at N = 2..24, on the same draws scaled by 2^-600 and 2^600 (where the
    squared couplings underflow or overflow), on the exact families at
    their eigenvalues and on the eigenvalues of every leading block of two
    or more sites (rounding-level pivots).  A single pole is left out:
    numpy sums the ratios of one point pairwise from N = 8 on."""
    rng = np.random.default_rng(62)
    retaken = 0
    for n in range(2, 25):
        for m in (random_jacobi(rng, n), random_matrix(rng, n)):
            lam = eigen(m).lambdas
            _assert_pole_residual_is_the_nudged_sweep(m, lam)
            for e in (-600, 600):
                scaled = JacobiMatrix(np.ldexp(m.v, e), np.ldexp(m.c, e))
                _assert_pole_residual_is_the_nudged_sweep(scaled, np.ldexp(lam, e))
            for j in range(2, n):
                block = eigen(truncate(m, 0, j - 1)).lambdas
                _assert_pole_residual_is_the_nudged_sweep(m, block)
                retaken += int((~np.isfinite(spectral_direct._pivot_sweep(m.v, m.c, block)[1])).sum())
        for v, c, lam, _ in (krawtchouk(n, 0.3), krawtchouk(n, 0.5), hahn(n, 0.5, 1.5)):
            _assert_pole_residual_is_the_nudged_sweep(JacobiMatrix(v, c), lam)
    assert retaken > 100


def test_nudged_sweep_retakes_only_the_steps_that_are_not_finite():
    """At 0, an eigenvalue of the leading 1x1 block, the first pivot
    vanishes: that step is retaken from 0 + nudge and moved back, the other
    steps are the plain sweep's, and a stack retakes only its stuck rows,
    bitwise as each row on its own."""
    m = JacobiMatrix(np.array([0.0, 1.0, 0.0]), np.ones(2))
    x = np.array([0.0, 0.4, 1.7])
    nudge = 8.0 * np.finfo(float).eps
    cnt, step = spectral_direct._pivot_sweep(m.v, m.c, x)
    assert not np.isfinite(step[0]) and np.isfinite(step[1:]).all()
    got_cnt, got = spectral_direct._nudged_sweep(m.v, m.c, x, nudge)
    beside = spectral_direct._pivot_sweep(m.v, m.c, x + nudge)[1]
    np.testing.assert_array_equal(got_cnt, cnt)
    np.testing.assert_array_equal(got, [beside[0] - nudge, step[1], step[2]])
    stack_v, stack_c = np.array([m.v, [0.5, 1.0, 0.2]]), np.array([m.c, [0.3, 0.9]])
    _, rows = spectral_direct._nudged_sweep(stack_v, stack_c, np.array([x, x]), nudge)
    for b in range(2):
        one = spectral_direct._nudged_sweep(stack_v[b:b + 1], stack_c[b:b + 1], x[None], nudge)
        np.testing.assert_array_equal(rows[b], one[1][0])
    assert np.isfinite(rows).all()


def test_gluing_check_catches_a_moved_pole():
    """Moving any one pole of the Weyl function by 1e-6 fails the 1e-9 bar;
    for the lowest pole here only the pole half of the check sees it."""
    m = random_jacobi(np.random.default_rng(5), 6)
    w = weyl(m)
    for k in range(m.n):
        poles = w.poles.copy()
        poles[k] += 1e-6
        assert gluing_check(m, RationalHerglotz(poles, w.residues)) > 1e-9


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_both_checks_catch_a_moved_residue(seed):
    """Moving one residue by 1e-6 (then renormalizing) keeps every pole
    exact, so only the off-spectrum identity w = ((L - x)^-1)_00 can see
    it; both checks do, at the suite's sample point."""
    m = random_jacobi(np.random.default_rng(seed), 6)
    w = weyl(m)
    x = offspectrum_samples(w.poles, 3)[1]
    for k in range(m.n):
        rho = w.residues.copy()
        rho[k] += 1e-6
        moved = RationalHerglotz(w.poles, rho / rho.sum())
        assert gluing_check(m, moved) > 1e-9
        assert weyl_solution_residual(m, moved, x) > 1e-9


_EXACT_FAMILIES = {
    "krawtchouk": (krawtchouk, 0.5),
    "hahn": (hahn, 0.5, 2.0),
    "dual_hahn": (dual_hahn, 0.5, 2.0),
}


def _exact_pole_sum(family, n):
    """Krawtchouk(1/2), Hahn(1/2, 2) or dual Hahn(1/2, 2) at n sites, with
    its closed-form pole sum."""
    build, *args = _EXACT_FAMILIES[family]
    v, c, lam, logw = build(n, *args)
    return JacobiMatrix(v, c), RationalHerglotz(lam, np.exp(logw))


def _exact_cases(krawtchouk_sizes):
    """Krawtchouk(1/2) at the given sizes, Hahn(1/2, 2) at 16, 36 and 60
    sites and dual Hahn(1/2, 2) at 16 and 64."""
    return (
        [pytest.param("krawtchouk", n, id=str(n)) for n in krawtchouk_sizes]
        + [pytest.param("hahn", n, id=f"hahn-{n}") for n in (16, 36, 60)]
        + [pytest.param("dual_hahn", n, id=f"dual_hahn-{n}") for n in (16, 64)]
    )


@pytest.mark.parametrize("family, n", _exact_cases((8, 16, 32, 64, 128, 256, 1024)))
def test_gluing_check_on_exact_krawtchouk_data(family, n):
    """The closed-form pole sum, not one computed from the matrix, passes
    the gate-4 bar."""
    m, w = _exact_pole_sum(family, n)
    assert gluing_check(m, w) <= 1e-9


@pytest.mark.parametrize("family, n", _exact_cases((8, 16, 24, 32, 64, 128, 256, 1024)))
def test_weyl_solution_on_exact_krawtchouk_data(family, n):
    """The residual at the suite's point on the closed-form pole sum.  On
    zero-diagonal Krawtchouk data at 8 and 16 sites that point is 0, an
    eigenvalue of every odd-size trailing block: a backward pivot vanishes
    there and is floored."""
    m, w = _exact_pole_sum(family, n)
    assert weyl_solution_residual(m, w, offspectrum_samples(w.poles, 3)[1]) <= 1e-9


def test_gluing_check_single_site_is_zero():
    m = JacobiMatrix(np.array([0.3]), np.array([]))
    assert gluing_check(m, weyl(m)) == 0.0


def test_eigen_matches_dense_solver_at_larger_sizes():
    rng = np.random.default_rng(48)
    for n in (16, 32, 64):
        for _ in range(3):
            m = random_jacobi(rng, n)
            lam = np.linalg.eigvalsh(m.as_dense())
            scale = max(1.0, float(np.max(np.abs(lam))))
            np.testing.assert_allclose(eigen(m).lambdas, lam, atol=1e-13 * scale, rtol=0)


def test_badly_scaled_spectrum_and_divisor_stay_increasing():
    m = BADLY_SCALED
    for got, dense in (
        (eigen(m).lambdas, m.as_dense()),
        (divisor(m).gammas, truncate(m, 1, m.n - 1).as_dense()),
    ):
        want = np.linalg.eigvalsh(dense)
        assert np.all(np.diff(got) > 0.0)
        np.testing.assert_allclose(got, want, atol=1e-13 * float(np.max(np.abs(want))), rtol=0)


def test_wilkinson_close_pair_is_resolved():
    sd = eigen(WILKINSON_21)
    want = np.linalg.eigvalsh(WILKINSON_21.as_dense())
    assert want[-1] - want[-2] < 1e-13
    assert np.all(np.diff(sd.lambdas) > 0.0)
    assert float(np.max(np.abs(sd.lambdas - want))) <= 1e-14


@pytest.mark.parametrize(
    "m",
    [
        JacobiMatrix(np.abs(np.arange(23) - 11.0), np.ones(22)),
        # two copies of W21 glued by a 1e-6 coupling
        JacobiMatrix(np.tile(WILKINSON_21.v, 2), np.r_[WILKINSON_21.c, 1e-6, WILKINSON_21.c]),
        JacobiMatrix(np.array([0.0, 1.0, 0.0]), np.full(2, 1e-8)),
    ],
    ids=["wilkinson-23", "glued-wilkinson-21", "weak-chain-1e-8"],
)
def test_eigenvalues_float64_cannot_separate(m):
    """Distinct eigenvalues that round together raise the precision-limit
    class, not the invalid-data one that would blame the matrix."""
    with pytest.raises(PrecisionLimit, match="eigenvalues closer than float64 can separate") as exc:
        eigen(m)
    assert not isinstance(exc.value, InvalidData)


@pytest.mark.parametrize(
    "m",
    [
        BADLY_SCALED,
        WILKINSON_21,
        # Symmetric brackets put the first midpoint on the zero eigenvalue
        # of every odd leading block: exactly zero pivots.
        JacobiMatrix(np.zeros(9), np.ones(8)),
        JacobiMatrix(1e6 * _UNIT.v, 1e6 * _UNIT.c),
    ],
    ids=["badly-scaled", "wilkinson-21", "zero-pivots", "scale-1e6"],
)
def test_edge_cases_emit_no_runtime_warning(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lam = eigen(m).lambdas
        gam = divisor(m).gammas
        assert np.all(lam[:-1] < gam) and np.all(gam < lam[1:])
        assert zeros(weyl(m)).n == m.n - 1


def test_eigen_sweep_count(monkeypatch):
    """Bisection stops once each eigenvalue is isolated, so the pivot sweeps
    per call stay far below bisecting every bracket to full precision."""
    calls = []
    sweep = spectral_direct._pivot_sweep

    def counting(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(spectral_direct, "_pivot_sweep", counting)
    rng = np.random.default_rng(51)
    for _ in range(50):
        eigen(random_jacobi(rng, 12))
    assert len(calls) / 50 <= 25


def _assert_stack_is_its_rows(v, c, x):
    """The stack's counts and steps are each row's own sweep, bitwise: the
    live one-matrix sweep and the frozen numpy rows."""
    cnt, step = spectral_direct._pivot_sweep(v, c, x)
    assert cnt.shape == step.shape == x.shape
    for b in range(v.shape[0]):
        for want_cnt, want_step in (spectral_direct._pivot_sweep(v[b], c[b], x[b]),
                                    _numpy_rows_sweep(v[b], c[b], x[b])):
            np.testing.assert_array_equal(cnt[b], want_cnt)
            np.testing.assert_array_equal(step[b], want_step)
    return cnt


def test_stacked_sweep_matches_row_by_row_sweeps():
    """A stack of matrices swept at once gives each matrix's own counts and
    Newton steps, bitwise, including a point on a rounding-level pivot and
    one on a small pivot well above rounding; up to 64 sites, scaled by
    2^-600 (squared couplings underflow), 2^300 and 2^600 (they overflow),
    and at one point per row."""
    rng = np.random.default_rng(52)
    for n in (2, 3, 5, 9, 17, 33, 64):
        ms = [random_jacobi(rng, n) for _ in range(6)]
        v = np.array([m.v for m in ms])
        c = np.array([m.c for m in ms])
        x = np.array([eigen(m).lambdas + rng.uniform(-1e-3, 1e-3, n) for m in ms])
        x[0, 0] = ms[0].v[0]
        x[1, 0] = ms[1].v[0] + 1e-9
        for scale in (1.0, 2.0**-600, 2.0**300, 2.0**600):
            _assert_stack_is_its_rows(scale * v, scale * c, scale * x)
            _assert_stack_is_its_rows(scale * v, scale * c, scale * x[:, :1])


def test_stacked_sweep_floors_each_row_by_its_own_couplings():
    """Rows with couplings up to 1 and 1e3 have pivot floors of about
    1e-292 and 1e-286; the last pivot of the first row at x = 0 is about
    1e-289, between them.  Each row keeps its own floor, so the stack counts
    and steps as the rows do alone (under the larger floor that pivot would
    turn negative and count an eigenvalue below 0).  Likewise up to 64
    sites, with couplings of order 1 to 1e120 by row (floors of about
    1e-292 to 1e-52) and the first row's last pivot at x = 0 about 1e-100,
    also scaled by 2^+-600 and at one point per row."""
    v = np.array([[2.0, 1.5, 1e-289], [0.2, 0.0, 0.1]])
    c = np.array([[1.0, 1e-150], [1e3, 2.0]])
    x = np.array([[0.0, 3.0], [0.3, -0.6]])
    cnt = _assert_stack_is_its_rows(v, c, x)
    assert cnt[0, 0] == 0
    rng = np.random.default_rng(53)
    for n in (2, 5, 17, 64):
        ms = [random_jacobi(rng, n) for _ in range(4)]
        v = np.array([m.v for m in ms])
        c = np.array([m.c * 1e40**b for b, m in enumerate(ms)])
        v[0, -1], c[0, -1] = 1e-100, 1e-150
        x = np.array([rng.uniform(-3.0, 3.0, n) for _ in ms])
        x[0, 0] = 0.0
        for scale in (1.0, 2.0**-600, 2.0**600):
            _assert_stack_is_its_rows(scale * v, scale * c, scale * x)
            _assert_stack_is_its_rows(scale * v, scale * c, scale * x[:, :1])


def _first_kind_table(m, lam):
    """P_0..P_{N-1} at each of the points ``lam`` by the forward three-term
    recurrence, as the recurrence table the weights kernel replaced built
    them.  Kept frozen as the oracle of ``eigen``'s weights."""
    p = np.zeros((m.n,) + lam.shape)
    p[0] = 1.0
    if m.n > 1:
        p[1] = (lam - m.v[0]) / m.c[0]
    for k in range(1, m.n - 1):
        p[k + 1] = ((lam - m.v[k]) * p[k] - m.c[k - 1] * p[k - 1]) / m.c[k]
    return p


def test_eigen_weights_are_the_recurrence_table_weights_bitwise():
    """``eigen``'s weights kernel is the first-kind recurrence table route it
    replaced, bit for bit, on sizes 1 to 64."""
    rng = np.random.default_rng(54)
    for n in range(1, 65):
        m = random_jacobi(rng, n)
        sd = eigen(m)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            table = _first_kind_table(m, sd.lambdas)
        rho = 1.0 / (table**2).sum(axis=0)
        np.testing.assert_array_equal(sd.rhos, rho / float(np.sum(rho)))


def _lockstep_eigenvalues(v, c, tree=True):
    """``_eigenvalues`` of one matrix as it was before ``_scalar_refine``:
    the multisection grid and cell lookup (with ``tree=False``, none: every
    eigenvalue bisects from the padded Gershgorin interval), then bisection
    until each eigenvalue is alone (or at the 1e-14 floor) and bracketed
    Newton, both in lockstep over all eigenvalues, one ``_pivot_sweep`` per
    step.  Kept frozen as the oracle of the lane-by-lane refine."""
    sweep = spectral_direct._pivot_sweep
    n = v.size
    reach = np.concatenate((c, [0.0])) + np.concatenate(([0.0], c))
    lo0, hi0 = float(np.min(v - reach)), float(np.max(v + reach))
    pad = 1e-6 * max(1.0, hi0 - lo0)
    a, b = lo0 - pad, hi0 + pad
    levels = (min((32 * n).bit_length(), 10) if n <= 32 else n.bit_length() - 1) if tree else 0
    while levels and (b - a) * 0.5**levels <= 2e-14 * max(1.0, abs(a), abs(b)):
        levels -= 1
    grid = np.array([a, b])
    for _ in range(levels):
        grid = np.insert(grid, np.arange(1, grid.size), 0.5 * (grid[:-1] + grid[1:]))
    counts = np.r_[0, sweep(v, c, grid[1:-1])[0], n]
    want = np.arange(1, n + 1)
    cell = np.searchsorted(counts, want)
    lo, hi, clo, chi = grid[cell - 1], grid[cell], counts[cell - 1], counts[cell]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        todo = (chi - clo > 1) & ((hi - lo) > 1e-14 * np.maximum(1.0, np.abs(mid)))
        if not todo.any():
            break
        cnt, _ = sweep(v, c, mid)
        upper, lower = todo & (cnt >= want), todo & (cnt < want)
        hi, chi = np.where(upper, mid, hi), np.where(upper, cnt, chi)
        lo, clo = np.where(lower, mid, lo), np.where(lower, cnt, clo)
    else:
        raise ConvergenceFailure("eigenvalue bisection hit the iteration cap")

    def step_side(x):
        cnt, step = sweep(v, c, x)
        return step, cnt >= want

    return bracketed_newton(step_side, lo, hi, scale=max(abs(lo0), abs(hi0)))


def _bisected_eigenvalues(v, c):
    """The eigenvalue solve without multisection; the reference the tree
    grid must match."""
    return _lockstep_eigenvalues(v, c, tree=False)


def _wilkinson(n):
    return JacobiMatrix(np.abs(np.arange(n) - (n - 1) / 2.0), np.ones(n - 1))


# Eigenvalues closer than float64 separates, or close to it: Wilkinson
# matrices, two W21 glued by a weak coupling, weakly coupled chains.
CLOSE_EIGENVALUES = {
    **{"wilkinson-%d" % n: _wilkinson(n) for n in (7, 21, 39)},
    **{
        "glued-w21-1e%d" % e: JacobiMatrix(
            np.tile(WILKINSON_21.v, 2), np.r_[WILKINSON_21.c, 10.0**e, WILKINSON_21.c]
        )
        for e in range(-9, -2)
    },
    **{
        "chain%d-1e%d" % (n, e): JacobiMatrix(np.arange(n) % 2.0, np.full(n - 1, 10.0**e))
        for n in (3, 5)
        for e in range(-9, -4)
    },
}


# At an offset of 1e8 bisection's 1e-14 floor stops above the top level
# of the tree, so the grid is the bare interval.
OFFSET_CLUSTERS = {
    "offset-pair": JacobiMatrix(np.full(2, 1e8), np.array([1e-9])),
    "offset-chain": JacobiMatrix(1e8 + 1e-7 * (np.arange(5) % 2.0), np.full(4, 1e-9)),
}


def _assert_within_two_ulp(got, want):
    assert np.all(np.abs(got - want) <= 2.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(want)))


def test_multisection_matches_bisection_on_random_matrices():
    rng = np.random.default_rng(53)
    for n in range(2, 65):
        for m in (random_jacobi(rng, n), random_matrix(rng, n)):
            got = spectral_direct._eigenvalues(m.v, m.c)
            _assert_within_two_ulp(got, _bisected_eigenvalues(m.v, m.c))


@pytest.mark.parametrize(
    "m", [*CLOSE_EIGENVALUES.values(), *OFFSET_CLUSTERS.values()],
    ids=[*CLOSE_EIGENVALUES, *OFFSET_CLUSTERS],
)
def test_multisection_matches_bisection_on_close_eigenvalues(m):
    """Eigenvalues that share a tree cell bisect from it exactly as they
    would from the whole interval, so the cluster brackets, and with them
    the values and the ``PrecisionLimit`` outcome, stay as they were."""
    got = spectral_direct._eigenvalues(m.v, m.c)
    want = _bisected_eigenvalues(m.v, m.c)
    _assert_within_two_ulp(got, want)
    assert np.all(np.diff(got) > 0.0) == np.all(np.diff(want) > 0.0)


@pytest.mark.parametrize(
    "m",
    [_UNIT, BADLY_SCALED, *CLOSE_EIGENVALUES.values()],
    ids=["unit-12", "badly-scaled", *CLOSE_EIGENVALUES],
)
def test_tree_grid_counts_are_nondecreasing(m, monkeypatch):
    """The first sweep counts at the tree nodes; ``searchsorted`` finds each
    eigenvalue's cell only if the counts never fall along the grid."""
    swept = []
    sweep = spectral_direct._pivot_sweep

    def recording(v, c, x):
        cnt, step = sweep(v, c, x)
        swept.append((x, cnt))
        return cnt, step

    monkeypatch.setattr(spectral_direct, "_pivot_sweep", recording)
    spectral_direct._eigenvalues(m.v, m.c)
    x, cnt = swept[0]
    assert x.size >= 31 and np.all(np.diff(x) > 0.0)
    assert np.all(np.diff(cnt) >= 0)


def test_eigen_brackets_from_one_multisection_sweep(monkeypatch):
    """Performance guard: one sweep over the top of the bisection tree
    replaces the shared bisection levels, so ``eigen`` stays within 8 pivot
    sweeps per call at N = 8 and 12 (bisection from the whole interval took
    12.7 and 14.5 on these draws)."""
    calls = [0]
    sweep = spectral_direct._pivot_sweep

    def counting(*args):
        calls[0] += 1
        return sweep(*args)

    monkeypatch.setattr(spectral_direct, "_pivot_sweep", counting)
    for n in (8, 12):
        rng = np.random.default_rng(51)
        calls[0] = 0
        for _ in range(50):
            eigen(random_jacobi(rng, n))
        assert calls[0] / 50 <= 8


def _numpy_rows_sweep(v, c, x):
    """``_pivot_sweep`` of one matrix on numpy rows: the LDL^T recurrence,
    one row per site over all points.  Kept frozen as the oracle of the
    scalar kernel."""
    with np.errstate(over="ignore"):
        c2 = (c * c).tolist()
    scale = max(c2, default=1.0)
    weak = _EPS * (float(np.abs(v).max()) + 2.0 * math.sqrt(scale))
    pivmin = (_TINY / _EPS) * max(1.0, scale)
    piv = np.subtract.outer(v, x)
    ratio = np.empty_like(piv)
    piv[0][np.abs(piv[0]) < pivmin] = -pivmin
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(-1.0, piv[0], out=ratio[0])
        for k in range(1, v.size):
            r = c2[k - 1] / piv[k - 1]
            piv[k] -= r
            piv[k][np.abs(piv[k]) < pivmin] = -pivmin
            np.divide(r * ratio[k - 1] - 1.0, piv[k], out=ratio[k])
        step = np.where((np.abs(piv[:-1]) > weak).all(0), 1.0 / ratio.sum(0), np.nan)
    return (piv < 0.0).sum(0), step


def _assert_scalar_sweep_is_the_numpy_rows(v, c, x):
    """One ``_scalar_point`` per lane, and the live ``_pivot_sweep``, give
    the frozen rows' counts and steps in value and sign (zeros and
    infinities included); NaN where the rows give NaN."""
    matrix = spectral_direct._scalar_matrix(v, c)
    cnt, step = zip(*[spectral_direct._scalar_point(matrix, xj) for xj in x.tolist()])
    got = np.array(cnt, dtype=np.intp), np.array(step)
    want = _numpy_rows_sweep(v, c, x)
    for g in (got, spectral_direct._pivot_sweep(v, c, x)):
        for gk, wk in zip(g, want):
            assert gk.dtype == wk.dtype and gk.shape == wk.shape
            assert np.array_equal(gk, wk, equal_nan=True), (gk, wk)
            signed = ~np.isnan(wk)
            assert np.array_equal(np.signbit(gk[signed]), np.signbit(wk[signed]))
    return got


@pytest.mark.parametrize("exponent", [-600, -300, 0, 300, 600])
def test_scalar_sweep_is_the_numpy_rows_on_random_matrices(exponent):
    """Random matrices at N = 2..32, 2 to 16 points spread around the
    spectrum and on the eigenvalues, scaled by 2^exponent (at
    2^600 the squared couplings overflow, at 2^-600 they underflow; the
    kernels agree on those too)."""
    rng = np.random.default_rng(55)
    for n in range(2, 33):
        for m in (random_jacobi(rng, n), random_matrix(rng, n)):
            v, c = np.ldexp(m.v, exponent), np.ldexp(m.c, exponent)
            lam = np.linalg.eigvalsh(m.as_dense())
            for lanes in (2, int(rng.integers(3, 16)), 16):
                x = rng.uniform(lam[0] - 1.0, lam[-1] + 1.0, lanes)
                x[: lanes // 2] = rng.choice(lam, lanes // 2)
                _assert_scalar_sweep_is_the_numpy_rows(v, c, np.ldexp(x, exponent))


def test_scalar_sweep_is_the_numpy_rows_on_exact_zero_pivots():
    """Integer diagonals at integer and half-integer points, and the exact
    families at their eigenvalues: pivots that are exactly zero and take
    the floor.  At the minimum of det(x - T) = x^2 - 2 the ratios sum to
    exactly zero, and the step is +inf."""
    _, step = _assert_scalar_sweep_is_the_numpy_rows(
        np.array([1.0, -1.0]), np.ones(1), np.array([0.0, 0.5])
    )
    assert step[0] == np.inf
    rng = np.random.default_rng(56)
    hit_floor = False
    for n in range(2, 20):
        v = rng.integers(-3, 4, n).astype(float)
        x = rng.integers(-8, 9, 16) / 2.0
        _assert_scalar_sweep_is_the_numpy_rows(v, np.ones(n - 1), x)
        hit_floor |= bool(np.any(x == v[0]))  # d_0 = 0 exactly
        for fv, fc, lam, _ in (krawtchouk(n, 0.3), krawtchouk(n, 0.5), hahn(n, 0.5, 1.5)):
            for at in (lam[:16], lam[-16:], np.resize(lam, 16)):
                if at.size >= 2:
                    _assert_scalar_sweep_is_the_numpy_rows(fv, fc, at)
    assert hit_floor


def test_scalar_sweep_is_the_numpy_rows_on_nan_and_rounding_level_pivots():
    """NaN points give NaN lanes beside finite ones; at -inf and +inf every
    ratio is a zero, which numpy sums to +0, so both kernels step +inf
    there.  A point one ulp from an eigenvalue of a leading block puts an
    interior pivot at rounding level, and both kernels give that lane a NaN
    step."""
    rng = np.random.default_rng(57)
    nan_steps = 0
    for n in range(3, 17):
        m = random_jacobi(rng, n)
        x = rng.uniform(-2.0, 2.0, 6)
        x[2] = np.nan
        cnt, step = _assert_scalar_sweep_is_the_numpy_rows(m.v, m.c, x)
        assert np.isnan(step[2]) and np.isfinite(step[[0, 1, 3, 4, 5]]).all()
        x[[0, 3]] = -np.inf, np.inf
        cnt, step = _assert_scalar_sweep_is_the_numpy_rows(m.v, m.c, x)
        assert list(cnt[[0, 3]]) == [0, n] and list(step[[0, 3]]) == [np.inf, np.inf]
        for j in range(1, n):
            block = eigen(truncate(m, 0, j - 1)).lambdas
            for toward in (-np.inf, np.inf):
                x = np.r_[np.nextafter(block, toward), 0.1]
                _, step = _assert_scalar_sweep_is_the_numpy_rows(m.v, m.c, x)
                nan_steps += int(np.isnan(step).sum())
    assert nan_steps > 100


def test_newton_and_bisection_take_the_scalar_kernel(monkeypatch):
    """Selection guard: only the matrix size picks the Python-float kernel.
    ``_pivot_sweep`` never calls ``_scalar_point``, at 1, 2, 16 or 17
    points.  At N = 8 and 12 ``eigen`` makes one pivot sweep, the
    multisection grid (about 32 N points, on numpy rows), and bisects and
    takes its Newton steps lane by lane (``_scalar_refine``) without
    ``bracketed_newton``; at N = 17 Newton runs in lockstep again.
    ``gluing_check`` takes one ``_scalar_point`` per pole (and none of
    ``_nudged_sweep``) at N = 16, and ``_nudged_sweep`` at N = 17."""
    sweeps, newton, scalar, nudged = [], [], [], []
    sweep, kernel = spectral_direct._pivot_sweep, spectral_direct._scalar_point
    lockstep, retaking = spectral_direct.bracketed_newton, spectral_direct._nudged_sweep

    def recording(v, c, x):
        sweeps.append(x.size)
        return sweep(v, c, x)

    def counting(*args, **kwargs):
        newton.append(1)
        return lockstep(*args, **kwargs)

    def scalar_point(matrix, xj):
        scalar.append(xj)
        return kernel(matrix, xj)

    def nudged_sweep(*args):
        nudged.append(1)
        return retaking(*args)

    monkeypatch.setattr(spectral_direct, "_scalar_point", scalar_point)
    rng = np.random.default_rng(51)
    m = random_jacobi(rng, 12)
    for lanes in (1, 2, 16, 17):
        spectral_direct._pivot_sweep(m.v, m.c, np.linspace(-1.0, 1.0, lanes))
    assert not scalar
    monkeypatch.setattr(spectral_direct, "_pivot_sweep", recording)
    monkeypatch.setattr(spectral_direct, "bracketed_newton", counting)
    monkeypatch.setattr(spectral_direct, "_nudged_sweep", nudged_sweep)
    for n in (8, 12):
        for _ in range(10):
            del sweeps[:], newton[:], scalar[:]
            eigen(random_jacobi(rng, n))
            assert len(sweeps) == 1 and sweeps[0] >= 31 and not newton and scalar
    del scalar[:]
    eigen(random_jacobi(rng, 17))
    assert newton and not scalar
    for n in (16, 17):
        m = random_jacobi(rng, n)
        w = weyl(m)
        del sweeps[:], scalar[:], nudged[:]
        gluing_check(m, w)
        if n == 16:
            assert len(scalar) >= n and not nudged and not sweeps
        else:
            assert not scalar and len(nudged) == 1


def _outcome(solve, v, c):
    try:
        return solve(v, c)
    except TodaError as exc:
        return type(exc), str(exc)


def _assert_lane_refine_is_the_lockstep(v, c):
    """``_eigenvalues`` of one matrix equals the frozen lockstep solve in
    value and sign (NaN where it has NaN), or raises the same class with
    the same message."""
    got = _outcome(spectral_direct._eigenvalues, v, c)
    want = _outcome(_lockstep_eigenvalues, v, c)
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("exponent", [-600, -300, 0, 300, 600])
def test_lane_refine_is_the_lockstep_on_random_matrices(exponent):
    """Random matrices at N = 2..17 scaled by 2^exponent: at 2^-600 Newton
    hits its cap on both paths, at 2^600 the squared couplings overflow."""
    rng = np.random.default_rng(58)
    for n in range(2, 18):
        for m in (random_jacobi(rng, n), random_matrix(rng, n), random_matrix(rng, n)):
            _assert_lane_refine_is_the_lockstep(np.ldexp(m.v, exponent), np.ldexp(m.c, exponent))


def test_lane_refine_is_the_lockstep_on_exact_and_close_eigenvalues():
    """Integer diagonals (exact zero pivots at the grid nodes), Krawtchouk
    and Hahn up to 16 sites, Wilkinson W_3..W_15, the close clusters, and
    couplings 1e50 to 1e100 beside couplings of 1, whose pivot floor stalls
    bisection at its cap on both paths, and diagonals from 9e307 on beside
    small ones: the bracket stays finite, but midpoints near its top
    overflow, and both paths give the same NaN lanes or raise alike.
    Diagonal offsets of 1e11 and 1e13 cut the multisection tree short (its
    cells would reach bisection's floor)."""
    rng = np.random.default_rng(59)
    for n in range(2, 17):
        for _ in range(4):
            _assert_lane_refine_is_the_lockstep(rng.integers(-3, 4, n).astype(float), np.ones(n - 1))
        for v, c, _, _ in (krawtchouk(n, 0.3), krawtchouk(n, 0.5), hahn(n, 0.5, 1.5)):
            _assert_lane_refine_is_the_lockstep(v, c)
    for m in (*map(_wilkinson, range(3, 16)), *CLOSE_EIGENVALUES.values(), *OFFSET_CLUSTERS.values()):
        _assert_lane_refine_is_the_lockstep(m.v, m.c)
    for c in ([1.0, 1e100], [1.0, 1e100, 1.0], [1e100, 1.0, 1.0, 1.0], [0.75, 0.75, 1e50, 1e100, 0.5]):
        _assert_lane_refine_is_the_lockstep(np.zeros(len(c) + 1), np.array(c))
    with np.errstate(over="ignore", invalid="ignore"):  # the grid's midpoints
        for top in (9e307, 1e308, 1.2e308, -1e308, -1.7e308):
            for n in range(2, 7):
                _assert_lane_refine_is_the_lockstep(np.r_[top, np.arange(n - 1.0)], np.ones(n - 1))
    rng = np.random.default_rng(61)
    for offset in (0.0, 1e11, 1e13):
        m = random_jacobi(rng, 6)
        _assert_lane_refine_is_the_lockstep(m.v + offset, m.c)


def test_couplings_whose_squares_overflow_raise():
    """c^2 at 1.69e308 is still finite and the 2x2 spectrum +-c exact; at
    c = 1.35e154 the square overflows, and eigen and divisor raise
    ``PrecisionLimit``, with no warning, instead of a spectrum off by the
    bracket's pad."""
    sd = eigen(JacobiMatrix(np.zeros(2), np.array([1.3e154])))
    np.testing.assert_array_equal(sd.lambdas, [-1.3e154, 1.3e154])
    np.testing.assert_array_equal(sd.rhos, [0.5, 0.5])
    message = "couplings beyond float64: their squares overflow"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionLimit, match=message):
            eigen(JacobiMatrix(np.zeros(2), np.array([1.35e154])))
        with pytest.raises(PrecisionLimit, match=message):
            divisor(JacobiMatrix(np.zeros(3), np.array([1.0, 1.35e154])))


@pytest.mark.parametrize(
    "v", [[1e308, -1e308], [1e308, 9e307], [-9e307, -1e308, -9e307], [1.7e308, 1.7e308]],
    ids=["width", "sum", "negative-sum", "equal-ends"],
)
def test_diagonals_whose_bracket_overflows_raise(v):
    """A Gershgorin bracket [a, b] whose width b - a or sum a + b (the
    first midpoint's) leaves float64 raises ``PrecisionLimit`` before any
    sweep, with no warning, from eigen and divisor.  Before, bisection ran
    on NaN midpoints and raised ``ConvergenceFailure`` or blamed eigenvalues
    1e307 apart for being too close."""
    message = "diagonal beyond float64: the eigenvalue bracket overflows"
    v = np.array(v)
    c = np.ones(v.size - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionLimit, match=message):
            eigen(JacobiMatrix(v, c))
        with pytest.raises(PrecisionLimit, match=message):
            divisor(JacobiMatrix(np.r_[0.0, v], np.ones(v.size)))


def test_diagonals_near_the_float64_limit_still_solve():
    """Brackets just inside the limit solve as before: eigenvalues +-8e307
    and a diagonal from -5e307 to 8e307, to rounding of the dense solver on
    the matrix scaled down by 2^-60."""
    for v, c in (([8e307, -8e307], [1.3e154]), ([8e307, 1e307, -5e307], [1.0, 1.0])):
        v, c = np.array(v), np.array(c)
        lam = spectral_direct._distinct_eigenvalues(JacobiMatrix(v, c))
        m = JacobiMatrix(np.ldexp(v, -60), np.ldexp(c, -60))
        want = np.ldexp(np.linalg.eigvalsh(m.as_dense()), 60)
        np.testing.assert_allclose(lam, want, rtol=1e-15, atol=1e-15 * float(np.max(np.abs(want))))
