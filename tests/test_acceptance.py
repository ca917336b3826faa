"""Acceptance gate: one test per shipped guarantee, at the contracted
tolerances.  Each test prints a single pass line with the worst residual it
observed (visible under pytest -s); the assertions enforce the contract.

The random instance family is the documented one: diagonal uniform in
[-1, 1], off-diagonal uniform in [0.1, 2], fixed seeds.
"""

import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from toda import (
    CHART_RESTRICTED,
    CHART_UNRESTRICTED,
    ChartPoint,
    JacobiMatrix,
    Observable,
    RationalHerglotz,
    abel_period_check,
    ah_formula,
    antisymmetry_residual,
    canonical_report,
    dirac_reduce,
    dual_identities,
    eigen,
    flow_H,
    flow_T,
    gluing_check,
    jacobi_residual,
    krein,
    lanczos_reconstruct,
    lax_integrate,
    moments,
    pi_from,
    random_chart_point,
    random_interlacing,
    random_jacobi,
    spectral_from_weyl,
    stieltjes_reconstruct,
    tensor_at,
    theta_from,
    to_quotient,
    trace_moments,
    trace_via_delta,
    trace_via_krein,
    verify_formula_vs_tensor,
    w_from_divisor,
    w_from_gamma,
    w_from_theta,
    weyl,
    weyl_from_spectral,
    weyl_solution_residual,
    zeros,
)

E1_W = RationalHerglotz(np.array([0.0, 2.0]), np.array([0.5, 0.5]))


def entry_distance(a, b):
    dv = float(np.max(np.abs(a.v - b.v)))
    dc = float(np.max(np.abs(a.c - b.c))) if a.c.size else 0.0
    return max(dv, dc)


def report(name, worst, bar):
    print("criterion %s: PASS (worst %.3e, bar %.1e)" % (name, worst, bar))


def test_criterion_01_roundtrip_reconstruction():
    """100 seed-fixed random matrices, N in 2..8: both reconstruction
    routes within 1e-8 of the input and of each other, in under 10 s."""
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        m = random_jacobi(rng, 2 + i % 7)
        sd = eigen(m)
        m_lz = lanczos_reconstruct(sd)
        m_cf = stieltjes_reconstruct(to_quotient(weyl_from_spectral(sd)))
        worst = max(
            worst,
            entry_distance(m_cf, m),
            entry_distance(m_lz, m),
            entry_distance(m_cf, m_lz),
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    report("01 roundtrip-reconstruction", worst, 1e-8)
    print("criterion 01 runtime: %.2f s (bar 10 s)" % elapsed)


def test_criterion_02_interlacing_and_normalization():
    """Strict interlacing of the divisor, unit residue sum to 1e-12, and
    the residue partition identity sum q(l_n)/p'(l_n) = 1 to 1e-10."""
    rng = np.random.default_rng(2027)
    worst_norm = 0.0
    worst_part = 0.0
    for i in range(100):
        m = random_jacobi(rng, 2 + i % 7)
        w = weyl(m)
        gam = zeros(w).gammas
        assert np.all(w.poles[:-1] < gam) and np.all(gam < w.poles[1:])
        worst_norm = max(worst_norm, abs(float(np.sum(w.residues)) - 1.0))
        pq = to_quotient(w)
        part = np.sum(
            npoly.polyval(w.poles, pq.q) / npoly.polyval(w.poles, npoly.polyder(pq.p))
        )
        worst_part = max(worst_part, abs(float(part) - 1.0))
    assert worst_norm <= 1e-12
    assert worst_part <= 1e-10
    report("02 interlacing-normalization", max(worst_norm, worst_part), 1e-10)


def test_criterion_03_trace_formulas():
    """Three-way agreement of the first power sums, the matrix-corner
    identities, and the two-site spot values (1, 1, 2, 4)."""
    rng = np.random.default_rng(2028)
    worst = 0.0
    for i in range(40):
        m = random_jacobi(rng, 2 + i % 7)
        w = weyl(m)
        kd = krein(w)
        s_direct = trace_moments(RationalHerglotz(kd.lambdas0, w.residues), 3)
        s_delta = trace_via_delta(kd, 3)
        s_krein = trace_via_krein(kd)
        worst = max(
            worst,
            float(np.max(np.abs(s_direct - s_delta))),
            float(np.max(np.abs(s_direct - s_krein))),
        )
        v0 = m.v[0] - kd.shift
        worst = max(worst, abs(s_direct[1] - v0), abs(s_direct[2] - (v0**2 + m.c[0] ** 2)))
    assert worst <= 1e-10
    kd = krein(E1_W)
    spot = np.array([1.0, 1.0, 2.0, 4.0])
    for s in (trace_moments(E1_W, 3), trace_via_delta(kd, 3), trace_via_krein(kd)):
        np.testing.assert_allclose(s, spot, atol=1e-12)
    report("03 trace-formulas", worst, 1e-10)


def test_criterion_04_weyl_solution_and_gluing():
    """weyl_solution_residual at the interior gap midpoints and
    gluing_check, both on w = weyl(m), within 1e-9: 30 draws for N up to
    10, then 30 at N = 16 and 30 at N = 24, each pass from the same seed."""
    worst = 0.0
    for sizes in ([2 + i % 9 for i in range(30)], [16] * 30, [24] * 30):
        rng = np.random.default_rng(2029)
        for n in sizes:
            m = random_jacobi(rng, n)
            w = weyl(m)
            worst = max(worst, gluing_check(m, w))
            lam = w.poles
            for k in range(lam.size - 1):
                if lam[k + 1] - lam[k] > 2e-3:
                    worst = max(worst, weyl_solution_residual(m, w, 0.5 * (lam[k] + lam[k + 1])))
    assert worst <= 1e-9
    report("04 weyl-solution-gluing", worst, 1e-9)


def test_criterion_05_bracket_formula_equivalence():
    """Closed-form two-point bracket vs tensor contraction on a 5x5 grid
    of off-spectrum argument pairs, both charts, N up to 6; plus the
    restricted spot value {w(-1), w(3)} = 4/27."""
    rng = np.random.default_rng(2030)
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for chart in (CHART_RESTRICTED, CHART_UNRESTRICTED):
            pt = random_chart_point(rng, n, chart)
            lo, hi = pt.lambdas[0], pt.lambdas[-1]
            span = hi - lo
            lams = np.linspace(lo - 0.41 * span, hi + 0.37 * span, 5)
            mus = np.linspace(lo - 0.29 * span, hi + 0.43 * span, 5) + 0.0137 * span
            for lam in lams:
                for mu in mus:
                    assert abs(lam - mu) > 1e-6
                    worst = max(worst, verify_formula_vs_tensor(pt, lam, mu))
    assert worst <= 1e-6
    spot = ah_formula(E1_W, -1.0, 3.0, restricted=True)
    assert abs(spot - 4.0 / 27.0) <= 1e-8
    report("05 bracket-equivalence", worst, 1e-6)


def test_criterion_06_tensor_health():
    """Exact antisymmetry and Jacobi identity (analytic tensor partials)
    within 1e-10 at 100 random points with N in {2, 3, 4}."""
    rng = np.random.default_rng(2031)
    worst = 0.0
    for i in range(100):
        chart = CHART_RESTRICTED if i % 2 == 0 else CHART_UNRESTRICTED
        pt = random_chart_point(rng, 2 + i % 3, chart)
        assert antisymmetry_residual(pt) == 0.0
        worst = max(worst, jacobi_residual(pt))
    assert worst <= 1e-10
    report("06 tensor-health", worst, 1e-10)


def coordinate_observable(i, n):
    def fn(lam, rho):
        return float(np.concatenate((rho, lam))[i])

    def grad(lam, rho):
        g = np.zeros(2 * n)
        g[i] = 1.0
        return g

    return Observable(fn, grad)


def test_criterion_07_dirac_reduction():
    """The reduced unrestricted tensor equals the restricted tensor
    entrywise (contracted on coordinate functions) at unit-residue-sum
    points, within 1e-6."""
    rng = np.random.default_rng(2032)
    worst = 0.0
    for n in (2, 3, 4):
        lam = np.cumsum(rng.uniform(0.2, 1.0, n))
        rho = rng.uniform(0.2, 2.0, n)
        rho = rho / rho.sum()
        full = ChartPoint(lam, rho, CHART_UNRESTRICTED)
        slim = ChartPoint(lam, rho, CHART_RESTRICTED)
        want = tensor_at(slim).j
        obs = [coordinate_observable(i, n) for i in range(2 * n)]
        for a in range(2 * n):
            for b in range(2 * n):
                got = dirac_reduce(full, obs[a], obs[b])
                worst = max(worst, abs(got - want[a, b]))
    assert worst <= 1e-6
    report("07 dirac-reduction", worst, 1e-6)


def test_criterion_08_canonical_relations():
    """Angle/pole, quasimomentum/divisor, and Casimir bracket relations
    hold within 1e-6 on the restricted chart for N up to 6."""
    rng = np.random.default_rng(2033)
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        rep = canonical_report(random_chart_point(rng, n, CHART_RESTRICTED))
        worst = max(worst, max(rep.values()))
    assert worst <= 1e-6
    report("08 canonical-relations", worst, 1e-6)


def test_criterion_09_dual_identities():
    """Bracket identities of the dual data within 1e-5 for N up to 4."""
    rng = np.random.default_rng(2034)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(2):
            rep = dual_identities(random_chart_point(rng, n, CHART_UNRESTRICTED))
            worst = max(worst, max(rep.values()))
    assert worst <= 1e-5
    report("09 dual-identities", worst, 1e-5)


def test_criterion_10_flow_cross_validation():
    """Spectral evolution of the quadratic flow matches RK4 on the matrix
    equations entrywise to 1e-6 with eigenvalue drift below 1e-8; the
    two-site closed forms hold to 1e-9; distinct flows commute to 1e-9."""
    rng = np.random.default_rng(2035)
    worst_entry = 0.0
    worst_drift = 0.0
    for n in (2, 4, 6):
        lam = np.cumsum(rng.uniform(0.2, 1.0, n))
        rho = rng.uniform(0.2, 2.0, n)
        w0 = RationalHerglotz(lam, rho / rho.sum())
        m0 = lanczos_reconstruct(spectral_from_weyl(w0))
        evolved, drift = lax_integrate(m0, 1.0, 1e-3)
        exact = lanczos_reconstruct(spectral_from_weyl(flow_H(w0, 2, 1.0)))
        worst_entry = max(worst_entry, entry_distance(evolved, exact))
        worst_drift = max(worst_drift, drift)
    assert worst_entry <= 1e-6
    assert worst_drift <= 1e-8

    worst_closed = 0.0
    for t in (0.3, 0.7, 1.0):
        wt = flow_H(E1_W, 2, t)
        worst_closed = max(
            worst_closed,
            abs(wt.residues[1] - np.exp(2 * t) / (1 + np.exp(2 * t))),
            abs(theta_from(wt).thetas[0] - 2.0 * t),
        )
        mt = lanczos_reconstruct(spectral_from_weyl(w_from_divisor(flow_T(pi_from(E1_W), 1, t))))
        worst_closed = max(worst_closed, abs(mt.c[0] - np.exp(t / 2)))
    assert worst_closed <= 1e-9

    w = random_chart_point(rng, 5, CHART_RESTRICTED)
    w = RationalHerglotz(w.lambdas, w.rhos)
    a = flow_H(flow_H(w, 2, 0.6), 3, -0.4)
    b = flow_H(flow_H(w, 3, -0.4), 2, 0.6)
    commute = float(np.max(np.abs(a.residues - b.residues)))
    assert commute <= 1e-9
    report("10 flow-cross-validation", max(worst_entry, worst_closed, commute), 1e-6)


def test_criterion_11_angle_chart_totality():
    """w_from_theta succeeds on angles drawn from [-50, 50]^(N-1) and
    roundtrips to 1e-9; w_from_gamma roundtrips divisors drawn uniformly
    inside the interlacing cells."""
    rng = np.random.default_rng(2036)
    worst_theta = 0.0
    worst_gamma = 0.0
    for n in (2, 3, 4, 6):
        lam = eigen(random_jacobi(rng, n)).lambdas
        for _ in range(5):
            th = rng.uniform(-50.0, 50.0, n - 1)
            w = w_from_theta(lam, th)
            assert w.normalized
            worst_theta = max(worst_theta, float(np.max(np.abs(theta_from(w).thetas - th))))
            gam = random_interlacing(rng, lam)
            back = zeros(w_from_gamma(lam, gam)).gammas
            worst_gamma = max(worst_gamma, float(np.max(np.abs(back - gam))))
    assert worst_theta <= 1e-9
    assert worst_gamma <= 1e-9
    report("11 angle-chart-totality", max(worst_theta, worst_gamma), 1e-9)


def test_criterion_12_abel_periods():
    """The contour integral of the k-th normalized differential around the
    p-th pole equals 2 pi i times the Kronecker delta, within 1e-10."""
    rng = np.random.default_rng(2037)
    worst = 0.0
    for n in (2, 3, 5, 6):
        lam = eigen(random_jacobi(rng, n)).lambdas
        for k in range(1, n):
            for p in range(1, n):
                got = abel_period_check(lam, k, p)
                want = 2.0j * np.pi if k == p else 0.0
                worst = max(worst, abs(got - want))
    assert worst <= 1e-10
    report("12 abel-periods", worst, 1e-10)
