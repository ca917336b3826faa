"""Tests for the quadratic Poisson structure in pole-residue coordinates.

Oracles: hand-computed 2x2 tensors at the symmetric two-site point, the
closed-form two-point bracket evaluated by hand at fixed arguments, and
finite differences checked against analytic gradients and chart Jacobians.
"""

import warnings

import numpy as np
import pytest

from toda import (
    CHART_RESTRICTED,
    CHART_UNRESTRICTED,
    AtPole,
    ChartPoint,
    CoincidentArguments,
    ConstraintDegenerate,
    InvalidData,
    Observable,
    PoissonTensor,
    RationalHerglotz,
    ah_formula,
    ah_formula_xi,
    antisymmetry_residual,
    bracket,
    canonical_report,
    dirac_reduce,
    dual_identities,
    entry_bracket_residual,
    evaluate,
    gradient,
    jacobi_residual,
    random_chart_point,
    tensor_at,
    verify_formula_vs_tensor,
    weyl_value,
    zeros,
)
from toda import poisson
from toda.poisson import _chart_jacobians, _tensor, _tensor_partials

E1_W = RationalHerglotz(np.array([0.0, 2.0]), np.array([0.5, 0.5]))

# Step of ``_fd_jacobian`` in component x: _FD_REL_STEP * max(1, |x|).
_FD_REL_STEP = 1e-6


def _fd_jacobian(vfn, lam, rho):
    """Jacobian of vfn(lam, rho) in (rho, lambda) by Richardson-extrapolated
    central differences, with a two-step consistency guard on every
    component: the oracle for the closed-form derivatives."""
    x0 = np.concatenate((rho, lam))
    f0 = np.atleast_1d(np.asarray(vfn(lam, rho), dtype=float))
    floor = 1e-7 * max(1.0, float(np.max(np.abs(f0))))
    n = lam.size
    jac = np.empty((f0.size, 2 * n))

    def call(x):
        return np.atleast_1d(np.asarray(vfn(x[n:], x[:n]), dtype=float))

    for i in range(2 * n):
        h = _FD_REL_STEP * max(1.0, abs(x0[i]))
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        d1 = (call(xp) - call(xm)) / (2.0 * h)
        xp, xm = x0.copy(), x0.copy()
        xp[i] += 0.5 * h
        xm[i] -= 0.5 * h
        d2 = (call(xp) - call(xm)) / h
        diff = np.abs(d1 - d2)
        scale = np.maximum(np.abs(d1), np.abs(d2))
        bad = (diff > 0.1 * scale) & (diff > floor)
        assert not np.any(bad), "finite-difference estimates disagree for component %d" % i
        jac[:, i] = (4.0 * d2 - d1) / 3.0
    return jac


def random_point(rng, n, chart):
    lam = np.cumsum(rng.uniform(0.3, 1.0, n)) + rng.uniform(-1.0, 1.0)
    rho = rng.uniform(0.2, 2.0, n)
    if chart == CHART_RESTRICTED:
        rho = rho / rho.sum()
    return ChartPoint(lam, rho, chart)


def test_chart_point_validation():
    lam, rho = np.array([0.0, 2.0]), np.array([0.5, 0.5])
    with pytest.raises(InvalidData):
        ChartPoint(lam, rho, "affine")
    with pytest.raises(InvalidData):
        ChartPoint(np.array([2.0, 0.0]), rho)
    with pytest.raises(InvalidData):
        ChartPoint(lam, np.array([0.5, -0.5]))
    with pytest.raises(InvalidData):
        ChartPoint(lam, np.array([0.5, 0.75]), CHART_RESTRICTED)
    ChartPoint(lam, np.array([0.5, 0.75]), CHART_UNRESTRICTED)
    for bad in ((np.array([0.0, np.inf]), rho), (lam, np.array([0.5, np.inf]))):
        with pytest.raises(InvalidData, match="finite"):
            ChartPoint(*bad, CHART_UNRESTRICTED)
    assert ChartPoint(lam, np.array([1.0 - 1e-10, 1e-10])).near_boundary
    assert not ChartPoint(lam, rho).near_boundary


def test_tensor_validation():
    with pytest.raises(InvalidData):
        PoissonTensor(np.zeros((3, 3)))
    with pytest.raises(InvalidData):
        PoissonTensor(np.ones((2, 2)))


def test_two_site_tensors_by_hand():
    """At lambda = (0, 2), rho = (1/2, 1/2): the restricted residue block
    cancels exactly and the mixed block is the centered projector / 4; the
    unrestricted blocks are rho rho / (lam gap) and diag(rho)."""
    lam, rho = np.array([0.0, 2.0]), np.array([0.5, 0.5])
    j = tensor_at(ChartPoint(lam, rho, CHART_RESTRICTED)).j
    assert j[0, 1] == 0.0
    np.testing.assert_array_equal(j[:2, 2:], [[0.25, -0.25], [-0.25, 0.25]])
    np.testing.assert_array_equal(j[2:, 2:], np.zeros((2, 2)))
    ju = tensor_at(ChartPoint(lam, rho, CHART_UNRESTRICTED)).j
    assert ju[0, 1] == 0.25
    np.testing.assert_array_equal(ju[:2, 2:], [[0.5, 0.0], [0.0, 0.5]])


def test_antisymmetry_is_exact():
    rng = np.random.default_rng(71)
    for chart in (CHART_RESTRICTED, CHART_UNRESTRICTED):
        pt = random_point(rng, 5, chart)
        assert antisymmetry_residual(pt) == 0.0


def test_jacobi_identity():
    rng = np.random.default_rng(72)
    for chart in (CHART_RESTRICTED, CHART_UNRESTRICTED):
        for n in (2, 3, 4, 8, 16):
            for _ in range(5):
                assert jacobi_residual(random_point(rng, n, chart)) <= 1e-10


def test_jacobi_residual_matches_einsum_contractions():
    """The one matrix product and its cyclic permutations against the three
    index contractions they replace, relative to the largest contraction
    entry: the residual itself is rounding noise of that entry."""
    rng = np.random.default_rng(73)
    for chart in (CHART_RESTRICTED, CHART_UNRESTRICTED):
        for n in (2, 4, 8, 16):
            for _ in range(3):
                pt = random_chart_point(rng, n, chart)
                j, dj = tensor_at(pt).j, _tensor_partials(pt)
                a = np.einsum("il,ljk->ijk", j, dj)
                t = a + np.einsum("jl,lki->ijk", j, dj) + np.einsum("kl,lij->ijk", j, dj)
                size = max(1.0, float(np.max(np.abs(a))))
                assert abs(jacobi_residual(pt) - float(np.max(np.abs(t)))) <= 1e-15 * size


def test_tensor_partials_match_finite_differences():
    """The broadcast partials against differences of the raw-array tensor
    formula; restricted points are differenced off the unit-residue slice."""
    for seed in (81, 82, 83):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 4, 6):
            for chart in (CHART_RESTRICTED, CHART_UNRESTRICTED):
                pt = random_point(rng, n, chart)
                restricted = chart == CHART_RESTRICTED
                fd = _fd_jacobian(
                    lambda la, rh: _tensor(la, rh, restricted).ravel(), pt.lambdas, pt.rhos
                )
                dj = _tensor_partials(pt).reshape(2 * n, -1).T
                err = float(np.max(np.abs(dj - fd))) / max(1.0, float(np.max(np.abs(fd))))
                assert err <= 1e-6, (seed, n, chart, err)


def test_gradient_analytic_matches_finite_difference():
    rng = np.random.default_rng(73)
    pt = random_point(rng, 4, CHART_RESTRICTED)
    obs = weyl_value(pt.lambdas[0] - 1.7)
    fd = _fd_jacobian(obs.fn, pt.lambdas, pt.rhos)[0]
    np.testing.assert_allclose(gradient(obs, pt), fd, rtol=1e-7, atol=1e-9)


def test_gradient_checks_its_length_and_is_required():
    """``gradient`` keeps one check, the length 2N of what ``grad``
    returns; an observable cannot be built without a gradient."""
    pt = ChartPoint(np.array([0.0, 2.0]), np.array([0.5, 0.5]), CHART_RESTRICTED)
    obs = weyl_value(-1.0)
    short = Observable(obs.fn, lambda lam, rho: obs.grad(lam, rho)[1:])
    with pytest.raises(InvalidData, match="length 2N"):
        gradient(short, pt)
    with pytest.raises(InvalidData, match="length 2N"):
        bracket(obs, short, pt)
    with pytest.raises(TypeError):
        Observable(obs.fn)


def test_two_point_bracket_by_hand():
    """{w(-1), w(3)} at the symmetric two-site point: values are 2/3 and
    -2/3, so the unrestricted bracket is -4/9 and the restricted one 4/27."""
    assert ah_formula(E1_W, -1.0, 3.0) == pytest.approx(-4.0 / 9.0, rel=1e-14)
    assert ah_formula(E1_W, -1.0, 3.0, restricted=True) == pytest.approx(4.0 / 27.0, rel=1e-14)
    with pytest.raises(CoincidentArguments):
        ah_formula(E1_W, -1.0, -1.0 + 1e-7)


def test_formula_matches_tensor_contraction():
    rng = np.random.default_rng(74)
    for chart in (CHART_RESTRICTED, CHART_UNRESTRICTED):
        for n in (2, 4, 6):
            pt = random_point(rng, n, chart)
            lo, hi = pt.lambdas[0], pt.lambdas[-1]
            span = hi - lo
            for lam, mu in ((lo - 0.31 * span, hi + 0.29 * span), (lo - 1.1, hi + 2.3)):
                assert verify_formula_vs_tensor(pt, lam, mu) <= 1e-8


def test_exponent_form_of_restricted_bracket():
    """Dividing the restricted bracket by both values gives the exponent
    form; rebuilt from the divisor it must agree with the pole-sum route."""
    rng = np.random.default_rng(75)
    for n in (2, 3, 5):
        pt = random_point(rng, n, CHART_RESTRICTED)
        w = RationalHerglotz(pt.lambdas, pt.rhos)
        lam, mu = pt.lambdas[0] - 0.9, pt.lambdas[-1] + 1.3
        xi = ah_formula_xi(w, lam, mu)
        want = ah_formula(w, lam, mu, restricted=True) / (evaluate(w, lam) * evaluate(w, mu))
        assert xi == pytest.approx(want, rel=1e-9)


def test_exponent_form_guards():
    with pytest.raises(InvalidData):
        ah_formula_xi(RationalHerglotz(np.array([0.0, 2.0]), np.array([1.0, 1.0])), -1.0, 3.0)
    with pytest.raises(AtPole):
        ah_formula_xi(E1_W, 2.0, 5.0)


def test_weyl_value_observable():
    rng = np.random.default_rng(76)
    pt = random_point(rng, 3, CHART_RESTRICTED)
    x = pt.lambdas[0] - 0.6
    obs = weyl_value(x)
    assert obs.value(pt) == pytest.approx(
        evaluate(RationalHerglotz(pt.lambdas, pt.rhos), x), rel=1e-14
    )


def test_dirac_reduction_recovers_restricted_bracket():
    """On the unit-residue slice of the full chart, the constrained bracket
    of two evaluations equals the restricted-chart bracket."""
    rng = np.random.default_rng(77)
    for n in (2, 3, 4):
        lam = np.cumsum(rng.uniform(0.3, 1.0, n))
        rho = rng.uniform(0.2, 2.0, n)
        rho = rho / rho.sum()
        full = ChartPoint(lam, rho, CHART_UNRESTRICTED)
        slim = ChartPoint(lam, rho, CHART_RESTRICTED)
        f, g = weyl_value(lam[0] - 0.8), weyl_value(lam[-1] + 1.1)
        assert dirac_reduce(full, f, g) == pytest.approx(bracket(f, g, slim), abs=1e-6)
    with pytest.raises(InvalidData):
        dirac_reduce(slim, f, g)


def test_dirac_reduction_builds_one_tensor(monkeypatch):
    rng = np.random.default_rng(77)
    full = random_point(rng, 4, CHART_UNRESTRICTED)
    f, g = weyl_value(full.lambdas[0] - 0.8), weyl_value(full.lambdas[-1] + 1.1)
    built = []

    def counting(pt):
        built.append(pt)
        return tensor_at(pt)

    monkeypatch.setattr(poisson, "tensor_at", counting)
    dirac_reduce(full, f, g)
    assert built == [full]
    monkeypatch.setattr(poisson, "tensor_at", lambda pt: PoissonTensor(np.zeros((8, 8))))
    with pytest.raises(ConstraintDegenerate):
        dirac_reduce(full, f, g)


def test_tensor_is_built_once_per_point(monkeypatch):
    """Every report on a point reads the one tensor kept on it."""
    rng = np.random.default_rng(79)
    full, slim = random_point(rng, 4, CHART_UNRESTRICTED), random_point(rng, 4, CHART_RESTRICTED)
    built = []

    def counting(lam, rho, restricted):
        built.append(restricted)
        return _tensor(lam, rho, restricted)

    monkeypatch.setattr(poisson, "_tensor", counting)
    f, g = weyl_value(full.lambdas[0] - 0.8), weyl_value(full.lambdas[-1] + 1.1)
    for pt in (full, slim):
        assert tensor_at(pt) is tensor_at(pt)
        bracket(f, g, pt)
        jacobi_residual(pt)
        antisymmetry_residual(pt)
    dual_identities(full)
    dirac_reduce(full, f, g)
    canonical_report(slim)
    entry_bracket_residual(slim)
    assert built == [False, True]


def test_tensor_is_read_only():
    j = tensor_at(random_point(np.random.default_rng(80), 3, CHART_RESTRICTED)).j
    with pytest.raises(ValueError):
        j[0, 1] = 0.0


def test_canonical_relations():
    rng = np.random.default_rng(78)
    for n in (2, 4, 6):
        report = canonical_report(random_point(rng, n, CHART_RESTRICTED))
        assert set(report) == {
            "theta_lambda", "theta_theta", "pi_gamma", "gamma_gamma", "pi_pi",
            "thetaprime_lambda", "casimir_theta", "casimir_gamma", "casimir_pi",
            "casimir_rho",
        }
        for key, val in report.items():
            assert val <= 1e-6, (n, key, val)
    with pytest.raises(InvalidData):
        canonical_report(random_point(rng, 3, CHART_UNRESTRICTED))
    with pytest.raises(InvalidData):
        canonical_report(ChartPoint(np.array([0.0]), np.array([1.0]), CHART_RESTRICTED))


def test_dual_residue_closed_form_two_sites():
    """lambda = (0, 2), rho = (1/2, 1/3): the single zero sits at 6/5 and
    the dual residue is -p(6/5) / (5/6) = 144/125."""
    pt = ChartPoint(np.array([0.0, 2.0]), np.array([0.5, 1.0 / 3.0]), CHART_UNRESTRICTED)
    report = dual_identities(pt)
    for key, val in report.items():
        assert val <= 1e-5, (key, val)
    w = RationalHerglotz(pt.lambdas, pt.rhos)
    gam = -1.0 / evaluate(w, 1.2 - 1e-9)  # just confirm 6/5 is the zero
    assert evaluate(w, 1.2) == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(gam)
    rhop = -(1.2 - 0.0) * (1.2 - 2.0) / (5.0 / 6.0)
    assert rhop == pytest.approx(144.0 / 125.0, rel=1e-12)


def test_dual_identities_random():
    rng = np.random.default_rng(79)
    for n in (2, 3, 4):
        report = dual_identities(random_point(rng, n, CHART_UNRESTRICTED))
        assert set(report) == {
            "rhoprime_gamma", "rhoprime_rhoprime", "gamma_gamma", "q0_gamma",
            "q0_rhoprime", "rhoprime_p0", "p0_gamma", "p0_q0",
        }
        for key, val in report.items():
            assert val <= 1e-5, (n, key, val)
    with pytest.raises(InvalidData):
        dual_identities(random_point(rng, 3, CHART_RESTRICTED))


def test_matrix_entry_bracket():
    rng = np.random.default_rng(80)
    for n in (2, 3, 5):
        assert entry_bracket_residual(random_point(rng, n, CHART_RESTRICTED)) <= 1e-8
    with pytest.raises(InvalidData):
        entry_bracket_residual(random_point(rng, 3, CHART_UNRESTRICTED))


def test_near_boundary_warning():
    lam = np.array([0.0, 2.0])
    tiny = ChartPoint(lam, np.array([1.0 - 1e-10, 1e-10]), CHART_RESTRICTED)
    f, g = weyl_value(-1.0), weyl_value(3.0)
    with pytest.warns(RuntimeWarning):
        bracket(f, g, tiny)
    with pytest.warns(RuntimeWarning) as caught:
        dirac_reduce(ChartPoint(lam, tiny.rhos, CHART_UNRESTRICTED), f, g)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bracket(f, g, ChartPoint(lam, np.array([0.5, 0.5]), CHART_RESTRICTED))


def _chart_values(lam, rho):
    """Values of the charts on raw (lambda, rho) arrays, from one divisor
    solve: the oracle whose finite differences check the closed-form chart
    Jacobians."""
    gam = zeros(RationalHerglotz(lam, rho)).gammas
    diff = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(diff, 1.0)
    logs = np.log(rho) + np.log(diff).sum(axis=1)
    shift = lam[0]
    lam0, gam0 = lam - shift, gam - shift
    xi0 = float(np.sum(np.log(gam0) - np.log(lam0[1:])))
    q0 = float(np.sum(rho))
    thp = np.empty(lam.size - 1)
    rhop = np.empty(gam.size)
    for k in range(1, lam.size):
        gam_part = float(np.sum(np.log(np.abs(gam0 - lam0[k]))))
        lam_part = float(np.sum(np.log(np.abs(np.delete(lam0[1:], k - 1) - lam0[k]))))
        thp[k - 1] = gam_part - lam_part - xi0 - np.log(lam0[k])
    for k in range(gam.size):
        num = np.prod(gam[k] - lam)
        den = q0 * np.prod(gam[k] - np.delete(gam, k)) if gam.size > 1 else q0
        rhop[k] = -num / den
    return {
        "theta": logs[1:] - logs[0],
        "gamma": gam,
        "pi": np.log(np.abs(gam[:, None] - lam[None, :])).sum(axis=1),
        "thetaprime": thp,
        "rhoprime": rhop,
    }


def test_chart_jacobians_match_finite_differences():
    points = []
    for seed in (81, 82, 83):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 4, 6):
            for chart in (CHART_RESTRICTED, CHART_UNRESTRICTED):
                points.append(random_point(rng, n, chart))
    # Off the unit-residue slice by less than the chart's 1e-8 tolerance.
    rho = np.array([0.2, 0.3, 0.5]) * (1.0 + 5e-9)
    points.append(ChartPoint(np.array([-0.4, 0.5, 1.3]), rho, CHART_RESTRICTED))
    for pt in points:
        lam, rho = pt.lambdas, pt.rhos
        gam, rhop, jac = _chart_jacobians(lam, rho)
        want = _chart_values(lam, rho)
        np.testing.assert_array_equal(gam, want["gamma"])
        np.testing.assert_allclose(rhop, want["rhoprime"], rtol=1e-12)
        fd = _fd_jacobian(
            lambda la, rh: np.concatenate(list(_chart_values(la, rh).values())), lam, rho
        )
        for key, block in zip(want, np.split(fd, len(want))):
            assert jac[key].shape == block.shape, key
            err = float(np.max(np.abs(jac[key] - block))) / max(1.0, float(np.max(np.abs(block))))
            assert err <= 1e-6, (pt.n, pt.chart, key, err)
