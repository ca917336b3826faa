"""Named verification suites: each runs a batch of identity checks on
seeded random instances.  Every check states its bar where it computes its
residual, through ``_merge``; ``run_suite`` returns the (residuals,
thresholds) pair keyed by check name.  A check passes when its residual
does not exceed its threshold.

The suites mirror the package's invariants: reconstruction roundtrips,
trace-formula agreement, bracket closed forms against the tensor route,
canonical coordinate relations, the dual-data identities, and the flow
cross-validations.  The roundtrip and traces suites check the same seeded
matrices: they share one memoized draw (``_samples``), with the divisors
solved as one stack per size, so each spectrum, divisor and Weyl function
is computed once per seed and size; the roundtrip suite inverts each
sample with its own ``lanczos_reconstruct``.  Checks run sequentially, for
deterministic accumulation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._poly import offspectrum_samples
from .coordinates import (
    abel_period_check,
    pi_from,
    theta_from,
    w_from_divisor,
    w_from_gamma,
    w_from_theta,
)
from .errors import InvalidData
from .flows import flow_H, flow_T, lax_integrate, theta_flow
from .jacobi_core import JacobiMatrix, _matrix_distance, moments
from .poisson import (
    CHART_RESTRICTED,
    CHART_UNRESTRICTED,
    ChartPoint,
    ah_formula,
    ah_formula_xi,
    antisymmetry_residual,
    bracket,
    canonical_report,
    dirac_reduce,
    dual_identities,
    entry_bracket_residual,
    jacobi_residual,
    verify_formula_vs_tensor,
    weyl_value,
)
from .rational_weyl import (
    RationalHerglotz,
    _keep_zeros,
    evaluate,
    krein,
    to_quotient,
    trace_via_delta,
    trace_via_krein,
    zeros,
)
from .spectral_direct import (
    SpectralData,
    eigen,
    gluing_check,
    spectral_from_weyl,
    weyl,
    weyl_from_spectral,
    weyl_solution_residual,
)
from .spectral_inverse import lanczos_reconstruct, stieltjes_reconstruct

SUITE_NAMES = ("roundtrip", "traces", "brackets", "canonical", "dual", "flows")

_E1 = JacobiMatrix([1.0, 1.0], [1.0])


@lru_cache(maxsize=1)
def _e1_weyl() -> RationalHerglotz:
    """weyl(_E1), built on first use rather than at import, and shared by
    the suites that check its closed forms."""
    return weyl(_E1)


def random_jacobi(rng: np.random.Generator, n: int) -> JacobiMatrix:
    """The documented random instance family: diagonal uniform in [-1, 1],
    off-diagonal uniform in [0.1, 2]."""
    if n < 1:
        raise InvalidData("matrix size must be positive")
    v = rng.uniform(-1.0, 1.0, n)
    c = rng.uniform(0.1, 2.0, max(n - 1, 0))
    return JacobiMatrix(v, c)


def random_chart_point(
    rng: np.random.Generator, n: int, chart: str = CHART_RESTRICTED
) -> ChartPoint:
    """Well-separated poles (gap at least 0.15) with residues drawn from
    [0.2, 2], normalized only in the restricted chart."""
    lam = np.cumsum(rng.uniform(0.15, 1.0, n)) + rng.uniform(-1.0, 1.0)
    rho = rng.uniform(0.2, 2.0, n)
    if chart == CHART_RESTRICTED:
        rho = rho / rho.sum()
    return ChartPoint(lam, rho, chart)


def random_interlacing(rng: np.random.Generator, lambdas: np.ndarray) -> np.ndarray:
    """A divisor drawn uniformly inside the open interlacing cells (kept off
    the cell walls by a 10% margin)."""
    lam = np.asarray(lambdas, dtype=float)
    u = rng.uniform(0.1, 0.9, lam.size - 1)
    return lam[:-1] + u * np.diff(lam)


def _merge(acc: dict[str, tuple[float, float]], name: str, value: float, bar: float) -> None:
    """Keep the worst residual per check next to its bar; NaN ranks worst
    and sticks."""
    value = float(value)
    prev = acc[name][0] if name in acc else 0.0
    acc[name] = (value if np.isnan(value) or value > prev else prev, bar)


@lru_cache(maxsize=1)
def _samples(
    seed: int, n: int
) -> tuple[tuple[JacobiMatrix, SpectralData, RationalHerglotz], ...]:
    """The matrices that the roundtrip and traces suites check, four at each
    size in {2, 3, n} drawn from ``seed``, each with its spectral
    data and Weyl function.

    Each matrix takes its own ``eigen`` (and, in the roundtrip suite, its
    own ``lanczos_reconstruct``); the four Weyl functions of a size take
    their divisors from one ``_zeros`` call and keep them
    (``rational_weyl._keep_zeros``).  Every row of that stack is bitwise the
    ``zeros`` of its own Weyl function, and a stack that fails raises what
    its first failing function raises alone.

    Only the last (seed, n) is kept, so a ``verify`` run computes each
    spectrum once.  The records are frozen and their arrays read-only, so
    the suites can share them.
    """
    rng = np.random.default_rng(seed)
    out = []
    for size in sorted({2, 3, n}):
        ms = [random_jacobi(rng, size) for _ in range(4)]
        sds = [eigen(m) for m in ms]
        ws = [weyl_from_spectral(sd) for sd in sds]
        _keep_zeros(ws)
        out += zip(ms, sds, ws)
    return tuple(out)


def suite_roundtrip(seed: int = 7, n: int = 4) -> dict[str, tuple[float, float]]:
    """Reconstruction roundtrips, normalization, interlacing, and the
    partition-of-unity identity for the quotient numerator."""
    res: dict[str, tuple[float, float]] = {}
    for m, sd, w in _samples(seed, n):
        pq = to_quotient(w)
        m_cf = stieltjes_reconstruct(pq)
        m_lz = lanczos_reconstruct(sd)
        _merge(res, "stieltjes_roundtrip", _matrix_distance(m, m_cf), 1e-8)
        _merge(res, "lanczos_roundtrip", _matrix_distance(m, m_lz), 1e-8)
        _merge(res, "methods_agree", _matrix_distance(m_cf, m_lz), 1e-8)
        _merge(res, "residue_normalization", abs(float(np.sum(sd.rhos)) - 1.0), 1e-12)
        gam = zeros(w).gammas
        viol = max(
            float(np.max(sd.lambdas[:-1] - gam)),
            float(np.max(gam - sd.lambdas[1:])),
        )
        _merge(res, "interlacing", max(0.0, viol), 0.0)
        dp = npoly.polyder(pq.p)
        unity = np.sum(npoly.polyval(sd.lambdas, pq.q) / npoly.polyval(sd.lambdas, dp))
        _merge(res, "partition_of_unity", abs(float(unity) - 1.0), 1e-10)
        _merge(res, "weyl_solution", weyl_solution_residual(m, w, _offpoint(sd.lambdas)), 1e-9)
        _merge(res, "gluing", gluing_check(m, w), 1e-9)
    return res


def _offpoint(lambdas: np.ndarray) -> float:
    return float(offspectrum_samples(lambdas, 3)[1])


def suite_traces(seed: int = 7, n: int = 4) -> dict[str, tuple[float, float]]:
    """Three-way agreement of the spectral power sums and the leading
    matrix-entry identities, plus the exponential-representation residual."""
    res: dict[str, tuple[float, float]] = {}
    for m, _, w in _samples(seed, n):
        shift = float(w.poles[0])
        kd = krein(w)
        s_delta = trace_via_delta(kd, 3)
        s_krein = trace_via_krein(kd)
        m_shifted = JacobiMatrix(m.v - shift, m.c)
        s_direct = moments(m_shifted, 3)
        _merge(res, "delta_vs_direct", float(np.max(np.abs(s_delta - s_direct))), 1e-10)
        _merge(res, "krein_vs_direct", float(np.max(np.abs(s_krein - s_direct))), 1e-10)
        mom = moments(m, 2)
        _merge(res, "first_moment_is_v0", abs(float(mom[1]) - float(m.v[0])), 1e-10)
        second = abs(float(mom[2]) - (float(m.v[0]) ** 2 + float(m.c[0]) ** 2))
        _merge(res, "second_moment_entries", second, 1e-10)
        _merge(res, "exp_representation", kd.exp_residual, 1e-10)
    w1 = _e1_weyl()
    kd1 = krein(w1)
    target = np.array([1.0, 1.0, 2.0, 4.0])
    spot = max(
        float(np.max(np.abs(trace_via_delta(kd1, 3) - target))),
        float(np.max(np.abs(trace_via_krein(kd1) - target))),
        float(np.max(np.abs(moments(_E1, 3) - target))),
    )
    _merge(res, "e1_spot", spot, 1e-12)
    return res


def suite_brackets(seed: int = 7, n: int = 4) -> dict[str, tuple[float, float]]:
    """Closed-form two-point brackets against the tensor route, tensor
    health, the constrained reduction, and the leading-entry bracket."""
    rng = np.random.default_rng(seed)
    res: dict[str, tuple[float, float]] = {}
    for chart in (CHART_RESTRICTED, CHART_UNRESTRICTED):
        pt = random_chart_point(rng, n, chart)
        for lamx, mux in combinations(offspectrum_samples(pt.lambdas, 4).tolist(), 2):
            _merge(res, "formula_vs_tensor", verify_formula_vs_tensor(pt, lamx, mux), 1e-6)
        _merge(res, "jacobi_identity", jacobi_residual(pt), 1e-10)
        _merge(res, "antisymmetry", antisymmetry_residual(pt), 0.0)
    # Constrained reduction: a unit-total-residue point seen from the full
    # chart must reproduce the restricted tensor's brackets.
    pt_r = random_chart_point(rng, n, CHART_RESTRICTED)
    pt_u = ChartPoint(pt_r.lambdas, pt_r.rhos, CHART_UNRESTRICTED)
    pairs = list(combinations(offspectrum_samples(pt_r.lambdas, 3).tolist(), 2))
    for lamx, mux in pairs:
        f, g = weyl_value(lamx), weyl_value(mux)
        gap = abs(dirac_reduce(pt_u, f, g) - bracket(f, g, pt_r))
        _merge(res, "dirac_vs_restricted", gap, 1e-6)
    # Exponent-form bracket against the pole-sum closed form.
    w = RationalHerglotz(pt_r.lambdas, pt_r.rhos)
    for lamx, mux in pairs:
        wl, wm = evaluate(w, lamx), evaluate(w, mux)
        xi = ah_formula_xi(w, lamx, mux) * wl * wm
        gap = abs(xi - ah_formula(w, lamx, mux, restricted=True)) / max(1.0, abs(xi))
        _merge(res, "exponent_form", gap, 1e-8)
    _merge(res, "entry_bracket", entry_bracket_residual(pt_r), 1e-6)
    # Fixed two-pole spot value: poles (0, 2) with equal residues, bracket of
    # the values at -1 and 3 equals 4/27 restricted and -4/9 unrestricted.
    w1 = _e1_weyl()
    restricted = ah_formula(w1, -1.0, 3.0, restricted=True)
    _merge(res, "e1_spot_restricted", abs(restricted - 4.0 / 27.0), 1e-8)
    _merge(res, "e1_spot_unrestricted", abs(ah_formula(w1, -1.0, 3.0) + 4.0 / 9.0), 1e-8)
    pt1 = ChartPoint(w1.poles, w1.residues, CHART_RESTRICTED)
    tensor = bracket(weyl_value(-1.0), weyl_value(3.0), pt1)
    _merge(res, "e1_spot_tensor", abs(tensor - 4.0 / 27.0), 1e-8)
    return res


def suite_canonical(seed: int = 7, n: int = 4) -> dict[str, tuple[float, float]]:
    """Canonical relations in both charts, chart totality roundtrips, and
    the normalized contour periods."""
    rng = np.random.default_rng(seed)
    res: dict[str, tuple[float, float]] = {}
    size = min(n, 6)
    pt = random_chart_point(rng, size, CHART_RESTRICTED)
    for name, value in canonical_report(pt).items():
        _merge(res, name, value, 1e-6)
    # Totality of the angle chart: angles of order +-50 still invert.
    lam = np.sort(rng.uniform(-2.0, 2.0, size))
    while np.min(np.diff(lam)) < 0.15:
        lam = np.sort(rng.uniform(-2.0, 2.0, size))
    th = rng.uniform(-50.0, 50.0, size - 1)
    w = w_from_theta(lam, th)
    back = theta_from(w)
    _merge(res, "theta_totality", np.max(np.abs(back.thetas - th)), 1e-9)
    # Divisor chart roundtrips.
    gam = random_interlacing(rng, lam)
    wg = w_from_gamma(lam, gam)
    _merge(res, "gamma_roundtrip", np.max(np.abs(zeros(wg).gammas - gam)), 1e-9)
    wd = w_from_divisor(pi_from(wg))
    divisor_err = max(
        float(np.max(np.abs(wd.poles - wg.poles))),
        float(np.max(np.abs(wd.residues - wg.residues))),
    )
    _merge(res, "divisor_roundtrip", divisor_err, 1e-9)
    # Normalized second-kind periods around each pole.
    for k in range(1, size):
        for p in range(size):
            expected = 2.0j * np.pi * ((1.0 if k == p else 0.0) - (1.0 if p == 0 else 0.0))
            _merge(res, "abel_periods", abs(abel_period_check(lam, k, p) - expected), 1e-10)
    return res


def suite_dual(seed: int = 7, n: int = 4) -> dict[str, tuple[float, float]]:
    """Bracket identities of the dual (divisor-side) data."""
    rng = np.random.default_rng(seed)
    res: dict[str, tuple[float, float]] = {}
    for _ in range(2):
        pt = random_chart_point(rng, n, CHART_UNRESTRICTED)
        for name, value in dual_identities(pt).items():
            _merge(res, name, value, 1e-5)
    return res


def suite_flows(seed: int = 7, n: int = 4) -> dict[str, tuple[float, float]]:
    """Flow linearizations, closed forms, commutativity, and the matrix
    integration cross-check."""
    rng = np.random.default_rng(seed)
    res: dict[str, tuple[float, float]] = {}
    size = min(n, 6)
    m = random_jacobi(rng, size)
    w = weyl(m)
    t = 0.35
    # Spectral-side evolution mapped back to a matrix vs direct integration.
    w_t = flow_H(w, 2, t)
    m_spectral = lanczos_reconstruct(spectral_from_weyl(w_t))
    m_lax, drift = lax_integrate(m, t, 1e-3)
    _merge(res, "hflow_vs_lax", _matrix_distance(m_spectral, m_lax), 1e-6)
    _merge(res, "lax_drift", drift, 1e-8)
    _merge(res, "isospectral", np.max(np.abs(eigen(m_lax).lambdas - w.poles)), 1e-8)
    # Commutativity of two hierarchy members.
    ja, jb = (2, 3) if size >= 3 else (1, 2)
    s = 0.4
    ab = flow_H(flow_H(w, ja, s), jb, t)
    ba = flow_H(flow_H(w, jb, t), ja, s)
    _merge(res, "commutativity", np.max(np.abs(ab.residues - ba.residues)), 1e-9)
    # Angle linearization across all members.
    th0 = theta_from(w).thetas
    for j in range(1, size + 1):
        th_j = theta_from(flow_H(w, j, 2.5)).thetas
        lin = np.max(np.abs(th_j - theta_flow(th0, w.poles, j, 2.5)))
        _merge(res, "theta_linearization", lin, 1e-8)
    # Quasimomentum translation is definitional: bitwise-exact against the
    # same expression evaluated in place.
    dq = pi_from(w)
    dq_t = flow_T(dq, 1, 0.8)
    pi_err = np.max(np.abs(dq_t.pis - (dq.pis + 0.8 * dq.gammas ** 0)))
    _merge(res, "pi_linearization", pi_err, 0.0)
    _merge(res, "tflow_fixes_divisor", np.max(np.abs(dq_t.gammas - dq.gammas)), 0.0)
    # Two-pole closed forms: residue and angle growth under the quadratic
    # flow, and the off-diagonal exponential under the first transversal flow.
    w1 = _e1_weyl()
    t1 = 0.7
    w1t = flow_H(w1, 2, t1)
    e1_residue = np.exp(2 * t1) / (1.0 + np.exp(2 * t1))
    _merge(res, "e1_residue_closed_form", abs(float(w1t.residues[1]) - e1_residue), 1e-9)
    _merge(res, "e1_theta_closed_form", abs(float(theta_from(w1t).thetas[0]) - 2 * t1), 1e-9)
    dq1t = flow_T(pi_from(w1), 1, t1)
    m1t = lanczos_reconstruct(spectral_from_weyl(w_from_divisor(dq1t)))
    e1_tflow = max(
        float(np.max(np.abs(m1t.v - 1.0))),
        abs(float(m1t.c[0]) - np.exp(t1 / 2.0)),
    )
    _merge(res, "e1_tflow_closed_form", e1_tflow, 1e-9)
    return res


_SUITES = {
    "roundtrip": suite_roundtrip,
    "traces": suite_traces,
    "brackets": suite_brackets,
    "canonical": suite_canonical,
    "dual": suite_dual,
    "flows": suite_flows,
}


def run_suite(name: str, seed: int = 7, n: int = 4) -> tuple[dict[str, float], dict[str, float]]:
    """Run one named suite; raises InvalidData for unknown names and for
    sizes below 2."""
    if name not in _SUITES:
        raise InvalidData("unknown suite %r" % (name,))
    if n < 2:
        raise InvalidData("suite size must be at least 2, got %d" % n)
    records = _SUITES[name](seed, n)
    return (
        {key: value for key, (value, _) in records.items()},
        {key: bar for key, (_, bar) in records.items()},
    )


def run_suites(names, seed: int = 7, n: int = 4) -> tuple[dict[str, float], dict[str, float]]:
    """Run several suites, prefixing each check with its suite name."""
    res: dict[str, float] = {}
    thr: dict[str, float] = {}
    for name in names:
        r, t = run_suite(name, seed, n)
        for key, value in r.items():
            res["%s.%s" % (name, key)] = value
        for key, value in t.items():
            thr["%s.%s" % (name, key)] = value
    return res, thr
