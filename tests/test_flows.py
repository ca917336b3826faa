"""Tests for the hierarchy flows.

Oracles: the symmetric two-site point, where every flow integrates in
closed form (residues are logistic in t, angles linear, the transversal
flow moves the eigenvalues as 1 -+ exp(t/2)), plus RK4 integration of the
matrix equations cross-checked against the exact spectral evolution.
"""

import math
import warnings

import numpy as np
import pytest

from toda import (
    ActionAngle,
    DivisorQuasimomentum,
    InvalidData,
    JacobiMatrix,
    Overflow,
    PrecisionLimit,
    RationalHerglotz,
    StepTooLarge,
    eigen,
    flows,
    flow_H,
    flow_T,
    lanczos_reconstruct,
    lax_integrate,
    pi_from,
    random_jacobi,
    spectral_direct,
    spectral_from_weyl,
    theta_flow,
    theta_from,
    w_from_divisor,
    weyl,
)
from toda.cli import main

E1_W = RationalHerglotz(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
WILKINSON_21 = JacobiMatrix(np.abs(np.arange(21) - 10.0), np.ones(20))


def random_w(rng, n):
    poles = np.cumsum(rng.uniform(0.2, 1.0, n)) + rng.uniform(-1.0, 1.0)
    residues = rng.uniform(0.2, 2.0, n)
    return RationalHerglotz(poles, residues / residues.sum())


def matrix_of(w):
    return lanczos_reconstruct(spectral_from_weyl(w))


def test_tangent_flow_identities():
    rng = np.random.default_rng(83)
    w = random_w(rng, 4)
    frozen = flow_H(w, 1, 3.7)  # unit speed cancels in the normalization
    np.testing.assert_allclose(frozen.residues, w.residues, rtol=1e-14)
    np.testing.assert_array_equal(frozen.poles, w.poles)
    still = flow_H(w, 3, 0.0)
    np.testing.assert_allclose(still.residues, w.residues, rtol=1e-14)


def test_tangent_flow_two_site_logistic():
    """Quadratic flow at lambda = (0, 2): rho_1(t) = e^{2t} / (1 + e^{2t})."""
    for t in (-3.0, -0.5, 0.0, 0.25, 1.0, 5.0):
        wt = flow_H(E1_W, 2, t)
        want = np.exp(2 * t) / (1.0 + np.exp(2 * t))
        assert wt.residues[1] == pytest.approx(want, rel=1e-12)
        np.testing.assert_array_equal(wt.poles, E1_W.poles)


def test_tangent_flow_group_law():
    rng = np.random.default_rng(84)
    w = random_w(rng, 5)
    a = flow_H(flow_H(w, 3, 0.4), 3, 0.9)
    b = flow_H(w, 3, 1.3)
    np.testing.assert_allclose(a.residues, b.residues, rtol=1e-12)


def test_tangent_flows_commute():
    rng = np.random.default_rng(85)
    w = random_w(rng, 5)
    a = flow_H(flow_H(w, 2, 0.7), 4, -0.3)
    b = flow_H(flow_H(w, 4, -0.3), 2, 0.7)
    np.testing.assert_allclose(a.residues, b.residues, rtol=1e-9)


def test_tangent_flow_guards():
    with pytest.raises(Overflow):
        flow_H(E1_W, 2, 400.0)
    with pytest.raises(InvalidData):
        flow_H(E1_W, 3, 0.1)
    with pytest.raises(InvalidData):
        flow_H(RationalHerglotz(np.array([0.0, 2.0]), np.array([1.0, 1.0])), 1, 0.1)


def test_tangent_flow_underflow_is_overflow():
    """A reweighted residue that underflows to zero leaves float64: the flow
    raises Overflow, which names that limit, not NotHerglotz, which would
    blame the data.  Here t * pole^(j-1) = 600 stays within 700, but the
    residue 1e-300 is reweighted by e^-600 against its neighbour."""
    w = RationalHerglotz(np.array([0.0, 2.0]), np.array([1e-300, 1.0]))
    assert flow_H(w, 2, 20.0).residues[0] > 0.0  # e^-730: subnormal, still held
    with pytest.raises(Overflow, match="underflows float64"):
        flow_H(w, 2, 300.0)


@pytest.mark.parametrize("seed", [10, 12, 15, 19, 32, 39])
def test_flows_suite_underflow_exits_as_overflow(capsys, seed):
    """``toda verify --suite flows --N 6`` on these seeds reweights a
    residue below float64 in its angle linearization (t = 2.5 and j up to
    N, unchanged): exit 1 with the float64 limit named, not exit 3."""
    assert main(["verify", "--suite", "flows", "--N", "6", "--seed", str(seed)]) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == "error: a reweighted residue underflows float64\n"


def test_sampled_flow_underflow_exits_as_overflow(capsys):
    """``toda flow`` names the same float64 limit, in JSON lines and CSV."""
    for fmt in ((), ("--emit-csv",)):
        argv = ["flow", "--seed", "0", "--N", "4", "--family", "H", "--j", "4", "--t1", "40"]
        assert main(argv + list(fmt)) == 1
        assert capsys.readouterr().err == "error: a reweighted residue underflows float64\n"


def test_transversal_flow_past_float64_is_overflow(capsys):
    """A T flow whose move t * gamma^(j-1) leaves float64 at a finite time
    raises Overflow (exit 1) with no numpy warning, not InvalidData, which
    would blame a valid chart point."""
    dq = pi_from(weyl(random_jacobi(np.random.default_rng(0), 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match="leave float64"):
            flow_T(dq, 2, 1e308)
        with pytest.raises(InvalidData, match="flow time must be finite"):
            flow_T(dq, 2, math.inf)
    argv = ["flow", "--seed", "0", "--N", "4", "--family", "T", "--j", "2", "--t1", "1e308"]
    assert main(argv) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == "error: quasimomenta leave float64 at this flow time\n"


@pytest.mark.parametrize("family", ["H", "T"])
@pytest.mark.parametrize(
    "times,code,message",
    [
        (("--t1", "inf"), 2, "flow time must be finite"),
        (("--t0", "nan"), 2, "flow time must be finite"),
        (("--t0=-1e308", "--t1", "1e308"), 1, "flow time span t1 - t0 leaves float64"),
    ],
)
def test_sampled_flow_times_are_checked_before_sampling(capsys, family, times, code, message):
    """``toda flow`` checks t0, t1 and their span before it spaces the
    sample times, so stderr holds the one error line and no numpy warning."""
    for fmt in ((), ("--emit-csv",)):
        argv = ["flow", "--seed", "1", "--N", "4", "--family", family, *times, *fmt]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err == "error: %s\n" % message


def random_times(rng, size):
    return np.concatenate(([0.0], rng.uniform(-2.0, 2.0, size - 1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 16, 33, 64, 128])
def test_flows_are_bitwise_rows_of_the_row_kernels(n):
    """``flow_H`` and ``flow_T`` at one time are bitwise row i of the row
    kernels at all the sample times, whose sums run row by row."""
    rng = np.random.default_rng(300 + n)
    w = random_w(rng, n)
    times = random_times(rng, 9)
    for j in range(1, min(n, 3) + 1):
        speed = float(np.max(np.abs(w.poles))) ** (j - 1)
        rows = flows._flow_H_rows(w, j, times / speed)
        for t, row in zip(times / speed, rows):
            np.testing.assert_array_equal(flow_H(w, j, t).residues, row)
    if n > 1:
        dq = pi_from(w)
        for j in range(1, min(n - 1, 3) + 1):
            rows = flows._flow_T_rows(dq, j, times)
            for t, row in zip(times, rows):
                np.testing.assert_array_equal(flow_T(dq, j, t).pis, row)


def test_flow_rows_raise_what_the_lowest_failing_sample_raises():
    """Each sample checks its time, then its exponent, then its residues;
    a stack raises what its lowest failing sample raises on its own."""
    w = RationalHerglotz(np.array([0.0, 2.0]), np.array([1e-300, 1.0]))
    for times, error, match in (
        ([0.0, 300.0, 400.0], Overflow, "underflows"),
        ([0.0, 400.0, 300.0], Overflow, "too large"),
        ([0.0, math.nan, 400.0], InvalidData, "flow time"),
        ([math.inf, 0.0], InvalidData, "flow time"),
    ):
        with pytest.raises(error, match=match):
            flows._flow_H_rows(w, 2, np.array(times))
    dq = pi_from(E1_W)
    for times, error, match in (
        ([0.0, math.inf], InvalidData, "flow time"),
        ([0.0, 1e308, -1e308], Overflow, "leave float64"),
    ):
        with pytest.raises(error, match=match):
            flows._flow_T_rows(DivisorQuasimomentum(dq.gammas, dq.pis + 1e308, 0.0),
                               1, np.array(times))
    with pytest.raises(InvalidData, match="flow index"):
        flows._flow_T_rows(dq, 2, np.zeros(3))


def test_angle_flow_is_linear_and_consistent():
    """theta(t) = theta(0) + t (lambda^(j-1) - lambda_0^(j-1)); on the
    two-site point the quadratic flow gives theta_1 = 2t exactly."""
    assert theta_flow(np.zeros(1), E1_W.poles, 2, 0.9)[0] == pytest.approx(1.8, rel=1e-15)
    rng = np.random.default_rng(86)
    w = random_w(rng, 4)
    th0 = theta_from(w).thetas
    for j, t in ((1, 2.0), (2, 0.7), (4, -0.4)):
        moved = theta_from(flow_H(w, j, t)).thetas
        np.testing.assert_allclose(moved, theta_flow(th0, w.poles, j, t), rtol=1e-9, atol=1e-9)
    with pytest.raises(InvalidData):
        theta_flow(th0, w.poles, 5, 0.1)


def test_transversal_flow_translates_quasimomenta():
    rng = np.random.default_rng(87)
    w = random_w(rng, 4)
    dq = pi_from(w)
    moved = flow_T(dq, 2, 0.6)
    np.testing.assert_array_equal(moved.gammas, dq.gammas)
    assert moved.casimir == dq.casimir
    np.testing.assert_array_equal(moved.pis, dq.pis + 0.6 * dq.gammas**1)
    with pytest.raises(InvalidData):
        flow_T(dq, 4, 0.1)


def test_transversal_flow_two_site_closed_form():
    """From the symmetric two-site point, the first transversal flow moves
    the eigenvalues to 1 -+ e^{t/2} while v = (1, 1) and c_0 = e^{t/2}."""
    t = 0.8
    dq = flow_T(pi_from(E1_W), 1, t)
    wt = w_from_divisor(dq)
    np.testing.assert_allclose(
        wt.poles, [1.0 - np.exp(t / 2), 1.0 + np.exp(t / 2)], rtol=1e-11
    )
    m = matrix_of(wt)
    np.testing.assert_allclose(m.v, [1.0, 1.0], atol=1e-11)
    assert m.c[0] == pytest.approx(np.exp(t / 2), rel=1e-11)


def test_matrix_flow_matches_spectral_flow():
    """RK4 on the matrix equations reproduces the exact residue reweighting
    of the quadratic tangent flow, entry by entry."""
    rng = np.random.default_rng(88)
    for n in (2, 4, 6):
        m = matrix_of(random_w(rng, n))
        evolved, drift = lax_integrate(m, 1.0)
        assert drift <= 1e-8
        exact = matrix_of(flow_H(weyl(m), 2, 1.0))
        np.testing.assert_allclose(evolved.v, exact.v, atol=1e-8)
        np.testing.assert_allclose(evolved.c, exact.c, atol=1e-8)


def test_time_sign_convention_is_frozen():
    """The matrix flow for time t is the residue reweighting at the same t,
    not at -t, in both directions (fixed by the two-site quadratic flow,
    where both sides are explicit exponentials)."""
    m = JacobiMatrix([0.3, -0.4], [0.8])
    for t in (0.5, -0.5):
        evolved, _ = lax_integrate(m, t)
        same = matrix_of(flow_H(weyl(m), 2, t))
        other = matrix_of(flow_H(weyl(m), 2, -t))
        np.testing.assert_allclose(evolved.v, same.v, atol=1e-9)
        np.testing.assert_allclose(evolved.c, same.c, atol=1e-9)
        assert np.max(np.abs(evolved.v - other.v)) > 0.1


def test_matrix_flow_two_site_closed_form():
    """v_0(t) = 2 e^{2t} / (1 + e^{2t}), c_0(t) = sech(t) from the
    symmetric two-site start."""
    m0 = JacobiMatrix([1.0, 1.0], [1.0])
    t = 1.0
    mt, _ = lax_integrate(m0, t)
    assert mt.v[0] == pytest.approx(2 * np.exp(2 * t) / (1 + np.exp(2 * t)), abs=1e-9)
    assert mt.c[0] == pytest.approx(1.0 / np.cosh(t), abs=1e-9)
    assert mt.v[0] + mt.v[1] == pytest.approx(2.0, abs=1e-10)


def test_matrix_flow_is_isospectral():
    rng = np.random.default_rng(89)
    m = JacobiMatrix(rng.uniform(-1, 1, 5), rng.uniform(0.5, 1.5, 4))
    lam0 = eigen(m).lambdas
    mt, drift = lax_integrate(m, -0.7)
    np.testing.assert_allclose(eigen(mt).lambdas, lam0, atol=1e-8)
    assert drift <= 1e-8


def test_matrix_flow_conserves_energy():
    """H = (1/2) sum v^2 + sum c^2 is the generating Hamiltonian and is
    conserved by its own flow."""
    m = JacobiMatrix(np.array([-0.2, 0.1, -0.5]), np.exp([0.2, 0.3]))
    mt, _ = lax_integrate(m, 1.0)
    h0 = 0.5 * np.sum(m.v**2) + np.sum(m.c**2)
    h1 = 0.5 * np.sum(mt.v**2) + np.sum(mt.c**2)
    assert h1 == pytest.approx(h0, abs=1e-10)


def test_matrix_flow_step_guards():
    stiff = JacobiMatrix([1.0, -1.0, 0.5], [5.0, 5.0])
    with pytest.raises(StepTooLarge):
        lax_integrate(stiff, 1.0, 1.0)
    easy = JacobiMatrix([1.0, 1.0], [1.0])
    with pytest.raises(InvalidData):
        lax_integrate(easy, 1.0, -0.1)
    with pytest.raises(InvalidData):
        lax_integrate(easy, 1.0, 1e-9)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_matrix_flow_time_must_be_finite(t):
    for m in (JacobiMatrix([1.0, 1.0], [1.0]), JacobiMatrix([1.0], [])):
        with pytest.raises(InvalidData, match="flow time must be finite"):
            lax_integrate(m, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_tangent_flow_time_must_be_finite(t):
    with pytest.raises(InvalidData, match="flow time must be finite"):
        flow_H(E1_W, 2, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_angle_flow_time_must_be_finite(t):
    with pytest.raises(InvalidData, match="flow time must be finite"):
        theta_flow(np.zeros(1), E1_W.poles, 2, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_transversal_flow_time_must_be_finite(t):
    with pytest.raises(InvalidData, match="flow time must be finite"):
        flow_T(pi_from(E1_W), 1, t)


def _lax_rhs(y, n):
    """Equations of motion of the first matrix flow on the state y = (v, c):
    dv_k = c_k^2 - c_{k-1}^2, dc_k = c_k (v_{k+1} - v_k) / 2."""
    v, c = y[:n], y[n:]
    c2 = c * c
    dy = np.empty_like(y)
    dy[0] = c2[0]
    dy[1 : n - 1] = c2[1:] - c2[:-1]
    dy[n - 1] = -c2[-1]
    dy[n:] = 0.5 * c * (v[1:] - v[:-1])
    return dy


def _fresh_array_lax(m, t, dt=1e-3):
    """Oracle: RK4 with a fresh array for every stage on the state (v, c),
    audited in blocks of 64 steps by the same ``flows._block_drift`` with
    the same tolerances and cluster ranks."""
    n = m.n
    nsteps = max(1, math.ceil(abs(t) / dt - 1e-12))
    h = t / nsteps
    y = np.concatenate((m.v, m.c))
    lam = spectral_direct._distinct_eigenvalues(m)
    scale = max(1.0, float(np.max(np.abs(lam))))
    floor = 4.0 * np.finfo(float).eps * scale
    gaps = np.maximum(np.abs(np.subtract.outer(lam, lam)), floor)
    np.fill_diagonal(gaps, np.inf)
    tol = np.maximum(np.sqrt(np.finfo(float).eps * scale / (1.0 / gaps).sum(axis=1)), floor)
    split = 1e-14 * scale
    first = np.flatnonzero(np.diff(lam, prepend=-np.inf) > split)
    size = np.diff(first, append=n)
    ranks = np.repeat(first, size), np.repeat(first + size, size)
    tol = np.where(ranks[1] - ranks[0] > 1, np.maximum(tol, split), tol)
    worst = 0.0
    for start in range(0, nsteps, 64):
        ys = np.empty((min(64, nsteps - start), y.size))
        for row in ys:
            k1 = _lax_rhs(y, n)
            k2 = _lax_rhs(y + 0.5 * h * k1, n)
            k3 = _lax_rhs(y + 0.5 * h * k2, n)
            k4 = _lax_rhs(y + h * k3, n)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            row[:] = y
        assert np.isfinite(ys).all() and (ys[:, n:] > 0.0).all()
        drift = flows._block_drift(ys[:, :n], ys[:, n:], lam, tol, ranks, 2.0 * floor)
        worst = max(worst, drift / scale)
    return y[:n], y[n:], worst


@pytest.mark.parametrize("n", [2, 3, 4, 16, 64])
def test_stepper_is_bitwise_the_fresh_array_loop(n):
    """The stepper on preallocated buffers, with the 1/2 of dc in its stage
    weights and larger audit blocks, gives bitwise the matrix and the drift
    of RK4 on fresh arrays audited in blocks of 64."""
    rng = np.random.default_rng(700 + n)
    m = random_jacobi(rng, n)
    for t in (0.35, 0.5, -0.2):
        mt, drift = lax_integrate(m, t)
        v, c, oracle_drift = _fresh_array_lax(m, t)
        np.testing.assert_array_equal(mt.v, v)
        np.testing.assert_array_equal(mt.c, c)
        assert drift == oracle_drift


def _three_sweep_lax(m, t, dt=1e-3):
    """Oracle: RK4 on separate (v, c) arrays, auditing every step with
    three Newton sweeps started from the initial eigenvalues."""
    nsteps = max(1, math.ceil(abs(t) / dt - 1e-12))
    h = t / nsteps
    v, c = m.v.copy(), m.c.copy()
    lam = eigen(m).lambdas
    scale = max(1.0, float(np.max(np.abs(lam))))

    def rhs(v, c):
        dv = np.zeros_like(v)
        c2 = c * c
        dv[:-1] += c2
        dv[1:] -= c2
        return dv, 0.5 * c * (v[1:] - v[:-1])

    worst = 0.0
    for _ in range(nsteps):
        k1v, k1c = rhs(v, c)
        k2v, k2c = rhs(v + 0.5 * h * k1v, c + 0.5 * h * k1c)
        k3v, k3c = rhs(v + 0.5 * h * k2v, c + 0.5 * h * k2c)
        k4v, k4c = rhs(v + h * k3v, c + h * k3c)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        c = c + (h / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        x = lam.copy()
        for _ in range(3):
            x = x - spectral_direct._pivot_sweep(v, c, x)[1]
        worst = max(worst, float(np.max(np.abs(np.sort(x) - lam))) / scale)
    return v, c, worst


def test_warm_started_audit_matches_three_sweep_oracle():
    rng = np.random.default_rng(90)
    for n in range(2, 17):
        m = random_jacobi(rng, n)
        t = 0.1 if n % 2 else -0.1
        mt, drift = lax_integrate(m, t)
        v, c, oracle_drift = _three_sweep_lax(m, t)
        np.testing.assert_array_equal(mt.v, v)
        np.testing.assert_array_equal(mt.c, c)
        assert abs(drift - oracle_drift) <= 1e-15


def _audit_rows(n):
    """Rows per audit block: 64, or more while the block's pivot table
    stays within 2^16 floats."""
    return max(flows._AUDIT_BLOCK, 2**16 // n**2)


def test_block_audit_matches_oracle_at_block_boundaries():
    """Step counts around the audit block length: the matrix is bitwise the
    oracle's and the drift within 1e-15 of its three-sweep reading."""
    rng = np.random.default_rng(92)
    for n in (20, 40):
        block = _audit_rows(n)
        for nsteps in (1, block - 1, block, block + 1, 500):
            m = random_jacobi(rng, n)
            t = 1e-3 * nsteps * (1 if n % 2 else -1)
            mt, drift = lax_integrate(m, t)
            v, c, oracle_drift = _three_sweep_lax(m, t)
            np.testing.assert_array_equal(mt.v, v)
            np.testing.assert_array_equal(mt.c, c)
            assert abs(drift - oracle_drift) <= 1e-15


def test_step_errors_keep_step_order(monkeypatch):
    """A block's steps fail in the order they were taken.  At dt = 1 the
    first step of this pair drifts past 1e-6 and the third diverges, all in
    one block: the drift is named.  A first step that loses positivity is
    named as such, and so is a later step made to lose it after accurate
    steps of the same block."""
    pair = JacobiMatrix([4.73, -2.35], [1.9148])
    with pytest.raises(StepTooLarge, match="drift exceeded"):
        lax_integrate(pair, 4.0, 1.0)
    with pytest.raises(StepTooLarge, match="lost positivity"):
        lax_integrate(JacobiMatrix([3.07, 2.87], [2.4745]), 4.0, 1.0)

    run = flows._LaxStepper.run

    def flips_on_step_five(self, rows):
        run(self, rows)
        rows[4:, 4:6] *= -1.0  # rows are [v | 0 | c | 0]: c < 0 from step five on

    monkeypatch.setattr(flows._LaxStepper, "run", flips_on_step_five)
    with pytest.raises(StepTooLarge, match="lost positivity"):
        lax_integrate(JacobiMatrix([1.0, -0.5, 0.3], [0.7, 1.1]), 0.02)


def test_audit_never_reads_nan_steps_as_drift(monkeypatch):
    """An audit without a single finite Newton step falls back to the
    Sturm-certified solve: it returns the true drift (about 9e-10 at this
    coarse step), not a zero read off NaN steps, and a step too large for
    the 1e-6 bar still raises."""
    m = JacobiMatrix([1.0, -0.5, 0.3], [0.7, 1.1])
    _, want = lax_integrate(m, 0.5, 0.02)

    def nan_steps(v, c, x, nudge):
        cnt, step = spectral_direct._nudged_sweep(v, c, x, nudge)
        return cnt, np.full_like(step, np.nan)

    monkeypatch.setattr(flows, "_nudged_sweep", nan_steps)
    _, drift = lax_integrate(m, 0.5, 0.02)
    assert want > 1e-10
    assert drift == pytest.approx(want, rel=1e-9)
    with pytest.raises(StepTooLarge):
        lax_integrate(m, 0.5, 0.25)


def _count_fallbacks(monkeypatch):
    """Count the steps whose drift audit goes to the Sturm-certified solve."""
    calls = [0]

    def counting(v, c):
        calls[0] += 1
        return spectral_direct._eigenvalues(v, c)

    monkeypatch.setattr(flows, "_eigenvalues", counting)
    return calls


def test_audit_steps_beside_rounding_level_pivots(monkeypatch):
    """With couplings near 1e-9 an eigenvalue sits within rounding of an
    eigenvalue of a leading block, where one pivot is at rounding level and
    the Newton step is not finite; the audit takes the step from beside it
    and needs no fallback."""
    fallbacks = _count_fallbacks(monkeypatch)
    for m in (
        JacobiMatrix([0.0, 1.0], [1e-9]),
        JacobiMatrix([0.0, 1.0, 0.0, 1.0], [1e-8, 1.0, 1e-8]),
    ):
        lam0 = eigen(m).lambdas
        mt, drift = lax_integrate(m, 0.5)
        assert drift <= 1e-14
        np.testing.assert_allclose(eigen(mt).lambdas, lam0, atol=1e-14)
    assert fallbacks[0] == 0


def test_audit_on_close_eigenvalues(monkeypatch):
    """Wilkinson W21+ has pairs about 7e-14 apart; the weakly coupled
    chains have eigenvalues 1e-15..1e-14 apart, closer than eigen splits
    them, so their lanes form clusters.  No step size is at fault here,
    and Newton settles every step without the fallback."""
    fallbacks = _count_fallbacks(monkeypatch)
    c1, c2 = 10.0**-7.75, 10.0**-7.25
    for m in (
        WILKINSON_21,
        JacobiMatrix([0.0, 1.0, 0.0], [c1, c1]),
        JacobiMatrix([0.0, 1.0, 0.0], [c2, c2]),
        JacobiMatrix([0.0, 1.0, 0.0], [10.0**-7.5, 2.0 * 10.0**-7.5]),
        JacobiMatrix([0.0, 1.0, 0.0, 1.0, 0.0], [c2] * 4),
    ):
        lam0 = eigen(m).lambdas
        for t in (0.5, -0.5):
            mt, drift = lax_integrate(m, t)
            assert drift <= 1e-14
            np.testing.assert_allclose(eigen(mt).lambdas, lam0, rtol=0, atol=1e-14)
    assert fallbacks[0] == 0


def test_audit_falls_back_inside_tight_clusters(monkeypatch):
    """Six sites with couplings 1e-10..1e-6 put pairs of eigenvalues
    3e-14..5e-12 apart near 0, 1 and 2, where Newton does not always settle
    within four sweeps; those steps go to the Sturm-certified solve, whose
    1e-14 bisection floor bounds the drift it reads."""
    fallbacks = _count_fallbacks(monkeypatch)
    m = JacobiMatrix([0.0, 2.0, 1.0, 0.0, 2.0, 1.0], [9.3e-11, 2.1e-7, 2.2e-6, 1.6e-7, 1.2e-8])
    lam0 = eigen(m).lambdas
    for t in (0.5, -0.5):
        mt, drift = lax_integrate(m, t)
        assert drift <= 2e-14
        np.testing.assert_allclose(eigen(mt).lambdas, lam0, rtol=0, atol=4e-14)
    assert fallbacks[0] > 0


def test_audit_fallback_solves_its_rows_as_one_stack(monkeypatch):
    """The rows Newton cannot vouch for go to the Sturm-certified solve one
    by one: the 24 fallback rows at t = -0.5 take one ``_eigenvalues`` call
    each, on one matrix."""
    m = JacobiMatrix([0.0, 2.0, 1.0, 0.0, 2.0, 1.0], [9.3e-11, 2.1e-7, 2.2e-6, 1.6e-7, 1.2e-8])
    shapes = []

    def recording(v, c):
        shapes.append(v.shape)
        return spectral_direct._eigenvalues(v, c)

    monkeypatch.setattr(flows, "_eigenvalues", recording)
    lax_integrate(m, -0.5)
    assert shapes == [(6,)] * 24


def test_matrix_flow_single_site_is_static():
    m = JacobiMatrix([0.7], [])
    mt, drift = lax_integrate(m, 0.5)
    np.testing.assert_array_equal(mt.v, m.v)
    assert drift == 0.0


def test_audit_takes_one_sweep_per_step(monkeypatch):
    """Performance guard: the block audit takes at most two pivot sweeps per
    block of RK4 steps, each with one more beside it where it met a
    rounding-level pivot (``_nudged_sweep``; a per-step audit took one to
    three sweeps per step)."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return spectral_direct._nudged_sweep(*args)

    monkeypatch.setattr(flows, "_nudged_sweep", counting)
    rng = np.random.default_rng(91)
    blocks = 0
    for n in (4, 8, 16):
        for _ in range(2):
            lax_integrate(random_jacobi(rng, n), 0.5)
            blocks += math.ceil(500 / _audit_rows(n))
    assert calls[0] <= 2 * blocks


def test_matrix_flow_past_float64_weights():
    """The audit reads only the eigenvalues: weights that overflow float64
    (the random family from N of about 300) do not stop the integration."""
    message = "weights beyond float64: the recurrence sums overflow"
    for n in (320, 400):
        m = random_jacobi(np.random.default_rng(0), n)
        with pytest.raises(PrecisionLimit, match=message):
            eigen(m)
        _, drift = lax_integrate(m, 1e-2)
        assert drift < 1e-12


@pytest.mark.parametrize(
    "lambdas,thetas,match",
    [
        ([0.0, 1.0, 2.0, 3.0], [0.5], "one angle per non-anchor pole"),
        ([0.0, 1.0, 2.0, 3.0], [0.5] * 5, "one angle per non-anchor pole"),
        ([0.0, 2.0, 1.0, 3.0], [0.5] * 3, "strictly increasing"),
        ([0.0, 1.0, math.nan, 3.0], [0.5] * 3, "strictly increasing"),
        ([0.0, 1.0, 2.0, 3.0], [0.5, math.nan, 0.5], "must be finite"),
    ],
)
def test_angle_flow_checks_its_chart_point(lambdas, thetas, match):
    """theta_flow raises what ``ActionAngle`` raises on its poles and angles,
    rather than broadcasting one angle, failing inside numpy, or returning
    wrong or NaN angles."""
    with pytest.raises(InvalidData, match=match):
        ActionAngle(np.array(lambdas), np.array(thetas))
    with pytest.raises(InvalidData, match=match):
        theta_flow(np.array(thetas), np.array(lambdas), 2, 0.5)

