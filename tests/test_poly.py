"""Tests for the shared root-finding kernel and the sample placement."""

import numpy as np
import pytest

from toda import (
    ConvergenceFailure,
    InvalidData,
    abel_period_check,
    flow_H,
    flow_T,
    moments,
    pi_from,
    random_jacobi,
    theta_flow,
    theta_from,
    weyl,
)
from toda._poly import _SAMPLE_CLEARANCE, _SAMPLE_PAD, bracketed_newton, offspectrum_samples


def test_bracketed_newton_takes_newton_steps_inside_the_bracket():
    calls = []

    def step_side(x):
        calls.append(x.copy())
        return (x * x - 2.0) / (2.0 * x), x * x > 2.0

    root = bracketed_newton(step_side, [1.0], [2.0])
    assert root[0] == pytest.approx(np.sqrt(2.0), abs=4e-16)
    assert len(calls) <= 6


def test_bracketed_newton_bisects_when_a_step_leaves_the_bracket():
    """Every step overshoots upward, so every iterate is a bracket midpoint."""
    xs = []

    def step_side(x):
        xs.append(float(x[0]))
        return np.full_like(x, -10.0), x > 0.3

    root = bracketed_newton(step_side, [0.0], [1.0])
    assert xs[:5] == [0.5, 0.25, 0.375, 0.3125, 0.28125]
    assert root[0] == pytest.approx(0.3, abs=1e-15)


def test_bracketed_newton_bisects_when_newton_crawls():
    """Newton on x**40 - 2 from far above gains 1/40 per step; bisection
    steps take over so the root comes well inside the iteration cap."""
    calls = []

    def step_side(x):
        calls.append(1)
        return (x**40 - 2.0) / (40.0 * x**39), x**40 > 2.0

    root = bracketed_newton(step_side, [0.5], [100.0])
    assert root[0] == pytest.approx(2.0 ** (1 / 40), abs=4e-16)
    assert len(calls) <= 60


def test_bracketed_newton_replaces_nonfinite_steps_by_midpoints():
    def step_side(x):
        return np.full_like(x, np.nan), x > 0.7

    root = bracketed_newton(step_side, [0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(root, [0.7, 0.7], atol=1e-15, rtol=0)


def test_bracketed_newton_raises_at_its_cap():
    """Bisection alone needs about 250 halvings to narrow this bracket."""

    def step_side(x):
        return np.full_like(x, np.nan), x > 0.3

    with pytest.raises(ConvergenceFailure):
        bracketed_newton(step_side, [0.0], [1e60])


def test_bracketed_newton_floor_follows_scale():
    """Near zero the absolute floor is 4 eps * scale, not 4 eps."""

    def step_side(x):
        return np.full_like(x, np.nan), x > 1e-9

    coarse = bracketed_newton(step_side, [0.0], [1e-8])[0]
    fine = bracketed_newton(step_side, [0.0], [1e-8], scale=1e-8)[0]
    assert abs(fine - 1e-9) <= 4e-24
    assert abs(coarse - 1e-9) <= 1e-15


def test_bracketed_newton_takes_a_scale_per_row():
    """An array scale sets each row's floor: every row stops where its own
    solve with that scalar scale stops."""

    def step_side(x):
        return np.full_like(x, np.nan), x > 1e-9

    lo, hi = np.zeros((2, 1)), np.full((2, 1), 1e-8)
    both = bracketed_newton(step_side, lo, hi, scale=np.array([[1.0], [1e-8]]))
    assert both[0, 0] == bracketed_newton(step_side, [0.0], [1e-8])[0]
    assert both[1, 0] == bracketed_newton(step_side, [0.0], [1e-8], scale=1e-8)[0]


def test_bracketed_newton_returns_zero_width_brackets_unchanged():
    def step_side(x):
        return x - 0.3, x > 0.3

    root = bracketed_newton(step_side, [0.0, 0.7], [1.0, 0.7])
    assert root[1] == 0.7
    assert root[0] == pytest.approx(0.3, abs=1e-15)


def _offspectrum_loop(avoid, n):
    """The point-by-point placement that ``offspectrum_samples`` replaced."""
    avoid = np.sort(np.asarray(avoid, dtype=float))
    span = max(avoid[-1] - avoid[0], 1.0)
    pts = np.linspace(avoid[0] - _SAMPLE_PAD * span, avoid[-1] + _SAMPLE_PAD * span, n)
    floor = _SAMPLE_CLEARANCE * span
    step = 0.61 * floor
    for i in range(pts.size):
        guard = 0
        while np.min(np.abs(pts[i] - avoid)) < floor:
            pts[i] += step
            guard += 1
            if guard > 200:
                raise ConvergenceFailure("could not place sample away from the spectrum")
    return pts


@pytest.mark.parametrize("size", [3, 4, 16, 32])
def test_offspectrum_samples_equal_the_point_by_point_loop(size):
    rng = np.random.default_rng(size)
    for trial in range(200):
        avoid = rng.normal(size=size) * (10.0 ** rng.integers(-3, 3))
        if trial % 4 == 0:  # clusters, where points need many shifts
            avoid = np.round(avoid, 1)
        for n in (3, 16, 32):
            expected = _offspectrum_loop(avoid, n)
            np.testing.assert_array_equal(offspectrum_samples(avoid, n), expected)


def test_offspectrum_samples_guard():
    """At 1e17 a shift of 0.0122 is below the rounding unit, so no sample
    ever moves off the avoided point: both placements give up."""
    avoid = np.array([1e17, 1e17 + 64.0])
    with pytest.raises(ConvergenceFailure):
        _offspectrum_loop(avoid, 16)
    with pytest.raises(ConvergenceFailure):
        offspectrum_samples(avoid, 16)


_M = random_jacobi(np.random.default_rng(3), 4)
_W = weyl(_M)
# Each function with an integer argument, as a call of that argument alone.
# A fractional index truncated by int() would silently run a neighbouring
# flow or order, so anything but an int or numpy integer is refused.
_INDEXED = {
    "flow_H": lambda j: flow_H(_W, j, 0.3).residues,
    "flow_T": lambda j: flow_T(pi_from(_W), j, 0.3).pis,
    "theta_flow": lambda j: theta_flow(theta_from(_W).thetas, _W.poles, j, 0.3),
    "moments": lambda k: moments(_M, k),
    "abel_period_k": lambda k: abel_period_check(_W.poles, k, 0),
    "abel_period_p": lambda p: abel_period_check(_W.poles, 1, p),
}


@pytest.mark.parametrize("bad", [2.5, 1.7, 2.0, True, "2", None])
@pytest.mark.parametrize("name", sorted(_INDEXED))
def test_a_non_integer_or_bool_index_raises_invalid_data(name, bad):
    with pytest.raises(InvalidData, match="must be an integer"):
        _INDEXED[name](bad)


@pytest.mark.parametrize("name", sorted(_INDEXED))
def test_a_numpy_integer_index_is_the_int(name):
    call = _INDEXED[name]
    want = call(1)
    for j in (np.int64(1), np.int32(1), np.uint8(1)):
        got = call(j)
        assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype
