"""Tests for the shared root-finding kernel."""

import numpy as np
import pytest

from toda import ConvergenceFailure
from toda._poly import bracketed_newton


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
