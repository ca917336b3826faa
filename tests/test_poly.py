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
from test_stacks import _divisor_problem, _zero_brackets, extreme_charts, pole_sums, stack
from toda import _poly
from toda._poly import (
    _EPS,
    _SAMPLE_CLEARANCE,
    _SAMPLE_PAD,
    _SCALAR_TERMS,
    _newton_lane,
    _secular_lanes,
    _secular_lockstep,
    bracketed_newton,
    offspectrum_samples,
    secular_roots,
)
from toda.coordinates import _poles_from_divisor, _quasimomenta
from toda.rational_weyl import _zeros


def _newton_lanes(step_side, lo, hi, *, scale=1.0):
    """``bracketed_newton``'s problem solved one bracket at a time by
    ``_newton_lane``, on Python floats, its point ``step_side`` at that one
    lane: the root lies below x when the side is True."""
    lo, hi, scale = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, scale)))

    def point(x):
        step, below = step_side(np.array([x]))
        return bool(below[0]), float(step[0])

    lanes = zip(lo.ravel().tolist(), hi.ravel().tolist(), scale.ravel().tolist())
    return np.array([_newton_lane(point, True, *lane) for lane in lanes]).reshape(lo.shape)


# Each bracketed_newton test runs the numpy lockstep and the lane by lane.
_SOLVES = (bracketed_newton, _newton_lanes)


def test_bracketed_newton_takes_newton_steps_inside_the_bracket():
    for solve in _SOLVES:
        calls = []

        def step_side(x):
            calls.append(x.copy())
            return (x * x - 2.0) / (2.0 * x), x * x > 2.0

        root = solve(step_side, [1.0], [2.0])
        assert root[0] == pytest.approx(np.sqrt(2.0), abs=4e-16)
        assert len(calls) <= 6


def test_bracketed_newton_bisects_when_a_step_leaves_the_bracket():
    """Every step overshoots upward, so every iterate is a bracket midpoint."""
    for solve in _SOLVES:
        xs = []

        def step_side(x):
            xs.append(float(x[0]))
            return np.full_like(x, -10.0), x > 0.3

        root = solve(step_side, [0.0], [1.0])
        assert xs[:5] == [0.5, 0.25, 0.375, 0.3125, 0.28125]
        assert root[0] == pytest.approx(0.3, abs=1e-15)


def test_bracketed_newton_bisects_when_newton_crawls():
    """Newton on x**40 - 2 from far above gains 1/40 per step; bisection
    steps take over so the root comes well inside the iteration cap."""
    for solve in _SOLVES:
        calls = []

        def step_side(x):
            calls.append(1)
            return (x**40 - 2.0) / (40.0 * x**39), x**40 > 2.0

        root = solve(step_side, [0.5], [100.0])
        assert root[0] == pytest.approx(2.0 ** (1 / 40), abs=4e-16)
        assert len(calls) <= 60


def test_bracketed_newton_takes_a_step_of_half_the_move_before_last():
    """The crawl rule's boundary: the third step, 1/16, is exactly half the
    move before last, 1/8, and is taken, not replaced by the midpoint."""
    for solve in _SOLVES:
        xs = []

        def step_side(x):
            xs.append(float(x[0]))
            step = np.where(x == 0.5, 0.125, np.where((x == 0.375) | (x == 0.3125), 0.0625, x - 0.2))
            return step, x > 0.2

        root = solve(step_side, [0.0], [1.0])
        assert xs[:4] == [0.5, 0.375, 0.3125, 0.25]
        assert root[0] == pytest.approx(0.2, abs=1e-16)


def test_bracketed_newton_replaces_nonfinite_steps_by_midpoints():
    def step_side(x):
        return np.full_like(x, np.nan), x > 0.7

    for solve in _SOLVES:
        root = solve(step_side, [0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(root, [0.7, 0.7], atol=1e-15, rtol=0)


def test_bracketed_newton_raises_at_its_cap():
    """Bisection alone needs about 250 halvings to narrow this bracket."""

    def step_side(x):
        return np.full_like(x, np.nan), x > 0.3

    for solve in _SOLVES:
        with pytest.raises(ConvergenceFailure):
            solve(step_side, [0.0], [1e60])


def test_bracketed_newton_floor_follows_scale():
    """Near zero the absolute floor is 4 eps * scale, not 4 eps."""

    def step_side(x):
        return np.full_like(x, np.nan), x > 1e-9

    for solve in _SOLVES:
        coarse = solve(step_side, [0.0], [1e-8])[0]
        fine = solve(step_side, [0.0], [1e-8], scale=1e-8)[0]
        assert abs(fine - 1e-9) <= 4e-24
        assert abs(coarse - 1e-9) <= 1e-15


def test_bracketed_newton_takes_a_scale_per_row():
    """An array scale sets each row's floor: every row stops where its own
    solve with that scalar scale stops."""

    def step_side(x):
        return np.full_like(x, np.nan), x > 1e-9

    lo, hi = np.zeros((2, 1)), np.full((2, 1), 1e-8)
    for solve in _SOLVES:
        both = solve(step_side, lo, hi, scale=np.array([[1.0], [1e-8]]))
        assert both[0, 0] == solve(step_side, [0.0], [1e-8])[0]
        assert both[1, 0] == solve(step_side, [0.0], [1e-8], scale=1e-8)[0]


def test_bracketed_newton_returns_zero_width_brackets_unchanged():
    def step_side(x):
        return x - 0.3, x > 0.3

    for solve in _SOLVES:
        root = solve(step_side, [0.0, 0.7], [1.0, 0.7])
        assert root[1] == 0.7
        assert root[0] == pytest.approx(0.3, abs=1e-15)


# Every bracketed_newton case above, unrecorded, and steps that are infinite
# or land exactly on a bracket end: (step_side, lo, hi, scale).
_NEWTON_CASES = {
    "newton": (lambda x: ((x * x - 2.0) / (2.0 * x), x * x > 2.0), [1.0], [2.0], 1.0),
    "overshoot": (lambda x: (np.full_like(x, -10.0), x > 0.3), [0.0], [1.0], 1.0),
    "crawl": (lambda x: ((x**40 - 2.0) / (40.0 * x**39), x**40 > 2.0), [0.5], [100.0], 1.0),
    "nonfinite": (lambda x: (np.full_like(x, np.nan), x > 0.7), [0.0, 0.0], [1.0, 1.0], 1.0),
    "infinite": (lambda x: (np.where(x > 0.4, np.inf, -np.inf), x > 0.4), [0.0], [1.0], 1.0),
    "bracket ends": (lambda x: (x - np.where(x > 0.6, 0.5, 1.0), x > 0.6), [0.0], [1.0], 1.0),
    "cap": (lambda x: (np.full_like(x, np.nan), x > 0.3), [0.0], [1e60], 1.0),
    "scale floor": (
        lambda x: (np.full_like(x, np.nan), x > 1e-9), np.zeros((3, 1)),
        np.full((3, 1), 1e-8), np.array([[1.0], [1e-8], [0.0]]),
    ),
    "zero width": (  # the last bracket's step is small enough to be taken
        lambda x: (x - 0.3, x > 0.3), [0.0, 0.7, 0.2, np.nextafter(0.3, 1.0)],
        [1.0, 0.7, 0.2, np.nextafter(0.3, 1.0)], 1.0,
    ),
}


def _newton_outcome(solve, step_side, lo, hi, scale):
    try:
        return solve(step_side, lo, hi, scale=scale)
    except ConvergenceFailure as exc:
        return str(exc)


@pytest.mark.parametrize("case", _NEWTON_CASES)
def test_newton_lane_is_bitwise_bracketed_newton(case):
    """Lane by lane, ``_newton_lane`` gives ``bracketed_newton``'s roots bit
    for bit, or raises its message at the cap."""
    lockstep = _newton_outcome(bracketed_newton, *_NEWTON_CASES[case])
    lanes = _newton_outcome(_newton_lanes, *_NEWTON_CASES[case])
    if isinstance(lockstep, str) or isinstance(lanes, str):
        assert lanes == lockstep == "bracketed Newton hit the iteration cap"
    else:
        assert lanes.tobytes() == lockstep.tobytes()


def _secular_problems(n, rows):
    """``secular_roots`` arguments: the zeros (beta = 0) and the divisor
    inversion (beta = 1) of ``rows`` pole sums at n sites, the pi = +-30
    charts, and integer poles with brackets centred on them, so the first
    step lands exactly on a pole (one weight zero, where t a is inf * 0)."""
    lam, rho = (v[:rows] for v in stack(pole_sums(n) + pole_sums(n, seed=2)))
    lo, hi = _zero_brackets(lam, rho)
    scale = np.abs(lam).max(-1, keepdims=True)
    yield lam, rho, 0.0, 0.0, lo, hi, scale
    gam, pis = _quasimomenta(lam, rho)
    for chart in (gam, pis, lam.sum(axis=1)), extreme_charts(n):
        a, alpha, lo, hi = _divisor_problem(*chart)
        yield chart[0], a, 1.0, alpha, lo, hi, np.abs(chart[0]).max(axis=1, keepdims=True)
    d = np.tile(np.arange(n, dtype=float), (rows, 1))
    a = np.tile(np.linspace(0.0, 1.0, n), (rows, 1))
    for beta in 0.0, 1.0:
        yield d, a, beta, 0.5, d - 0.5, d + 0.5, 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [1, 4, 11])
@pytest.mark.parametrize("n", [2, 4, 8, 9, 12, 17, 24])
def test_secular_lanes_are_bitwise_the_lockstep(n, rows):
    """The per-lane path and the numpy lockstep give the same bits, with no
    warning, at M poles on both sides of numpy's 8-term pairwise block and
    at lane-terms on both sides of ``_SCALAR_TERMS``; each row of a stack
    is its own solve."""
    for args in _secular_problems(n, rows):
        lockstep = _secular_lockstep(*args)
        np.testing.assert_array_equal(_secular_lanes(*args), lockstep)
        np.testing.assert_array_equal(secular_roots(*args), lockstep)
        for i in range(len(lockstep)):
            row = [v[i : i + 1] if np.ndim(v) == 2 else v for v in args]
            np.testing.assert_array_equal(_secular_lanes(*row)[0], lockstep[i])
    d, a, beta, alpha, lo, hi, scale = args  # the integer poles, beta = 1
    # Zero-width brackets, one of them on a pole, are their own roots.
    lo[:, ::2] = hi[:, ::2] = d[:, ::2] + 0.25
    lo[:, 1] = hi[:, 1] = d[:, 1]
    np.testing.assert_array_equal(_secular_lanes(*args), _secular_lockstep(*args))
    np.testing.assert_array_equal(_secular_lanes(*args)[:, ::2], d[:, ::2] + 0.25)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [_secular_lanes, _secular_lockstep])
def test_both_secular_paths_raise_at_the_cap(solve):
    """With zero weights h is 0 everywhere: every step is 0 / 0 and the root
    reads as above x, so the lane bisects up toward hi = 0, and its floor
    4 eps |x| shrinks as fast as the bracket."""
    d, a = np.array([[1.0, 2.0]]), np.zeros((1, 2))
    with pytest.raises(ConvergenceFailure, match="iteration cap"):
        solve(d, a, 0.0, 0.0, np.array([[-1e300]]), np.array([[0.0]]), 1e-300)


def test_the_crossover_sends_small_problems_lane_by_lane(monkeypatch):
    """Performance guard: up to ``_SCALAR_TERMS`` lane-terms (brackets
    times poles over the stack) ``secular_roots`` takes the per-lane path,
    and the numpy lockstep above."""
    taken = []
    for name in ("_secular_lanes", "_secular_lockstep"):
        monkeypatch.setattr(_poly, name, lambda *args, name=name: taken.append(name))
    d = np.zeros((1, 20))
    for k in _SCALAR_TERMS // 20, _SCALAR_TERMS // 20 + 1:
        secular_roots(d, d, 0.0, 0.0, np.zeros((1, k)), np.zeros((1, k)), 1.0)
    assert taken == ["_secular_lanes", "_secular_lockstep"]


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_secular_roots_match_60_digit_roots(n):
    """The zeros and the divisor inversion against mpmath's roots of the same
    secular equation at 60 digits, within 8 eps max(scale, |x|).  A zero
    pinned to its bracket edge, where the zero hugs its pole, is not solved
    and not compared."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60

    def root(d, a, beta, alpha, lo, hi):
        d, a, alpha = [mpmath.mpf(v) for v in d], [mpmath.mpf(v) for v in a], mpmath.mpf(alpha)

        def h(x):
            return beta * x + alpha + mpmath.fsum(ak / (dk - x) for dk, ak in zip(d, a))

        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        inset = (hi - lo) * mpmath.mpf(10) ** -45  # brackets may end on a pole
        lo, hi = lo + inset, hi - inset
        assert h(lo) < 0 < h(hi)
        return mpmath.findroot(h, (lo, hi), solver="anderson")

    lam, rho = stack(pole_sums(n))
    gam, pis = _quasimomenta(lam, rho)
    chart = gam, pis, lam.sum(axis=1)
    a, alpha, lo_p, hi_p = _divisor_problem(*chart)
    lo_z, hi_z = _zero_brackets(lam, rho)
    problems = (
        (_zeros(lam, rho), lam, rho, 0, np.zeros(len(lam)), lo_z, hi_z),
        (_poles_from_divisor(*chart)[0], gam, a, 1, alpha[:, 0], lo_p, hi_p),
    )
    for roots, d, a, beta, alpha, lo, hi in problems:
        for i in range(len(roots)):
            scale = np.abs(d[i]).max()
            for k in np.flatnonzero(lo[i] < hi[i]):
                x = root(d[i], a[i], beta, alpha[i], lo[i, k], hi[i, k])
                assert abs(roots[i, k] - x) <= 8 * _EPS * max(scale, abs(x)), (i, k)


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
