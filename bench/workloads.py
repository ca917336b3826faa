"""The four benchmark workloads and the check each operation must pass.

Every workload draws its inputs from the documented generator
``toda.random_jacobi`` with a seeded ``numpy`` generator, so one seed gives
one input sequence.  An operation is one closed-loop call: the next starts
when the previous one returns.  Each operation is checked against the bar
the library already promises; it fails when a call raises or a returned
result misses that bar (class ``silent``, or ``reported`` when the command
itself exited 1 on its own check).

Each workload runs only at sizes where the current code met its bar on every
input tried (thousands of matrices, hundreds of CLI seeds), so any failure
is a regression and makes the run incorrect.  The sizes just past them,
where the code is known to fail, are named in each workload's ``why``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

import numpy as np

# Gate 1: both inverse routes match the input and each other.
ROUNDTRIP_BAR = 1e-8
# Gate 10: spectral flow against RK4 on the matrix, and the RK4 drift.
FLOW_MATRIX_BAR = 1e-6
FLOW_DRIFT_BAR = 1e-8
# Gate 11: the transversal flow keeps the divisor and translates the
# quasimomenta.
TFLOW_BAR = 1e-9
FLOW_T1 = 0.5
FLOW_SAMPLES = 11
# Every run warms up on the same input, so set-up does the same work for
# every seed.
WARM_UP_SEED = 0
# A miss with no finite residual / bar (a zero bar, or a result that is not
# finite) counts as this ratio.
WORST_RATIO = 1e300


@dataclass
class Outcome:
    seconds: float
    classes: list = field(default_factory=list)
    # Worst residual / bar over the results the operation returned; None
    # when nothing was returned.
    ratio: float | None = None
    size: int | None = None
    # Whether each inverse route met the bar.
    routes: list = field(default_factory=list)
    # Set by the runner: perf_counter() when the operation started, the
    # calibration kernel's time around it, and the index of that calibration
    # window.
    start: float = 0.0
    kernel_s: float = 0.0
    window: int = 0

    @property
    def ok(self) -> bool:
        return not self.classes


def _distance(a, b) -> float:
    """Worst entrywise distance of two matrices (anything with ``v``, ``c``);
    infinite when the shapes differ or an entry is not a number."""
    x = np.concatenate([np.asarray(a.v, dtype=float), np.asarray(a.c, dtype=float)])
    y = np.concatenate([np.asarray(b.v, dtype=float), np.asarray(b.c, dtype=float)])
    if x.shape != y.shape or not np.all(np.isfinite(x)):
        return math.inf
    return float(np.max(np.abs(x - y)))


class _Stream(io.StringIO):
    """Captures a stream and the class of any exception being handled while
    it is written to: ``toda.cli.main`` prints ``error: ...`` inside its
    ``except`` clause, which is the only place the class is still visible."""

    def __init__(self):
        super().__init__()
        self.exceptions: list[str] = []

    def write(self, s):
        exc = sys.exc_info()[1]
        if exc is not None:
            self.exceptions.append(type(exc).__name__)
        return super().write(s)


def _run_cli(cli, argv):
    out, err = io.StringIO(), _Stream()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.exceptions


def _cli_failure(code, raised) -> list:
    """Failure classes of a CLI call that did not exit 0."""
    if raised:
        return raised[:1]
    return ["reported"] if code == 1 else ["exit%d" % code]


class Workload:
    name = ""
    why = ""
    # Sizes (or setups) the input sequence cycles through; runs measure
    # whole cycles so every run has the same mix.
    cycle = ()
    # Latency tail percentile: fixed per workload so two commits compare the
    # same percentile.  It is the highest percentile that leaves at least ten
    # operations beyond it in a 25 s run of the seed commit, except where a
    # higher one spread by more than the bound from seed to seed.  Each
    # result records the count beyond it.
    tail_percentile = 99.0
    # Initial inputs built during set-up; more are drawn untimed if needed.
    pool = 100
    # Operations in the fixed list the traced run repeats.
    trace_ops = 4

    def __init__(self, toda, seed: int):
        self.toda = toda
        self.rng = np.random.default_rng(seed)
        self.warm_rng = np.random.default_rng(WARM_UP_SEED)
        self.count = 0

    def next_input(self):
        item = self.make(self.rng, self.cycle[self.count % len(self.cycle)])
        self.count += 1
        return item

    def warm_up_input(self):
        return self.make(self.warm_rng, self.cycle[0])

    def make(self, rng, size):
        return self.toda.random_jacobi(rng, size)

    def prepare(self, item) -> None:
        """Untimed, untraced work an input needs before it is run (its
        reference answer)."""

    def warm_up(self, item) -> None:
        self.prepare(item)
        self.run(item)

    def run(self, item) -> Outcome:
        raise NotImplementedError


class _Roundtrip(Workload):
    def run(self, m) -> Outcome:
        t = self.toda
        classes = []
        cf = lz = None
        start = perf_counter()
        try:
            sd = t.eigen(m)
        except Exception as exc:  # any raise is a failure of this operation
            return Outcome(perf_counter() - start, [type(exc).__name__], size=m.n)
        try:
            cf = t.stieltjes_reconstruct(t.to_quotient(t.weyl_from_spectral(sd)))
        except Exception as exc:
            classes.append(type(exc).__name__)
        try:
            lz = t.lanczos_reconstruct(sd)
        except Exception as exc:
            classes.append(type(exc).__name__)
        seconds = perf_counter() - start
        residuals = []
        routes = []
        for rec in (cf, lz):
            if rec is None:
                routes.append(False)
                continue
            err = _distance(rec, m)
            residuals.append(err)
            routes.append(err <= ROUNDTRIP_BAR)
        if cf is not None and lz is not None:
            residuals.append(_distance(cf, lz))
        worst = max(residuals) if residuals else None
        if worst is not None and not worst <= ROUNDTRIP_BAR:
            classes.append("silent")
        ratio = None if worst is None else min(worst / ROUNDTRIP_BAR, WORST_RATIO)
        return Outcome(seconds, classes, ratio, m.n, routes)


class GateRoundtrip(_Roundtrip):
    name = "gate-roundtrip"
    why = (
        "gate 1 traffic: eigen, to_quotient and both inverse routes at N=2..8, bar 1e-8; "
        "per-call overhead and eigen dominate; no failures on the seed code"
    )
    cycle = tuple(range(2, 9))
    # Above p90 the tail is set by sub-second host stalls: over ten seeds
    # p95 spread by 16%, p99 by 28% and p99.5 by 30%; p90 by 6%.
    tail_percentile = 90.0
    pool = 6000
    trace_ops = 28


class SpectralMid(_Roundtrip):
    name = "spectral-mid"
    why = (
        "gate 1 pipeline and bar at N=10,12, past gate 1's N<=8; eigen ~70%, then to_quotient and "
        "Lanczos; seed code fails from N=16 (Lanczos silent, ~1 in 10^4; 27% at N=32)"
    )
    cycle = (10, 12)
    tail_percentile = 90.0
    pool = 1500
    trace_ops = 8


class VerifyAll(Workload):
    name = "verify-all"
    why = (
        "toda verify --suite all in-process at N=4, one CLI seed per op; FD chart Jacobians and "
        "zeros dominate; seed code fails at N=6 (12 of CLI seeds 0-39: Overflow, NotHerglotz)"
    )
    cycle = (4,)
    tail_percentile = 60.0
    pool = 40
    trace_ops = 4

    def __init__(self, toda, seed):
        super().__init__(toda, seed)
        self.thresholds = None

    def make(self, rng, n):
        return (int(rng.integers(0, 2**31 - 1)), n)

    def warm_up(self, item) -> None:
        """Run the suites once through the library, which also returns the
        bar of every check.  A warm-up seed that raises is replaced by the
        next one."""
        suites = self.toda.suites
        for _ in range(10):
            try:
                _, self.thresholds = suites.run_suites(suites.SUITE_NAMES, *item)
                return
            except self.toda.TodaError:
                item = self.warm_up_input()
        raise RuntimeError("no warm-up seed ran the suites without an error")

    def run(self, item) -> Outcome:
        s, n = item
        argv = ["verify", "--suite", "all", "--seed", str(s), "--N", str(n)]
        start = perf_counter()
        try:
            code, out, raised = _run_cli(self.toda.cli, argv)
        except Exception as exc:
            return Outcome(perf_counter() - start, [type(exc).__name__], size=n)
        seconds = perf_counter() - start
        if code not in (0, 1) or raised:
            return Outcome(seconds, _cli_failure(code, raised), size=n)
        try:
            worst = self._worst_ratio(json.loads(out))
        except (ValueError, TypeError):
            return Outcome(seconds, ["schema"], size=n)
        classes = []
        if worst > 1.0:
            classes.append("reported" if code == 1 else "silent")
        elif code != 0:
            classes.append("exit%d" % code)
        return Outcome(seconds, classes, worst, n)

    def _worst_ratio(self, report) -> float:
        """Worst residual / bar of a verify report; ValueError when the
        report does not carry exactly the checks the suites define."""
        if not isinstance(report, dict) or set(report) != set(self.thresholds):
            raise ValueError("report checks differ from the suites' checks")
        worst = 0.0
        for name, bar in self.thresholds.items():
            res = float(report[name])
            if bar > 0 and not math.isnan(res):
                ratio = res / bar
            else:
                ratio = 0.0 if res == 0 else WORST_RATIO
            worst = max(worst, min(ratio, WORST_RATIO))
        return worst


class FlowTrajectory(Workload):
    name = "flow-trajectory"
    why = (
        "toda flow H vs lax_integrate and T keeping the divisor, N=4; RK4, rebuilds of one "
        "spectrum and serialize dominate; seed code fails from N=6 (T flow silent, 0.7%; 4% at N=8)"
    )
    cycle = (4,)
    # Over ten seeds p75 spread by 9%, p80 and p85 by 15-16%; p70 by 6%.
    tail_percentile = 70.0
    pool = 90
    trace_ops = 6

    def make(self, rng, n):
        ser = self.toda.serialize
        m = self.toda.random_jacobi(rng, n)
        return {"m": m, "doc": ser.dumps(ser.to_dict(m)), "dq0": None}

    def prepare(self, item) -> None:
        if item["dq0"] is None:
            t = self.toda
            item["dq0"] = t.pi_from(t.weyl(item["m"]))

    def _argv(self, doc, family, j):
        return ["flow", "--in", doc, "--family", family, "--j", str(j),
                "--t0", "0", "--t1", str(FLOW_T1), "--samples", str(FLOW_SAMPLES)]

    def run(self, item) -> Outcome:
        t = self.toda
        m, dq0 = item["m"], item["dq0"]
        classes = []
        lax = None
        start = perf_counter()
        try:
            code_h, out_h, raised_h = _run_cli(t.cli, self._argv(item["doc"], "H", 2))
            try:
                lax, drift = t.lax_integrate(m, FLOW_T1, 1e-3)
            except Exception as exc:
                classes.append(type(exc).__name__)
            code_t, out_t, raised_t = _run_cli(t.cli, self._argv(item["doc"], "T", 1))
        except Exception as exc:
            return Outcome(perf_counter() - start, [type(exc).__name__], size=m.n)
        seconds = perf_counter() - start
        ratios = []
        if code_h != 0:
            classes += _cli_failure(code_h, raised_h)
        elif lax is not None:
            ratios.append(_parsed(_h_ratio, out_h, lax, drift))
        if code_t != 0:
            classes += _cli_failure(code_t, raised_t)
        else:
            ratios.append(_parsed(_t_ratio, out_t, dq0))
        if None in ratios:
            classes.append("schema")
            ratios = [r for r in ratios if r is not None]
        ratio = min(max(ratios), WORST_RATIO) if ratios else None
        if ratio is not None and not ratio <= 1.0:
            classes.append("silent")
        return Outcome(seconds, classes, ratio, m.n)


def _parsed(check, out: str, *args):
    """The check's ratio, or None when the output does not parse."""
    try:
        return check(out, *args)
    except (ValueError, TypeError, KeyError, IndexError):
        return None


def _h_ratio(out: str, lax, drift: float) -> float:
    """Final sample of the H trajectory against RK4, and the RK4 drift."""
    last = _records(out)[-1]["matrix"]
    return max(_distance(SimpleNamespace(**last), lax) / FLOW_MATRIX_BAR,
               drift / FLOW_DRIFT_BAR)


def _t_ratio(out: str, dq0) -> float:
    """Every T sample keeps the divisor and translates the quasimomenta."""
    records = _records(out)
    if len(records) != FLOW_SAMPLES:
        raise ValueError("expected %d samples, got %d" % (FLOW_SAMPLES, len(records)))
    worst = 0.0
    for rec, when in zip(records, np.linspace(0.0, FLOW_T1, FLOW_SAMPLES)):
        worst = max(
            worst,
            abs(rec["t"] - when),
            float(np.max(np.abs(np.asarray(rec["gammas"], dtype=float) - dq0.gammas))),
            float(np.max(np.abs(np.asarray(rec["pis"], dtype=float) - (dq0.pis + when)))),
        )
    return worst / TFLOW_BAR if not math.isnan(worst) else math.inf


def _records(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


WORKLOADS = {w.name: w for w in (GateRoundtrip, SpectralMid, VerifyAll, FlowTrajectory)}
