"""Benchmark of the toda library: one workload per run, one closed-loop
caller, every operation checked against the bar the library promises.

    python3 bench/run.py --workload gate-roundtrip --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats a fixed
list of operations alternately untraced and traced (spans around every
public ``toda`` function, see ``tracer.py``) and reports the per-layer
metrics.  Metric names and units are listed in ``BENCHMARK.json`` at the root
of the repository.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, the failure classes, and where the full
result (with the environment record) was written, under ``bench/out/``.
The bounded times are scaled by a calibration kernel timed alongside (see
``KERNEL_REF_S``); the raw wall-clock values are printed next to them.

``correct`` is false when any operation failed.  Every workload runs at
sizes where the current code meets its bar on every input tried (see
``workloads.py``), so a failure is a regression, not noise.

The program is imported from ``src/`` of the checkout this file sits in; the
run stops with exit code 2 if it is not there.
"""

from __future__ import annotations

import os

# One caller thread: pin BLAS/OpenMP pools before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from decimal import Decimal, localcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up (import, inputs, warm-up) runs this many times; setup_s is the median.
SETUP_REPEATS = 3

# The host this benchmark was built on runs identical work up to twice as
# slowly from one minute to the next, for reasons outside the benchmark
# process.  The bounded times are therefore scaled to one machine speed:
# a fixed calibration kernel (no toda code) is timed between operations at
# least every CALIBRATE_EVERY seconds, and each time t is reported as
# t * KERNEL_REF_S / k, with k the kernel time around it.  KERNEL_REF_S is
# about the kernel's time on that host when quiet, so the scaled values read
# as seconds there.  The raw wall-clock values are printed and recorded next
# to them.
CALIBRATE_EVERY = 0.5
KERNEL_REF_S = 1.0e-3

# The bounded end-to-end metrics.  fail_share (0 on a correct run) and
# error_vs_bar (a worst case over residuals that spread over decades from
# seed to seed) are printed and recorded with them but carry no bound.
END_TO_END = {
    "goodput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
UNBOUNDED = {"fail_share": "share", "error_vs_bar": "ratio"}

# N = 4 and 8 come from gate-roundtrip, 10 and 12 from spectral-mid.
SWEEP_SIZES = (4, 8, 10, 12)
SWEEP_FUNCTIONS = (
    "spectral_direct.eigen",
    "rational_weyl.to_quotient",
    "spectral_inverse.stieltjes_reconstruct",
    "spectral_inverse.lanczos_reconstruct",
)
TIMED_FUNCTIONS = SWEEP_FUNCTIONS + (
    "rational_weyl.zeros",
    "poisson.canonical_report",
    "poisson.dual_identities",
    "flows.lax_integrate",
    "coordinates.pi_from",
    "coordinates.theta_from",
    "coordinates.w_from_divisor",
    "serialize.dumps",
)


def per_layer_units() -> dict:
    units = {}
    for layer in tracer.LAYERS:
        units[layer + ".calls"] = "1/op"
        units[layer + ".self_ms"] = "ms/op"
        units[layer + ".errors"] = "1/op"
    for fn in TIMED_FUNCTIONS:
        units[fn + ".ms"] = "ms/op"
    units["rational_weyl.zeros.calls"] = "1/op"
    units["serialize.dumps.bytes"] = "B/op"
    units["flows.lax_integrate.steps_per_s"] = "1/s"
    units["spectral_inverse.good_ratio"] = "share"
    for fn in SWEEP_FUNCTIONS:
        for n in SWEEP_SIZES:
            units["%s.ms.N%d" % (fn, n)] = "ms"
    units["trace.overhead_share"] = "share"
    return units


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "clock": "CPU frequency not pinned",
    }


def _kernel() -> float:
    """Fixed work in the style of the program: a Sturm-like recurrence on
    small numpy arrays, 50-digit decimal arithmetic, a Python loop."""
    x = np.linspace(-1.0, 1.0, 32)
    c = np.full(8, 0.5)
    acc = 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(1)
        for i in range(16):
            q = x - 0.1 * i
            count = np.zeros_like(q)
            for ck in c:
                q = (x - ck) - ck * ck / np.where(q == 0.0, 1e-300, q)
                count += q < 0
            acc += float(count.sum())
            for k in range(6):
                d = d * Decimal("1.000001") - Decimal(k) / Decimal(7)
            acc += sum(j * 0.5 for j in range(10))
    return acc + float(d)


def calibrate() -> float:
    """Kernel time: the median of five back-to-back runs.  A median tracks
    the host's typical speed over the operations around it; the fastest run
    tracks its least busy moment, which moved runs of the same inputs by
    twice as much on the host this was built on."""
    times = []
    for _ in range(5):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def set_up(workload_cls, seed: int):
    """Import toda and toda.cli afresh, build the input pool, warm up."""
    for name in [n for n in sys.modules if n == "toda" or n.startswith("toda.")]:
        del sys.modules[name]
    start = perf_counter()
    toda = importlib.import_module("toda")
    importlib.import_module("toda.cli")
    workload = workload_cls(toda, seed)
    pool = [workload.next_input() for _ in range(workload.pool)]
    workload.warm_up(workload.warm_up_input())
    return perf_counter() - start, workload, pool


def measure(workload, pool, seconds: float) -> tuple[list, list]:
    """Closed loop over whole input cycles until ``seconds`` have passed.

    Returns the outcomes, each with the kernel time around it (the mean of
    the calibrations before and after its cycle), and the raw calibrations.
    """
    outcomes, kernel = [], [calibrate()]
    deadline = perf_counter() + seconds
    calibrated = perf_counter()
    window = []
    while True:
        for _ in workload.cycle:
            i = len(outcomes)
            item = pool[i] if i < len(pool) else workload.next_input()
            workload.prepare(item)
            began = perf_counter()
            outcome = workload.run(item)
            outcome.start = began
            outcomes.append(outcome)
            window.append(outcome)
        done = perf_counter() >= deadline
        if done or perf_counter() - calibrated >= CALIBRATE_EVERY:
            kernel.append(calibrate())
            calibrated = perf_counter()
            for o in window:
                o.kernel_s = 0.5 * (kernel[-2] + kernel[-1])
                o.window = len(kernel) - 2
            window = []
        if done:
            return outcomes, kernel


def percentile(outcomes: list, times: list, q: float) -> float:
    """Latency at percentile ``q`` with every failure ranked slower than
    every success.  A percentile that lands on a failure reports the mean
    time of the failed operations, which keeps it steady from run to run."""
    ok = sorted(t for o, t in zip(outcomes, times) if o.ok)
    index = min(len(outcomes) - 1, math.floor(q / 100.0 * len(outcomes)))
    if index < len(ok):
        return ok[index]
    return statistics.fmean(t for o, t in zip(outcomes, times) if not o.ok)


def goodput(workload, outcomes: list, times: list) -> float:
    """Passed operations per second: the pass share times the operations in
    one input cycle, over the median time of a whole cycle.  The median keeps
    host stalls out, and whole cycles keep the size mix the same."""
    k = len(workload.cycle)
    cycles = [sum(times[i:i + k]) for i in range(0, len(times) - k + 1, k)]
    return sum(o.ok for o in outcomes) / len(outcomes) * k / statistics.median(cycles)


def tail_latency(outcomes: list, times: list, q: float) -> tuple[float, int]:
    """Latency at percentile ``q``, and the fewest operations it rests on.

    The run is cut into blocks of whole calibration windows, each closed at
    the first window boundary after it holds enough operations to leave ten
    beyond ``q``; the result is the median over blocks of each block's
    percentile.  Each window is scaled by its own kernel time, so the median
    drops the blocks where the kernel misjudged the host.  A run with fewer
    than three blocks is one block.
    """
    enough = 1
    while enough - 1 - math.floor(q / 100.0 * enough) < 10:
        enough += 1
    blocks = [[]]
    for o, t in zip(outcomes, times):
        if len(blocks[-1]) >= enough and o.window != blocks[-1][-1][0].window:
            blocks.append([])
        blocks[-1].append((o, t))
    if len(blocks) > 1 and len(blocks[-1]) < enough:
        blocks[-2].extend(blocks.pop())
    if len(blocks) < 3:
        return percentile(outcomes, times, q), len(outcomes)
    values = [percentile([o for o, _ in b], [t for _, t in b], q) for b in blocks]
    return statistics.median(values), min(len(b) for b in blocks)


def fail_classes(outcomes: list) -> dict:
    tally: dict = {}
    for o in outcomes:
        for cls in dict.fromkeys(o.classes):
            tally[cls] = tally.get(cls, 0) + 1
    return dict(sorted(tally.items()))


def end_to_end(workload, outcomes, kernel, setups) -> tuple[dict, dict]:
    """Bounded metrics from kernel-scaled times; raw values in the detail."""
    n = len(outcomes)
    n_ok = sum(o.ok for o in outcomes)
    raw = [o.seconds for o in outcomes]
    scaled = [o.seconds * KERNEL_REF_S / o.kernel_s for o in outcomes]
    ratios = [o.ratio for o in outcomes if o.ratio is not None]
    q = workload.tail_percentile
    tail, tail_ops = tail_latency(outcomes, scaled, q)
    metrics = {
        "goodput_ops_per_s": goodput(workload, outcomes, scaled),
        "latency_p50_ms": 1000.0 * percentile(outcomes, scaled, 50.0),
        "latency_tail_ms": 1000.0 * tail,
        "setup_s": statistics.median(t * KERNEL_REF_S / k for t, k in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "fail_share": (n - n_ok) / n,
        "error_vs_bar": max(ratios) if ratios else None,
        "fail_classes": fail_classes(outcomes),
        "tail_percentile": q,
        # Operations beyond the tail percentile, in the smallest block when
        # it is a median over blocks.
        "tail_samples_beyond": tail_ops - 1 - min(tail_ops - 1, math.floor(q / 100.0 * tail_ops)),
        "operations": n,
        "raw_goodput_ops_per_s": goodput(workload, outcomes, raw),
        "raw_latency_p50_ms": 1000.0 * percentile(outcomes, raw, 50.0),
        "raw_latency_tail_ms": 1000.0 * tail_latency(outcomes, raw, q)[0],
        "raw_setup_s": statistics.median(t for t, _ in setups),
        "kernel_ms": [1000.0 * k for k in kernel],
        "ops": [[o.start - outcomes[0].start, o.seconds, o.size, o.ok, o.ratio, o.kernel_s]
                for o in outcomes],
    }
    return metrics, detail


def traced_run(workload, pool, seconds: float, spans: tracer.Tracer):
    """Repeat a fixed list of operations, each once untraced and once traced,
    in whole passes while another pass still fits in ``seconds``.  Which of
    the two runs first alternates from one operation to the next, so neither
    side always runs on an input the other has just warmed."""
    items = pool[: workload.trace_ops]
    for item in items:
        workload.prepare(item)
    plain_s = traced_s = 0.0
    traced, passes = [], 0
    start = perf_counter()
    while True:
        began = perf_counter()
        for item in items:
            plain_first = len(traced) % 2 == 0
            if plain_first:
                plain_s += workload.run(item).seconds
            spans.op = len(traced)
            spans.install()
            try:
                outcome = workload.run(item)
            finally:
                spans.uninstall()
            if not plain_first:
                plain_s += workload.run(item).seconds
            traced_s += outcome.seconds
            traced.append(outcome)
        passes += 1
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return traced, plain_s, traced_s, passes


def per_layer(traced, spans, plain_s, traced_s) -> dict:
    s = tracer.summarize(spans)
    n = len(traced)
    metrics = {}
    for layer in tracer.LAYERS:
        metrics[layer + ".calls"] = s["layer_calls"].get(layer, 0) / n
        metrics[layer + ".self_ms"] = 1000.0 * s["layer_self_s"].get(layer, 0.0) / n
        metrics[layer + ".errors"] = s["layer_errors"].get(layer, 0) / n
    for fn in TIMED_FUNCTIONS:
        metrics[fn + ".ms"] = 1000.0 * s["fn_time_s"].get(fn, 0.0) / n
    metrics["rational_weyl.zeros.calls"] = s["fn_calls"].get("rational_weyl.zeros", 0) / n
    metrics["serialize.dumps.bytes"] = s["fn_extra"].get("serialize.dumps", 0) / n
    lax_s = s["fn_time_s"].get("flows.lax_integrate", 0.0)
    metrics["flows.lax_integrate.steps_per_s"] = (
        s["fn_extra"].get("flows.lax_integrate", 0) / lax_s if lax_s else 0.0
    )
    routes = [good for o in traced for good in o.routes]
    if routes:
        good, attempts = sum(routes), len(routes)
    else:
        # No per-route check in this workload: a reconstruction that
        # returned counts as good.
        inverse = SWEEP_FUNCTIONS[2:]
        attempts = sum(s["fn_calls"].get(fn, 0) for fn in inverse)
        good = attempts - sum(s["fn_errors"].get(fn, 0) for fn in inverse)
    metrics["spectral_inverse.good_ratio"] = good / attempts if attempts else 0.0
    for fn in SWEEP_FUNCTIONS:
        for size in SWEEP_SIZES:
            times = s["by_size_s"].get((fn, size))
            metrics["%s.ms.N%d" % (fn, size)] = 1000.0 * statistics.median(times) if times else 0.0
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toda" / "__init__.py").is_file():
        print("error: no toda package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]

    setups = []
    _kernel()
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        seconds, workload, pool = set_up(workload_cls, args.seed)
        setups.append((seconds, 0.5 * (before + calibrate())))
    toda = workload.toda
    if Path(toda.__file__).resolve().parent != SRC / "toda":
        print("error: toda was imported from %s, not %s" % (toda.__file__, SRC), file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if args.trace:
        spans = tracer.Tracer(toda.TodaError)
        outcomes, plain_s, traced_s, passes = traced_run(workload, pool, args.seconds, spans)
        metrics = per_layer(outcomes, spans.spans, plain_s, traced_s)
        units = per_layer_units()
        detail = {"passes": passes, "ops_per_pass": len(outcomes) // passes,
                  "untraced_s": plain_s, "traced_s": traced_s, "spans": len(spans.spans),
                  "fail_classes": fail_classes(outcomes)}
        spans.write(stem.with_suffix(".spans.jsonl"))
    else:
        outcomes, kernel = measure(workload, pool, args.seconds)
        metrics, detail = end_to_end(workload, outcomes, kernel, setups)
        units = END_TO_END

    failed = sum(not o.ok for o in outcomes)
    line = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    result = {"workload": args.workload, "why": workload.why, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(args.seed),
              **line, "detail": detail}
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")

    width = max(len(k) for k in units)
    print("workload %s  seed %d  trace %d  attempted %d  failed %d"
          % (args.workload, args.seed, args.trace, line["attempted"], failed))
    for key, unit in units.items():
        print("  %-*s %14.6g %s" % (width, key, metrics[key], unit))
    for key, unit in UNBOUNDED.items():
        if key in detail:
            value = detail[key]
            shown = "%14.6g" % value if value is not None else "%14s" % "n/a"
            print("  %-*s %s %s (no bound)" % (width, key, shown, unit))
    for key, value in detail.items():
        if key not in UNBOUNDED and key not in ("ops", "kernel_ms"):
            print("  %-*s %s" % (width, key, value))
    print("  result written to %s" % stem.with_suffix(".json").relative_to(ROOT))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
