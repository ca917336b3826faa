"""Tests for the named verification suites and their random generators."""

from functools import lru_cache

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from toda import (
    CHART_RESTRICTED,
    CHART_UNRESTRICTED,
    Breakdown,
    InvalidData,
    SUITE_NAMES,
    cli,
    coordinates,
    flows,
    poisson,
    random_chart_point,
    random_interlacing,
    random_jacobi,
    rational_weyl,
    run_suite,
    run_suites,
    spectral_direct,
    spectral_inverse,
    suites,
)


def test_every_suite_passes_at_defaults():
    for name in SUITE_NAMES:
        residuals, thresholds = run_suite(name)
        assert residuals, name
        assert set(residuals) == set(thresholds)
        for check, value in residuals.items():
            assert np.isfinite(value) and value >= 0.0, (name, check)
            assert value <= thresholds[check], (name, check, value, thresholds[check])


def test_suites_pass_across_sizes_and_seeds():
    for seed, n in ((1, 2), (2, 3), (11, 6)):
        residuals, thresholds = run_suites(SUITE_NAMES, seed=seed, n=n)
        failed = {k: v for k, v in residuals.items() if v > thresholds[k]}
        assert not failed, (seed, n, failed)


def test_run_suites_prefixes_keys():
    residuals, thresholds = run_suites(("traces", "dual"), seed=3, n=3)
    assert set(residuals) == set(thresholds)
    assert all(k.startswith(("traces.", "dual.")) for k in residuals)


def test_a_nan_sample_fails_its_looped_check(monkeypatch):
    """A check over many samples keeps a NaN from any of them, not only from
    the first: the Abel periods and the angle linearization."""
    for fn, suite, check in (
        ("abel_period_check", "canonical", "abel_periods"),
        ("theta_flow", "flows", "theta_linearization"),
    ):
        real, calls = getattr(suites, fn), []

        def nan_second(*args, real=real, calls=calls):
            calls.append(args)
            return np.nan if len(calls) == 2 else real(*args)

        monkeypatch.setattr(suites, fn, nan_second)
        residuals, _ = run_suite(suite, seed=0, n=3)
        assert len(calls) > 2 and np.isnan(residuals[check]), check


@pytest.mark.parametrize(
    "suite, reports",
    [
        ("brackets", ("verify_formula_vs_tensor", "jacobi_residual", "antisymmetry_residual",
                      "dirac_reduce", "entry_bracket_residual")),
        ("dual", ("dual_identities",)),
    ],
)
def test_brackets_and_dual_check_the_size_asked_for(monkeypatch, suite, reports):
    """At N = 8 every random point the suite reports on has 8 poles: the
    suite checks the size it is asked for."""
    sizes = {}
    for fn in reports:
        real = getattr(suites, fn)

        def recording(pt, *args, real=real, fn=fn):
            sizes.setdefault(fn, set()).add(pt.lambdas.size)
            return real(pt, *args)

        monkeypatch.setattr(suites, fn, recording)
    residuals, thresholds = run_suite(suite, seed=0, n=8)
    assert sizes == {fn: {8} for fn in reports}
    assert all(residuals[k] <= thresholds[k] for k in residuals)


def test_unknown_suite_rejected():
    with pytest.raises(InvalidData):
        run_suite("frobnicate")


def test_random_jacobi_bounds():
    rng = np.random.default_rng(93)
    m = random_jacobi(rng, 50)
    assert m.n == 50
    assert np.all(np.abs(m.v) <= 1.0)
    assert np.all((m.c >= 0.1) & (m.c <= 2.0))
    assert random_jacobi(rng, 1).c.size == 0
    with pytest.raises(InvalidData):
        random_jacobi(rng, 0)


def test_random_chart_point_properties():
    rng = np.random.default_rng(94)
    pt = random_chart_point(rng, 6)
    assert pt.chart == CHART_RESTRICTED
    assert float(np.sum(pt.rhos)) == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.diff(pt.lambdas)) >= 0.15
    full = random_chart_point(rng, 6, CHART_UNRESTRICTED)
    assert full.chart == CHART_UNRESTRICTED
    assert np.all((full.rhos >= 0.2) & (full.rhos <= 2.0))


def test_random_interlacing_stays_inside_cells():
    rng = np.random.default_rng(95)
    lam = np.array([-1.0, 0.0, 0.4, 3.0])
    for _ in range(20):
        gam = random_interlacing(rng, lam)
        assert gam.shape == (3,)
        assert np.all(gam > lam[:-1]) and np.all(gam < lam[1:])
        width = np.diff(lam)
        assert np.all(gam >= lam[:-1] + 0.1 * width - 1e-12)
        assert np.all(gam <= lam[1:] - 0.1 * width + 1e-12)


def test_each_suite_alone_equals_its_keys_in_a_full_run():
    """The roundtrip and traces suites share one memoized draw; run alone on
    a fresh memo, every suite reports what it reports inside a full run."""
    for n in (2, 3, 4):
        for seed in (0, 5, 12):
            full, full_thr = run_suites(SUITE_NAMES, seed=seed, n=n)
            for name in SUITE_NAMES:
                suites._samples.cache_clear()
                alone, alone_thr = run_suite(name, seed=seed, n=n)
                prefix = name + "."
                assert {prefix + k: v for k, v in alone.items()} == {
                    k: v for k, v in full.items() if k.startswith(prefix)
                }, (name, seed, n)
                assert {prefix + k: v for k, v in alone_thr.items()} == {
                    k: v for k, v in full_thr.items() if k.startswith(prefix)
                }


def test_memoized_draw_is_never_stale():
    """Seed 1, then seed 2, then seed 1 again (and a change of size between)
    give the reports of runs on a fresh memo."""
    order = ((1, 4), (2, 4), (1, 3), (1, 4), (2, 4))
    reports = [run_suites(SUITE_NAMES, seed=seed, n=n) for seed, n in order]
    assert reports[3] == reports[0] and reports[4] == reports[1]
    assert reports[1][0] != reports[0][0]
    for (seed, n), report in zip(order, reports):
        suites._samples.cache_clear()
        assert run_suites(SUITE_NAMES, seed=seed, n=n) == report, (seed, n)


def _count_calls(monkeypatch, fn):
    """Count calls of ``fn`` through every toda module that binds it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for module in (cli, coordinates, flows, poisson, rational_weyl, spectral_direct,
                   spectral_inverse, suites):
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


def test_verify_all_computes_each_spectrum_once(monkeypatch, capsys):
    """verify --suite all --N 4 made 55 eigen and 47 zeros calls before the
    suites shared their draws, spectra and divisor solves."""
    eigen_calls = _count_calls(monkeypatch, spectral_direct.eigen)
    zeros_calls = _count_calls(monkeypatch, rational_weyl.zeros)
    suites._samples.cache_clear()
    assert cli.main(["verify", "--suite", "all", "--seed", "7", "--N", "4"]) == 0
    capsys.readouterr()
    assert len(eigen_calls) <= 16
    assert len(zeros_calls) <= 36


def test_traces_suite_reads_the_exponential_residual_of_each_sample():
    """The check's value is the exponential-form residual of the worst
    sample, recomputed from its shifted poles and divisor, bit for bit,
    though the suite reads it off ``krein``."""
    for seed, n in ((3, 4), (5, 8)):
        want = max(
            rational_weyl._exp_residual(*rational_weyl._shifted(w)[1:], w.residues)
            for _, _, w in suites._samples(seed, n)
        )
        got, _ = suites.suite_traces(seed, n)["exp_representation"]
        assert got == want


@lru_cache(maxsize=1)
def _per_sample_draw(seed, n):
    """``suites._samples`` as it was before the stacks: each matrix solved
    by its own ``eigen`` as it was drawn, each divisor by its own ``zeros``
    on first use.  Kept frozen, with the two suites below, as the oracle of
    the stacked suites' reports."""
    rng = np.random.default_rng(seed)
    out = []
    for size in sorted({2, 3, n}):
        for _ in range(4):
            m = random_jacobi(rng, size)
            sd = spectral_direct.eigen(m)
            out.append((m, sd, spectral_direct.weyl_from_spectral(sd)))
    return tuple(out)


def _per_sample_roundtrip(seed, n):
    res = {}
    for m, sd, w in _per_sample_draw(seed, n):
        pq = rational_weyl.to_quotient(w)
        m_cf = spectral_inverse.stieltjes_reconstruct(pq)
        m_lz = spectral_inverse.lanczos_reconstruct(sd)
        suites._merge(res, "stieltjes_roundtrip", suites._matrix_distance(m, m_cf), 1e-8)
        suites._merge(res, "lanczos_roundtrip", suites._matrix_distance(m, m_lz), 1e-8)
        suites._merge(res, "methods_agree", suites._matrix_distance(m_cf, m_lz), 1e-8)
        suites._merge(res, "residue_normalization", abs(float(np.sum(sd.rhos)) - 1.0), 1e-12)
        gam = rational_weyl.zeros(w).gammas
        viol = max(
            float(np.max(sd.lambdas[:-1] - gam)),
            float(np.max(gam - sd.lambdas[1:])),
        )
        suites._merge(res, "interlacing", max(0.0, viol), 0.0)
        dp = npoly.polyder(pq.p)
        unity = np.sum(npoly.polyval(sd.lambdas, pq.q) / npoly.polyval(sd.lambdas, dp))
        suites._merge(res, "partition_of_unity", abs(float(unity) - 1.0), 1e-10)
        resid = spectral_direct.weyl_solution_residual(m, w, suites._offpoint(sd.lambdas))
        suites._merge(res, "weyl_solution", resid, 1e-9)
        suites._merge(res, "gluing", spectral_direct.gluing_check(m, w), 1e-9)
    return res


def _per_sample_traces(seed, n):
    res = {}
    for m, _, w in _per_sample_draw(seed, n):
        shift = float(w.poles[0])
        kd = rational_weyl.krein(w)
        s_delta = rational_weyl.trace_via_delta(kd, 3)
        s_krein = rational_weyl.trace_via_krein(kd)
        s_direct = suites.moments(suites.JacobiMatrix(m.v - shift, m.c), 3)
        suites._merge(res, "delta_vs_direct", float(np.max(np.abs(s_delta - s_direct))), 1e-10)
        suites._merge(res, "krein_vs_direct", float(np.max(np.abs(s_krein - s_direct))), 1e-10)
        mom = suites.moments(m, 2)
        suites._merge(res, "first_moment_is_v0", abs(float(mom[1]) - float(m.v[0])), 1e-10)
        second = abs(float(mom[2]) - (float(m.v[0]) ** 2 + float(m.c[0]) ** 2))
        suites._merge(res, "second_moment_entries", second, 1e-10)
        suites._merge(res, "exp_representation", kd.exp_residual, 1e-10)
    kd1 = rational_weyl.krein(suites._e1_weyl())
    target = np.array([1.0, 1.0, 2.0, 4.0])
    spot = max(
        float(np.max(np.abs(rational_weyl.trace_via_delta(kd1, 3) - target))),
        float(np.max(np.abs(rational_weyl.trace_via_krein(kd1) - target))),
        float(np.max(np.abs(suites.moments(suites._E1, 3) - target))),
    )
    suites._merge(res, "e1_spot", spot, 1e-12)
    return res


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 16])
def test_stacked_samples_report_what_the_per_sample_suites_reported(monkeypatch, n):
    """The roundtrip and traces suites, which read the stacked draw, report
    to the byte what the per-sample oracle reports, over seeds 0-9 (the
    other suites draw their own data)."""
    names = ("roundtrip", "traces")
    reports = []
    for seed in range(10):
        suites._samples.cache_clear()
        reports.append(repr(run_suites(names, seed, n)))
    monkeypatch.setitem(suites._SUITES, "roundtrip", _per_sample_roundtrip)
    monkeypatch.setitem(suites._SUITES, "traces", _per_sample_traces)
    for seed in range(10):
        assert repr(run_suites(names, seed, n)) == reports[seed], seed


def test_each_size_is_one_eigen_zeros_and_lanczos_stack(monkeypatch):
    """Performance guard: the roundtrip and traces suites make one ``eigen``
    and one ``_lanczos`` call per matrix and one ``_zeros`` call per size
    (three sizes of four matrices at N = 4, two at N = 2); neither suite
    solves a spectrum, a divisor or an inversion again.  Before the stack
    they made one ``_zeros`` call per matrix, 12 at N = 4."""
    rational_weyl.zeros(suites._e1_weyl())  # solved once per process
    counts = [
        _count_calls(monkeypatch, fn)
        for fn in (spectral_direct.eigen, rational_weyl._zeros, spectral_inverse._lanczos)
    ]
    for seed, n, sizes in ((0, 4, 3), (5, 4, 3), (1, 2, 2)):
        suites._samples.cache_clear()
        for calls in counts:
            calls.clear()
        run_suites(("roundtrip", "traces"), seed, n)
        assert [len(calls) for calls in counts] == [4 * sizes, sizes, 4 * sizes], (seed, n)


def test_roundtrip_raises_the_breakdown_of_the_sample_alone(monkeypatch):
    """A sample whose Lanczos inversion breaks down (weights 1e-12 on
    eigenvalues 1e-8 apart) stops the roundtrip suite in its turn, with the
    ``Breakdown`` message that ``lanczos_reconstruct`` gives it alone; the
    samples before it are inverted, the ones after it are not."""
    fine = [random_jacobi(np.random.default_rng(s), 3) for s in range(3)]
    two = [random_jacobi(np.random.default_rng(s), 2) for s in range(2)]
    early = spectral_direct.SpectralData(
        np.array([0.0, 1e-8, 2e-8]), np.array([1 - 2e-12, 1e-12, 1e-12])
    )
    with pytest.raises(Breakdown) as alone:
        spectral_inverse.lanczos_reconstruct(early)
    samples = [(m, spectral_direct.eigen(m)) for m in [*two, fine[0]]]
    samples += [(suites.JacobiMatrix(np.zeros(3), np.ones(2)), early)]
    samples += [(m, spectral_direct.eigen(m)) for m in fine[1:]]
    samples = tuple((m, sd, spectral_direct.weyl_from_spectral(sd)) for m, sd in samples)
    monkeypatch.setattr(suites, "_samples", lambda seed, n: samples)
    inverted = []

    def recording(sd):
        inverted.append(sd)
        return spectral_inverse.lanczos_reconstruct(sd)

    monkeypatch.setattr(suites, "lanczos_reconstruct", recording)
    with pytest.raises(Breakdown) as raised:
        suites.suite_roundtrip(0, 3)
    assert str(raised.value) == str(alone.value) != ""
    assert inverted == [sd for _, sd, _ in samples[:4]]
