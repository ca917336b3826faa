"""Tests for the named verification suites and their random generators."""

import numpy as np
import pytest

from toda import (
    CHART_RESTRICTED,
    CHART_UNRESTRICTED,
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
