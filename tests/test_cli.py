"""End-to-end tests for the command-line interface.

All commands run in-process through main(argv); outputs are parsed from
capsys.  Numeric oracles are the symmetric two-site matrix, whose spectrum,
quotient, charts, brackets, and flows are all known in closed form.
"""

import json
import warnings

import numpy as np
import pytest

from toda import random_jacobi, suites
from toda.cli import main
from toda.suites import _merge

E1_MATRIX = '{"v": [1.0, 1.0], "c": [1.0]}'
E1_SPECTRAL = '{"lambdas": [0.0, 2.0], "rhos": [0.5, 0.5]}'


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_spectrum_two_site(capsys):
    doc = run_json(capsys, "spectrum", "--in", E1_MATRIX)
    np.testing.assert_allclose(doc["lambdas"], [0.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(doc["rhos"], [0.5, 0.5], atol=1e-14)
    np.testing.assert_allclose(doc["gammas"], [1.0], atol=1e-14)


def test_spectrum_single_site(capsys):
    doc = run_json(capsys, "spectrum", "--in", '{"v": [1.5], "c": []}')
    assert doc["lambdas"] == [1.5]
    assert doc["rhos"] == [1.0]
    assert doc["gammas"] == []


def test_input_from_file_matches_inline(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(E1_MATRIX)
    _, out_inline, _ = run(capsys, "spectrum", "--in", E1_MATRIX)
    _, out_file, _ = run(capsys, "spectrum", "--in", str(path))
    assert out_file == out_inline


def test_seeded_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "spectrum", "--seed", "3", "--N", "5")
    _, second, _ = run(capsys, "spectrum", "--seed", "3", "--N", "5")
    assert first == second
    assert len(json.loads(first)["lambdas"]) == 5


def test_weyl_quotient(capsys):
    doc = run_json(capsys, "weyl", "--in", E1_MATRIX)
    np.testing.assert_allclose(doc["p"], [0.0, -2.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(doc["q"], [-1.0, 1.0], atol=1e-14)


def test_reconstruct_both_methods(capsys):
    doc = run_json(capsys, "reconstruct", "--in", E1_SPECTRAL)
    np.testing.assert_allclose(doc["v"], [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(doc["c"], [1.0], atol=1e-12)
    assert doc["discrepancy"] <= 1e-12
    for method in ("cf", "lanczos"):
        doc = run_json(capsys, "reconstruct", "--in", E1_SPECTRAL, "--method", method)
        assert "discrepancy" not in doc
        np.testing.assert_allclose(doc["v"], [1.0, 1.0], atol=1e-12)


def test_spectrum_output_feeds_reconstruct(capsys):
    """`toda spectrum | toda reconstruct --method both` rebuilds the matrix;
    a divisor that does not interlace is rejected with exit 3, one of the
    wrong length with exit 2."""
    for seed, n in ((3, 1), (3, 5), (11, 8)):
        m = random_jacobi(np.random.default_rng(seed), n)
        rc, spectrum, _ = run(capsys, "spectrum", "--seed", str(seed), "--N", str(n))
        assert rc == 0
        doc = run_json(capsys, "reconstruct", "--in", spectrum, "--method", "both")
        assert doc["discrepancy"] <= 1e-8
        np.testing.assert_allclose(doc["v"], m.v, rtol=0, atol=1e-8)
        np.testing.assert_allclose(doc["c"], m.c, rtol=0, atol=1e-8)
    outside = '{"lambdas": [0.0, 2.0], "rhos": [0.5, 0.5], "gammas": [2.5]}'
    rc, _, err = run(capsys, "reconstruct", "--in", outside)
    assert rc == 3 and "interlace" in err
    extra = '{"lambdas": [0.0, 2.0], "rhos": [0.5, 0.5], "gammas": [0.5, 1.5]}'
    rc, _, _ = run(capsys, "reconstruct", "--in", extra)
    assert rc == 2


def test_reconstruct_rejects_matrix_input(capsys):
    rc, _, err = run(capsys, "reconstruct", "--in", E1_MATRIX)
    assert rc == 2
    assert "error" in err


def test_coords_charts(capsys):
    angle = run_json(capsys, "coords", "--in", E1_MATRIX, "--chart", "angle")
    assert set(angle) == {"lambdas", "thetas"}
    np.testing.assert_allclose(angle["thetas"], [0.0], atol=1e-13)
    div = run_json(capsys, "coords", "--in", E1_MATRIX, "--chart", "divisor")
    assert set(div) == {"gammas", "pis", "casimir"}
    np.testing.assert_allclose(div["gammas"], [1.0], atol=1e-13)
    np.testing.assert_allclose(div["pis"], [0.0], atol=1e-13)
    assert div["casimir"] == pytest.approx(2.0)
    both = run_json(capsys, "coords", "--in", E1_MATRIX)
    assert set(both) == {"lambdas", "thetas", "gammas", "pis", "casimir"}


def test_bracket_closed_forms(capsys):
    doc = run_json(capsys, "bracket", "--in", E1_MATRIX, "--lam", "-1", "--mu", "3")
    assert doc["w_lam"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert doc["w_mu"] == pytest.approx(-2.0 / 3.0, rel=1e-12)
    assert doc["unrestricted"] == pytest.approx(-4.0 / 9.0, rel=1e-12)
    assert doc["restricted"] == pytest.approx(4.0 / 27.0, rel=1e-12)


def test_bracket_argument_guards(capsys):
    rc, _, err = run(capsys, "bracket", "--in", E1_MATRIX, "--lam", "1.0", "--mu", "1.0000001")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "bracket", "--in", E1_MATRIX, "--lam", "0.0", "--mu", "3.0")
    assert rc == 2 and "error" in err


def test_flow_records_follow_closed_form(capsys):
    rc, out, err = run(capsys, "flow", "--in", E1_MATRIX,
                       "--t0", "0", "--t1", "2", "--samples", "11")
    assert rc == 0, err
    lines = out.strip().split("\n")
    assert len(lines) == 11
    for line in lines:
        rec = json.loads(line)
        t = rec["t"]
        assert rec["thetas"][0] == pytest.approx(2.0 * t, abs=1e-9)
        assert rec["rhos"][1] == pytest.approx(
            np.exp(2 * t) / (1 + np.exp(2 * t)), rel=1e-10
        )
        np.testing.assert_allclose(rec["lambdas"], [0.0, 2.0], atol=1e-9)
    assert json.loads(lines[0])["t"] == 0.0
    assert json.loads(lines[-1])["t"] == 2.0


def test_flow_csv_layout(capsys):
    rc, out, err = run(capsys, "flow", "--in", E1_MATRIX, "--emit-csv",
                       "--samples", "3", "--t1", "0.4")
    assert rc == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "t,v0,v1,c0,lambda0,lambda1,rho0,rho1,theta1,gamma1,pi1"
    assert len(lines) == 4
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == 0.4
    assert len(last) == 11


def test_flow_transversal_family(capsys):
    rc, out, err = run(capsys, "flow", "--in", E1_MATRIX, "--family", "T",
                       "--j", "1", "--t1", "0.8", "--samples", "5")
    assert rc == 0, err
    for line in out.strip().split("\n"):
        rec = json.loads(line)
        t = rec["t"]
        np.testing.assert_allclose(rec["gammas"], [1.0], atol=1e-9)
        np.testing.assert_allclose(
            rec["lambdas"],
            [1.0 - np.exp(t / 2), 1.0 + np.exp(t / 2)],
            atol=1e-9,
        )
        np.testing.assert_allclose(rec["matrix"]["v"], [1.0, 1.0], atol=1e-9)


def test_flow_sample_validation(capsys):
    rc, _, err = run(capsys, "flow", "--in", E1_MATRIX, "--samples", "0")
    assert rc == 2 and "error" in err


def test_verify_passes_by_default(capsys):
    doc = run_json(capsys, "verify", "--suite", "roundtrip")
    assert set(doc) == {
        "roundtrip.gluing", "roundtrip.interlacing", "roundtrip.lanczos_roundtrip",
        "roundtrip.methods_agree", "roundtrip.partition_of_unity",
        "roundtrip.residue_normalization", "roundtrip.stieltjes_roundtrip",
        "roundtrip.weyl_solution",
    }
    assert all(v >= 0.0 and np.isfinite(v) for v in doc.values())


def test_verify_tolerance_override_forces_failure(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "roundtrip",
                       "--tol", "roundtrip.gluing=1e-30")
    assert rc == 1
    assert "FAIL roundtrip.gluing" in err
    json.loads(out)  # report still printed


def test_verify_tolerance_override_guards(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "roundtrip", "--tol", "nope=1e-3")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "verify", "--suite", "roundtrip", "--tol", "roundtrip.gluing")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "verify", "--suite", "roundtrip", "--tol", "roundtrip.gluing=abc")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "verify", "--suite", "roundtrip", "--tol", "roundtrip.gluing=nan")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "verify", "--suite", "roundtrip", "--tol", "roundtrip.gluing=-1e-9")
    assert rc == 2 and "error" in err


def test_verify_fails_on_nan_residual(capsys, monkeypatch):
    """A NaN from any sample outranks the finite residuals merged before it
    and fails its check."""

    def suite(seed, n):
        res = {}
        _merge(res, "probe", 1e-12)
        _merge(res, "probe", float("nan"))
        _merge(res, "probe", 1e-13)
        return res, {"probe": 1e-6}

    monkeypatch.setitem(suites._SUITES, "traces", suite)
    rc, out, err = run(capsys, "verify", "--suite", "traces")
    assert rc == 1
    assert out == ""
    assert "FAIL traces.probe" in err


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "spectrum", "--in", E1_MATRIX, "--out", str(target))
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    np.testing.assert_allclose(doc["lambdas"], [0.0, 2.0], atol=1e-14)


def test_exit_code_two_on_bad_input(capsys):
    rc, _, err = run(capsys, "spectrum", "--in", "{not json")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "spectrum", "--in", "/nonexistent/file.json")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "spectrum")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "spectrum", "--in", '{"gammas": [1.0]}')
    assert rc == 2 and "error" in err


def test_negative_seed_and_zero_size_exit_two(capsys):
    """Argument errors exit 2 with a message, never a traceback; only an
    absent --N defaults to 4."""
    for argv in (
        ("spectrum", "--seed", "-3", "--N", "3"),
        ("weyl", "--seed", "-1"),
        ("verify", "--suite", "all", "--seed", "-1"),
        ("verify", "--suite", "flows", "--seed", "-2", "--N", "3"),
        ("spectrum", "--seed", "1", "--N", "0"),
        ("spectrum", "--seed", "1", "--N", "-2"),
        ("coords", "--seed", "0", "--N", "0"),
        ("verify", "--suite", "all", "--seed", "0", "--N", "1"),
        ("verify", "--suite", "all", "--seed", "0", "--N", "0"),
        ("verify", "--suite", "all", "--seed", "0", "--N", "-5"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and err.startswith("error: "), argv
    assert len(run_json(capsys, "spectrum", "--seed", "1")["lambdas"]) == 4
    assert len(run_json(capsys, "spectrum", "--seed", "0", "--N", "1")["lambdas"]) == 1


def test_exit_code_three_on_herglotz_failure(capsys):
    rc, _, err = run(capsys, "reconstruct", "--in",
                     '{"p": [0.0, -2.0, 1.0], "q": [1.0, 1.0]}', "--method", "cf")
    assert rc == 3 and "error" in err
    rc, _, err = run(capsys, "spectrum", "--in", '{"p": [1.0, 0.0, 1.0], "q": [0.0, 1.0]}')
    assert rc == 3 and "error" in err


def test_exit_code_one_on_precision_limit(capsys):
    """Valid data beyond float64, with no warning escaping: Wilkinson's W23,
    where two eigenvalues round together, and N = 400, where the weight
    sums overflow."""
    w23 = json.dumps({"v": np.abs(np.arange(23) - 11.0).tolist(), "c": [1.0] * 22})
    for argv in (("--in", w23), ("--seed", "0", "--N", "400")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "spectrum", *argv)
        assert rc == 1 and out == "" and "float64" in err, argv


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
