"""End-to-end tests for the command-line interface.

All commands run in-process through main(argv); outputs are parsed from
capsys.  Numeric oracles are the symmetric two-site matrix, whose spectrum,
quotient, charts, brackets, and flows are all known in closed form.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from toda import (
    DivisorQuasimomentum,
    InvalidData,
    Overflow,
    RationalHerglotz,
    TodaError,
    flow_H,
    flow_T,
    from_quotient,
    lanczos_reconstruct,
    pi_from,
    random_jacobi,
    spectral_from_weyl,
    stieltjes_reconstruct,
    suites,
    theta_from,
    to_quotient,
    w_from_divisor,
    weyl,
)
from toda import cli, rational_weyl, serialize
from toda.coordinates import _poles_from_divisor, _quasimomenta, _thetas
from toda.cli import build_parser, main
from toda.spectral_inverse import _lanczos
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


# The 256-site Krawtchouk spectrum (p = 1/2, centred): lambda_k = k - 127.5,
# rho_k = C(255, k) / 2^255, of the matrix with zero diagonal and
# c_n = sqrt((n + 1)(255 - n)) / 2.  Its quotient coefficients overflow float64.
KRAWTCHOUK_C = 0.5 * np.sqrt((np.arange(255.0) + 1) * (255 - np.arange(255.0)))
KRAWTCHOUK_SPECTRAL = json.dumps({
    "lambdas": [k - 127.5 for k in range(256)],
    "rhos": [float(Fraction(math.comb(255, k), 2**255)) for k in range(256)],
})
KRAWTCHOUK_MATRIX = json.dumps({"v": [0.0] * 256, "c": KRAWTCHOUK_C.tolist()})


def test_reconstruct_lanczos_skips_the_quotient(capsys):
    """Only the cf route reads the Krawtchouk quotient: Lanczos rebuilds the
    matrix, and cf and both exit 1 with the quotient's float64 overflow."""
    doc = KRAWTCHOUK_SPECTRAL
    got = run_json(capsys, "reconstruct", "--in", doc, "--method", "lanczos")
    np.testing.assert_allclose(got["v"], np.zeros(256), rtol=0, atol=1e-10)
    np.testing.assert_allclose(got["c"], KRAWTCHOUK_C, rtol=0, atol=1e-10)
    for method in ("cf", "both"):
        rc, out, err = run(capsys, "reconstruct", "--in", doc, "--method", method)
        assert rc == 1 and out == "" and "float64" in err, method


def test_quotient_past_float64_range_is_overflow(capsys):
    """``toda weyl`` of a valid document whose quotient coefficients leave
    float64 range exits 1 with ``Overflow``, not 2 as if the input were bad."""
    for doc in (KRAWTCHOUK_SPECTRAL, KRAWTCHOUK_MATRIX):
        rc, out, err = run(capsys, "weyl", "--in", doc)
        assert rc == 1 and out == "" and "overflow float64" in err
    w = RationalHerglotz(np.arange(256.0) - 127.5, np.full(256, 1 / 256))
    with pytest.raises(Overflow, match="float64"):
        to_quotient(w)


def test_reconstruct_divides_a_quotient_document_once(capsys, monkeypatch):
    """Each method reads a quotient document through one continued-fraction
    division, and both prints what the two public routes give."""
    calls = []
    inner = rational_weyl._cf_division
    monkeypatch.setattr(rational_weyl, "_cf_division", lambda *a: calls.append(1) or inner(*a))
    rc, quotient, _ = run(capsys, "weyl", "--seed", "0", "--N", "8")
    assert rc == 0
    for method in ("cf", "lanczos", "both"):
        calls.clear()
        rc, out, err = run(capsys, "reconstruct", "--in", quotient, "--method", method)
        assert rc == 0 and len(calls) == 1, (method, err)
    pq = serialize.loads(quotient)
    m_cf = stieltjes_reconstruct(pq)
    m_lz = lanczos_reconstruct(spectral_from_weyl(from_quotient(pq)))
    disc = max(np.max(np.abs(m_cf.v - m_lz.v)), np.max(np.abs(m_cf.c - m_lz.c)))
    assert out == serialize.dumps({"v": m_cf.v, "c": m_cf.c, "discrepancy": float(disc)}) + "\n"


@pytest.mark.parametrize("method", ["cf", "lanczos", "both"])
@pytest.mark.parametrize(
    "doc,message",
    [
        ('{"p": [0.0, 1.0], "q": [1.0, 2.0]}', "need deg p = deg q + 1 = N"),
        ('{"p": [1.0], "q": []}', "quotient needs at least one pole"),
        ('{"p": [NaN, 1.0], "q": [1.0]}', "coefficients must be finite"),
        ('{"p": [0.0, 2.0], "q": [1.0]}', "p must be monic"),
        ('{"p": [0.0, 1.0], "q": [0.0]}', "q must have exact degree N-1"),
    ],
)
def test_reconstruct_rejects_a_malformed_quotient(capsys, doc, message, method):
    """Each ``PolyQuotient`` rejection exits 2 with its message, whatever
    the method."""
    rc, out, err = run(capsys, "reconstruct", "--in", doc, "--method", method)
    assert (rc, out, err) == (2, "", "error: %s\n" % message)


def test_reconstruct_of_a_quotient_with_negative_total_residue(capsys):
    """-q/p with q = -(1 + z) has total residue -1: Lanczos reads it through
    ``from_quotient`` (exit 3, not a positive pole sum), while cf and both
    stop first on the monic check of ``stieltjes_reconstruct`` (exit 2)."""
    doc = '{"p": [0.0, -2.0, 1.0], "q": [-1.0, -1.0]}'
    rc, out, err = run(capsys, "reconstruct", "--in", doc, "--method", "lanczos")
    assert (rc, out, err) == (3, "", "error: quotient has a nonpositive total residue\n")
    for method in ("cf", "both"):
        rc, out, err = run(capsys, "reconstruct", "--in", doc, "--method", method)
        assert (rc, out, err) == (2, "", "error: quotient must be normalized: q monic\n")


@pytest.mark.parametrize("seed,n", [(0, 1), (0, 2), (3, 5), (11, 8)])
def test_reconstruct_reads_a_pole_sum_document(capsys, seed, n):
    """A {"poles", "residues"} document rebuilds its matrix by each method,
    and prints what the spectrum document of the same matrix gives."""
    m = random_jacobi(np.random.default_rng(seed), n)
    w = weyl(m)
    doc = serialize.dumps(serialize.to_dict(w))
    spectrum = serialize.dumps(serialize.to_dict(spectral_from_weyl(w)))
    for method in ("cf", "lanczos", "both"):
        rc, out, err = run(capsys, "reconstruct", "--in", doc, "--method", method)
        assert rc == 0, err
        assert out == run(capsys, "reconstruct", "--in", spectrum, "--method", method)[1]
        got = json.loads(out)
        np.testing.assert_allclose(got["v"], m.v, rtol=0, atol=1e-8)
        np.testing.assert_allclose(got["c"], m.c, rtol=0, atol=1e-8)
        assert ("discrepancy" in got) == (method == "both")


def test_reconstruct_turns_a_chart_document_once(capsys, monkeypatch):
    """Under --method both, a chart document becomes a pole sum once."""
    calls = []
    for name in ("w_from_divisor", "w_from_theta"):
        inner = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, f=inner: calls.append(f) or f(*a))
    for chart in ("divisor", "angle"):
        rc, chart_doc, _ = run(capsys, "coords", "--seed", "2", "--N", "5", "--chart", chart)
        assert rc == 0
        calls.clear()
        doc = run_json(capsys, "reconstruct", "--in", chart_doc, "--method", "both")
        assert len(calls) == 1 and doc["discrepancy"] <= 1e-8, chart


@pytest.mark.parametrize("v", [1.0, 0.3, -2.5])
def test_one_site_divisor_document_reads_back(capsys, v):
    """A one-site matrix has an empty divisor; its chart document reads as
    the one pole at the Casimir and gives the 1x1 matrix back."""
    matrix = json.dumps({"v": [v], "c": []})
    chart = run(capsys, "coords", "--in", matrix, "--chart", "divisor")[1]
    assert json.loads(chart) == {"gammas": [], "pis": [], "casimir": v}
    doc = run_json(capsys, "spectrum", "--in", chart)
    assert doc == {"lambdas": [v], "rhos": [1.0], "gammas": []}
    doc = run_json(capsys, "reconstruct", "--in", chart, "--method", "both")
    assert doc == {"v": [v], "c": [], "discrepancy": 0.0}


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


def _per_sample_records(seed, n, family, j, t1, samples):
    """The flow records built one sample at a time from the public functions."""
    w0 = weyl(random_jacobi(np.random.default_rng(seed), n))
    dq0 = pi_from(w0) if family == "T" else None
    records = []
    for t in np.linspace(0.0, t1, samples):
        w = flow_H(w0, j, t) if family == "H" else w_from_divisor(flow_T(dq0, j, t))
        sd = spectral_from_weyl(w)
        m = lanczos_reconstruct(sd)
        dq = pi_from(w)
        records.append([t, *m.v, *m.c, *sd.lambdas, *sd.rhos, *theta_from(w).thetas,
                        *dq.gammas, *dq.pis])
    return np.array(records)


def _assert_close(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    bar = 1e-13 * np.maximum(1.0, np.abs(expected))
    assert np.all(np.abs(got - expected) <= bar), np.max(np.abs(got - expected) / bar)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("family,j", [("H", 2), ("H", 1), ("T", 1)])
def test_flow_records_match_a_per_sample_loop(capsys, n, family, j):
    """The stacked pass prints what the public functions give sample by
    sample, in JSON lines and in CSV."""
    for seed in range(3):
        argv = ("flow", "--seed", str(seed), "--N", str(n), "--family", family,
                "--j", str(j), "--t1", "0.5", "--samples", "7")
        expected = _per_sample_records(seed, n, family, j, 0.5, 7)
        rc, out, err = run(capsys, *argv)
        assert rc == 0, err
        got = []
        for line in out.splitlines():
            rec = json.loads(line)
            assert list(rec) == ["t", "matrix", "lambdas", "rhos", "thetas", "gammas", "pis"]
            got.append([rec["t"], *rec["matrix"]["v"], *rec["matrix"]["c"], *rec["lambdas"],
                        *rec["rhos"], *rec["thetas"], *rec["gammas"], *rec["pis"]])
        _assert_close(got, expected)
        rc, out, err = run(capsys, *argv, "--emit-csv")
        assert rc == 0, err
        _assert_close([row.split(",") for row in out.splitlines()[1:]], expected)


# Flows that fail in the library (exit 1), and flows with bad arguments (exit 2).
_FAILING_FLOWS = (
    (("flow", "--seed", "1", "--N", "4", "--family", "T", "--j", "1", "--t1", "800",
      "--samples", "2"), Overflow),
    (("flow", "--seed", "1", "--N", "4", "--family", "T", "--j", "1", "--t1", "800",
      "--samples", "3"), TodaError),
    (("flow", "--seed", "1", "--N", "4", "--family", "H", "--j", "4", "--t1", "1000"),
     Overflow),
)
_BAD_FLOW_ARGUMENTS = (
    ("flow", "--seed", "1", "--N", "4", "--family", "H", "--j", "5"),
    ("flow", "--seed", "1", "--N", "4", "--family", "H", "--j", "0"),
    ("flow", "--seed", "1", "--N", "4", "--family", "T", "--j", "4"),
    ("flow", "--seed", "1", "--N", "4", "--samples", "0"),
)


def test_failing_flows_keep_their_class_and_exit_code(capsys):
    """T-flow quasimomenta past 700 and an H reweighting t * lambda^(j-1)
    past 700 raise Overflow (exit 1); a flow index out of range and no
    sample times exit 2.  With a sample at t = 400 in between, the T flow
    fails there first, on the spectral-sum check, as it did one sample at
    a time."""
    parser = build_parser()
    for argv, error in _FAILING_FLOWS:
        args = parser.parse_args(argv)
        with pytest.raises(error) as exc:
            args.func(args)
        assert type(exc.value) is error
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == "" and err.startswith("error: "), argv
    for argv in _BAD_FLOW_ARGUMENTS:
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and err.startswith("error: "), argv


def _per_sample_cmd_flow(args):
    """``cmd_flow`` as it was with one record per sample: each sample went
    through ``flow_H`` or ``flow_T``, a ``RationalHerglotz`` and a
    ``SpectralData`` of its own before the stacked layers.  Kept frozen as
    the oracle of the stacked command's output."""
    obj = cli._load_document(args)
    if args.samples < 1:
        raise InvalidData("need at least one sample time")
    times = np.linspace(args.t0, args.t1, args.samples)
    if args.family == "H":
        w0 = cli._as_weyl(obj)
        ws = [flow_H(w0, args.j, float(t)) for t in times]
    else:
        dq0 = obj if isinstance(obj, DivisorQuasimomentum) else pi_from(cli._as_weyl(obj))
        dqs = [flow_T(dq0, args.j, float(t)) for t in times]
        stack = [np.array([getattr(dq, k) for dq in dqs]) for k in ("gammas", "pis", "casimir")]
        ws = [RationalHerglotz(*w) for w in zip(*_poles_from_divisor(*stack))]
    sds = [spectral_from_weyl(w) for w in ws]
    lam, rho = np.array([sd.lambdas for sd in sds]), np.array([sd.rhos for sd in sds])
    rows = zip(times, *_lanczos(lam, rho), lam, rho, _thetas(lam, rho), *_quasimomenta(lam, rho))
    fields = ("lambdas", "rhos", "thetas", "gammas", "pis")
    records = [
        {"t": float(t), "matrix": {"v": v, "c": c}, **dict(zip(fields, chart))}
        for t, v, c, *chart in rows
    ]
    if args.emit_csv:
        return "\n".join(_csv_lines(records)), 0
    return "\n".join(serialize.dumps(rec) for rec in records), 0


def _csv_lines(records: list[dict]) -> list[str]:
    """The CSV table rebuilt row by row from the per-sample records."""
    first = records[0]
    n = len(first["lambdas"])
    cols = (
        ["t"]
        + ["v%d" % i for i in range(n)]
        + ["c%d" % i for i in range(n - 1)]
        + ["lambda%d" % i for i in range(n)]
        + ["rho%d" % i for i in range(n)]
        + ["theta%d" % i for i in range(1, n)]
        + ["gamma%d" % i for i in range(1, n)]
        + ["pi%d" % i for i in range(1, n)]
    )
    lines = [",".join(cols)]
    for rec in records:
        row = (
            [rec["t"]]
            + list(rec["matrix"]["v"])
            + list(rec["matrix"]["c"])
            + list(rec["lambdas"])
            + list(rec["rhos"])
            + list(rec["thetas"])
            + list(rec["gammas"])
            + list(rec["pis"])
        )
        lines.append(",".join(serialize.dumps(float(x)) for x in row))
    return lines


class _PerSampleParser:
    """The CLI's parser, with ``toda flow`` routed to the per-sample oracle."""

    def parse_args(self, argv):
        args = build_parser().parse_args(argv)
        if args.command == "flow":
            args.func = _per_sample_cmd_flow
        return args


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_stacked_flow_is_byte_identical_to_the_per_sample_oracle(capsys, monkeypatch, n):
    """``toda flow`` prints, to the byte, what the per-sample command
    printed (stdout, stderr and exit code) over seeds 0-9, H with
    j in {1, 2, N} and T with j in {1, N - 1}, in JSON lines and in CSV,
    and for the failing and badly argued flows above (at N = 4)."""
    calls = [
        ("flow", "--seed", str(seed), "--N", str(n), "--family", family, "--j", str(j), *fmt)
        for seed in range(10)
        for family, js in (("H", (1, 2, n)), ("T", (1, n - 1)))
        for j in sorted(set(js))
        for fmt in ((), ("--emit-csv",))
    ]
    if n == 4:
        calls += [argv for argv, _ in _FAILING_FLOWS] + list(_BAD_FLOW_ARGUMENTS)
    stacked, oracle = _stacked_and_oracle(capsys, monkeypatch, calls)
    for argv, got, want in zip(calls, stacked, oracle):
        assert got == want, argv
    assert sum(rc == 0 for rc, _, _ in stacked) >= 10


def _stacked_and_oracle(capsys, monkeypatch, calls):
    """(exit code, stdout, stderr) of each call, from ``toda flow`` and
    then from the per-sample oracle."""
    stacked = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", _PerSampleParser)
    oracle = [run(capsys, *argv) for argv in calls]
    return stacked, oracle


@pytest.mark.parametrize("n,seeds,samples", [(4, range(10), ("1", "101")), (17, range(3), ("11",))],
                         ids=["N4-samples-1-and-101", "N17"])
def test_stacked_flow_matches_the_oracle_at_more_samples_and_sites(capsys, monkeypatch, n,
                                                                    seeds, samples):
    """Byte-identical to the per-sample oracle with one sample and with 101,
    and at N = 17, where the secular solves of ``_trajectory`` leave the
    per-lane kernel for the numpy lockstep; JSON lines and CSV, H and T."""
    calls = [
        ("flow", "--seed", str(seed), "--N", str(n), "--family", family, "--j", str(j),
         "--t1", "0.5", "--samples", count, *fmt)
        for seed in seeds
        for family, js in (("H", (1, 2, n)), ("T", (1, n - 1)))
        for j in sorted(set(js))
        for count in samples
        for fmt in ((), ("--emit-csv",))
    ]
    stacked, oracle = _stacked_and_oracle(capsys, monkeypatch, calls)
    for argv, got, want in zip(calls, stacked, oracle):
        assert got == want, argv
    assert sum(rc == 0 for rc, _, _ in stacked) >= len(calls) // 2


def test_a_non_finite_sample_exits_two_as_dumps_does(capsys, monkeypatch):
    """A NaN or an infinity that reaches the table fails the whole call with
    the message of ``dumps`` and prints nothing, in both formats."""
    def spoiled(*args):
        stacks = list(trajectory(*args))
        stacks[4] = stacks[4].copy()
        stacks[4][-1, 0] = math.inf
        return tuple(stacks)

    trajectory = cli._trajectory
    monkeypatch.setattr(cli, "_trajectory", spoiled)
    for fmt in ((), ("--emit-csv",)):
        rc, out, err = run(capsys, "flow", "--seed", "0", "--N", "3", *fmt)
        assert (rc, out, err) == (2, "", "error: cannot serialize a non-finite number\n")


def test_one_parser_serves_successive_calls(capsys):
    """The parser is built once per process; calls with different
    subcommands in one process print what fresh processes print, and a bad
    argument still exits 2."""
    assert build_parser() is build_parser()
    calls = (
        ("spectrum", "--seed", "2", "--N", "3"),
        ("flow", "--seed", "2", "--N", "3", "--family", "T", "--j", "2", "--samples", "3"),
        ("coords", "--seed", "2", "--N", "3", "--chart", "angle"),
        ("flow", "--seed", "2", "--N", "3", "--samples", "2", "--emit-csv"),
        ("verify", "--suite", "dual", "--seed", "2"),
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv in calls:
        rc, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "toda.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--family", "X"])
    assert exc.value.code == 2
    assert run(capsys, *calls[0])[1] == run(capsys, *calls[0])[1]


def test_environment_sets_no_logging_level():
    """The CLI reads no logging level from the environment: an unknown
    TODA_LOG value neither crashes a command nor changes its output.  It
    runs in fresh processes, where the root logger has no handlers yet."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "TODA_LOG"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "toda.cli", "spectrum", "--seed", "0", "--N", "2"]
    plain = subprocess.run(argv, env=env, capture_output=True, text=True)
    bogus = subprocess.run(argv, env=dict(env, TODA_LOG="bogus"), capture_output=True, text=True)
    assert plain.returncode == 0 and plain.stdout
    assert (bogus.returncode, bogus.stdout, bogus.stderr) == (0, plain.stdout, "")


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
        _merge(res, "probe", 1e-12, 1e-6)
        _merge(res, "probe", float("nan"), 1e-6)
        _merge(res, "probe", 1e-13, 1e-6)
        return res

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


@pytest.mark.parametrize(
    "spaced,joined",
    [
        ("flow --seed 1 --N 4 --t0 -5e-1 --t1 0", "flow --seed 1 --N 4 --t0=-5e-1 --t1 0"),
        ("flow --seed 0 --N 3 --family T --t1 -2.5E+0", "flow --seed 0 --N 3 --family T --t1=-2.5E+0"),
        ("bracket --seed 0 --lam -1e1 --mu 9", "bracket --seed 0 --lam=-1e1 --mu 9"),
        ("bracket --seed 0 --lam -9 --mu -.5e1", "bracket --seed 0 --lam -9 --mu=-.5e1"),
    ],
    ids=["flow-t0", "flow-t1", "bracket-lam", "bracket-mu"],
)
def test_negative_times_and_points_in_exponent_form(capsys, spaced, joined):
    """A negative float in exponent form is a value, as in the ``=`` form."""
    rc, out, err = run(capsys, *spaced.split())
    assert rc == 0, err
    assert (rc, out, err) == run(capsys, *joined.split())


def test_an_option_after_a_float_option_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--seed", "1", "--N", "4", "--t0", "-x"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_exit_code_three_on_herglotz_failure(capsys):
    rc, _, err = run(capsys, "reconstruct", "--in",
                     '{"p": [0.0, -2.0, 1.0], "q": [1.0, 1.0]}', "--method", "cf")
    assert rc == 3 and "error" in err
    rc, _, err = run(capsys, "spectrum", "--in", '{"p": [1.0, 0.0, 1.0], "q": [0.0, 1.0]}')
    assert rc == 3 and "error" in err


def test_a_quotient_that_is_no_pole_sum_prints_one_line_by_every_method(capsys):
    """The cf division raises the same class and line for every method."""
    doc = '{"p": [1, 0, 1], "q": [-1, 1]}'
    line = "error: quotient is not a positive pole sum: division produced a nonpositive coupling\n"
    for method in ("cf", "lanczos", "both"):
        assert run(capsys, "reconstruct", "--in", doc, "--method", method) == (3, "", line)


@pytest.mark.parametrize("times", [("--t1", "1e308"), ("--t0", "-1e308", "--t1", "0")])
def test_overflowing_flow_time_prints_only_the_error(capsys, times):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "flow", "--seed", "1", "--N", "4", *times)
    assert (rc, out, err) == (1, "", "error: flow time too large for stable reweighting\n")


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


@pytest.mark.parametrize(
    "argv", [("spectrum",), ("weyl",), ("coords", "--chart", "angle"), ("flow", "--t1", "0.5")]
)
def test_couplings_whose_squares_overflow_exit_one(capsys, argv):
    """c = 1.35e154 squares past float64: one error line, no warning, no
    spectrum off by the bracket's pad."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, *argv, "--in", '{"v": [0, 0], "c": [1.35e154]}')
    assert (rc, out, err) == (1, "", "error: couplings beyond float64: their squares overflow\n")


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
