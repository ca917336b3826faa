"""Command-line interface: JSON in, JSON (or CSV) out.

Every subcommand is a thin wrapper over the library; no numerical logic
lives here.  Inputs come from ``--in`` (a path, or inline JSON when the
argument starts with ``{``) or, where it makes sense, from a seeded random
instance via ``--seed``/``--N``.  Identical seed and configuration produce
byte-identical output: floats are printed with 17 significant digits and
all iteration orders are fixed.  Exit codes: 0 success, 1 runtime or
verification failure (or a reader that closed stdout early, quietly), 2
invalid input (an unreadable --in or unwritable --out too), 3 positivity
(Herglotz) violation.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .coordinates import (
    ActionAngle,
    DivisorQuasimomentum,
    pi_from,
    theta_from,
    w_from_divisor,
    w_from_theta,
)
from .errors import (
    AtPole,
    CoincidentArguments,
    InterlacingViolated,
    InvalidData,
    NoHerglotzSolution,
    NotHerglotz,
    TodaError,
)
from .flows import _trajectory
from .jacobi_core import JacobiMatrix, _matrix_distance
from .poisson import ah_formula
from .rational_weyl import Divisor, PolyQuotient, RationalHerglotz, evaluate, to_quotient, zeros
from .spectral_direct import SpectralData, spectral_from_weyl, weyl, weyl_from_spectral
from .spectral_inverse import from_quotient, lanczos_reconstruct, stieltjes_reconstruct
from .suites import SUITE_NAMES, random_jacobi, run_suites

_VALIDATION_ERRORS = (InvalidData, CoincidentArguments, AtPole)
_HERGLOTZ_ERRORS = (NotHerglotz, InterlacingViolated, NoHerglotzSolution)
# argparse reads a token such as "-5e-1" as an option unless it looks like a
# negative number, which on Python 3.10 and 3.11 means -5 or -1.5 only; the
# subcommands with float options also read the exponent form as a number.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+|\d*\.\d+)([eE][+-]?\d+)?$")


def _load_document(args) -> object:
    """Typed object from --in (path or inline JSON) or a seeded random
    matrix from --seed/--N."""
    raw = getattr(args, "input", None)
    if raw is not None:
        if raw.lstrip().startswith("{"):
            text = raw
        else:
            path = Path(raw)
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise InvalidData("cannot read input file %s: %s" % (path, exc.strerror)) from exc
            except UnicodeDecodeError as exc:
                raise InvalidData("input file %s is not UTF-8 text" % path) from exc
        return serialize.loads(text)
    seed = getattr(args, "seed", None)
    if seed is not None:
        _check_seed(seed)
        return random_jacobi(np.random.default_rng(seed), args.N)
    raise InvalidData("no input: pass --in, or --seed (with optional --N)")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InvalidData("seed must be non-negative, got %d" % seed)


def _as_weyl(obj) -> RationalHerglotz:
    """Canonical pole-residue form of any accepted input document."""
    if isinstance(obj, JacobiMatrix):
        return weyl(obj)
    if isinstance(obj, SpectralData):
        return weyl_from_spectral(obj)
    if isinstance(obj, RationalHerglotz):
        return obj
    if isinstance(obj, PolyQuotient):
        return from_quotient(obj)
    if isinstance(obj, ActionAngle):
        return w_from_theta(obj.lambdas, obj.thetas)
    if isinstance(obj, DivisorQuasimomentum):
        return w_from_divisor(obj)
    if isinstance(obj, Divisor):
        raise InvalidData("a divisor alone does not determine the function")
    raise InvalidData("unsupported input document")


def cmd_spectrum(args) -> tuple[str, int]:
    obj = _load_document(args)
    w = _as_weyl(obj)
    doc = {**serialize.to_dict(spectral_from_weyl(w)), "gammas": zeros(w).gammas}
    return serialize.dumps(doc), 0


def cmd_weyl(args) -> tuple[str, int]:
    obj = _load_document(args)
    w = _as_weyl(obj)
    return serialize.dumps(serialize.to_dict(to_quotient(w))), 0


def cmd_reconstruct(args) -> tuple[str, int]:
    obj = _load_document(args)
    if isinstance(obj, JacobiMatrix):
        raise InvalidData("reconstruct expects spectral-side input, not a matrix")
    # Both routes read the one division that a quotient document keeps.
    pq = obj if isinstance(obj, PolyQuotient) else None
    w = None if pq else _as_weyl(obj)
    if args.method != "lanczos":
        m_cf = stieltjes_reconstruct(pq or to_quotient(w))
    if args.method != "cf":
        m_lz = lanczos_reconstruct(spectral_from_weyl(w or from_quotient(pq)))
    if args.method != "both":
        return serialize.dumps(serialize.to_dict(m_cf if args.method == "cf" else m_lz)), 0
    doc = {**serialize.to_dict(m_cf), "discrepancy": _matrix_distance(m_cf, m_lz)}
    return serialize.dumps(doc), 0


def cmd_coords(args) -> tuple[str, int]:
    obj = _load_document(args)
    w = _as_weyl(obj)
    angle = serialize.to_dict(theta_from(w))
    divisor = serialize.to_dict(pi_from(w))
    docs = {"angle": angle, "divisor": divisor, "all": {**angle, **divisor}}
    return serialize.dumps(docs[args.chart]), 0


def cmd_bracket(args) -> tuple[str, int]:
    obj = _load_document(args)
    w = _as_weyl(obj)
    lam, mu = float(args.lam), float(args.mu)
    doc = {
        "lam": lam,
        "mu": mu,
        "w_lam": float(evaluate(w, lam)),
        "w_mu": float(evaluate(w, mu)),
        "unrestricted": ah_formula(w, lam, mu, restricted=False),
    }
    if w.normalized:
        doc["restricted"] = ah_formula(w, lam, mu, restricted=True)
    return serialize.dumps(doc), 0


def cmd_flow(args) -> tuple[str, int]:
    """The sampled flow as JSON lines, one record per sample time, or with
    --emit-csv as a CSV table.  Both are written from one table of the
    stacked samples, through one row template built from the stacks'
    widths (``serialize._dump_rows``), after one finiteness check."""
    obj = _load_document(args)
    if args.family == "H":
        start = _as_weyl(obj)
    else:
        start = obj if isinstance(obj, DivisorQuasimomentum) else pi_from(_as_weyl(obj))
    stacks = _trajectory(start, args.j, args.t0, args.t1, args.samples)
    table = np.column_stack(stacks)
    widths = [stack.shape[1] for stack in stacks[1:]]
    if args.emit_csv:
        names = zip(("v", "c", "lambda", "rho", "theta", "gamma", "pi"), (0, 0, 0, 0, 1, 1, 1),
                    widths)
        cols = ["t"] + ["%s%d" % (name, first + i) for name, first, width in names
                        for i in range(width)]
        return "\n".join([",".join(cols), *serialize._dump_rows(table)]), 0
    v, c, *chart = widths
    fields = ("lambdas", "rhos", "thetas", "gammas", "pis")
    layout = {"t": None, "matrix": {"v": v, "c": c}, **dict(zip(fields, chart))}
    return "\n".join(serialize._dump_rows(table, layout)), 0


def cmd_verify(args) -> tuple[str, int]:
    _check_seed(args.seed)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    residuals, thresholds = run_suites(names, args.seed, args.N)
    for override in args.tol or ():
        name, _, value = override.partition("=")
        if not value:
            raise InvalidData("tolerance overrides take the form NAME=VALUE")
        if name not in thresholds:
            raise InvalidData("unknown check %r in --tol" % name)
        try:
            bar = float(value)
        except ValueError as exc:
            raise InvalidData("bad tolerance value %r" % value) from exc
        if not (np.isfinite(bar) and bar >= 0.0):
            raise InvalidData("tolerance must be finite and non-negative, got %r" % value)
        thresholds[name] = bar
    # Written so that a NaN residual fails its check.
    failed = [k for k in residuals if not residuals[k] <= thresholds[k]]
    for name in failed:
        print(
            "FAIL %s: residual %.3e not within tolerance %.3e"
            % (name, residuals[name], thresholds[name]),
            file=sys.stderr,
        )
    unwritable = [k for k in failed if not np.isfinite(residuals[k])]
    if unwritable:
        raise TodaError("non-finite residual in %s" % ", ".join(sorted(unwritable)))
    report = {k: residuals[k] for k in sorted(residuals)}
    return serialize.dumps(report), 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toda",
        description="Spectral transforms, Poisson brackets, and flows of "
        "finite Jacobi matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_seed=True):
        p.add_argument("--in", dest="input", metavar="PATH_OR_JSON",
                       help="input document: a file path or inline JSON")
        p.add_argument("--out", help="write output here instead of stdout")
        if with_seed:
            p.add_argument("--seed", type=int,
                           help="generate a random matrix instead of --in")
            p.add_argument("--N", type=int, default=4,
                           help="size of the generated matrix (default 4)")

    p = sub.add_parser("spectrum", help="eigenvalues, weights, and divisor")
    add_io(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("weyl", help="quotient form of the Weyl function")
    add_io(p)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("reconstruct", help="matrix from spectral-side data")
    add_io(p, with_seed=False)
    p.add_argument("--method", choices=("cf", "lanczos", "both"), default="both")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("coords", help="angle and divisor chart coordinates")
    add_io(p)
    p.add_argument("--chart", choices=("angle", "divisor", "all"), default="all")
    p.set_defaults(func=cmd_coords)

    p = sub.add_parser("bracket", help="two-point bracket closed forms")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    add_io(p)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("flow", help="sampled flow trajectory (JSON lines)")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    add_io(p)
    p.add_argument("--family", choices=("H", "T"), default="H")
    p.add_argument("--j", type=int, default=2, help="flow index (1-based)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=11)
    p.add_argument("--emit-csv", action="store_true",
                   help="emit a CSV table instead of JSON lines")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override one check's tolerance (repeatable)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = args.func(args)
    except _HERGLOTZ_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except TodaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            print("error: cannot write %s: %s" % (args.out, exc.strerror), file=sys.stderr)
            return 2
        return code
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (say, ``| head``).  Point stdout at
        # the null device, so the flush at interpreter shutdown cannot raise
        # again, and exit 1 quietly, as Python's docs advise for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
