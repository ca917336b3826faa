"""Deterministic JSON for the package's data types.

Floats are rendered with the ``.17g`` format (full double round-trip
precision) so identical inputs always produce byte-identical output.
Input documents are recognized by their exact key set.  The spectrum
document of ``toda spectrum`` (eigenvalues, weights and the divisor) reads
as its spectral data once the divisor is checked to interlace.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .coordinates import ActionAngle, DivisorQuasimomentum, _check_interlacing
from .errors import InvalidData
from .jacobi_core import JacobiMatrix
from .rational_weyl import Divisor, PolyQuotient, RationalHerglotz
from .spectral_direct import SpectralData


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise InvalidData("cannot serialize a non-finite number")
    return format(x, ".17g")


def dumps(obj) -> str:
    """Serialize dicts/lists/arrays/scalars to canonical JSON text."""
    if isinstance(obj, dict):
        items = ", ".join(
            "%s: %s" % (json.dumps(str(k)), dumps(v)) for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise InvalidData("cannot serialize objects of type %s" % type(obj).__name__)


def _vector(raw, name: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidData("field %r must be a numeric array" % name) from exc
    if arr.ndim != 1:
        raise InvalidData("field %r must be one-dimensional" % name)
    return arr


def _scalar(raw, name: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InvalidData("field %r must be a number" % name)
    return float(raw)


_SCHEMAS = (
    ("matrix", frozenset(("v", "c"))),
    ("spectral", frozenset(("lambdas", "rhos"))),
    ("spectrum", frozenset(("lambdas", "rhos", "gammas"))),
    ("action_angle", frozenset(("lambdas", "thetas"))),
    ("divisor_quasimomentum", frozenset(("gammas", "pis", "casimir"))),
    ("divisor", frozenset(("gammas",))),
    ("pole_residue", frozenset(("poles", "residues"))),
    ("quotient", frozenset(("p", "q"))),
)


def detect(d: dict) -> str:
    """Name of the schema whose key set matches the document exactly."""
    if not isinstance(d, dict):
        raise InvalidData("expected a JSON object")
    keys = frozenset(d)
    for name, req in _SCHEMAS:
        if keys == req:
            return name
    raise InvalidData(
        "unrecognized document keys %s" % sorted(keys)
    )


def from_dict(d: dict):
    """Build the typed object a JSON document describes."""
    kind = detect(d)
    if kind == "matrix":
        return JacobiMatrix(_vector(d["v"], "v"), _vector(d["c"], "c"))
    if kind in ("spectral", "spectrum"):
        sd = SpectralData(_vector(d["lambdas"], "lambdas"), _vector(d["rhos"], "rhos"))
        if kind == "spectrum":
            _check_interlacing(sd.lambdas, Divisor(_vector(d["gammas"], "gammas")).gammas)
        return sd
    if kind == "action_angle":
        return ActionAngle(_vector(d["lambdas"], "lambdas"), _vector(d["thetas"], "thetas"))
    if kind == "divisor_quasimomentum":
        return DivisorQuasimomentum(
            _vector(d["gammas"], "gammas"),
            _vector(d["pis"], "pis"),
            _scalar(d["casimir"], "casimir"),
        )
    if kind == "divisor":
        return Divisor(_vector(d["gammas"], "gammas"))
    if kind == "pole_residue":
        return RationalHerglotz(
            _vector(d["poles"], "poles"), _vector(d["residues"], "residues")
        )
    return PolyQuotient(_vector(d["p"], "p"), _vector(d["q"], "q"))


def to_dict(obj) -> dict:
    """JSON-ready dict for a typed object (inverse of ``from_dict``)."""
    if isinstance(obj, JacobiMatrix):
        return {"v": obj.v, "c": obj.c}
    if isinstance(obj, SpectralData):
        return {"lambdas": obj.lambdas, "rhos": obj.rhos}
    if isinstance(obj, ActionAngle):
        return {"lambdas": obj.lambdas, "thetas": obj.thetas}
    if isinstance(obj, DivisorQuasimomentum):
        return {"gammas": obj.gammas, "pis": obj.pis, "casimir": obj.casimir}
    if isinstance(obj, Divisor):
        return {"gammas": obj.gammas}
    if isinstance(obj, RationalHerglotz):
        return {"poles": obj.poles, "residues": obj.residues}
    if isinstance(obj, PolyQuotient):
        return {"p": obj.p, "q": obj.q}
    raise InvalidData("cannot serialize objects of type %s" % type(obj).__name__)


def loads(text: str):
    """Parse JSON text and build the typed object it describes."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidData("invalid JSON: %s" % exc) from exc
    return from_dict(doc)
