"""Deterministic JSON for the package's data types.

Floats are rendered with the ``.17g`` format (full double round-trip
precision) so identical inputs always produce byte-identical output.
``dumps`` writes any document; ``_dump_rows`` writes a table of floats a
row at a time, each row through one ``%`` template of the record that
``dumps`` would write, after one finiteness check of the whole table.
One table, ``_KINDS``, names every document kind with the record type it
reads as and its keys, the record's field names; ``detect`` recognizes a
document by its exact key set, and ``from_dict``/``to_dict`` read and write
the fields it lists.  The spectrum document of ``toda spectrum``
(eigenvalues, weights and the divisor) reads as its spectral data once the
divisor is checked to interlace.
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


# The one float format, and what writing a NaN or an infinity raises.
_FLOAT = "%.17g"
_NON_FINITE = "cannot serialize a non-finite number"


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise InvalidData(_NON_FINITE)
    return _FLOAT % x


def dumps(obj) -> str:
    """Serialize dicts/lists/arrays/scalars to canonical JSON text."""
    if isinstance(obj, dict):
        items = ", ".join(
            "%s: %s" % (json.dumps(str(k)), dumps(v)) for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        # A flat run of floats, the common case, is one join.
        if all(isinstance(v, (float, np.floating)) for v in obj):
            return "[" + ", ".join(map(_fmt_float, obj)) + "]"
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


def _row_format(layout) -> str:
    """The ``%`` template under which ``dumps`` writes one float (layout
    None), a list of k floats (a count k) or a record (a dict that maps each
    key, in order, to the layout of its value)."""
    if layout is None:
        return _FLOAT
    if isinstance(layout, dict):
        return "{%s}" % ", ".join(
            "%s: %s" % (json.dumps(str(k)).replace("%", "%%"), _row_format(v))
            for k, v in layout.items()
        )
    return "[%s]" % ", ".join([_FLOAT] * layout)


def _dump_rows(table: np.ndarray, layout=None) -> list[str]:
    """Each row of the 2-D float ``table`` as text, in one ``%`` a row: as
    ``dumps`` writes the record that ``layout`` describes, filled with the
    row's values in column order, or with no layout as comma-separated
    values.  The template is built once for the table, and a NaN or an
    infinity anywhere in it raises what ``dumps`` raises."""
    if not np.isfinite(table).all():
        raise InvalidData(_NON_FINITE)
    row = ",".join([_FLOAT] * table.shape[1]) if layout is None else _row_format(layout)
    return [row % tuple(values) for values in table.tolist()]


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


# Each document kind, the record type it reads as, and its keys in order.
# The keys are the record's leading field names, except in the spectrum
# document of ``toda spectrum``: its divisor is checked, then dropped.
_KINDS = {
    "matrix": (JacobiMatrix, ("v", "c")),
    "spectral": (SpectralData, ("lambdas", "rhos")),
    "spectrum": (SpectralData, ("lambdas", "rhos", "gammas")),
    "action_angle": (ActionAngle, ("lambdas", "thetas")),
    "divisor_quasimomentum": (DivisorQuasimomentum, ("gammas", "pis", "casimir")),
    "divisor": (Divisor, ("gammas",)),
    "pole_residue": (RationalHerglotz, ("poles", "residues")),
    "quotient": (PolyQuotient, ("p", "q")),
}


def detect(d: dict) -> str:
    """Name of the document kind whose key set matches the document exactly."""
    if not isinstance(d, dict):
        raise InvalidData("expected a JSON object")
    keys = frozenset(d)
    for name, (_, req) in _KINDS.items():
        if keys == frozenset(req):
            return name
    raise InvalidData("unrecognized document keys %s" % sorted(keys))


def from_dict(d: dict):
    """Build the typed object a JSON document describes."""
    kind = detect(d)
    if kind == "spectrum":
        sd = from_dict({"lambdas": d["lambdas"], "rhos": d["rhos"]})
        _check_interlacing(sd.lambdas, Divisor(_vector(d["gammas"], "gammas")).gammas)
        return sd
    cls, keys = _KINDS[kind]
    return cls(*(_scalar(d[k], k) if k == "casimir" else _vector(d[k], k) for k in keys))


def to_dict(obj) -> dict:
    """JSON-ready dict for a typed object (inverse of ``from_dict``)."""
    for cls, keys in _KINDS.values():
        if isinstance(obj, cls):
            return {k: getattr(obj, k) for k in keys}
    raise InvalidData("cannot serialize objects of type %s" % type(obj).__name__)


def loads(text: str):
    """Parse JSON text and build the typed object it describes."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidData("invalid JSON: %s" % exc) from exc
    except RecursionError as exc:
        raise InvalidData("invalid JSON: nested too deeply") from exc
    return from_dict(doc)
