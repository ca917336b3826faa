"""Tests for canonical JSON serialization.

Oracle: the .17g float format round-trips every double exactly, so
loads(dumps(x)) must reproduce x bit for bit; schema detection is by exact
key set and anything else is rejected.
"""

import dataclasses
import json

import numpy as np
import pytest

from toda import (
    ActionAngle,
    Divisor,
    DivisorQuasimomentum,
    InterlacingViolated,
    InvalidData,
    JacobiMatrix,
    PolyQuotient,
    RationalHerglotz,
    SpectralData,
    detect,
    dumps,
    from_dict,
    loads,
    to_dict,
)
from toda.cli import main
from toda.serialize import _KINDS, _dump_rows

SAMPLES = [
    JacobiMatrix([0.1, -0.7, 2.0], [0.3, 1.0 / 3.0]),
    SpectralData(np.array([0.0, 2.0]), np.array([0.5, 0.5])),
    ActionAngle(np.array([-1.0, 0.5, 2.0]), np.array([0.1, -7.3])),
    DivisorQuasimomentum(np.array([0.5, 1.5]), np.array([0.0, 2.0]), np.pi),
    Divisor(np.array([0.25, 1.75])),
    RationalHerglotz(np.array([0.0, 2.0]), np.array([1.0 / 3.0, 2.0 / 3.0])),
    PolyQuotient(np.array([-2.0, 0.0, 1.0]), np.array([-1.0, 1.0])),
]


def test_float_format_roundtrips_exactly():
    rng = np.random.default_rng(91)
    xs = np.concatenate((rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50),
                         [0.0, -0.0, 1e-308, np.pi]))
    text = dumps({"xs": xs})
    back = np.asarray(json.loads(text)["xs"], dtype=float)
    np.testing.assert_array_equal(back, xs)


def test_dumps_is_byte_deterministic():
    doc = to_dict(SAMPLES[0])
    assert dumps(doc) == dumps(doc)
    assert dumps(doc) == '{"v": [0.10000000000000001, -0.69999999999999996, 2], "c": [0.29999999999999999, 0.33333333333333331]}'


def test_dumps_scalar_kinds():
    assert dumps({"a": True, "b": 3, "c": None, "d": "x"}) == '{"a": true, "b": 3, "c": null, "d": "x"}'
    with pytest.raises(InvalidData):
        dumps({"bad": float("nan")})
    with pytest.raises(InvalidData):
        dumps({"bad": object()})


def test_every_schema_roundtrips():
    for obj in SAMPLES:
        text = dumps(to_dict(obj))
        back = loads(text)
        assert type(back) is type(obj)
        assert dumps(to_dict(back)) == text


def test_detect_names():
    names = [detect(to_dict(obj)) for obj in SAMPLES]
    assert names == [
        "matrix", "spectral", "action_angle", "divisor_quasimomentum",
        "divisor", "pole_residue", "quotient",
    ]


def test_unknown_key_sets_rejected():
    for doc in ({}, {"v": [0.0]}, {"v": [0.0], "c": [], "extra": 1},
                {"lambdas": [0.0, 1.0]}, {"poles": [0.0], "rhos": [1.0]}):
        with pytest.raises(InvalidData):
            detect(doc)
    with pytest.raises(InvalidData):
        from_dict(["not", "a", "dict"])


def test_loads_rejects_bad_documents():
    with pytest.raises(InvalidData):
        loads("{not json")
    with pytest.raises(InvalidData):
        loads('{"v": [0.0, "x"], "c": [1.0]}')
    with pytest.raises(InvalidData):
        loads('{"v": [[0.0]], "c": [1.0]}')
    with pytest.raises(InvalidData):
        loads('{"gammas": [0.5], "pis": [0.0], "casimir": true}')
    with pytest.raises(InvalidData):
        loads('{"gammas": [0.5], "pis": [0.0], "casimir": "one"}')


def test_loads_validates_payload():
    """Documents are parsed into the typed constructors, so domain checks
    still run: couplings must be positive, residues positive, etc."""
    with pytest.raises(InvalidData):
        loads('{"v": [0.0, 1.0], "c": [-1.0]}')
    with pytest.raises(InvalidData):
        loads('{"lambdas": [0.0, 1.0], "rhos": [0.5, 0.6]}')


def test_spectrum_document_reads_as_spectral_data():
    """The eigenvalues, weights and divisor that `toda spectrum` writes load
    as the spectral data.  An increasing finite divisor that does not
    strictly interlace raises InterlacingViolated; one that is not a divisor
    at all (wrong length, unordered, non-finite) raises InvalidData."""
    doc = {"lambdas": [0.0, 2.0, 3.0], "rhos": [0.25, 0.5, 0.25], "gammas": [1.0, 2.5]}
    assert detect(doc) == "spectrum"
    sd = from_dict(doc)
    assert type(sd) is SpectralData
    np.testing.assert_array_equal(sd.lambdas, doc["lambdas"])
    np.testing.assert_array_equal(sd.rhos, doc["rhos"])
    for gammas in ([1.0, 3.0], [0.5, 1.5], [-1.0, 2.5]):
        with pytest.raises(InterlacingViolated):
            from_dict(dict(doc, gammas=gammas))
    for gammas in ([1.0], [2.5, 1.0], [1.0, float("nan")], [[1.0, 2.5]]):
        with pytest.raises(InvalidData):
            from_dict(dict(doc, gammas=gammas))


def test_documents_are_the_records_fields(capsys):
    """Every document kind but the spectrum document is its record's leading
    fields: it reads back to the same document, and a field that is not
    numeric, or is 2-d, exits 2 through the CLI."""
    docs = {detect(to_dict(obj)): json.loads(dumps(to_dict(obj))) for obj in SAMPLES}
    for kind, (cls, keys) in _KINDS.items():
        if kind == "spectrum":
            continue
        fields = [f.name for f in dataclasses.fields(cls)]
        assert tuple(fields[: len(keys)]) == keys, kind
        doc = docs[kind]
        assert json.loads(dumps(to_dict(from_dict(doc)))) == doc, kind
        for key in keys:
            for bad in (["x"], [doc[key]]):
                assert main(["spectrum", "--in", json.dumps(dict(doc, **{key: bad}))]) == 2
                assert "error" in capsys.readouterr().err, (kind, key, bad)


def _recursive_dumps(obj):
    """Oracle: the element-by-element form of ``dumps``, one recursive call
    per list element, before flat float runs were written in one join."""
    if isinstance(obj, dict):
        items = ", ".join("%s: %s" % (json.dumps(str(k)), _recursive_dumps(v)) for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_recursive_dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _recursive_dumps(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise InvalidData("cannot serialize a non-finite number")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise InvalidData("cannot serialize objects of type %s" % type(obj).__name__)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, 3.0]


@pytest.mark.parametrize(
    "obj",
    [
        EDGE_FLOATS,
        tuple(EDGE_FLOATS),
        np.array(EDGE_FLOATS),
        np.array([0.1, -0.0, 1e-45, 3.4e38], dtype=np.float32),
        [np.float64(x) for x in EDGE_FLOATS],
        [np.float32(0.1), np.float16(2.5), 1.0],
        [],
        np.array([]),
        [1, 2, -3, 2**60 + 1],
        [np.int64(2**60 + 1), np.int32(-7), 2.0],
        [True, False, 1.0, 0.0],
        [np.bool_(True), 1.5],
        [1.0, 2, 3.5],
        np.arange(4),
        np.array([True, False]),
        np.array([[0.25, -0.0], [5e-324, 1.7976931348623157e308]]),
        {"a": {"b": [1.0, -0.0, {"c": np.array([5e-324, 2.0])}], "d": (np.float64(1.5), None, "s")}},
        [[1.0, 2.0], [3, 4.0], []],
    ],
)
def test_dumps_matches_the_recursive_form(obj):
    assert dumps(obj) == _recursive_dumps(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "wrap", [lambda x: [1.0, x], lambda x: (x,), lambda x: np.array([0.5, x]), lambda x: [np.float64(x)],
             lambda x: np.array([[1.0], [x]]), lambda x: {"k": [2.0, x, 3.0]}]
)
def test_dumps_rejects_non_finite_values(bad, wrap):
    with pytest.raises(InvalidData, match="non-finite"):
        dumps(wrap(bad))


ROW_FLOATS = [-0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 0.1, 1.0, 1e16]


def _flow_layout(n: int) -> dict:
    """The record layout of ``toda flow`` at size n: its angle and divisor
    columns have width n - 1, which is 0 at n = 1."""
    return {"t": None, "matrix": {"v": n, "c": n - 1}, "lambdas": n, "rhos": n,
            "thetas": n - 1, "gammas": n - 1, "pis": n - 1}


def _width(layout) -> int:
    if layout is None:
        return 1
    if isinstance(layout, dict):
        return sum(map(_width, layout.values()))
    return layout


def _record(layout, values):
    """The record that ``layout`` describes, filled from the iterator ``values``."""
    if layout is None:
        return next(values)
    if isinstance(layout, dict):
        return {k: _record(v, values) for k, v in layout.items()}
    return [next(values) for _ in range(layout)]


def _row_table(rows: int, cols: int) -> np.ndarray:
    """Random magnitudes, with the edge values shifted through the first
    rows so that each column of a table of 9 rows or more holds them all."""
    rng = np.random.default_rng(rows * 1000 + cols)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    for i in range(min(rows, len(ROW_FLOATS))):
        table[i] = np.roll(np.resize(ROW_FLOATS, max(cols, len(ROW_FLOATS))), i)[:cols]
    return table


_LAYOUTS = [_flow_layout(1), _flow_layout(2), _flow_layout(4), {"a%d": 1, "%s": {"b": 0}},
            {"x": None}, {"xs": 0, "ys": 1}]


@pytest.mark.parametrize("rows", [1, 37])
@pytest.mark.parametrize("layout", _LAYOUTS, ids=["flow-N1", "flow-N2", "flow-N4", "percent-keys",
                                                  "one-float", "widths-0-1"])
def test_row_template_writes_what_dumps_writes(layout, rows):
    """Each row reads, to the byte, as ``dumps`` of its record, and with no
    layout as the values joined by commas; keys holding ``%`` stay literal."""
    table = _row_table(rows, _width(layout))
    want = [dumps(_record(layout, iter(row))) for row in table.tolist()]
    assert _dump_rows(table, layout) == want
    assert _dump_rows(table) == [",".join(map(dumps, row)) for row in table.tolist()]


def test_row_template_of_every_edge_value_alone():
    table = np.array(ROW_FLOATS)[:, None]
    assert _dump_rows(table, {"x": None}) == ['{"x": %s}' % dumps(x) for x in ROW_FLOATS]
    assert _dump_rows(table) == [format(x, ".17g") for x in ROW_FLOATS]
    assert _dump_rows(table)[:1] + _dump_rows(table)[-2:] == ["-0", "1", "10000000000000000"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_row_template_rejects_non_finite_values_in_any_column(bad):
    layout = _flow_layout(3)
    table = _row_table(4, _width(layout))
    with pytest.raises(InvalidData) as want:
        dumps(bad)
    for col in range(table.shape[1]):
        spoiled = table.copy()
        spoiled[2, col] = bad
        for args in ((spoiled, layout), (spoiled,)):
            with pytest.raises(InvalidData) as got:
                _dump_rows(*args)
            assert str(got.value) == str(want.value) == "cannot serialize a non-finite number"
