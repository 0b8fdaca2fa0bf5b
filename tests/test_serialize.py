"""Trace and series CSV text, and the canonical JSON writer."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubicobs import serialize

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-320, 0.1, -1e300]


def test_csv_rows_equal_format_float_joined_by_commas(tmp_path):
    rows = np.array([SPECIAL, SPECIAL[::-1]])
    columns = [f"c{i}" for i in range(len(SPECIAL))]
    path = tmp_path / "series.csv"
    serialize.write_series_csv(str(path), columns, list(rows.T))
    text = path.read_bytes().decode()
    want = [",".join(columns)]
    want += [",".join(serialize.format_float(v) for v in row) for row in rows]
    assert text == "\n".join(want) + "\n"


def canonical(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOATS = (
    FINITE
    | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
    | FINITE.map(np.float64)
)
LEAVES = st.none() | st.booleans() | st.integers() | FLOATS | st.text()
# float lists take the writer's one-pass path, mixed lists the general one
DOCS = st.recursive(
    LEAVES | st.lists(FLOATS, max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@given(DOCS)
def test_dumps_json_is_json_dumps_byte_for_byte(doc):
    assert serialize.dumps_json(doc) == canonical(doc)


@given(DOCS, st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 5), st.booleans())
def test_dumps_json_refuses_nan_and_infinity_as_json_does(doc, bad, at, in_list):
    row = [1.0] * 5
    row.insert(at, bad)
    doc = {"doc": doc, "bad": row if in_list else bad}
    with pytest.raises(ValueError) as want:
        canonical(doc)
    with pytest.raises(ValueError) as got:
        serialize.dumps_json(doc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "doc",
    [
        {"a": {1: [2.0]}},
        {"a": {2.5: None}},
        {"a": {(1, 2): 0.5}},
        {"a": np.int64(1)},
        {"a": [1.0, np.bool_(True)]},
        {"a": {"b"}},
        [object()],
    ],
)
def test_dumps_json_refuses_other_keys_and_values(doc):
    with pytest.raises(TypeError):
        serialize.dumps_json(doc)
