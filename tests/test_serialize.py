"""Trace and series CSV text."""

import numpy as np

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
