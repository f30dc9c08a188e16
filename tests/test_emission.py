"""The CLI's column writer against a row writer oracle.

``row_writer`` formats a list of row dicts one value at a time, with
``_fmt`` and ``csv.writer`` for CSV and ``_json_value`` and
``json.dumps`` for JSON. ``cli._write`` takes a table of columns; in
CSV it formats chunks of rows through one row template, ``%.6g`` for a
float array and ``%s`` for other columns' ``_fmt`` text, and passes a
chunk whose text CSV must quote to ``csv.writer``. Both must give the
same bytes.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from confunc import cli

SPECIAL = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 123456.5, -123456.5]
SPECIAL += [0.0, 1e300, 0.1, 1e-5, 99999.95, 999999.5, 1234567.0, -2.5e-17]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.6g}"


def _json_value(value):
    if isinstance(value, cli._Scientific):
        return float(value)
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    v = float(value)
    if math.isinf(v) or math.isnan(v):
        return _fmt(v)
    return float(f"{v:.6g}")


def row_writer(rows, output_format):
    buffer = io.StringIO()
    fields = list(rows[0].keys())
    if output_format == "csv":
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fields])
    else:
        payload = [{k: _json_value(r[k]) for k in fields} for r in rows]
        buffer.write(json.dumps(payload, indent=1) + "\n")
    return buffer.getvalue()


def rows_of(table):
    # iterating an array yields numpy scalars, as row-building handlers did
    return [dict(zip(table, values)) for values in zip(*table.values())]


def column_writer(table, output_format):
    buffer = io.StringIO()
    cli._write(table, output_format, buffer)
    return buffer.getvalue()


def assert_same_output(table):
    for output_format in ("csv", "json"):
        assert column_writer(table, output_format) == row_writer(rows_of(table), output_format)


def test_special_floats_in_float_and_list_columns():
    values = np.array(SPECIAL)
    amplitudes = np.empty(values.size, dtype=np.complex128)
    amplitudes.real, amplitudes.imag = values, values[::-1]
    with np.errstate(over="ignore"):
        single = values.astype(np.float32)
    assert_same_output(
        {
            "array": values,
            "strided": amplitudes.real,
            "imag": amplitudes.imag,
            "list": list(SPECIAL),
            "single": single,
        }
    )


def test_text_columns():
    n = len(SPECIAL)
    texts = ["plain", "a,b", 'say "x"', "two\nlines", "", "divergent", " pad ", "e"]
    assert_same_output(
        {
            "int": list(range(-3, n - 3)),
            "int_array": np.arange(n, dtype=np.int64) * 10**12,
            "bool": [k % 2 == 0 for k in range(n)],
            "none": [None] * n,
            "text": (texts * 2)[:n],
            "scientific": [cli._Scientific(f"{1.0 - v:.6e}") for v in SPECIAL],
            "mixed": [1.5, "divergent", None, 0, math.inf, True, 2e-9, "x"] * 2,
            "float": np.array(SPECIAL),
        }
    )


@pytest.mark.parametrize("text", ["", "a,b", 'q"', "plain"])
def test_one_text_column(text):
    assert_same_output({"only": [text, "x", text]})


def test_table_longer_than_two_chunks():
    n = 2 * cli._CHUNK_ROWS + 17
    rng = np.random.default_rng(11)
    scaled = rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, size=n)
    for k, value in enumerate(SPECIAL):
        # specials on both sides of each chunk boundary
        scaled[(k % 3) * cli._CHUNK_ROWS - k // 3] = value
    assert_same_output(
        {
            "x": np.linspace(-1.0, 1.0, n),
            "scaled": scaled,
            "status": ["pass" if v > 0 else "fail" for v in scaled],
        }
    )


def test_float_table_longer_than_two_chunks():
    # every column a float array, so the row template writes the table
    n = 2 * cli._CHUNK_ROWS + 17
    rng = np.random.default_rng(12)
    scaled = rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, size=n)
    for k, value in enumerate(SPECIAL):
        scaled[(k % 3) * cli._CHUNK_ROWS - k // 3] = value
    amplitudes = np.empty(n, dtype=np.complex128)
    amplitudes.real, amplitudes.imag = scaled, scaled[::-1]
    with np.errstate(over="ignore"):
        single = scaled.astype(np.float32)
    assert_same_output(
        {
            "x": np.linspace(-1.0, 1.0, n),
            "strided": amplitudes.real,
            "imag": amplitudes.imag,
            "single": single,
        }
    )


def test_quoted_text_in_one_chunk_only():
    # the chunk holding text that CSV must quote goes to the csv module,
    # the chunks around it through the row template
    n = 3 * cli._CHUNK_ROWS
    notes = ["plain"] * n
    notes[cli._CHUNK_ROWS + 5] = 'say "x", then y'
    assert_same_output(
        {
            "x": np.linspace(-1.0, 1.0, n),
            "note": notes,
            "region": np.where(np.arange(n) % 3 == 0, "bounded", "trivial"),
        }
    )
