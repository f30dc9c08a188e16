"""The CLI's column writer against a row writer oracle.

``row_writer`` formats a list of row dicts one value at a time, with
``_fmt`` and ``csv.writer`` for CSV and ``_json_value`` and
``json.dumps`` for JSON. ``cli._write`` takes a table of columns; in
CSV it builds each chunk of rows as one block of bytes, every number
printed by the vectorised ``"%.6g"`` kernel ``cli._g6`` and every text
cell as its bytes, never quoted. Both must give the same bytes on the
column types the commands emit: float arrays, lists of floats, text
without a character that CSV quotes, and object columns of floats and
None.

The kernel rounds ``s = |v| * 10**(5 - e)`` with ``rint`` away from
halves; what is left (non-finite, tiny or huge magnitudes, values near a
half) goes through Python's ``%``. ``test_kernel_matches_percent_g_on_a_million_doubles``
checks it against ``"%.6g" % v`` on the values where each of those steps
decides: every binary exponent, exact decimal halves, the doubles next
to decimal halves and the decade edges.
"""
import csv
import io
import json
import math
import warnings

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
    if value is None or isinstance(value, str):
        return value
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
    texts = ["plain", "", "divergent", " pad ", "e"]
    # the bounds table's elementary column: blank where the bound does not apply
    elementary = np.full(n, None)
    elementary[::3] = SPECIAL[::3]
    assert_same_output(
        {
            "int": list(range(-3, n - 3)),
            "int_array": np.arange(n, dtype=np.int64) * 10**12,
            "none": [None] * n,
            "elementary": elementary,
            "text": (texts * 4)[:n],
            "scientific": [cli._Scientific(f"{1.0 - v:.6e}") for v in SPECIAL],
            "float": np.array(SPECIAL),
        }
    )


@pytest.mark.parametrize("text", ["plain"])
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
    # every column a float array, so each chunk is one kernel call
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


def test_one_float_column():
    assert_same_output({"only": np.array(SPECIAL)})


def decimal_halves(rng, count):
    """The doubles nearest to d.dddddd5 * 10**X, X in -25..25: the values
    "%.6g" rounds at a decimal half."""
    digits = rng.integers(100000, 1000000, size=count).tolist()
    exponents = rng.integers(-31, 20, size=count).tolist()
    return np.array([float(f"{d}5e{x}") for d, x in zip(digits, exponents)])


def hard_doubles(rng):
    """About 1.1 million doubles where each step of the kernel decides."""
    # every binary exponent, subnormals included, and both signs
    biased = np.repeat(np.arange(2047, dtype=np.uint64), 128)
    mantissas = rng.integers(0, 1 << 52, size=biased.size, dtype=np.uint64)
    signs = rng.integers(0, 2, size=biased.size, dtype=np.uint64) << np.uint64(63)
    every_exponent = (signs | biased << np.uint64(52) | mantissas).view(np.float64)
    # dyadic values k / 2**j, among them exact decimal halves like 123456.5
    dyadic = rng.integers(1, 1 << 40, size=250_000) / 2.0 ** rng.integers(0, 60, size=250_000)
    # decimal halves and both neighbours
    halves = decimal_halves(rng, 60_000)
    # integers above 1e6 ending in 5, exact halves with an inexact power of ten
    fives = rng.integers(10**5, 10**16, size=20_000) * 10.0 + 5.0
    # every decade edge: 10**k, 9.999995 * 10**k (which rounds into the next
    # decade) and a value just below it, each with its neighbours
    decades = [float(f"{m}e{k}") for k in range(-310, 309) for m in ("1", "9.999995", "9.9999949")]
    edges = np.array(decades + [99999.95, 999999.5, 9.999995e-5, 1e-5, 1e16, 1e22, 1e23])
    pool = np.concatenate(
        [every_exponent, dyadic, -dyadic, halves, fives, rng.normal(size=50_000) * 1e3]
        + [np.nextafter(x, t) for x in (halves, edges) for t in (-np.inf, np.inf)]
        + [edges, -edges]
    )
    return rng.permutation(pool)


def test_kernel_matches_percent_g_on_a_million_doubles():
    rng = np.random.default_rng(2024)
    pool = hard_doubles(rng)
    rows = pool.size // 8
    assert 8 * rows >= 10**6
    columns = pool[: 8 * rows].reshape(8, rows)
    table = {name: column for name, column in zip("abcdef", columns)}
    amplitudes = np.empty(rows, dtype=np.complex128)
    amplitudes.real, amplitudes.imag = columns[6], columns[7]
    table["re"], table["im"] = amplitudes.real, amplitudes.imag
    # float32 bit patterns of every kind, NaNs and subnormals among them
    bits = rng.integers(0, 1 << 32, size=rows, dtype=np.uint64).astype(np.uint32)
    table["single"] = bits.view(np.float32)
    with np.errstate(over="ignore"):
        for column in table.values():
            for k, value in enumerate(SPECIAL):
                # specials on both sides of a chunk boundary
                column[cli._CHUNK_ROWS * (1 + k % 5) - 1 + (k % 2) * (1 + k // 5)] = value
    cells = [["%.6g" % v for v in column.tolist()] for column in table.values()]
    expected = ",".join(table) + "\n" + "".join([",".join(row) + "\n" for row in zip(*cells)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert column_writer(table, "csv") == expected


def test_power_table_is_close_enough_for_rint():
    # 1000 ulps put s within 2e-7 of the exact product, inside the 1e-6
    # margin from a half that the kernel leaves to rint
    exponents = range(cli._E_MIN, 1 - cli._E_MIN)
    rounded = np.array([float(f"1e{5 - e}") for e in exponents])
    ulps = np.abs(cli._SCALE - rounded) / np.spacing(rounded)
    assert ulps.max() <= 1000
