"""Command-line front end.

Regenerates the reference tables and figure datasets and exposes the
evaluators for scripted use. Five subcommands:

* ``lambda0``   -- concentration eigenvalue along c values or a range;
* ``bounds``    -- every bound at one confidence pair, or the same
  record at every pair of an interior grid;
* ``compare``   -- Gaussian versus saturating-state products at equal
  confidences;
* ``verify``    -- self-check suites with machine-readable pass/fail;
* ``state``     -- sample states with position/momentum density columns
  for external plotting.

Every subcommand takes ``--format`` and ``--out``. ``--hbar`` goes on
``bounds``, ``compare`` and ``state``, the subcommands with
dimensional output, and ``--seed`` (the verification corpus) on
``verify`` only. ``state`` takes every option after its kind, and each
kind only its own; ``bounds`` takes ``--grid`` or ``--tx`` and ``--tp``.
An option on a subcommand or kind that does not read it is a usage
error, and no environment variable changes a result. Output is
CSV with one header row (default) or a JSON array of the same records,
finite numbers as JSON numbers. Numbers carry 6 significant digits; eigenvalue
tables also report 1 - lambda0 in scientific notation with 7, so
near-unity values stay resolvable. ``--out`` follows symlinks, writes a
FIFO or device in place, and replaces a regular file only once the new
one is complete. Exit codes: 0 success, 1 a verification check failed,
2 usage or parameter error, or ``--out`` could not be written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TextIO

import numpy as np

from .bounds import (
    _donoho_stark_bounds,
    _interval_bounds,
    _measurable_bounds,
    bbm_reference,
    reports,
)
from .errors import ConfuncError, DomainError
from .numerics import largest_eigenpair
from .slepian import _eigenpairs, a_matrix, lambda0, lambda0_large_c, lambda0_small_c
from .states import (
    Grid,
    _gaussian_grid,
    _rect_sinc_grid,
    _rect_sinc_masses,
    _verify_lenard_states,
    differential_entropy,
    fourier_transform,
    gaussian_state,
    probability_in_interval,
    random_smooth_state,
    rect_sinc_prediction,
    rect_sinc_state,
    slepian_state,
)

__all__ = ["main"]

_COMPARE_DEFAULT = (0.55, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99)
# count caps, checked before any list is built: the largest landscape
# side (its square of pairs) and the most c values one --range may give
_MAX_LANDSCAPE_SIDE = 500
_MAX_RANGE_VALUES = 100_000


# --------------------------------------------------------------------
# Emission
# --------------------------------------------------------------------


class _Scientific(str):
    """A number's CSV text in scientific notation, a number in JSON."""


def _json_value(value: object) -> object:
    if isinstance(value, _Scientific):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    v = float(value)
    if math.isinf(v) or math.isnan(v):
        return f"{v:.6g}"
    # keep the JSON mirror at the same printed precision as the CSV
    return float(f"{v:.6g}")


def _columns(rows: list[dict]) -> dict[str, list]:
    """The table of a list of rows that share their keys."""
    return {name: [row[name] for row in rows] for name in rows[0]}


# ---- the "%.6g" kernel ---------------------------------------------
#
# A finite v with 1e-300 <= |v| <= 1e300 prints from s = |v| * 10**(5 - e),
# e = floor(log10 |v|): its six digits are s rounded to an integer, and
# its exponent is e, or e + 1 where the digits round up to 10**6. s is one
# rounded multiply by a power of ten within a few ulps of 10**(5 - e), so
# it is within 1e-9 of the exact product, and rint(s) is the correct
# rounding wherever s lies more than 1e-6 from a half (as it would be for
# a table thousands of ulps off). Python's "%" prints the other values,
# zero aside: non-finite, outside [1e-300, 1e300], or near a half.
#
# The text is gathered from a 16-byte source row per value, two
# little-endian words: the six digits, "." and "0", then "e", the
# exponent's sign and three digits, a pad byte and "-". A layout names
# these columns by the characters of ``_COLUMNS``. The tables are filled
# by assignment, which costs less at import than arithmetic on arrays.

_COLUMNS = bytes.maketrans(b"123456.0e+xyz -", bytes(range(15)))
_CELL = 13  # bytes of the longest "%.6g" text, such as -1.23457e-308
# per number 0..999 (hundreds, tens, units): its ASCII digits in the low
# three bytes of a word, and its trailing zeros
_DECIMALS = np.frombuffer(b"0123456789", np.uint8)
_THREE = np.zeros((10, 10, 10, 8), np.uint8)
_THREE[..., 0] = _DECIMALS[:, None, None]
_THREE[..., 1] = _DECIMALS[:, None]
_THREE[..., 2] = _DECIMALS
_THREE = _THREE.reshape(1000, 8)
_ASCII3 = _THREE.view("<i8").ravel()
_TRAILING = np.zeros((10, 10, 10), np.intp)
_TRAILING[:, :, 0] = 1
_TRAILING[:, 0, 0] = 2
_TRAILING[0, 0, 0] = 3
_TRAILING = _TRAILING.ravel()
_DOT_ZERO = ord(".") << 48 | ord("0") << 56
# per decimal exponent e in [_E_MIN, -_E_MIN], which holds every e of a
# value in [1e-300, 1e300]: 10**(5 - e), the first layout that prints e,
# and the second source word
_E_MIN = -303
_SCALE = np.power(10.0, np.arange(5 - _E_MIN, 4 + _E_MIN, -1))
_FIRST = np.full(1 - 2 * _E_MIN, 66)
_FIRST[-99 - _E_MIN : 100 - _E_MIN] = 60
_FIRST[-4 - _E_MIN : 6 - _E_MIN] = range(0, 60, 6)
_TAIL = np.zeros((1 - 2 * _E_MIN, 8), np.uint8)
_TAIL[:, :2] = [ord("e"), ord("+")]
_TAIL[: -_E_MIN, 1] = ord("-")
_TAIL[:, 2:5] = np.concatenate((_THREE[-_E_MIN:0:-1, :3], _THREE[: 1 - _E_MIN, :3]))
_TAIL[:, 6] = ord("-")
_TAIL = _TAIL.view("<i8").ravel()


def _layouts() -> np.ndarray:
    """Source columns of the 73 "%.6g" layouts, then of the same after "-".

    Layout 6 * (X + 4) + z prints exponent X in -4..5 in fixed notation
    with z trailing zeros of the six digits dropped, 60 + z and 66 + z
    in scientific notation with two and three exponent digits, and 72
    zero.
    """
    digits = "123456"
    specs = []
    for x in range(-4, 6):
        for z in range(6):
            kept = digits[: 6 - z]
            if x < 0:
                specs.append("0." + "0" * (-x - 1) + kept)
            else:
                specs.append(digits[: x + 1] + ("." + kept[x + 1 :] if kept[x + 1 :] else ""))
    for exponent in ("yz", "xyz"):
        for z in range(6):
            kept = digits[: 6 - z]
            specs.append(kept[0] + ("." + kept[1:] if kept[1:] else "") + "e+" + exponent)
    specs.append("0")
    specs += ["-" + spec for spec in specs]
    text = "".join([spec.ljust(_CELL) for spec in specs]).encode().translate(_COLUMNS)
    return np.frombuffer(text, np.uint8).reshape(-1, _CELL)


_LAYOUTS = _layouts()


def _g6(values: np.ndarray) -> np.ndarray:
    """The bytes of ``"%.6g" % v`` for each value, one row of ``_CELL``
    bytes padded with zero bytes; a float32 value prints as its double."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    direct = (a >= 1e-300) & (a <= 1e300)
    a = np.where(direct, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    # log10 can put e one off next to a power of ten
    s = a * _SCALE.take(e - _E_MIN)
    e += (s >= 1e6).astype(np.intp) - (s < 1e5)
    s = a * _SCALE.take(e - _E_MIN)
    digits = np.rint(s)
    carry = digits >= 1e6
    e += carry
    high, low = np.divmod(np.where(carry, 1e5, digits).astype(np.intp), 1000)
    source = np.empty((v.size, 2), np.dtype("<i8"))
    source[:, 0] = _ASCII3.take(high) | _ASCII3.take(low) << 24 | _DOT_ZERO
    source[:, 1] = _TAIL.take(e - _E_MIN)
    zeros = np.where(low == 0, 3 + _TRAILING.take(high), _TRAILING.take(low))
    layout = np.where(v == 0, 72, _FIRST.take(e - _E_MIN) + zeros) + 73 * np.signbit(v)
    columns = _LAYOUTS.take(layout, axis=0) + np.arange(0, 16 * v.size, 16)[:, None]
    cells = source.view(np.uint8).take(columns)
    near = np.abs(s - np.floor(s) - 0.5) <= 1e-6
    rest = np.flatnonzero(~direct & (v != 0) | near)
    if rest.size:
        texts = np.array([b"%.6g" % x for x in v[rest].tolist()], f"S{_CELL}")
        cells[rest] = texts.view(np.uint8).reshape(rest.size, _CELL)
    return cells


# rows written per chunk, so each chunk's arrays stay under about 1 MB
_CHUNK_ROWS = 1024


def _write(table: dict, output_format: str, target: TextIO) -> None:
    """Write a table of columns (name -> sequence, all of one length): float
    arrays, lists of Python floats, text (arrays or lists of str) and object
    arrays of floats and None, a None being a blank cell. Text cells are the
    program's own and never quoted: none holds a comma, a quote, a line
    break, a zero byte or a non-ASCII character.

    CSV goes out in chunks of rows, each built as one block of bytes:
    ``_g6``'s cells for every number in the chunk, the text columns'
    bytes, and the separators, with the pad bytes dropped. ``_g6``
    prints ``"%.6g" % v`` byte for byte: it rounds with ``rint`` away
    from halves and leaves the rest (non-finite values, magnitudes
    outside [1e-300, 1e300], values near a half) to Python's ``%``.
    """
    names = list(table)
    if output_format == "json":
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
        payload = [
            {name: _json_value(value) for name, value in zip(names, row)}
            for row in zip(*values)
        ]
        target.write(json.dumps(payload, indent=1) + "\n")
        return
    columns = [np.asarray(c) for c in table.values()]
    # an object column holds floats and None: a float column with blank cells
    blanks = {k: np.equal(c, None) for k, c in enumerate(columns) if c.dtype == object}
    for k, blank in blanks.items():
        columns[k] = np.where(blank, 0.0, columns[k]).astype(np.float64)
    numbers = [c for c in columns if c.dtype.kind == "f"]
    target.write(",".join(names) + "\n")
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = slice(start, start + _CHUNK_ROWS)
        rows = len(columns[0][chunk])
        if numbers:
            with np.errstate(invalid="ignore"):  # as tolist, widen a float32 sNaN quietly
                stacked = np.stack([c[chunk] for c in numbers], axis=1, dtype=np.float64)
            # one kernel call on the chunk's numbers, then a matrix per column
            matrices = iter(_g6(stacked).reshape(rows, len(numbers), _CELL).transpose(1, 0, 2))
        pieces = []
        for k, c in enumerate(columns):
            if c.dtype.kind == "f":
                pieces.append(next(matrices))
                if k in blanks:
                    pieces[-1][blanks[k][chunk]] = 0
            else:
                pieces.append(c[chunk].astype("S").view(np.uint8).reshape(rows, -1))
            pieces.append(np.full((rows, 1), ord(","), np.uint8))
        pieces[-1] = np.full((rows, 1), ord("\n"), np.uint8)
        block = np.concatenate(pieces, axis=1).tobytes()
        target.write(block.translate(None, b"\0").decode("ascii"))


def _emit(table: dict, output_format: str, output_path: str | None) -> None:
    """Write a table of columns to stdout or to --out.

    Symlinks are followed. An existing FIFO or device is written in
    place; a regular or new file is written to a temporary file beside
    the resolved target, which is renamed over it only once complete.
    """
    if not output_path:
        _write(table, output_format, sys.stdout)
        return
    target = Path(output_path)
    if target.exists() and not target.is_file():
        with open(target, "w", newline="", encoding="ascii") as handle:
            _write(table, output_format, handle)
        return
    path = Path(os.path.realpath(target))
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "x", newline="", encoding="ascii") as handle:
            _write(table, output_format, handle)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# --------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------


def _parse_range(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"range must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"range must be numeric, got {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise DomainError(f"range must be finite, got {spec!r}")
    if step <= 0 or stop < start:
        raise DomainError(f"range requires start <= stop and step > 0, got {spec!r}")
    # a step far below the span makes the quotient inf, which math.floor refuses
    span = (stop - start) / step + 1e-9
    count = math.floor(span) + 1 if math.isfinite(span) else math.inf
    if count > _MAX_RANGE_VALUES:
        raise DomainError(
            f"range {spec!r} gives {count} values, above the cap of {_MAX_RANGE_VALUES}"
        )
    return [start + k * step for k in range(count)]


def _cmd_lambda0(args: argparse.Namespace) -> tuple[dict, int]:
    values: list[float] = list(args.c or [])
    if args.range:
        values.extend(_parse_range(args.range))
    if not values:
        raise DomainError("lambda0 needs --c or --range")
    lam = _eigenpairs(values)[0]
    return {
        "c": values,
        "lambda0": lam,
        "one_minus_lambda0": [_Scientific(f"{v:.6e}") for v in (1.0 - lam).tolist()],
        "small_c_approx": [lambda0_small_c(c) for c in values],
        "large_c_approx": [lambda0_large_c(c) for c in values],
    }, 0


def _square(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of the levels, theta_x major, as two flat arrays."""
    return np.repeat(levels, levels.size), np.tile(levels, levels.size)


def _cmd_bounds(args: argparse.Namespace) -> tuple[dict, int]:
    if args.grid is not None:
        if args.tx is not None or args.tp is not None:
            raise DomainError("bounds takes --grid or --tx and --tp, not both")
        if not 1 <= args.grid <= _MAX_LANDSCAPE_SIDE:
            raise DomainError(
                f"--grid must be a cell count in [1, {_MAX_LANDSCAPE_SIDE}], got {args.grid}"
            )
        tx, tp = _square(np.arange(1, args.grid + 1) / (args.grid + 1))
    elif args.tx is None or args.tp is None:
        raise DomainError("bounds needs --tx and --tp, or --grid")
    else:
        tx, tp = args.tx, args.tp
    table = reports(tx, tp, hbar=args.hbar)
    if args.grid is not None:
        # the landscape keeps its first three columns, for readers by position
        table = {name: table.pop(name) for name in ("theta_x", "theta_p", "lp_interval")} | table
    return table, 0


def _cmd_compare(args: argparse.Namespace) -> tuple[dict, int]:
    thetas = list(args.theta) if args.theta else list(_COMPARE_DEFAULT)
    for theta in thetas:
        if not 0.0 < theta < 1.0:
            raise DomainError(f"compare requires 0 < theta < 1, got {theta}")
    table = reports(thetas, thetas, hbar=args.hbar)
    gaussian, product = table["gaussian_product"], table["lp_interval"]
    ratio = np.divide(gaussian, product, out=np.full(product.shape, math.inf), where=product > 0)
    return {"theta": table["theta_x"], "gaussian": gaussian, "slepian": product, "ratio": ratio}, 0


# ---- verify suites --------------------------------------------------


def _check(suite: str, name: str, measured: float, threshold: float, ok: bool) -> dict:
    return {
        "suite": suite,
        "check": name,
        "measured": measured,
        "threshold": threshold,
        "status": "pass" if ok else "fail",
    }


def _suite_strictness(args: argparse.Namespace) -> list[dict]:
    rows = []
    for length, n, half in ((0.1, 1 << 20, 6553.6), (0.01, 1 << 22, 10485.76)):
        mass_x, mass_p = _rect_sinc_masses(Grid.symmetric(half, n), length, length, 0.5)
        tag = f"L_W_{length}"
        rows.append(_check("strictness", f"position_mass_{tag}", mass_x, 0.5, mass_x > 0.5))
        rows.append(_check("strictness", f"momentum_mass_{tag}", mass_p, 0.5, mass_p > 0.5))
    return rows


def _suite_two_route(args: argparse.Namespace) -> list[dict]:
    rows = []
    for c in (0.5, 1.0, 1.5, 2.0):
        norm, _ = largest_eigenpair(a_matrix(4.0 * c))
        diff = abs(norm / math.pi - lambda0(c))
        rows.append(_check("two-route", f"a_matrix_vs_eigenvalue_c_{c}", diff, 1e-6, diff <= 1e-6))
    return rows


def _suite_dominance(args: argparse.Namespace) -> list[dict]:
    rows = []
    tx, tp = _square(np.arange(1, 100) / 100.0)
    bounded = tx + tp > 1.0
    tx, tp = tx[bounded], tp[bounded]
    worst = float(np.min(_measurable_bounds(tx, tp, 1.0) - _donoho_stark_bounds(tx, tp, 1.0)))
    rows.append(
        _check("dominance", "measurable_minus_donoho_stark_grid99", worst, 0.0, worst > 0.0)
    )
    tx, tp = _square(np.arange(11, 20) / 20.0)
    worst = float(np.min(_interval_bounds(tx, tp, 1.0) - _measurable_bounds(tx, tp, 1.0)))
    rows.append(
        _check("dominance", "interval_minus_measurable_spot_grid", worst, 0.0, worst > 0.0)
    )
    return rows


def _lenard_windows(seed: int) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """20 random (position, momentum) window pairs from one generator.

    Each row of the draw is one pair's position centre and width, then
    its momentum centre and width: the same values, in the same order,
    as 80 scalar draws.
    """
    rng = np.random.default_rng(seed)
    draws = rng.uniform((-5.0, 0.2, -20.0, 0.2), (5.0, 5.0, 20.0, 5.0), size=(20, 4))
    return [
        ((xc - 0.5 * xw, xc + 0.5 * xw), (pc - 0.5 * pw, pc + 0.5 * pw))
        for xc, xw, pc, pw in draws.tolist()
    ]


def _suite_lenard(args: argparse.Namespace) -> list[dict]:
    grid = Grid.symmetric(20.0, 4096)
    seeds = range(args.seed, args.seed + 50)
    corpus = (
        (random_smooth_state(grid, seed), _lenard_windows(seed + 1_000_003)) for seed in seeds
    )
    rows = []
    for seed, witnesses in zip(seeds, _verify_lenard_states(corpus)):
        worst = min(witnesses, key=lambda w: w.margin)
        rows.append(
            _check(
                "lenard", f"min_margin_seed_{seed}", worst.margin, -worst.slack, worst.holds
            )
        )
    return rows


_SUITES = {
    "strictness": _suite_strictness,
    "lenard": _suite_lenard,
    "two-route": _suite_two_route,
    "dominance": _suite_dominance,
}


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    if args.seed < 0:
        raise DomainError(f"seed must be >= 0, got {args.seed}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    rows: list[dict] = []
    for name in names:
        rows.extend(_SUITES[name](args))
    failed = any(r["status"] != "pass" for r in rows)
    return _columns(rows), 1 if failed else 0


# ---- state emission -------------------------------------------------


def _cmd_state(args: argparse.Namespace) -> tuple[dict, int]:
    h = args.hbar
    if args.kind == "gaussian":
        state = gaussian_state(_gaussian_grid(args.sigma), args.sigma, hbar=h)
        momentum = fourier_transform(state)
        hx = differential_entropy(state)
        hp = differential_entropy(momentum)
        _note(
            f"gaussian sigma={args.sigma}: h(x)={hx:.6f}, h(p)={hp:.6f}, "
            f"sum={hx + hp:.6f}, entropic floor={bbm_reference(h):.6f}"
        )
    elif args.kind == "slepian":
        state = slepian_state(args.c, args.L, hbar=h)
        momentum = fourier_transform(state)
        width = 4.0 * h * args.c / args.L
        in_band = probability_in_interval(momentum, -0.5 * width, 0.5 * width)
        _note(
            f"slepian c={args.c}, L={args.L}, W={width:.6g}: "
            f"in-band momentum mass={in_band:.6f}, "
            f"lambda0={lambda0(args.c):.6f}"
        )
    else:  # rect-sinc
        # the prediction validates L, W and P before a grid is sized on them
        continuum_x, continuum_p = rect_sinc_prediction(args.L, args.W, args.P, hbar=h)
        grid = _rect_sinc_grid(args.L, args.W, h)
        state = rect_sinc_state(grid, args.L, args.W, args.P, hbar=h)
        momentum = fourier_transform(state)
        mass_x = probability_in_interval(state, -0.5 * args.L, 0.5 * args.L)
        mass_p = probability_in_interval(momentum, -0.5 * args.W, 0.5 * args.W)
        _note(
            f"rect-sinc L={args.L}, W={args.W}, P={args.P}: "
            f"position mass={mass_x:.6f} (continuum {continuum_x:.6f}), "
            f"momentum mass={mass_p:.6f} (continuum {continuum_p:.6f})"
        )
    table = {
        "x": state.grid.centers,
        "re_psi": state.amplitudes.real,
        "im_psi": state.amplitudes.imag,
        "density_x": state.density,
        "p": momentum.grid.centers,
        "density_p": momentum.density,
    }
    return table, 0


# --------------------------------------------------------------------
# Parser and entry point
# --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confunc",
        description="Confidence-uncertainty bounds for position and momentum.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    with_hbar = argparse.ArgumentParser(add_help=False, parents=[common])
    with_hbar.add_argument("--hbar", type=float, default=1.0, help="value of hbar (default 1)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda0", parents=[common], help="concentration eigenvalue table")
    p.add_argument("--c", type=float, action="append", help="a c value (repeatable)")
    p.add_argument("--range", default=None, help="c range start:stop:step, inclusive")
    p.set_defaults(handler=_cmd_lambda0)

    p = sub.add_parser("bounds", parents=[with_hbar], help="bound report or landscape grid")
    p.add_argument("--tx", type=float, default=None, help="position confidence")
    p.add_argument("--tp", type=float, default=None, help="momentum confidence")
    p.add_argument(
        "--grid",
        type=int,
        default=None,
        help=(
            "emit the bound report at every pair of an N x N interior grid "
            f"(N <= {_MAX_LANDSCAPE_SIDE})"
        ),
    )
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("compare", parents=[with_hbar], help="Gaussian vs saturating state")
    p.add_argument(
        "--theta",
        type=float,
        action="append",
        help="equal-confidence level (repeatable; default Table-style list)",
    )
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("verify", parents=[common], help="self-check suites")
    p.add_argument("suite", choices=(*_SUITES, "all"))
    p.add_argument("--seed", type=int, default=42, help="corpus seed (default 42)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("state", help="sample state with densities")
    p.set_defaults(handler=_cmd_state)
    # each kind takes only its own options, all after the kind
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("slepian", parents=[with_hbar], help="principal prolate state")
    k.add_argument("--c", type=float, required=True, help="concentration")
    k.add_argument("--L", type=float, default=2.0, help="window length (default 2)")
    k = kinds.add_parser("rect-sinc", parents=[with_hbar], help="rectangle/sinc superposition")
    k.add_argument("--L", type=float, required=True, help="window length")
    k.add_argument("--W", type=float, required=True, help="band width")
    k.add_argument("--P", type=float, default=0.5, help="rectangle weight (default 0.5)")
    k = kinds.add_parser("gaussian", parents=[with_hbar], help="minimum-uncertainty Gaussian")
    k.add_argument("--sigma", type=float, default=1.0, help="deviation (default 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        table, code = args.handler(args)
    except ConfuncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(table, args.format, args.out)
    except OSError as exc:
        target = args.out or "stdout"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
