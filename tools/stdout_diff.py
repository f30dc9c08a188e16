"""Compare the CLI output of two checkouts, command by command.

Usage:
    python3 tools/stdout_diff.py --base DIR --change DIR

Each command in ``COMMANDS`` runs once per checkout as
``python -m confunc.cli ARGS`` from that checkout's root with
``PYTHONPATH=DIR/src``, so each side runs the program it contains. For
each command the report says either that stdout, stderr and the exit
code are identical, or what differs: the exit codes, the number of
differing stderr lines, and for stdout (read as CSV with one header row)
the number of differing rows and, per column, how many values differ and
the largest absolute difference where both sides are numbers. Exit code
0 means every command was identical, 1 that at least one differed.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

COMMANDS = (
    "bounds --grid 40",
    "bounds --tx 0.9 --tp 0.9",
    "compare",
    "lambda0 --range 0.5:5:0.5",
    "verify all --seed 7",
    "state slepian --c 1.5",
    "state slepian --c 2.4 --L 3",
    "state gaussian --sigma 2",
    "state rect-sinc --L 0.1 --W 0.1",
    "state rect-sinc --L 1 --W 1 --P 0.3",
    "bounds --grid 16 --hbar 1.3",
    "compare --hbar 1.3",
    "state gaussian --sigma 0.7 --hbar 1.3",
    "bounds --tx 0.9 --tp 0.9 --hbar -1",
    "state rect-sinc --L 0.3 --W 0.2 --hbar 1.3",
    "state slepian --c 1.5 --hbar 0.7 --format json",
    "verify strictness",
    "bounds --grid 4 --format json",
    "lambda0 --c 1 --c 13 --format json",
    "verify lenard --seed 3",
    "verify all --seed 123456",
    "bounds --tx 1 --tp 1",
    "lambda0 --range 0:1e308:1e-300",
    "state rect-sinc --L 8 --W 8",
    "verify strictness --format json",
    "bounds --tx 0.3 --tp 0.5",
    "compare --theta 0.3",
    "verify two-route",
    "state slepian --c 5",
    "bounds --tx 1 --tp 1 --format json",
    "bounds --tx 0 --tp 0",
    "bounds --tx 1 --tp 0.9",
    "compare --theta 0.5 --theta 0.999 --format json",
    "bounds --grid 100",
    "bounds --grid 40 --hbar 0.7",
    "verify lenard --seed 0",
)


def run_command(root: Path, command: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "confunc.cli", *shlex.split(command)]
    return subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def column_diff(base: str, change: str) -> dict:
    """Row count and per-column differences of two CSV texts.

    Returns ``{"layout": reason}`` when one side printed nothing or the
    headers or row counts differ, otherwise the differing row count and,
    per column with a difference, ``{"values": count, "max_abs": float or
    None}``; ``max_abs`` is None when some differing value is not a number
    on both sides.
    """
    table_b = list(csv.reader(io.StringIO(base)))
    table_c = list(csv.reader(io.StringIO(change)))
    if not table_b or not table_c:
        sizes = [f"{len(t) - 1} rows" if t else "no output" for t in (table_b, table_c)]
        return {"layout": " -> ".join(sizes)}
    head_b, *rows_b = table_b
    head_c, *rows_c = table_c
    if head_b != head_c:
        return {"layout": f"header {head_b} != {head_c}"}
    if len(rows_b) != len(rows_c):
        return {"layout": f"{len(rows_b)} != {len(rows_c)} rows"}
    columns: dict[str, dict] = {}
    rows = 0
    for row_b, row_c in zip(rows_b, rows_c):
        if row_b == row_c:
            continue
        rows += 1
        for name, vb, vc in zip(head_b, row_b, row_c):
            if vb == vc:
                continue
            col = columns.setdefault(name, {"values": 0, "max_abs": 0.0})
            col["values"] += 1
            xb, xc = _number(vb), _number(vc)
            if xb is None or xc is None or col["max_abs"] is None:
                col["max_abs"] = None
            else:
                col["max_abs"] = max(col["max_abs"], abs(xb - xc))
    return {"rows": rows, "of": len(rows_b), "columns": columns}


def compare(base: subprocess.CompletedProcess, change: subprocess.CompletedProcess) -> list[str]:
    """Report lines for one command; a single "identical" when nothing differs."""
    if (base.returncode, base.stdout, base.stderr) == (
        change.returncode,
        change.stdout,
        change.stderr,
    ):
        return ["identical"]
    lines = []
    if base.returncode != change.returncode:
        lines.append(f"exit code {base.returncode} -> {change.returncode}")
    if base.stderr != change.stderr:
        pairs = zip(base.stderr.splitlines(), change.stderr.splitlines())
        differing = sum(b != c for b, c in pairs)
        differing += abs(len(base.stderr.splitlines()) - len(change.stderr.splitlines()))
        lines.append(f"stderr differs in {differing} lines")
    if base.stdout != change.stdout:
        diff = column_diff(base.stdout, change.stdout)
        if "layout" in diff:
            lines.append(f"stdout layout differs: {diff['layout']}")
        else:
            lines.append(f"stdout differs in {diff['rows']} of {diff['of']} rows")
            for name, col in diff["columns"].items():
                largest = "not numeric" if col["max_abs"] is None else f"{col['max_abs']:.3g}"
                lines.append(f"  {name}: {col['values']} values, max |diff| {largest}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    args = parser.parse_args(argv)
    base_root, change_root = args.base.resolve(), args.change.resolve()
    all_identical = True
    for command in COMMANDS:
        lines = compare(run_command(base_root, command), run_command(change_root, command))
        all_identical &= lines == ["identical"]
        print(f"{command}: {lines[0]}")
        for line in lines[1:]:
            print(f"  {line}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
