"""Output checks for the benchmark's CLI invocations.

None of them goes through the dense kernel eigensolve the CLI uses, so a
later engine is judged by the same yardstick. The tight bound is checked
through the Fourier-coefficient route, ||A(4c)||_2 / pi = lambda0(c)
(``confunc.slepian.a_matrix`` with numpy's matrix 2-norm), and through
closed forms: the measurable-set floor 2*pi*hbar*T, monotonicity, the
error function, and the densities' normalisation.

Every check adds one attempt to a :class:`Tally`; a failed one records
what went wrong.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

import numpy as np

# printed values carry 6 significant digits; lambda0 moves by less than
# 1e-6 when c moves by its rounding, and the a_matrix route agrees with
# the eigenvalue route to 1e-7
LAMBDA_TOL = 5e-6
# a 6-significant-digit value is off by at most 5e-6 relative
PRINT_RTOL = 1e-5
DENSITY_TOL = 1e-4

SELFCHECK_ROWS = {"all": 60, "two-route": 4}


class Tally:
    """Attempted and failed output checks of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def concentration(c: float) -> float:
    """lambda0(c) by the Fourier-coefficient route."""
    from confunc.slepian import a_matrix

    if c == 0.0:
        return 0.0
    return float(np.linalg.norm(a_matrix(4.0 * c), 2)) / math.pi


def angular_target(tx: float, tp: float) -> float:
    if tx + tp <= 1.0:
        return 0.0
    root = math.sqrt(tx * tp) - math.sqrt((1.0 - tx) * (1.0 - tp))
    return root * root


def _close(printed: float, exact: float) -> bool:
    return abs(printed - exact) <= PRINT_RTOL * max(abs(exact), 1e-300)


def landscape(path: Path, grid: int, hbar: float, sample_seed: int, tally: Tally) -> None:
    """``bounds --grid`` output: shape, floor, monotonicity, seeded recheck."""
    rows = read_rows(path)
    levels = [i / (grid + 1) for i in range(1, grid + 1)]
    cells = [(tx, tp) for tx in levels for tp in levels]
    tally.expect(
        len(rows) == len(cells)
        and all(
            _close(float(r["theta_x"]), tx) and _close(float(r["theta_p"]), tp)
            for r, (tx, tp) in zip(rows, cells)
        ),
        f"landscape: expected the {grid}x{grid} interior grid, got {len(rows)} rows",
    )
    if len(rows) != len(cells):
        return
    values = [float(r["lp_interval"]) for r in rows]
    targets = [angular_target(tx, tp) for tx, tp in cells]
    floor_bad = [
        k
        for k, (v, t) in enumerate(zip(values, targets))
        if (v != 0.0 if t == 0.0 else v < 2.0 * math.pi * hbar * t * (1.0 - PRINT_RTOL))
    ]
    tally.expect(
        not floor_bad,
        f"landscape: cells {floor_bad[:5]} are not 0 when trivial or below 2*pi*hbar*T",
    )
    table = np.array(values).reshape(grid, grid)
    tally.expect(
        bool(np.all(np.diff(table, axis=0) >= 0) and np.all(np.diff(table, axis=1) >= 0)),
        "landscape: values decrease along theta_x or theta_p",
    )
    bounded = [k for k, t in enumerate(targets) if t > 0.0]
    sample = random.Random(sample_seed).sample(bounded, min(16, len(bounded)))
    off = [
        k
        for k in sample
        if abs(concentration(values[k] / (4.0 * hbar)) - targets[k]) > LAMBDA_TOL
    ]
    tally.expect(not off, f"landscape: cells {off} fail ||A(4c)||/pi = T")


def selfcheck(path: Path, suite: str, tally: Tally) -> None:
    """``verify`` output: the suite's row count, every row passing."""
    rows = read_rows(path)
    expected = SELFCHECK_ROWS[suite]
    tally.expect(len(rows) == expected, f"verify {suite}: {len(rows)} rows, expected {expected}")
    failing = [r.get("check") for r in rows if r.get("status") != "pass"]
    tally.expect(not failing, f"verify {suite}: checks not passing: {failing[:5]}")


def rect_sinc_cells(length: float, width: float, hbar: float = 1.0) -> int:
    """Cell count of the CLI's rect-sinc grid: dx = L/8, power-of-two n
    spanning twice the reach 2*hbar/(pi*W*1e-2) of the sinc tail."""
    dx = length / 8.0
    reach = 2.0 * hbar / (math.pi * width * 1e-2)
    n = 16
    while n * dx < 2.0 * reach:
        n *= 2
    return n


def _mass(centers: np.ndarray, density: np.ndarray, a: float, b: float) -> float:
    step = (centers[-1] - centers[0]) / (len(centers) - 1)
    edges = centers[0] - 0.5 * step + step * np.arange(len(centers) + 1)
    cum = np.concatenate(([0.0], np.cumsum(density * step)))
    lo, hi = np.interp([a, b], edges, cum)
    return float(hi - lo)


def state_dump(
    path: Path, cells: int, tally: Tally, window: tuple[float, float] | None = None
) -> None:
    """``state --out`` output: one row per cell, both densities integrate
    to 1, and for rect-sinc both window masses exceed 1/2."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    tally.expect(table.shape == (cells, 6), f"state: shape {table.shape}, expected ({cells}, 6)")
    if table.shape != (cells, 6):
        return
    x, density_x, p, density_p = table[:, 0], table[:, 3], table[:, 4], table[:, 5]
    mass_x = _mass(x, density_x, x[0] - 1.0, x[-1] + 1.0)
    mass_p = _mass(p, density_p, p[0] - 1.0, p[-1] + 1.0)
    tally.expect(
        abs(mass_x - 1.0) <= DENSITY_TOL and abs(mass_p - 1.0) <= DENSITY_TOL,
        f"state: densities integrate to {mass_x:.6f} and {mass_p:.6f}, not 1",
    )
    if window is not None:
        length, width = window
        in_x = _mass(x, density_x, -0.5 * length, 0.5 * length)
        in_p = _mass(p, density_p, -0.5 * width, 0.5 * width)
        tally.expect(
            in_x > 0.5 and in_p > 0.5,
            f"rect-sinc: window masses {in_x:.6f} and {in_p:.6f} not both above 1/2",
        )


def _single_row(path: Path, tally: Tally, what: str) -> dict[str, str] | None:
    rows = read_rows(path)
    tally.expect(len(rows) == 1, f"{what}: {len(rows)} rows, expected 1")
    return rows[0] if len(rows) == 1 else None


def query_lambda0(path: Path, c: float, tally: Tally) -> None:
    row = _single_row(path, tally, f"lambda0 --c {c}")
    if row is None:
        return
    value = float(row["lambda0"])
    tally.expect(
        abs(concentration(c) - value) <= LAMBDA_TOL,
        f"lambda0 --c {c}: {value} disagrees with ||A(4c)||/pi",
    )


def query_bounds(path: Path, tx: float, tp: float, hbar: float, tally: Tally) -> None:
    what = f"bounds --tx {tx} --tp {tp}"
    row = _single_row(path, tally, what)
    if row is None:
        return
    target = angular_target(tx, tp)
    interval = float(row["lp_interval"])
    measurable = float(row["lp_measurable"])
    tally.expect(
        row["region"] == "bounded"
        and _close(float(row["angular_target"]), target)
        and _close(measurable, 2.0 * math.pi * hbar * target),
        f"{what}: region, target or measurable bound disagrees with T = {target}",
    )
    tally.expect(
        interval >= measurable >= float(row["donoho_stark"]),
        f"{what}: ordering interval >= measurable >= Donoho-Stark fails",
    )
    tally.expect(
        abs(concentration(interval / (4.0 * hbar)) - target) <= LAMBDA_TOL,
        f"{what}: lp_interval {interval} fails ||A(4c)||/pi = T",
    )


def query_compare(path: Path, theta: float, hbar: float, tally: Tally) -> None:
    what = f"compare --theta {theta}"
    row = _single_row(path, tally, what)
    if row is None:
        return
    target = (2.0 * theta - 1.0) ** 2
    gaussian = float(row["gaussian"])
    slepian = float(row["slepian"])
    tally.expect(
        abs(math.erf(math.sqrt(gaussian / (4.0 * hbar))) - theta) <= LAMBDA_TOL,
        f"{what}: gaussian {gaussian} is not 4*hbar*erfinv(theta)^2",
    )
    tally.expect(
        gaussian >= slepian >= 2.0 * math.pi * hbar * target * (1.0 - PRINT_RTOL),
        f"{what}: ordering gaussian >= slepian >= 2*pi*hbar*T fails",
    )
    tally.expect(
        abs(concentration(slepian / (4.0 * hbar)) - target) <= LAMBDA_TOL,
        f"{what}: slepian {slepian} fails ||A(4c)||/pi = T",
    )
