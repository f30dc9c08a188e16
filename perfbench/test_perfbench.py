"""Tests of the benchmark itself: tiny smoke runs, oracle tampering, and
the refusal to run outside a checkout."""

import csv
import json
import math
import random
import shutil
import statistics
import subprocess
import sys

import pytest

import oracles
import run
from confunc.cli import main as confunc_main

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace, size="tiny")
    assert result.tally.failures == []
    assert result.tally.attempted > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: unit for k, (_, unit) in result.metrics.items()} == {
        m["name"]: m["unit"] for m in declared
    }
    line = json.loads(run.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_declared_workloads_match_the_code():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(40, 0, -1)]
    assert run.tail(values) == (30.0, 75.0, 40)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([float(v) for v in range(15)]) == (14.0, 100.0, 15)


def test_tail_is_never_below_the_median():
    rng = random.Random(5)
    for n in range(1, 130):
        values = [rng.expovariate(1.0) for _ in range(n)]
        assert run.tail(values)[0] >= statistics.median(values)


def test_tail_sample_count_does_not_depend_on_run_length():
    for seconds in (0, 2):
        result = run.run_workload("statedump", seed=4, seconds=seconds, trace=False, size="tiny")
        assert result.info["passes"] >= run.WORKLOADS["statedump"].tail_passes
        assert result.info["latency_samples"] == run.WORKLOADS["statedump"].tail_passes
        assert result.info["tail_percentile"] == 100.0


def _cli(tmp_path, name, argv):
    out = tmp_path / name
    assert confunc_main([*argv, "--out", str(out)]) == 0
    return out


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _failures(check, path):
    tally = oracles.Tally()
    check(path, tally)
    return tally.failures


@pytest.fixture(scope="module")
def landscape_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("landscape")
    return _cli(tmp, "grid.csv", ["bounds", "--grid", "5", "--hbar", "1.5"])


@pytest.mark.parametrize("tamper", ["below_floor", "trivial_nonzero", "decreasing", "short"])
def test_landscape_oracle_counts_tampered_cells(landscape_csv, tmp_path, tamper):
    def check(path, tally):
        oracles.landscape(path, 5, 1.5, 7, tally)

    assert _failures(check, landscape_csv) == []
    rows = _rows(landscape_csv)
    cells = rows[1:]
    top = len(cells) - 1  # (5/6, 5/6): bounded, the largest value
    if tamper == "below_floor":
        tx, tp = float(cells[top][0]), float(cells[top][1])
        floor = 2.0 * math.pi * 1.5 * oracles.angular_target(tx, tp)
        cells[top][2] = repr(0.99 * floor)
    elif tamper == "trivial_nonzero":
        cells[0][2] = "0.5"
    elif tamper == "decreasing":
        cells[top - 1][2] = repr(2.0 * float(cells[top][2]))
    else:
        cells.pop()
    tampered = tmp_path / "tampered.csv"
    _write(tampered, [rows[0], *cells])
    assert _failures(check, tampered)


def test_selfcheck_oracle_counts_flipped_status(tmp_path):
    honest = _cli(tmp_path, "verify.csv", ["verify", "two-route"])

    def check(path, tally):
        oracles.selfcheck(path, "two-route", tally)

    assert _failures(check, honest) == []
    rows = _rows(honest)
    rows[2][rows[0].index("status")] = "fail"
    flipped = tmp_path / "flipped.csv"
    _write(flipped, rows)
    assert len(_failures(check, flipped)) == 1
    _write(flipped, rows[:-1])
    assert len(_failures(check, flipped)) == 2


def test_state_oracle_counts_bad_normalisation_and_masses(tmp_path):
    out = _cli(tmp_path, "rect.csv", ["state", "rect-sinc", "--L", "1.0", "--W", "1.0"])
    cells = oracles.rect_sinc_cells(1.0, 1.0)

    def check(path, tally):
        oracles.state_dump(path, cells, tally, (1.0, 1.0))

    assert _failures(check, out) == []
    rows = _rows(out)
    for row in rows[1:]:
        row[3] = repr(0.7 * float(row[3]))  # density_x; its window mass drops below 1/2
    tampered = tmp_path / "tampered.csv"
    _write(tampered, rows)
    assert len(_failures(check, tampered)) == 2


def test_query_oracles_catch_a_shifted_bound(tmp_path):
    out = _cli(tmp_path, "point.csv", ["bounds", "--tx", "0.9", "--tp", "0.8", "--hbar", "2.0"])

    def check(path, tally):
        oracles.query_bounds(path, 0.9, 0.8, 2.0, tally)

    assert _failures(check, out) == []
    rows = _rows(out)
    column = rows[0].index("lp_interval")
    rows[1][column] = repr(1.001 * float(rows[1][column]))
    tampered = tmp_path / "tampered.csv"
    _write(tampered, rows)
    assert len(_failures(check, tampered)) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "landscape", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
