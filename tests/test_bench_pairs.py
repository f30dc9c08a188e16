"""Paired benchmark comparison (``tools/bench_pairs.py``).

The perfbench runs are replaced by canned processes, so these tests
check only the bookkeeping: a run that exits nonzero is recorded with
its exit code and stderr tail, counted, and kept out of the medians and
of the pairs won, while every finished pair is still reported.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failed_run_is_recorded_and_left_out(tmp_path, monkeypatch):
    tool = load_tool()

    def fake_run(argv, cwd, **_):
        seed = int(argv[argv.index("--seed") + 1])
        if cwd.name == "change" and seed == 1001:
            return subprocess.CompletedProcess(argv, 3, "", "Traceback\nValueError: boom\n")
        # the change is faster in every pair, by a margin that grows
        value = 2.0 + seed - 1000 if cwd.name == "base" else 1.0
        metrics = {name: {"value": value, "unit": "s"} for name in tool.END_TO_END}
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(argv, 0, line + "\n", "")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    for side in ("base", "change"):
        (tmp_path / side).mkdir()
    out = tmp_path / "BENCH_test.json"
    argv = ["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change")]
    assert tool.main([*argv, "--out", str(out), "--workload", "landscape:4"]) == 0

    record = json.loads(out.read_text())["pairs"]["landscape"]
    assert record["failed_runs"] == {"base": 0, "change": 1}
    failed = record["runs"]["change"][1]
    assert failed["exit_code"] == 3
    assert failed["stderr_tail"][-1] == "ValueError: boom"
    wall = record["summary"]["wall_s"]
    assert wall["pairs"] == 3
    assert wall["pairs_won_by_change"] == 3
    assert wall["base"]["median"] == 3.5
    assert wall["change"]["median"] == 1.0
