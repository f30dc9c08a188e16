"""CLI output comparison (``tools/stdout_diff.py``).

The CLI runs are replaced by canned processes, so these tests check only
the report: identical commands are called identical, and a differing one
gives its exit codes, the count and first of its differing stderr lines,
its differing rows and, per column, the count of differing values and
their largest absolute difference.
"""

import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stdout_diff.py"

TABLE = "x,re_psi,status\n-1,0.25,pass\n0,0.5,pass\n1,0.25,pass\n"
# row 2 moves by 1e-6 in re_psi; row 3 moves by 2e-6 and changes a word
CHANGED = "x,re_psi,status\n-1,0.25,pass\n0,0.500001,pass\n1,0.250002,fail\n"


def load_tool():
    spec = importlib.util.spec_from_file_location("stdout_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_names_identical_and_differing_commands(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    seen = []

    def fake_run(argv, cwd, env, **_):
        seen.append((cwd.name, env["PYTHONPATH"], argv[1:4]))
        if cwd.name == "change" and argv[3:] == ["compare"]:
            return subprocess.CompletedProcess(argv, 2, CHANGED, "note\nerror: boom\n")
        return subprocess.CompletedProcess(argv, 0, TABLE, "note\n")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    for side in ("base", "change"):
        (tmp_path / side).mkdir()
    argv = ["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change")]
    assert tool.main(argv) == 1

    assert len(seen) == 2 * len(tool.COMMANDS)
    assert all(path == str(tmp_path / side / "src") for side, path, _ in seen)
    assert all(call == ["-m", "confunc.cli", call[2]] for _, _, call in seen)
    lines = capsys.readouterr().out.splitlines()
    assert "bounds --grid 40: identical" in lines
    start = lines.index("compare: exit code 0 -> 2")
    assert lines[start + 1 : start + 6] == [
        "  stderr differs in 1 lines",
        "    + error: boom",
        "  stdout differs in 2 of 3 rows",
        "    re_psi: 2 values, max |diff| 2e-06",
        "    status: 1 values, max |diff| not numeric",
    ]


def test_all_identical_exits_zero(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(
        tool.subprocess,
        "run",
        lambda argv, **_: subprocess.CompletedProcess(argv, 0, TABLE, ""),
    )
    argv = ["--base", str(tmp_path), "--change", str(tmp_path)]
    assert tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{command}: identical" for command in tool.COMMANDS]


def test_layout_change_is_reported_without_columns():
    tool = load_tool()
    base = subprocess.CompletedProcess([], 0, TABLE, "")
    change = subprocess.CompletedProcess([], 0, TABLE + "2,0.0,pass\n", "")
    assert tool.compare(base, change) == ["stdout layout differs: 3 != 4 rows"]
    # a side that exits on a usage error prints no CSV at all
    failed = subprocess.CompletedProcess([], 2, "", "")
    assert tool.compare(base, failed) == [
        "exit code 0 -> 2",
        "stdout layout differs: 3 rows -> no output",
    ]


def test_columns_are_matched_by_name():
    tool = load_tool()
    base = subprocess.CompletedProcess([], 0, TABLE, "")
    # status moves to the front, re_psi goes, and two columns are added
    wider = "status,x,note,scale\npass,-1,a,1\npass,0,b,2\nfail,1,c,3\n"
    change = subprocess.CompletedProcess([], 0, wider, "")
    assert tool.compare(base, change) == [
        "stdout columns added: note, scale",
        "stdout columns removed: re_psi",
        "stdout columns reordered",
        "stdout differs in 1 of 3 rows",
        "  status: 1 values, max |diff| not numeric",
    ]


def test_json_records_are_compared_as_columns():
    tool = load_tool()
    base = '[\n {\n  "x": 1.0,\n  "lp_interval": "divergent"\n }\n]\n'
    change = '[\n {\n  "x": 1.0,\n  "region": "bounded",\n  "lp_interval": "divergent"\n }\n]\n'
    assert tool.column_diff(base, change) == {
        "added": ["region"],
        "removed": [],
        "reordered": False,
        "rows": 0,
        "of": 1,
        "columns": {},
    }


def test_a_reordered_header_is_named():
    # the same cells under a permuted CSV header, and the same records
    # with their JSON keys in another order
    tool = load_tool()
    base = subprocess.CompletedProcess([], 0, TABLE, "")
    moved = "status,x,re_psi\npass,-1,0.25\npass,0,0.5\npass,1,0.25\n"
    change = subprocess.CompletedProcess([], 0, moved, "")
    assert tool.compare(base, change) == [
        "stdout columns reordered",
        "stdout differs in 0 of 3 rows",
    ]
    records = '[\n {\n  "x": 1.0,\n  "region": "bounded"\n }\n]\n'
    swapped = '[\n {\n  "region": "bounded",\n  "x": 1.0\n }\n]\n'
    assert tool.compare(
        subprocess.CompletedProcess([], 0, records, ""),
        subprocess.CompletedProcess([], 0, swapped, ""),
    ) == ["stdout columns reordered", "stdout differs in 0 of 1 rows"]


def test_first_differing_stderr_line_of_each_side():
    # a changed note: the count, then the first differing line of each
    # side, so a deliberate change of wording can be read off the report
    tool = load_tool()
    base = subprocess.CompletedProcess([], 0, TABLE, "note\nmass=0.5\nend\n")
    change = subprocess.CompletedProcess([], 0, TABLE, "note\nmass=0.5, difference=+1e-6\nend 2\n")
    assert tool.compare(base, change) == [
        "stderr differs in 2 lines",
        "  - mass=0.5",
        "  + mass=0.5, difference=+1e-6",
    ]
    # a side that runs out of lines shows only the other side's
    shorter = subprocess.CompletedProcess([], 0, TABLE, "note\n")
    assert tool.compare(base, shorter) == ["stderr differs in 2 lines", "  - mass=0.5"]
