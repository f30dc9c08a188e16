"""Compare two checkouts on the perfbench workloads and write a BENCH file.

Usage:
    python3 tools/bench_pairs.py --base DIR --change DIR --out BENCH_x.json \\
        [--workload landscape:10 ...] [--seconds 25] [--trace]

Each checkout runs its own ``perfbench/run.py`` from its own root, so each
side is measured with the program it contains. ``--workload NAME:PAIRS``
(repeatable, default ``landscape:10``) asks for that many pairs of
untraced runs; a pair is one run of each side with the same seed, and the
side that goes first alternates from pair to pair, so a slow drift of the
host's speed falls on both sides alike. ``--trace`` adds one traced run
per side of every workload, for the per-layer metrics. The workloads and
end-to-end metrics are those that ``BENCHMARK.json`` at the root of the
tool's own checkout declares.

The output records every run's result line and environment record and,
per workload and end-to-end metric, each side's median and quartiles,
the ratio of the medians and how many pairs the change won. A run that
exits nonzero is kept with its exit code and the last lines of its
stderr, counted per side under ``failed_runs``, and left out of the
medians and of the pairs won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the benchmark declaration at the root of this tool's checkout
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# stderr lines kept from a run that exits nonzero
STDERR_TAIL = 20


def declared() -> tuple[list[str], list[str]]:
    """The workload names and end-to-end metric names that ``BENCHMARK``
    declares, in its order."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]], [m["name"] for m in spec["end_to_end"]]


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run in ``root``: its exit code, and its result line and
    environment record, or the tail of its stderr if it exits nonzero."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        tail = done.stderr.splitlines()[-STDERR_TAIL:]
        return {"exit_code": done.returncode, "stderr_tail": tail}
    result = {"exit_code": 0, **json.loads(done.stdout.strip().splitlines()[-1])}
    for line in done.stderr.splitlines():
        if line.startswith('{"environment"'):
            result["environment"] = json.loads(line)["environment"]
            break
    return result


def summary(values: list[float]) -> dict | None:
    """Median and quartiles, or None below the two values they need."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(base_runs: list[dict], change_runs: list[dict], metrics: list[str]) -> dict:
    """Per metric named: both sides' quartiles, the median ratio, pairs won.

    The two lists hold one run per pair, in pair order; failed runs are
    left out, and so is every pair with a failed side.
    """
    out = {}
    for name in metrics:
        base = [r["metrics"][name]["value"] for r in base_runs if r["exit_code"] == 0]
        change = [r["metrics"][name]["value"] for r in change_runs if r["exit_code"] == 0]
        paired = [
            (c["metrics"][name]["value"], b["metrics"][name]["value"])
            for b, c in zip(base_runs, change_runs)
            if b["exit_code"] == 0 and c["exit_code"] == 0
        ]
        b, c = summary(base), summary(change)
        out[name] = {
            "base": b,
            "change": c,
            "change_over_base": c["median"] / b["median"] if b and c and b["median"] else None,
            "pairs_won_by_change": sum(x < y for x, y in paired),
            "pairs": len(paired),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    workloads, end_to_end = declared()
    record: dict = {"seconds": args.seconds, "pairs": {}, "traced": {}}
    for spec in args.workload or ["landscape:10"]:
        workload, _, count = spec.partition(":")
        if workload not in workloads or not count.isdigit() or int(count) < 2:
            parser.error(f"expected NAME:PAIRS, a known workload and PAIRS >= 2, got {spec!r}")
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(int(count)):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                start = time.time()
                result = run_once(sides[side], workload, args.seed + i, args.seconds, False)
                result.update(pair=i, seed=args.seed + i, started=start)
                runs[side].append(result)
                if result["exit_code"] == 0:
                    outcome = f"wall_s {result['metrics']['wall_s']['value']:.3f}"
                else:
                    outcome = f"failed with exit code {result['exit_code']}"
                print(f"{workload} pair {i} {side}: {outcome}", file=sys.stderr)
        failed = {side: sum(r["exit_code"] != 0 for r in rs) for side, rs in runs.items()}
        record["pairs"][workload] = {
            "runs": runs,
            "failed_runs": failed,
            "summary": compare(runs["base"], runs["change"], end_to_end),
        }
    if args.trace:
        for workload in workloads:
            record["traced"][workload] = {
                side: run_once(root, workload, args.seed, args.seconds, True)
                for side, root in sides.items()
            }
            print(f"{workload} traced", file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
