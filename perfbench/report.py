"""Print every metric of every workload in one table.

Usage: python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of a checkout. For each workload this makes one
untraced run (the end-to-end metrics, the error ratio and the latency
tail's percentile and sample count) and one traced run (the per-layer
metrics and the tracing overhead), with the same settings as run.py.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if not run.sources_present():
        return 2
    print(json.dumps({"environment": run.environment()}))
    print(f"{'workload':<10} {'metric':<48} {'value':>14} unit")
    for name in run.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(name, args.seed, args.seconds, trace)
            rows = [(k, v, unit) for k, (v, unit) in result.metrics.items()]
            info = result.info
            if not trace:
                rows.append(("error_ratio", info["error_ratio"], "ratio"))
                rows.append(("latency_tail_percentile", info["tail_percentile"], "%"))
                rows.append(("latency_samples", info["latency_samples"], "count"))
            rows.append(("passes" + (".traced_run" if trace else ""), info["passes"], "count"))
            for key, value, unit in rows:
                print(f"{name:<10} {key:<48} {value:>14.6g} {unit}", flush=True)
            for failure in result.tally.failures[:20]:
                print(f"check failed: {failure}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
