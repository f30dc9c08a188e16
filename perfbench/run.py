"""End-to-end benchmark of the confunc command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every CLI invocation is a fresh process
started from the checkout's ``src`` tree through ``launch.py``, so the
eigenpair and quadrature caches start cold, as they do for a user. BLAS
threads of the children are pinned to 1.

A run starts seven set-up probes (``confunc --help``), then repeats passes
of the workload: a pass is the workload's set of invocations, all checked
by ``oracles.py``. Another pass starts while fewer passes than the
workload's ``tail_passes`` are done, or while the last pass's duration
still fits in ``--seconds``; a pass is never cut short. With
``--trace 1`` passes alternate untraced and traced, the per-layer metrics
come from the traced ones, and the tracing overhead is the difference of
the two kinds' median wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Progress and the
machine record go to standard error. Exit code 0 means the run completed
(check ``correct``); 2 means it could not run, such as outside a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launch.py"
WORK_ROOT = ROOT / ".perfbench_work"

# every child is killed this long after the run started, so a run ends
# within 180 s and a hung invocation fails its check
DEADLINE_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
}

SIZES = {
    # full: the measured workloads; tiny: the smoke tests' inputs
    "full": {"probes": 7, "grid": 16, "suite": "all", "rect": 0.1, "queries": (24, 18, 18)},
    "tiny": {"probes": 1, "grid": 4, "suite": "two-route", "rect": 1.0, "queries": (1, 1, 1)},
}


@dataclass
class Call:
    """One CLI invocation and the check of its output file."""

    argv: list[str]
    output: Path
    check: Callable[[Path, oracles.Tally], None]


@dataclass
class Finished:
    """Measurements of one finished child process."""

    code: int
    wall_s: float
    setup_s: float | None
    cpu_s: float
    rss_mb: float
    spans: list | None = None
    output_rows: int = 0
    output_bytes: int = 0


@dataclass
class Pass:
    traced: bool
    processes: list[Finished] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.processes)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CONFUNC_ORDER", None)
    env.pop("PERFBENCH_TRACE", None)
    for name in PINNED_THREADS:
        env[name] = "1"
    return env


class Runner:
    """Spawns and measures the children of one run."""

    def __init__(self, work: Path, started: float) -> None:
        self.work = work
        self.started = started
        self.env = child_env()
        self.count = 0

    def spawn(self, argv: list[str], stdout: Path, traced: bool) -> Finished:
        self.count += 1
        ready = self.work / f"ready-{self.count}"
        trace = self.work / f"trace-{self.count}.json"
        env = dict(self.env, PERFBENCH_READY=str(ready))
        if traced:
            env["PERFBENCH_TRACE"] = str(trace)
        err = self.work / "stderr"
        with open(stdout, "wb") as out, open(err, "ab") as errs:
            begin = time.monotonic()
            child = subprocess.Popen(
                [sys.executable, str(LAUNCHER), *argv],
                stdout=out,
                stderr=errs,
                env=env,
                cwd=self.work,
            )
            limit = max(1.0, DEADLINE_S - (begin - self.started))
            killer = threading.Timer(limit, child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            end = time.monotonic()
            child.returncode = os.waitstatus_to_exitcode(status)
        setup = float(ready.read_text()) - begin if ready.exists() else None
        spans = json.loads(trace.read_text()) if traced and trace.exists() else None
        return Finished(
            code=child.returncode,
            wall_s=end - begin,
            setup_s=setup,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            spans=spans,
        )

    def invoke(self, call: Call, traced: bool, tally: oracles.Tally) -> Finished:
        done = self.spawn(call.argv, self.work / "stdout", traced)
        tally.expect(done.code == 0, f"{' '.join(call.argv)}: exit code {done.code}")
        if done.code == 0:
            data = call.output.read_bytes()
            done.output_bytes = len(data)
            done.output_rows = max(data.count(b"\n") - 1, 0)
            try:
                call.check(call.output, tally)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                tally.expect(False, f"{' '.join(call.argv)}: unreadable output: {exc}")
        return done


# --------------------------------------------------------------------
# Workloads: each builds one pass of invocations from the run's seeded RNG
# --------------------------------------------------------------------


def landscape(rng: random.Random, size: dict, work: Path) -> list[Call]:
    """Tight-bound landscape: batched inversion, dense eigensolves, no states."""
    grid = size["grid"]
    hbar = round(rng.uniform(0.5, 2.0), 4)
    sample_seed = rng.randrange(2**32)
    out = work / "landscape.csv"
    return [
        Call(
            ["bounds", "--grid", str(grid), "--hbar", str(hbar), "--out", str(out)],
            out,
            lambda path, tally: oracles.landscape(path, grid, hbar, sample_seed, tally),
        )
    ]


def selfcheck(rng: random.Random, size: dict, work: Path) -> list[Call]:
    """Every verify suite: forward lambda0, FFTs up to 2^22 cells, closed forms."""
    suite = size["suite"]
    out = work / "verify.csv"
    return [
        Call(
            ["verify", suite, "--seed", str(rng.randrange(10**6)), "--out", str(out)],
            out,
            lambda path, tally: oracles.selfcheck(path, suite, tally),
        )
    ]


def statedump(rng: random.Random, size: dict, work: Path) -> list[Call]:
    """Three sampled states written with --out: emission-heavy, <= 1 eigensolve."""
    rect = size["rect"]
    c = round(rng.uniform(1.0, 2.5), 4)
    sigma = round(rng.uniform(0.5, 2.0), 4)
    cells = oracles.rect_sinc_cells(rect, rect)
    specs = [
        (["rect-sinc", "--L", str(rect), "--W", str(rect)], cells, (rect, rect)),
        (["slepian", "--c", str(c)], 1 << 15, None),
        (["gaussian", "--sigma", str(sigma)], 4096, None),
    ]
    calls = []
    for k, (args, n, window) in enumerate(specs):
        out = work / f"state-{k}.csv"
        calls.append(
            Call(
                ["state", *args, "--out", str(out)],
                out,
                lambda path, tally, n=n, window=window: oracles.state_dump(
                    path, n, tally, window
                ),
            )
        )
    return calls


def queries(rng: random.Random, size: dict, work: Path) -> list[Call]:
    """Single-shot point queries, one process each: set-up and one inversion dominate."""
    n_bounds, n_lambda0, n_compare = size["queries"]
    hbar = round(rng.uniform(0.5, 2.0), 4)
    specs = []
    for _ in range(n_bounds):
        tx, tp = round(rng.uniform(0.55, 0.99), 4), round(rng.uniform(0.55, 0.99), 4)
        specs.append(
            (
                ["bounds", "--tx", str(tx), "--tp", str(tp), "--hbar", str(hbar)],
                lambda path, tally, tx=tx, tp=tp: oracles.query_bounds(
                    path, tx, tp, hbar, tally
                ),
            )
        )
    for _ in range(n_lambda0):
        c = round(rng.uniform(0.2, 5.0), 4)
        specs.append(
            (
                ["lambda0", "--c", str(c)],
                lambda path, tally, c=c: oracles.query_lambda0(path, c, tally),
            )
        )
    for _ in range(n_compare):
        theta = round(rng.uniform(0.55, 0.99), 4)
        specs.append(
            (
                ["compare", "--theta", str(theta), "--hbar", str(hbar)],
                lambda path, tally, theta=theta: oracles.query_compare(
                    path, theta, hbar, tally
                ),
            )
        )
    rng.shuffle(specs)
    calls = []
    for k, (argv, check) in enumerate(specs):
        out = work / f"query-{k}.csv"
        calls.append(Call([*argv, "--out", str(out)], out, check))
    return calls


@dataclass(frozen=True)
class Workload:
    """A pass builder and how its latency is sampled.

    ``per_invocation`` makes each invocation a request; otherwise each
    pass is one. ``tail_passes`` fixes the tail's sample: the requests of
    the first that many passes, which every untraced run makes. So the
    tail's percentile is set here, not by how fast the program is.
    """

    build: Callable[[random.Random, dict, Path], list[Call]]
    per_invocation: bool
    tail_passes: int


WORKLOADS = {
    "landscape": Workload(landscape, per_invocation=False, tail_passes=3),
    "selfcheck": Workload(selfcheck, per_invocation=False, tail_passes=1),
    "statedump": Workload(statedump, per_invocation=False, tail_passes=5),
    "queries": Workload(queries, per_invocation=True, tail_passes=1),
}


# --------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, its
    percentile, and n. With twenty samples or fewer that percentile would
    not lie above the median, so the tail is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 10 if n > 20 else n
    return ordered[k - 1], 100.0 * k / n, n


@dataclass
class RunResult:
    tally: oracles.Tally
    metrics: dict[str, tuple[float, str]]
    info: dict


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> RunResult:
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    tally = oracles.Tally()
    started = time.monotonic()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        runner = Runner(work, started)
        probes = []
        for _ in range(SIZES[size]["probes"]):
            done = runner.spawn(["--help"], work / "help.txt", traced=False)
            tally.expect(done.code == 0, f"confunc --help: exit code {done.code}")
            probes.append(done)
        passes: list[Pass] = []
        while True:
            begin = time.monotonic()
            current = Pass(traced=trace and len(passes) % 2 == 1)
            for call in workload.build(rng, SIZES[size], work):
                current.processes.append(runner.invoke(call, current.traced, tally))
            passes.append(current)
            took = time.monotonic() - begin
            elapsed = time.monotonic() - started
            enough = len(passes) >= (2 if trace else workload.tail_passes)
            if enough and (elapsed + took > seconds or elapsed + took > DEADLINE_S - 10):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    processes = probes + [p for run in passes for p in run.processes]
    untraced = [run for run in passes if not run.traced]
    info = {
        "passes": len(passes),
        "processes": len(processes),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "error_ratio": len(tally.failures) / tally.attempted,
    }
    if not trace:
        def requests(runs: list[Pass]) -> list[float]:
            if workload.per_invocation:
                return [p.wall_s for run in runs for p in run.processes]
            return [run.wall_s for run in runs]

        tail_value, tail_pct, n = tail(requests(untraced[: workload.tail_passes]))
        info.update(tail_percentile=tail_pct, latency_samples=n)
        values = {
            "wall_s": statistics.median(run.wall_s for run in untraced),
            "setup_s": statistics.median(
                p.setup_s for p in processes if p.setup_s is not None
            ),
            "cpu_s": statistics.median(
                sum(p.cpu_s for p in run.processes) for run in untraced
            ),
            "peak_rss_mb": max(p.rss_mb for p in processes),
            "latency_p50_s": statistics.median(requests(untraced)),
            "latency_tail_s": tail_value,
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    else:
        metrics = layer_metrics(passes)
    return RunResult(tally, metrics, info)


def layer_metrics(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    traced = [run for run in passes if run.traced]
    per_pass = []
    for run in traced:
        values = tracing.pass_metrics([p.spans or [] for p in run.processes])
        values["cli.output_rows"] = sum(p.output_rows for p in run.processes)
        values["cli.output_bytes"] = sum(p.output_bytes for p in run.processes)
        per_pass.append(values)
    overhead = statistics.median(run.wall_s for run in traced) - statistics.median(
        run.wall_s for run in passes if not run.traced
    )
    units = tracing.metric_units()
    metrics = {}
    for key, unit in units.items():
        value = overhead if key == "trace_overhead_s" else statistics.median(
            v[key] for v in per_pass
        )
        metrics[key] = (value, unit)
    return metrics


def environment() -> dict:
    """Machine and library record printed beside every run."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": 1,
    }


def result_line(result: RunResult) -> str:
    return json.dumps(
        {
            "correct": not result.tally.failures,
            "attempted": result.tally.attempted,
            "failed": len(result.tally.failures),
            "metrics": {
                k: {"value": v, "unit": unit} for k, (v, unit) in result.metrics.items()
            },
        }
    )


def sources_present() -> bool:
    """True in a checkout; puts its sources first on the import path."""
    if not (SRC / "confunc" / "cli.py").is_file():
        print(f"error: no confunc sources under {SRC}; run from a checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not sources_present():
        return 2
    print(json.dumps({"environment": environment()}), file=sys.stderr)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, **result.info}), file=sys.stderr)
    for failure in result.tally.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
