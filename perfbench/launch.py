"""Run the confunc CLI the way its console script does, and report set-up.

Usage: python3 launch.py <confunc arguments>

The process imports ``confunc.cli``, writes the CLOCK_MONOTONIC reading at
which the CLI is ready to parse to the file named by PERFBENCH_READY, and
then calls ``confunc.cli.main``. When PERFBENCH_TRACE names a file, spans
around each layer's functions are recorded and written there at exit.
CLOCK_MONOTONIC is system-wide on Linux, so the parent subtracts its own
reading taken just before the spawn.
"""

import os
import sys
import time

import confunc.cli

ready = time.monotonic()

if __name__ == "__main__":
    trace_path = os.environ.get("PERFBENCH_TRACE")
    recorder = None
    if trace_path:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    with open(os.environ["PERFBENCH_READY"], "w", encoding="ascii") as fh:
        fh.write(repr(ready))
    code = confunc.cli.main(sys.argv[1:])
    if recorder is not None:
        recorder.dump(trace_path)
    sys.exit(code)
