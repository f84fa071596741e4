"""A traced `weylkit` CLI process.

Usage: cli_child.py TRACE_JSON ARGS...  Runs weylkit.cli.main(ARGS) with the
tracer installed, leaves stdout, stderr and the exit code exactly as the
CLI produces them, and writes its spans, counts and phase times to
TRACE_JSON.  PERFBENCH_SPAWNED holds the parent's time.monotonic() just
before the spawn; CLOCK_MONOTONIC is shared by all processes on Linux.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import weylkit.cli
    t1 = perf_counter()
    tracer = Tracer()
    tracer.install()
    t2 = perf_counter()
    try:
        code = weylkit.cli.main(argv)
    finally:
        t3 = perf_counter()
        tracer.uninstall()
        times = {"interpreter_start_s": STARTED - float(os.environ["PERFBENCH_SPAWNED"]),
                 "import_s": t1 - t0, "main_s": t3 - t2}
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "times": times}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
