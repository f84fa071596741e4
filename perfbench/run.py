"""Layered benchmark for weylkit.

Usage (from the root of a source tree):

    python3 perfbench/run.py --workload {kernel-dense,pairs,cli} --seed N \\
        --seconds S --trace {0,1}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
list every metric with its unit and better direction, and the
environment.  Each result is also saved under perfbench/out/.

The work runs in fresh worker processes (perfbench/worker.py), one
thread, as a closed loop with one caller.  Every child process gets
PYTHONDONTWRITEBYTECODE=1 and PYTHONHASHSEED=0 whatever the caller's
environment holds, so two commits are always measured with the same
settings and counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_PROBES = 4           # extra fresh processes that only set up; plus the measured one
WORKER_TIMEOUT_S = 150

# Printed with the end-to-end metrics but kept out of the JSON result: both
# are 0 on a correct run (attempted and failed carry the first; the second
# is reported as its complement, conclusive_share).
REPORTED_ONLY = {
    "failed_share": ("share", "lower"),
    "inconclusive_share": ("share", "lower"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, extra: list[str]) -> tuple[float, dict]:
    """Start a worker; return (seconds from spawn to READY, its result).

    A worker still running after WORKER_TIMEOUT_S is killed, which shows as
    a failure here.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = child_env()
    t0 = time.monotonic()
    env["PERFBENCH_SPAWNED"] = repr(t0)
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, text=True) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.monotonic() - t0
            lines = proc.stdout.read().splitlines()
        finally:
            watchdog.cancel()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return setup_s, json.loads(lines[-1])


def end_to_end(args) -> tuple[dict, dict, dict]:
    """Set-up-only workers, then the measured one: (its result, metrics, summary).

    Set-up time is corrected like operation times (see worker.measure).
    """
    runs = [run_worker(args, ["--setup-only"]) for _ in range(SETUP_PROBES)]
    setup_s, res = run_worker(args, [])
    runs.append((setup_s, res))
    setup = [(s - r["setup_spent_s"]) * r["setup_scale"] for s, r in runs]
    generating = res["generating"]
    inconclusive = res["inconclusive"] / generating if generating else 0.0
    values = {
        "ops_per_s": res["ops_per_s"],
        "op_p50_ms": res["op_p50_ms"],
        "op_p90_ms": res["op_p90_ms"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "conclusive_share": 1.0 - inconclusive,
    }
    summary = {
        "samples": res["samples"], "rounds": res["rounds"],
        "class_time_share": res["class_time_share"],
        "raw": dict(res["raw"], setup_s=statistics.median(s for s, _ in runs)),
        "probe_p01_s": res["probe_p01_s"], "probe_p50_s": res["probe_p50_s"],
        "probe_time_share": res["probe_time_share"], "cpu_share": res["cpu_share"],
        "failed_share": res["failed"] / res["attempted"],
        "inconclusive_share": inconclusive,
    }
    return res, values, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("kernel-dense", "pairs", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weylkit" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "goldens").is_dir():
        print(f"perfbench: {ROOT} holds no weylkit source tree (src/weylkit, tests/goldens)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"])
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            res = run_worker(args, [])[1]
            values = res["metrics"]
            summary = {"spans": res["spans"], "counts_repeat": res["counts_repeat"],
                       "count_mismatches": res["count_mismatches"]}
            correct = res["failed"] == 0 and res["counts_repeat"]
        else:
            res, values, summary = end_to_end(args)
            correct = res["failed"] == 0
        if set(values) != set(declared):
            raise BenchError(f"measured {sorted(values)}, declared {sorted(declared)}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {name: (values[name], unit) for name, (unit, _) in declared.items()}

    env = dict(res["env"], workload=args.workload, trace=args.trace, seconds=args.seconds)
    for name, (unit, better) in declared.items():
        print(f"{name:44s} {values[name]:14.6g} {unit:10s} {better}")
    if not args.trace:
        for name, (unit, better) in REPORTED_ONLY.items():
            print(f"{name:44s} {summary[name]:14.6g} {unit:10s} {better}")
    print("summary: " + json.dumps(summary))
    print("env: " + json.dumps(env))
    for reason in res["failures"]:
        print(f"failure: {reason}")

    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    saved = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps(dict(result, env=env, summary=summary), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
