"""One benchmark process: set up, measure or trace, check, report.

Started by run.py in a fresh interpreter.  It prints READY on stdout right
before its first timed operation (set-up is everything before that line),
then one JSON line with its raw results.
"""

from __future__ import annotations

import time

START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import ceil  # noqa: E402
from pathlib import Path  # noqa: E402
from random import Random  # noqa: E402
from time import perf_counter  # noqa: E402

WORKLOADS = ("kernel-dense", "pairs", "cli")
MIN_SAMPLES = 100          # so that at least 10 samples lie beyond the 90th percentile
TRACE_ROUNDS = {"kernel-dense": 1, "pairs": 6, "cli": 1}
TICK_S = 0.005             # probe interval inside a running operation


def fraction_probe() -> float:
    """Time of a fixed piece of Fraction arithmetic.

    Where cores are shared with other tenants, identical work can take up
    to twice as long while a neighbour is busy, in episodes of seconds.
    A probe's time tracks that slowdown; see measure() for its use.
    """
    a, s = Fraction(1, 3), Fraction(0)
    t0 = perf_counter()
    for i in range(100):
        s += a * i
    return perf_counter() - t0


def spawn_probe() -> float:
    """Time to start and stop a bare interpreter.

    A CLI process spends most of its time starting, compiling and
    importing, which a busy neighbour slows down less than Fraction
    arithmetic; this probe tracks it more closely.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return perf_counter() - t0


# Each probe with its time on an unshared core of the 2-vCPU VM this
# benchmark was tuned on (Python 3.11); times are expressed at that speed.
PROBES = {"in-process": (fraction_probe, 275e-6), "cli": (spawn_probe, 10e-3)}


def probe_for(workload: str):
    return PROBES["cli" if workload == "cli" else "in-process"]


class Ticker:
    """Runs a probe every TICK_S between start() and stop(), on SIGALRM.

    The handler runs in the measured thread between bytecodes; its own
    time is kept in `spent` so it can be taken out of the operation's time.
    A disabled ticker records nothing.
    """

    def __init__(self, probe, enabled: bool = True):
        self.probe = probe
        self.enabled = enabled
        self.probes: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.probes.append(self.probe())
        self.spent += perf_counter() - t0

    def start(self):
        self.probes, self.spent = [], 0.0
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def cpu_seconds(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(ceil(q * len(sorted_values)) - 1, 0)]


class Session:
    """Inputs and the operation loop of one workload at one seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.children = workload == "cli"
        self.probe, self.probe_reference = probe_for(workload)
        self.env = dict(os.environ)

    def round(self, index: int, traced_dir: Path | None = None):
        import workloads
        rng = workloads.round_rng(self.workload, self.seed, index)
        if self.workload == "kernel-dense":
            return workloads.kernel_round(rng)
        if self.workload == "pairs":
            return workloads.pairs_round(rng, index)
        return workloads.cli_ops(rng, self.env, traced_dir)

    def warmup(self):
        import workloads
        rng = workloads.round_rng(self.workload, self.seed, -1)
        if self.workload == "kernel-dense":
            return workloads.kernel_warmup(rng)
        if self.workload == "pairs":
            return workloads.pairs_warmup(rng)
        return workloads.cli_ops(rng, self.env)[:1]

    def run(self, op):
        """(result, error, wall seconds, cpu seconds) of one timed call."""
        c0 = cpu_seconds(self.children)
        t0 = perf_counter()
        try:
            result, error = op.run(), None
        except Exception:  # an operation that raises is a failed operation
            result, error = None, traceback.format_exc(limit=3)
        t1 = perf_counter()
        return result, error, t1 - t0, cpu_seconds(self.children) - c0


class Tally:
    """Checks results outside the timed region and counts the outcomes."""

    def __init__(self, workload: str, seed: int):
        self.crng = Random(f"check:{workload}:{seed}")
        self.attempted = self.failed = self.generating = self.inconclusive = 0
        self.reasons: list[str] = []

    def add(self, op, result, error) -> None:
        import workloads
        self.attempted += 1
        reason = error
        if reason is None:
            try:
                reason = op.check(self.crng, result)
            except Exception:  # a result the check cannot read is a wrong result
                reason = traceback.format_exc(limit=3)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.cls}: {reason}")
        elif op.generating:
            self.generating += 1
            self.inconclusive += workloads.outcome(result) == "Inconclusive"


def measure(session: Session, first_round, seconds: float) -> dict:
    """Closed loop over whole rounds until `seconds` of operation time.

    Probes run between consecutive operations and, in-process, every TICK_S
    inside them; the time the in-operation probes take is taken out.  A CLI
    child runs on the probed core but is not probed while it runs, since a
    probe would compete with it.  Each
    operation's time is then scaled by the probe's reference time / (mean
    of its probes): the result estimates how long the operation takes on
    an unshared core of the reference speed (see PROBES).  Raw times are
    reported too.
    """
    tally = Tally(session.workload, session.seed)
    probe = session.probe
    ticker = Ticker(probe, enabled=not session.children)
    samples = []               # (class, wall, raw wall, cpu, probes)
    ops, index = first_round, 0
    before = [probe(), probe()]
    while True:
        for op in ops:
            ticker.start()
            result, error, wall, cpu = session.run(op)
            ticker.stop()
            after = [probe(), probe()]
            samples.append((op.cls, wall - ticker.spent, wall, cpu,
                            before + ticker.probes + after))
            tally.add(op, result, error)
            before = after
        index += 1
        if sum(s[1] for s in samples) >= seconds and len(samples) >= MIN_SAMPLES:
            break
        ops = session.round(index)
        before = [probe(), probe()]
    peak_kib = resource.getrusage(
        resource.RUSAGE_CHILDREN if session.children else resource.RUSAGE_SELF).ru_maxrss

    probes = sorted(p for s in samples for p in s[4])
    scale = session.probe_reference
    corrected = sorted(s[1] * scale / statistics.fmean(s[4]) for s in samples)
    raw = sorted(s[2] for s in samples)
    class_time = Counter()
    for s in samples:
        class_time[s[0]] += s[1]
    net = sum(class_time.values())
    total = sum(raw)
    return {
        "samples": len(samples),
        "rounds": index,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "generating": tally.generating,
        "inconclusive": tally.inconclusive,
        "ops_per_s": len(corrected) / sum(corrected),
        "op_p50_ms": statistics.median(corrected) * 1000,
        "op_p90_ms": percentile(corrected, 0.9) * 1000,
        "peak_rss_mb": peak_kib / 1024,
        "raw": {"ops_per_s": len(raw) / total, "op_p50_ms": statistics.median(raw) * 1000,
                "op_p90_ms": percentile(raw, 0.9) * 1000},
        "probe_p01_s": percentile(probes, 0.01),
        "probe_p50_s": statistics.median(probes),
        "probe_time_share": sum(s[2] - s[1] for s in samples) / total,
        "cpu_share": sum(s[3] for s in samples) / total,
        "class_time_share": {k: v / net for k, v in sorted(class_time.items())},
    }


def traced(session: Session, import_s: float) -> dict:
    """Untraced reference pass, then two traced passes over the same inputs."""
    import workloads
    out_dir = workloads.OUT / f"trace-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _traced(session, import_s, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _traced(session: Session, import_s: float, out_dir: Path) -> dict:
    from tracer import Tracer, layer_metrics
    import workloads
    tally = Tally(session.workload, session.seed)

    def build(traced: bool):
        child_dir = out_dir if traced and session.children else None
        return [op for r in range(TRACE_ROUNDS[session.workload])
                for op in session.round(r, child_dir)]

    def one_pass(tracer: Tracer | None, runs: list, cli_times: list) -> float:
        """Run a fresh copy of the traced work; return its probe-corrected time.

        The tracer is installed around each operation only, so the probes
        in between are neither traced nor slowed down.  Only the time of
        the pass as a whole is corrected (see measure()), with the mean of
        the probes around each operation.
        """
        probe = session.probe
        corrected, before = [], [probe() for _ in range(4)]
        for k, op in enumerate(build(tracer is not None)):
            if tracer is not None and not session.children:
                tracer.op = k
                tracer.install()
            try:
                result, error, wall, cpu = session.run(op)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            after = [probe() for _ in range(4)]
            corrected.append(wall / statistics.fmean(before + after))
            before = after
            runs.append((op, result, error, wall, cpu))
            path = out_dir / f"{op.cls}.json"
            if session.children and path.exists():  # a crashed child wrote none
                child = json.loads(path.read_text())
                path.unlink()
                tracer.merge(child["spans"], child["counts"], k)
                cli_times.append(child["times"])
        return sum(corrected)

    reference = []
    ref_corrected = one_pass(None, reference, [])
    passes = []
    for _ in range(2):
        tracer, runs, cli_times = Tracer(), [], []
        passes.append((tracer, runs, cli_times, one_pass(tracer, runs, cli_times)))

    (tracer, runs, cli_times, traced_corrected), (tracer2, _, _, _) = passes
    for op, result, error, _, _ in reference + runs:
        tally.add(op, result, error)
    counts1, counts2 = tracer.exact_counts(), tracer2.exact_counts()
    mismatched = sorted(k for k in counts1.keys() | counts2.keys()
                        if counts1.get(k) != counts2.get(k))
    tracer.write_spans(workloads.OUT / f"spans-{session.workload}-seed{session.seed}.jsonl.gz")

    op_s = sum(r[3] for r in runs)
    metrics = layer_metrics(tracer, op_s)
    metrics["trace.op_s"] = op_s
    if session.children:
        for key in ("interpreter_start_s", "import_s"):
            metrics[f"cli.{key}"] = statistics.median(t[key] for t in cli_times)
        metrics["cli.main_share"] = sum(t["main_s"] for t in cli_times) / op_s
    else:
        metrics["cli.interpreter_start_s"] = START - float(os.environ["PERFBENCH_SPAWNED"])
        metrics["cli.import_s"] = import_s
        metrics["cli.main_share"] = 0.0
    metrics["runner.cpu_share"] = sum(r[4] for r in reference) / sum(r[3] for r in reference)
    metrics["trace.overhead_share"] = traced_corrected / ref_corrected
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "counts_repeat": not mismatched,
        "count_mismatches": mismatched[:10],
        "exact_counts": counts1,
        "spans": len(tracer.spans),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after READY and report a probe of the machine's speed")
    args = parser.parse_args(argv)
    # One core for this process and its children, so the probes and the
    # operations they correct run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # Set-up is probed like an operation (see measure()); a CLI set-up only
    # after READY, since its probe starts a process.  A traced run reports
    # no set-up time.
    probe, reference = probe_for(args.workload)
    ticker = Ticker(probe, enabled=not args.trace and args.workload != "cli")
    ticker.start()
    t0 = perf_counter()
    import weylkit.cli  # noqa: F401  the import every CLI process pays
    import_s = perf_counter() - t0
    root = Path(__file__).resolve().parent.parent
    if Path(weylkit.__file__).resolve().parent != root / "src" / "weylkit":
        print(f"weylkit imported from {weylkit.__file__}, not from this tree", file=sys.stderr)
        return 2

    session = Session(args.workload, args.seed)
    first_round = session.round(0)
    for op in session.warmup():
        session.run(op)
    ticker.stop()
    print("READY", flush=True)
    probes = ticker.probes + [probe() for _ in range(8)]
    setup = {"setup_spent_s": ticker.spent,
             "setup_scale": reference / statistics.fmean(probes)}
    if args.setup_only:
        print(json.dumps(setup), flush=True)
        return 0

    if args.trace:
        result = traced(session, import_s)
    else:
        result = measure(session, first_round, args.seconds)
    result.update(setup)
    result["env"] = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "dont_write_bytecode": sys.dont_write_bytecode,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
