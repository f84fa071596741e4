"""Tests of the benchmark itself: its checks must catch wrong results.

Run from the root of the tree:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Tally  # noqa: E402

from weylkit.analysis import ReduceStep  # noqa: E402
from weylkit.weyl import WeylElement  # noqa: E402


def tally_of(op, result, error=None) -> Tally:
    tally = Tally("test", 0)
    tally.add(op, result, error)
    return tally


def test_oracle_orders_products():
    rng = Random(1)
    p, q = WeylElement.gen_p(), WeylElement.gen_q()
    pq = WeylElement({(1, 1): 1})
    assert oracle.check_weyl_product(rng, q, p, pq - 1)       # q p = p q - 1
    assert not oracle.check_weyl_product(rng, q, p, pq)
    assert oracle.commutator_is_one(rng, p, q)
    assert not oracle.commutator_is_one(rng, q, p)


def test_corrupted_product_is_counted_failed():
    op = workloads._weyl_product(Random(2), 4, 4)
    right = op.run()
    assert tally_of(op, right).failed == 0
    for corrupt in (right + WeylElement.monomial(3, 1, Fraction(1, 7)),
                    right * 2, right - WeylElement.one()):
        tally = tally_of(op, corrupt)
        assert (tally.attempted, tally.failed) == (1, 1)


def test_corrupted_commutative_results_are_counted_failed():
    rng = Random(3)
    for op in (workloads._bipoly_product(rng, 4), workloads._poisson(rng, 4)):
        right = op.run()
        assert tally_of(op, right).failed == 0
        assert tally_of(op, right + 1).failed == 1
    op = workloads._power_decomposition(rng, 3, 3)
    lam, h, m = op.run()
    assert tally_of(op, (lam, h, m)).failed == 0
    assert tally_of(op, (lam, h ** 3, 1)).failed == 1       # a valid split, not maximal
    assert tally_of(op, (lam * 2, h, m)).failed == 1


def test_raising_operation_is_counted_failed():
    op = workloads._weyl_product(Random(4), 2, 2)
    tally = tally_of(op, None, error="Traceback: boom")
    assert (tally.attempted, tally.failed) == (1, 1)


def _generated_pair():
    """A two-step word certified with at least one reduce step."""
    rng = Random(5)
    while True:
        op = workloads._word_op("two_step", workloads.two_step_word(rng, (2, 3), True))
        z, w, report = op.run()
        cert = report.certificate
        if cert is not None and any(isinstance(s, ReduceStep) for s in cert.trace):
            return op, (z, w, report)


def test_tampered_certificate_is_counted_failed():
    op, (z, w, report) = _generated_pair()
    assert tally_of(op, (z, w, report)).failed == 0
    cert = report.certificate
    k = next(i for i, s in enumerate(cert.trace) if isinstance(s, ReduceStep))
    bad_step = dataclasses.replace(cert.trace[k], coefficient=cert.trace[k].coefficient + 1)
    tampered = [
        dataclasses.replace(cert, trace=cert.trace[:k] + (bad_step,) + cert.trace[k + 1:]),
        dataclasses.replace(cert, final_pair=(cert.final_pair[0] * 2, cert.final_pair[1])),
    ]
    for bad in tampered:
        bad_report = dataclasses.replace(report, certificate=bad)
        tally = tally_of(op, (z, w, bad_report))
        assert (tally.attempted, tally.failed) == (1, 1), bad


def test_controls_need_their_exact_outcome():
    rng = Random(6)
    z = workloads.diagonal_element(rng)
    w = WeylElement.gen_q()
    op = workloads._diagonal_op(z, w)
    z, w, report = op.run()
    assert report.outcome.value == "NoPartnerPossible"
    assert tally_of(op, (z, w, report)).failed == 0
    generating = workloads._word_op("tiny", workloads.tiny_word(rng)).run()[2]
    assert tally_of(op, (z, w, generating)).failed == 1


def test_cli_output_must_match_the_golden():
    name, _, code, _ = workloads.SCENARIOS[0]
    golden = (workloads.GOLDEN_DIR / f"{name}.txt").read_bytes()
    check = workloads._cli_check(name, code)
    ok = workloads.CliResult(code, golden, b"", None)
    assert check(None, ok) is None
    assert check(None, dataclasses.replace(ok, stdout=golden + b" ")) is not None
    assert check(None, dataclasses.replace(ok, returncode=1)) is not None
    assert check(None, dataclasses.replace(ok, stderr=b"Traceback (most recent")) is not None


def test_traced_counts_repeat_exactly():
    def traced_counts():
        tracer = Tracer()
        ops = workloads.pairs_round(Random("pairs:9:0"), 0)
        for k, op in enumerate(ops):
            tracer.op = k
            tracer.install()
            try:
                op.run()
            finally:
                tracer.uninstall()
        return tracer.exact_counts()

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["weyl.mul.calls"] > 0 and first["fraction.ops"] > 0
    assert first["analysis.dc_check.calls"] == 50


def test_tracer_counts_inline_commutators_and_restores():
    original = WeylElement.__mul__
    p, q = WeylElement.gen_p(), WeylElement.gen_q()
    tracer = Tracer()
    tracer.install()
    try:
        assert p * q - q * p == WeylElement.one()
    finally:
        tracer.uninstall()
    assert WeylElement.__mul__ is original
    assert tracer.counts["commutators"] == 1
    assert tracer.exact_counts()["weyl.mul.calls"] == 2


def test_run_refuses_a_tree_without_weylkit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        spec["command"] + ["--workload", "pairs", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert done.stdout == ""
