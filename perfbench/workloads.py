"""Seeded inputs and operations for the three workloads.

Every workload is a sequence of rounds.  Round r is built from its own
generator, seeded by (workload, seed, r), so the same seed always gives
the same inputs and a fixed number of rounds is a fixed amount of work.
A round holds a fixed mix of operation classes, shuffled; the run stops
at a round boundary, so each class keeps its share of the samples.

The library is reached through module attributes (``analysis.dc_check``,
not a name imported here), so a tracer that swaps those attributes sees
the benchmark's own calls too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable, Optional

import oracle

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
GOLDEN_DIR = ROOT / "tests" / "goldens"


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its result.

    check returns None when the result is right and a reason otherwise;
    it runs after the timed region.  generating marks a constructed
    generating pair, the base of conclusive_share.
    """

    cls: str
    run: Callable[[], object]
    check: Callable[[Random, object], Optional[str]]
    generating: bool = False


def round_rng(workload: str, seed: int, index: int) -> Random:
    return Random(f"{workload}:{seed}:{index}")


def rational(rng: Random, num: int = 9, den: int = 4) -> Fraction:
    """Nonzero rational with small numerator and denominator."""
    while True:
        value = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if value:
            return value


# ---------------------------------------------------------------------------
# kernel-dense: dense operands, one kernel call per operation

def dense(cls, degree: int, rng: Random, skip=()):
    """Element with every monomial of total degree <= degree, except skip."""
    return cls({(i, j): rational(rng) for i in range(degree + 1)
                for j in range(degree + 1 - i) if (i, j) not in skip})


def _weyl_product(rng: Random, da: int, db: int) -> Op:
    from weylkit.weyl import WeylElement
    a, b = dense(WeylElement, da, rng), dense(WeylElement, db, rng)

    def check(crng, result):
        return None if oracle.check_weyl_product(crng, a, b, result) else "wrong Weyl product"
    return Op("weyl_mul", lambda: a * b, check)


def _weyl_commutator(rng: Random, da: int, db: int) -> Op:
    from weylkit import weyl
    a, b = dense(weyl.WeylElement, da, rng), dense(weyl.WeylElement, db, rng)

    def check(crng, result):
        if oracle.check_weyl_commutator(crng, a, b, result):
            return None
        return "wrong Weyl commutator"
    return Op("weyl_commutator", lambda: weyl.commutator(a, b), check)


def _bipoly_product(rng: Random, d: int) -> Op:
    from weylkit.bipoly import BiPoly
    f, g = dense(BiPoly, d, rng), dense(BiPoly, d, rng)

    def check(crng, result):
        return None if oracle.check_poly_product(crng, f, g, result) else "wrong BiPoly product"
    return Op("bipoly_mul", lambda: f * g, check)


def _poisson(rng: Random, d: int) -> Op:
    from weylkit import poisson
    from weylkit.bipoly import BiPoly
    f, g = dense(BiPoly, d, rng), dense(BiPoly, d, rng)

    def check(crng, result):
        return None if oracle.check_poisson(crng, f, g, result) else "wrong Poisson bracket"
    return Op("poisson_bracket", lambda: poisson.poisson_bracket(f, g), check)


def _power_decomposition(rng: Random, d: int, m: int) -> Op:
    """f = c * h**m where h cannot be a proper power.

    h omits X^d, so its graded-lex leading exponent is (d - 1, 1).  Leading
    exponents add under products, so h = g**k forces k to divide 1; the
    maximal exponent of f is therefore exactly m.
    """
    from weylkit import bipoly
    h = dense(bipoly.BiPoly, d, rng, skip={(d, 0)})
    f = h ** m * rational(rng)

    def check(crng, result):
        if oracle.check_power_decomposition(crng, f, m, result):
            return None
        return f"wrong power decomposition (built with m = {m})"
    return Op("power_decomposition", lambda: bipoly.power_decomposition(f), check)


# One round, about 5 s at the reference core speed (see worker.PROBES): each
# family takes close to a fifth of it.  The mix is fixed so the median and
# the 90th percentile land inside one class each (the 8x8 commutators and
# the (5, 4) power decompositions) rather than on the edge between two,
# which keeps them steady from run to run.
KERNEL_ROUND = (
    (6, "weyl_mul", (8, 8)),
    (1, "weyl_mul", (16, 16)),
    (7, "weyl_commutator", (8, 8)),
    (1, "weyl_commutator", (8, 16)),
    (6, "bipoly_mul", (16,)),
    (6, "poisson_bracket", (12,)),
    (2, "poisson_bracket", (16,)),
    (3, "power_decomposition", (4, 3)),
    (4, "power_decomposition", (5, 4)),
)
_KERNEL_OPS = {"weyl_mul": _weyl_product, "weyl_commutator": _weyl_commutator,
               "bipoly_mul": _bipoly_product, "poisson_bracket": _poisson,
               "power_decomposition": _power_decomposition}


def kernel_round(rng: Random) -> list[Op]:
    ops = [_KERNEL_OPS[family](rng, *sizes)
           for count, family, sizes in KERNEL_ROUND for _ in range(count)]
    rng.shuffle(ops)
    return ops


def kernel_warmup(rng: Random) -> list[Op]:
    return [_weyl_product(rng, 3, 3), _weyl_commutator(rng, 3, 3), _bipoly_product(rng, 3),
            _poisson(rng, 3), _power_decomposition(rng, 2, 2)]


# ---------------------------------------------------------------------------
# pairs: build a pair from (p, q) with a generator word, then run dc_check

def _coeffs(rng: Random, degree: int) -> tuple[Fraction, ...]:
    """Coefficients from the constant term up, with a nonzero top one."""
    body = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree)]
    return tuple(body + [rational(rng, 5, 3)])


def _tri(upper: bool, coeffs):
    from weylkit import transforms
    return transforms.TriUpper(coeffs) if upper else transforms.TriLower(coeffs)


def tiny_word(rng: Random) -> tuple:
    from weylkit import transforms
    word = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(4)
        if kind == 0:
            word.append(transforms.Rot90())
        elif kind == 1:
            word.append(transforms.Scale(rational(rng, 5, 3)))
        elif kind == 2:
            a, b = rational(rng, 3, 2), Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            word.append(transforms.Linear(a, b, c, (1 + b * c) / a))
        else:
            word.append(_tri(rng.random() < 0.5, _coeffs(rng, rng.randint(1, 2))))
    return tuple(word)


def two_step_word(rng: Random, degrees: tuple[int, int], upper_first: bool) -> tuple:
    return (_tri(upper_first, _coeffs(rng, degrees[0])),
            _tri(not upper_first, _coeffs(rng, degrees[1])))


def family_word(rng: Random, k: int, degree: int) -> tuple:
    """z = p + q^k, w = q + sum_i a_i z^i, with sum_i a_i z^i of the given degree."""
    return (_tri(False, _coeffs(rng, degree)),
            _tri(True, (Fraction(0),) * k + (Fraction(1),)))


DEEP_DEGREES = ((2, 2, 2), (2, 3, 2), (3, 2, 2), (1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 1, 2))


def deep_word(rng: Random, degrees: tuple[int, ...]) -> tuple:
    """Alternating triangular steps of the given degrees."""
    upper = rng.random() < 0.5
    word = []
    for d in degrees:
        word.append(_tri(upper, _coeffs(rng, d)))
        upper = not upper
    return tuple(word)


def diagonal_element(rng: Random):
    """Element of a graded half whose roof has the diagonal vertex (k, k).

    All other terms lie strictly on one side of the diagonal, so (k, k) is
    the unique maximizer of i - j + eps (i + j) (or of j - i + eps (i + j))
    and hence a roof vertex: no partner with commutator 1 exists.
    """
    from weylkit.weyl import WeylElement
    k = rng.randint(1, 3)
    upper = rng.random() < 0.5
    terms = {(k, k): rational(rng, 5, 3)}
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, k + 1)
        j = i + rng.randint(1, 3)
        terms[(i, j) if upper else (j, i)] = rational(rng, 5, 3)
    return WeylElement(terms)


def _pair_check(expected: str):
    def check(crng, result):
        from weylkit import analysis
        z, w, report = result
        outcome = report.outcome.value
        if expected == "generating":
            if outcome not in ("Generates", "Inconclusive"):
                return f"generating pair reported {outcome}"
            if not oracle.commutator_is_one(crng, z, w):
                return "constructed pair does not have commutator 1"
        elif outcome != expected:
            return f"control reported {outcome}, expected {expected}"
        if outcome == "Generates":
            try:
                analysis.replay_certificate(report.certificate, z, w)
            except analysis.ReplayError as exc:
                return f"certificate does not replay: {exc}"
            if not oracle.commutator_is_one(crng, *report.certificate.final_pair):
                return "certificate final pair does not have commutator 1"
        return None
    return check


def _word_op(cls: str, word) -> Op:
    from weylkit import analysis, transforms
    from weylkit.weyl import WeylElement
    p, q = WeylElement.gen_p(), WeylElement.gen_q()

    def run():
        z, w = transforms.apply_to_pair(word, p, q)
        return z, w, analysis.dc_check(z, w)
    return Op(cls, run, _pair_check("generating"), generating=True)


def _perturbed_op(word, lam: Fraction) -> Op:
    """The pair (lam z, w) has commutator lam != 1."""
    from weylkit import analysis, transforms
    from weylkit.weyl import WeylElement
    p, q = WeylElement.gen_p(), WeylElement.gen_q()

    def run():
        z, w = transforms.apply_to_pair(word, p, q)
        z = z * lam
        return z, w, analysis.dc_check(z, w)
    return Op("control_perturbed", run, _pair_check("NotAWeylPair"))


def _diagonal_op(z, w) -> Op:
    from weylkit import analysis

    def run():
        return z, w, analysis.dc_check(z, w)
    return Op("control_diagonal", run, _pair_check("NoPartnerPossible"))


# Two-step degree pairs of one round; half start upper, half lower.
_TWO_STEP_DEGREES = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2))


def pairs_round(rng: Random, index: int) -> list[Op]:
    """50 operations, about 0.5 s at the reference core speed.

    Of 50 samples the two deep words are the slowest and the six two-step
    words come next, so the 90th percentile falls inside the two-step
    class and the median inside the family class.  Shapes are fixed per
    round (deep shapes cycle over three rounds), only coefficients are
    drawn, so every run has nearly the same mix of sizes.
    """
    from weylkit.weyl import WeylElement
    ops: list[Op] = []
    ops += [_word_op("tiny", tiny_word(rng)) for _ in range(16)]
    ops += [_word_op("family", family_word(rng, 2 + k % 5, 1 + k % 3)) for k in range(20)]
    ops += [_word_op("two_step", two_step_word(rng, degrees, k % 2 == 0))
            for k, degrees in enumerate(_TWO_STEP_DEGREES)]
    ops += [_word_op("deep", deep_word(rng, DEEP_DEGREES[(2 * index + k) % 6]))
            for k in range(2)]
    for k in range(3):
        lam = rational(rng, 5, 3)
        word = two_step_word(rng, _TWO_STEP_DEGREES[k], k % 2 == 0)
        ops.append(_perturbed_op(word, lam if lam != 1 else Fraction(2)))
    for _ in range(3):
        z = diagonal_element(rng)
        w = WeylElement.gen_q() + dense(WeylElement, 1, rng)
        ops.append(_diagonal_op(z, w) if rng.random() < 0.5 else _diagonal_op(w, z))
    rng.shuffle(ops)
    return ops


def pairs_warmup(rng: Random) -> list[Op]:
    return [_word_op("tiny", tiny_word(rng)),
            _word_op("two_step", two_step_word(rng, (2, 2), True))]


# ---------------------------------------------------------------------------
# cli: one `python -m weylkit.cli` process per operation, goldens byte for byte

PENTAGON = "p + p^2 q^3 + p^3 q + p^4 q^2 + p^5"

# (golden name, argv, exit code, constructed generating pair)
SCENARIOS = (
    ("dc_check_p_q", ("dc-check", "p", "q"), 0, True),
    ("dc_check_quadratic", ("dc-check", "2 q + p^2", "-1/2 p"), 0, True),
    ("dc_check_v01_loop", ("dc-check", "p + q", "q + 2 (p + q)^2 + (p + q)"), 0, True),
    ("dc_check_grading_loop",
     ("dc-check", "p + q^3", "q + 2 (p + q^3)^2 + (p + q^3)^4"), 0, True),
    ("dc_check_no_partner", ("dc-check", "p q", "q"), 4, False),
    ("dc_check_not_a_pair", ("dc-check", "q", "p"), 3, False),
    ("dc_check_pre_word", ("dc-check", "p", "q", "--pre-word", "rot"), 0, True),
    ("classify_omega_case3", ("classify-omega", "X + 2 Y^3", "Y"), 0, False),
    ("classify_omega_rotated", ("classify-omega", "--", "Y", "-X"), 0, False),
    ("ntp_pentagon", ("ntp", PENTAGON, "--svg", "{svg}"), 0, False),
)


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    svg: Optional[bytes]


def cli_command(argv, traced: Optional[Path]) -> list[str]:
    """The child command line; a traced child runs under cli_child.py."""
    if traced is None:
        return [sys.executable, "-m", "weylkit.cli", *argv]
    return [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), str(traced), *argv]


def run_cli(argv, env, traced: Optional[Path] = None) -> CliResult:
    svg = OUT / f"ntp-{os.getpid()}.svg"
    argv = [a.replace("{svg}", str(svg)) for a in argv]
    if traced is not None:
        env = dict(env, PERFBENCH_SPAWNED=repr(time.monotonic()))
    done = subprocess.run(cli_command(argv, traced), cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, check=False)
    data = None
    if svg.exists():
        data = svg.read_bytes()
        svg.unlink()
    return CliResult(done.returncode, done.stdout, done.stderr, data)


def _cli_check(name: str, code: int):
    def check(crng, result: CliResult):
        if b"Traceback" in result.stderr:
            return "traceback on stderr"
        if result.returncode != code:
            return f"exit code {result.returncode}, expected {code}"
        if result.stdout != (GOLDEN_DIR / f"{name}.txt").read_bytes():
            return "stdout differs from the golden"
        if name == "ntp_pentagon" and result.svg != (GOLDEN_DIR / "ntp_pentagon.svg").read_bytes():
            return "SVG differs from the golden"
        return None
    return check


def outcome(result) -> Optional[str]:
    """The dc_check outcome of a pairs or cli result, if it has one."""
    if isinstance(result, CliResult):
        try:
            return json.loads(result.stdout).get("outcome")
        except (ValueError, AttributeError):
            return None
    return result[2].outcome.value


def cli_ops(rng: Random, env, traced_dir: Optional[Path] = None) -> list[Op]:
    ops = []
    for name, argv, code, generating in SCENARIOS:
        traced = None if traced_dir is None else traced_dir / f"{name}.json"
        ops.append(Op(name, lambda argv=argv, traced=traced: run_cli(argv, env, traced),
                      _cli_check(name, code), generating))
    rng.shuffle(ops)
    return ops
