"""Command-line front end.

Subcommands: eval, bracket, grade, leading, ntp, classify-omega, dc-check,
aut apply.  Everything accepts --json; classify-omega and dc-check always
emit JSON.  dc-check exits 0 for Generates, 2 for Inconclusive, 3 for
NotAWeylPair and 4 for NoPartnerPossible; dc-check input that does not
parse, z, w or --pre-word, or that passes a resource cap, gives the
NotAWeylPair document with an "input error" reason and exit 3.  Other
commands exit 0 on success and 2 on bad input.  The resource caps are
ResourceLimitErrors: an exponent over WEYL_MAX_DEGREE (default 64), or
coefficients that could pass the interpreter's integer-string digit
limit, in a parsed value or in the image of a word; both are checked
before each parsed product and each substitution is formed.  Every
command exits 5, printing "error: internal error: ..." and no traceback,
when a self-check fails (InvariantViolation or ReplayError); that always
means a bug in weylkit, never a property of the input.

JSON schema.  All rationals are strings in num or num/den form; nothing
is ever a float.  An element (Weyl or polynomial) is a list of terms
[{"exp": [i, j], "coeff": "c"}, ...] in graded-lex descending order, the
same order the text printer uses.  A graded decomposition is
{"parts": [{"level": k, "component": <element>}, ...]} with k descending.
A classify-omega document is {"case", "params", "witness_word",
"canonical": [<element>, <element>]} where params is an object keyed per
case (Case2: alpha/beta/gamma/delta; Case3: lam/n; Case4: lam) and
witness_word uses the word syntax of the transforms module.  A dc-check
document is {"outcome", "reason", "pair": {"z", "w"} | null, "attempts":
[{"criterion", "fired", "note"}, ...], "certificate": {"criterion",
"normal_form", "trace", "final_pair"} | null}; trace steps are either
{"kind": "word", "word": "..."} or {"kind": "reduce", "direction":
[rho, sigma], "degree": b, "coefficient": "beta", "exponent": e}.
normal_form keys are criterion-specific; coefficient lists run from the
constant term up.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import (Certificate, DCReport, OmegaClass, ReduceStep, WordStep,
                       dc_check, omega_classify)
from .bipoly import BiPoly, Direction
from .errors import (InvariantViolation, NotAWeylPairError, ParseError, ReplayError,
                     ResourceLimitError)
from .exprparse import parse_element
from .geometry import ntp, roof
from .poisson import poisson_bracket
from .svgplot import ntp_svg
from .transforms import apply_aut, parse_word, word_to_string
from .weyl import WeylElement, commutator, graded_decomp, leading_form_weyl
from .bipoly import _glex_key  # shared term order for printing and JSON

__all__ = ["main"]


# ---------------------------------------------------------------------------
# serialization helpers

def _terms_doc(el) -> list:
    terms = dict(el.items())
    order = sorted(terms, key=_glex_key, reverse=True)
    return [{"exp": [i, j], "coeff": str(terms[(i, j)])} for (i, j) in order]


def _jsonify(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Direction):
        return list(value.as_tuple())
    if isinstance(value, (WeylElement, BiPoly)):
        return _terms_doc(value)
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {value!r}")


def _emit(doc, out) -> None:
    out.write(json.dumps(doc, indent=2))
    out.write("\n")


def _certificate_doc(cert: Certificate) -> dict:
    trace = []
    for step in cert.trace:
        if isinstance(step, WordStep):
            trace.append({"kind": "word", "word": word_to_string(step.word)})
        else:
            trace.append({
                "kind": "reduce",
                "direction": list(step.direction.as_tuple()),
                "degree": step.degree,
                "coefficient": str(step.coefficient),
                "exponent": step.exponent,
            })
    return {
        "criterion": cert.criterion,
        "normal_form": _jsonify(dict(cert.normal_form)),
        "trace": trace,
        "final_pair": [_terms_doc(cert.final_pair[0]), _terms_doc(cert.final_pair[1])],
    }


def _report_doc(report: DCReport) -> dict:
    pair = None
    if report.pair is not None:
        pair = {"z": _terms_doc(report.pair[0]), "w": _terms_doc(report.pair[1])}
    return {
        "outcome": report.outcome.value,
        "reason": report.reason,
        "pair": pair,
        "attempts": [{"criterion": a.criterion, "fired": a.fired, "note": a.note}
                     for a in report.attempts],
        "certificate": _certificate_doc(report.certificate) if report.certificate else None,
    }


_OMEGA_PARAM_KEYS = {
    "Case1-XY": (),
    "Case2-Linear": ("alpha", "beta", "gamma", "delta"),
    "Case3-XplusYn": ("lam", "n"),
    "Case4-Xshift": ("lam",),
}


def _omega_doc(oc: OmegaClass) -> dict:
    keys = _OMEGA_PARAM_KEYS[oc.case.value]
    params = {k: _jsonify(v) for k, v in zip(keys, oc.params)}
    return {
        "case": oc.case.value,
        "params": params,
        "witness_word": word_to_string(oc.witness_word),
        "canonical": [_terms_doc(oc.canonical[0]), _terms_doc(oc.canonical[1])],
    }


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_eval(args, out) -> int:
    el = parse_element(args.expr, args.mode)
    if args.json:
        _emit({"mode": args.mode, "value": _terms_doc(el)}, out)
    else:
        out.write(f"{el}\n")
    return 0


def _cmd_bracket(args, out) -> int:
    a = parse_element(args.expr1, args.mode)
    b = parse_element(args.expr2, args.mode)
    result = commutator(a, b) if args.mode == "weyl" else poisson_bracket(a, b)
    if args.json:
        _emit({"mode": args.mode, "value": _terms_doc(result)}, out)
    else:
        out.write(f"{result}\n")
    return 0


def _cmd_grade(args, out) -> int:
    el = parse_element(args.expr, "weyl")
    parts = [] if el.is_zero() else graded_decomp(el).parts
    if args.json:
        _emit({"parts": [{"level": k, "component": _terms_doc(c)} for k, c in parts]}, out)
    else:
        if not parts:
            out.write("0\n")
        for k, c in parts:
            out.write(f"{k}: {c}\n")
    return 0


def _cmd_leading(args, out) -> int:
    el = parse_element(args.expr, "weyl")
    rho, sigma = args.rho, args.sigma
    if (rho, sigma) == (0, 0):
        raise ParseError("direction (0, 0) is not allowed")
    if el.is_zero():
        degree: object = None
        lead = BiPoly({})
    else:
        degree = max(rho * i + sigma * j for (i, j) in el.support())
        lead = leading_form_weyl(el, (rho, sigma))
    if args.json:
        _emit({"direction": [rho, sigma], "degree": degree,
               "leading": _terms_doc(lead)}, out)
    else:
        out.write(f"degree: {'-inf' if degree is None else degree}\n")
        out.write(f"leading: {lead}\n")
    return 0


def _cmd_ntp(args, out) -> int:
    el = parse_element(args.expr, "weyl")
    polygon = ntp(el)
    chain = () if el.is_zero() else roof(el).points
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(ntp_svg(el))
    if args.json:
        _emit({"vertices": [list(v) for v in polygon.vertices],
               "roof": [list(v) for v in chain]}, out)
    else:
        verts = " ".join(f"({x},{y})" for x, y in polygon.vertices) or "(empty)"
        roof_txt = " ".join(f"({x},{y})" for x, y in chain) or "(empty)"
        out.write(f"vertices: {verts}\n")
        out.write(f"roof: {roof_txt}\n")
    return 0


def _cmd_classify_omega(args, out) -> int:
    f = parse_element(args.f, "poly")
    g = parse_element(args.g, "poly")
    oc = omega_classify(f, g)
    _emit(_omega_doc(oc), out)
    return 0


_EXIT_BY_OUTCOME = {
    "Generates": 0,
    "Inconclusive": 2,
    "NotAWeylPair": 3,
    "NoPartnerPossible": 4,
}


def _cmd_dc_check(args, out) -> int:
    try:
        pre = parse_word(args.pre_word) if args.pre_word else ()
        z = parse_element(args.z, "weyl")
        w = parse_element(args.w, "weyl")
        report = dc_check(z, w, pre_word=pre,
                          assume_centralizer_cyclic=args.assume_centralizer_cyclic)
    except (ParseError, ResourceLimitError) as exc:
        _emit({"outcome": "NotAWeylPair", "reason": f"input error: {exc}",
               "pair": None, "attempts": [], "certificate": None}, out)
        return _EXIT_BY_OUTCOME["NotAWeylPair"]
    _emit(_report_doc(report), out)
    return _EXIT_BY_OUTCOME[report.outcome.value]


def _cmd_aut(args, out) -> int:
    word = parse_word(args.word)
    result = apply_aut(word, parse_element(args.expr, args.mode))
    if args.json:
        _emit({"mode": args.mode, "value": _terms_doc(result)}, out)
    else:
        out.write(f"{result}\n")
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="weylkit",
                                  description="Exact Weyl-algebra computations and "
                                              "generation analysis for pairs.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("eval", help="evaluate an expression to canonical form")
    p.add_argument("expr")
    p.add_argument("-m", "--mode", choices=("weyl", "poly"), default="weyl")
    add_json(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("bracket", help="commutator (weyl) or Poisson bracket (poly)")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument("-m", "--mode", choices=("weyl", "poly"), default="weyl")
    add_json(p)
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("grade", help="graded decomposition by q-degree minus p-degree")
    p.add_argument("expr")
    add_json(p)
    p.set_defaults(fn=_cmd_grade)

    p = sub.add_parser("leading", help="direction degree and leading form")
    p.add_argument("expr")
    p.add_argument("-r", "--rho", type=int, required=True)
    p.add_argument("-s", "--sigma", type=int, required=True)
    add_json(p)
    p.set_defaults(fn=_cmd_leading)

    p = sub.add_parser("ntp", help="Newton polygon vertices and roof chain")
    p.add_argument("expr")
    p.add_argument("--svg", metavar="FILE", help="also write an SVG rendering")
    add_json(p)
    p.set_defaults(fn=_cmd_ntp)

    p = sub.add_parser("classify-omega",
                       help="canonical case of a unit-bracket homogeneous pair")
    p.add_argument("f")
    p.add_argument("g")
    add_json(p)
    p.set_defaults(fn=_cmd_classify_omega)

    p = sub.add_parser("dc-check", help="run the generation-criteria battery on a pair")
    p.add_argument("z")
    p.add_argument("w")
    p.add_argument("--pre-word", default="",
                   help="generator word applied to the pair before analysis")
    p.add_argument("--assume-centralizer-cyclic", action="store_true",
                   help="enable the deep-level loop under the cyclic-centralizer hypothesis")
    add_json(p)
    p.set_defaults(fn=_cmd_dc_check)

    p = sub.add_parser("aut", help="automorphism tools")
    aut_sub = p.add_subparsers(dest="aut_command", required=True)
    pa = aut_sub.add_parser("apply", help="apply a generator word to an element")
    pa.add_argument("word")
    pa.add_argument("expr")
    pa.add_argument("-m", "--mode", choices=("weyl", "poly"), default="weyl")
    add_json(pa)
    pa.set_defaults(fn=_cmd_aut)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except (ParseError, ResourceLimitError, NotAWeylPairError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, ReplayError) as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
