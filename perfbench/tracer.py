"""Spans and counters around weylkit's public entry points, from outside.

A Tracer replaces the library's entry points with wrappers while it is
installed and restores them afterwards; nothing under src/ changes.  Each
wrapped call records a span (name, start, end, parent span, operation id)
in memory.  Functions are replaced under every name they are bound to in
any loaded weylkit module, so calls through a re-import (for example
``is_weyl_pair`` inside ``weylkit.analysis``) are seen too.  Fraction
arithmetic is counted, not timed.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

CRITERIA = ("homogeneous", "v01", "grading", "D_ge_minus1", "two_homogeneous",
            "support", "leading_bracket", "cf_kf")

# (defining module, function) -> span name
FUNCTIONS = {
    ("weylkit.weyl", "commutator"): "weyl.commutator",
    ("weylkit.weyl", "is_weyl_pair"): "weyl.is_weyl_pair",
    ("weylkit.weyl", "graded_decomp"): "weyl.graded_decomp",
    ("weylkit.bipoly", "power_decomposition"): "bipoly.power_decomposition",
    ("weylkit.poisson", "poisson_bracket"): "poisson.bracket",
    ("weylkit.poisson", "centralizer_generator"): "poisson.centralizer_generator",
    ("weylkit.transforms", "apply_to_pair"): "transforms.apply_to_pair",
    ("weylkit.transforms", "apply_aut"): "transforms.apply_aut",
    ("weylkit.transforms", "apply_poisson_aut"): "transforms.apply_poisson_aut",
    ("weylkit.geometry", "roof"): "geometry.roof",
    ("weylkit.geometry", "ntp"): "geometry.ntp",
    ("weylkit.analysis", "dc_check"): "analysis.dc_check",
    ("weylkit.analysis", "replay_certificate"): "analysis.replay",
    ("weylkit.exprparse", "parse_element"): "exprparse.parse_element",
    **{("weylkit.analysis", f"criterion_{name}"): f"analysis.criterion.{name}"
       for name in CRITERIA},
}

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


class Tracer:
    """Records spans and counts while installed; see install()."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._last_mul = None
        self._in_commutator = 0
        self._in_dc_check = 0

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
        stack.append(len(spans))
        spans.append(rec)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            rec[1] = t0
            stack.pop()

    def _count_commutator(self):
        self.counts["commutators"] += 1
        if self._in_dc_check:
            self.counts["analysis.dc_check.commutators"] += 1

    def _wrap(self, name, fn):
        call = self._call
        if name == "weyl.commutator":
            def wrapper(*args, **kwargs):
                self._count_commutator()
                self._in_commutator += 1
                try:
                    return call(name, fn, args, kwargs)
                finally:
                    self._in_commutator -= 1
        elif name == "analysis.dc_check":
            def wrapper(*args, **kwargs):
                self._in_dc_check += 1
                try:
                    report = call(name, fn, args, kwargs)
                finally:
                    self._in_dc_check -= 1
                self._count_report(report)
                return report
        else:
            def wrapper(*args, **kwargs):
                return call(name, fn, args, kwargs)
        return wrapper

    def _wrap_weyl_mul(self, fn, weyl_cls):
        call, counts = self._call, self.counts

        def wrapper(a, b):
            if not isinstance(b, weyl_cls):
                return fn(a, b)
            counts["weyl.mul.term_pairs"] += len(a) * len(b)
            # b * a right after a * b, outside commutator(): an inline
            # commutator.  The operands themselves are kept, not their ids,
            # so a freed object's address cannot fake a match.
            last = self._last_mul
            if self._in_commutator or a is b:
                self._last_mul = None
            elif last is not None and last[0] is b and last[1] is a:
                self._count_commutator()
                self._last_mul = None
            else:
                self._last_mul = (a, b)
            return call("weyl.mul", fn, (a, b), {})
        return wrapper

    def _wrap_bipoly_mul(self, fn, bipoly_cls):
        call, counts = self._call, self.counts

        def wrapper(a, b):
            if not isinstance(b, bipoly_cls):
                return fn(a, b)
            counts["bipoly.mul.term_pairs"] += len(a) * len(b)
            return call("bipoly.mul", fn, (a, b), {})
        return wrapper

    def _wrap_fraction(self, fn):
        counts = self.counts

        def wrapper(a, b):
            counts["fraction.ops"] += 1
            return fn(a, b)
        return wrapper

    def _count_report(self, report):
        counts = self.counts
        counts["analysis.dc_check.calls"] += 1
        for attempt in report.attempts:
            if attempt.fired:
                counts[f"analysis.criterion.{attempt.criterion}.fired"] += 1
        if report.certificate is not None:
            counts["analysis.reduce_steps"] += sum(
                type(step).__name__ == "ReduceStep" for step in report.certificate.trace)

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the entry points; weylkit must already be imported."""
        from weylkit.bipoly import BiPoly, _SparseTerms
        from weylkit.weyl import WeylElement

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "weylkit" or n.startswith("weylkit."))]
        for (modname, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, bound, wrapper)
        self._set(WeylElement, "__mul__", self._wrap_weyl_mul(WeylElement.__mul__, WeylElement))
        self._set(BiPoly, "__mul__", self._wrap_bipoly_mul(BiPoly.__mul__, BiPoly))
        self._set(BiPoly, "substitute", self._wrap("bipoly.substitute", BiPoly.substitute))
        for attr in ("__add__", "__sub__"):
            self._set(_SparseTerms, attr, self._wrap("bipoly.addsub", getattr(_SparseTerms, attr)))
        for attr in FRACTION_OPS:
            self._set(Fraction, attr, self._wrap_fraction(getattr(Fraction, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def span_totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = Counter(), Counter()
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[k]
        return calls, self_s

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly for the same inputs."""
        calls, _ = self.span_totals()
        out = {f"{name}.calls": n for name, n in calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")

    def merge(self, spans: list[list], counts: dict[str, int], op: int) -> None:
        """Append spans and counts recorded by another process as operation op."""
        base = len(self.spans)
        for name, t0, t1, parent, _ in spans:
            self.spans.append([name, t0, t1, parent + base if parent >= 0 else -1, op])
        self.counts.update(counts)


def layer_metrics(tracer: Tracer, op_s: float) -> dict[str, float]:
    """Per-layer counts, and self times as shares of op_s seconds.

    A share rather than seconds: a layer that a workload never calls then
    reads 0 as a share, never as a time, and shares of one pass are not
    moved by how busy the machine was during it.  Seconds are share * op_s.
    """
    calls, self_s = tracer.span_totals()
    c = tracer.counts
    out: dict[str, float] = {"fraction.ops": c["fraction.ops"]}
    for layer in ("weyl.mul", "bipoly.mul"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_share"] = self_s[layer] / op_s
        out[f"{layer}.term_pairs"] = c[f"{layer}.term_pairs"]
    for name in ("weyl.commutator", "weyl.is_weyl_pair", "poisson.bracket",
                 "transforms.apply_to_pair", "geometry.roof"):
        out[f"{name}.calls"] = calls[name]
    for name in ("weyl.graded_decomp", "bipoly.power_decomposition", "bipoly.substitute",
                 "bipoly.addsub", "poisson.bracket", "poisson.centralizer_generator",
                 "transforms.apply_to_pair", "transforms.apply_aut",
                 "transforms.apply_poisson_aut", "geometry.roof", "geometry.ntp",
                 "analysis.dc_check", "analysis.replay", "exprparse.parse_element"):
        out[f"{name}.self_share"] = self_s[name] / op_s
    for name in CRITERIA:
        out[f"analysis.criterion.{name}.self_share"] = (
            self_s[f"analysis.criterion.{name}"] / op_s)
        out[f"analysis.criterion.{name}.fired"] = c[f"analysis.criterion.{name}.fired"]
    out["analysis.reduce_steps"] = c["analysis.reduce_steps"]
    checks = c["analysis.dc_check.calls"]
    out["analysis.commutators_per_pair"] = (
        c["analysis.dc_check.commutators"] / checks if checks else 0.0)
    return out
