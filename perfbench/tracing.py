"""Spans and counters around the program's public functions.

The tracer replaces module attributes of ``monadlogic`` with wrappers
while it is installed and puts the originals back when it is removed, so
the program's own files are never edited and untraced runs call the
program directly.  Every wrapped call either opens a span (name, start,
end, parent span, query id) or bumps a counter; spans stay in memory and
are written out once, at the end of the run.  A layer's self time is its
spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from time import perf_counter

# (module, attribute, span or counter name, kind); kinds: "span" times the
# call, "count" counts it, "resolve" counts it and counts the calls of the
# closure it returns under the second name
_PATCHES = (
    ("syntax", "parse_signature", "syntax.parse_signature", "span"),
    ("syntax", "parse_formula", "syntax.parse_formula", "span"),
    ("model", "load_interpretation", "model.load_interpretation", "span"),
    ("model", "compile_function", ("model.symbol_resolutions", None), "resolve"),
    ("model", "compile_predicate", ("model.symbol_resolutions", "model.atom_lookups"), "resolve"),
    ("model", "compile_computational", ("model.symbol_resolutions", "model.ctable_lookups"), "resolve"),
    ("semantics", "evaluate_sentence", "semantics.evaluate_sentence", "span"),
    ("semantics", "compile_formula", "semantics.compile_formula", "span"),
    # the evaluator's own binding of algebra.aggregate
    ("semantics", "aggregate", "algebra.aggregate", "span"),
    ("effects", "realize", "effects.realize", "span"),
    ("effects", "bind", "effects.binds", "count"),
    ("effects.RandomKey", "child", "effects.key_children", "count"),
    ("effects.RandomKey", "uniform", "effects.draws", "count"),
    ("effects.Dist", "__init__", "effects.dists_built", "count"),
    ("transforms", "load_network", "transforms.load_network", "span"),
    ("transforms", "wmc_build", "transforms.wmc_build", "span"),
    ("transforms", "argmax_interpretation", "transforms.argmax", "span"),
)

# per-layer metric -> span whose self time it reports
SPAN_METRICS = {
    "syntax.parse_signature_ms": "syntax.parse_signature",
    "syntax.parse_formula_ms": "syntax.parse_formula",
    "model.load_interpretation_ms": "model.load_interpretation",
    "semantics.compile_formula_ms": "semantics.compile_formula",
    "semantics.denotation_ms": "semantics.evaluate_sentence",
    "algebra.aggregate_ms": "algebra.aggregate",
    "effects.realize_ms": "effects.realize",
    "transforms.load_network_ms": "transforms.load_network",
    "transforms.wmc_build_ms": "transforms.wmc_build",
    "transforms.argmax_ms": "transforms.argmax",
}

COUNT_METRICS = (
    "syntax.formula_nodes",
    "model.rows_loaded",
    "model.symbol_resolutions",
    "model.ctable_lookups",
    "model.atom_lookups",
    "semantics.evaluate_calls",
    "algebra.aggregate_calls",
    "algebra.aggregate_items",
    "algebra.connective_calls",
    "effects.draws",
    "effects.key_children",
    "effects.binds",
    "effects.dists_built",
)


def _count_rows(interp):
    return sum(len(getattr(impl, "rows", ())) for section in
               (interp.funcs, interp.preds, interp.mfuncs, interp.mpreds) for impl in section.values())


def _count_nodes(formula, formula_cls):
    """Formula nodes of a parsed formula, found through its dataclass fields."""
    if not dataclasses.is_dataclass(formula) or not isinstance(formula, formula_cls):
        return 0
    return 1 + sum(_count_nodes(getattr(formula, f.name), formula_cls)
                   for f in dataclasses.fields(formula))


class Tracer:
    def __init__(self, ml):
        self.ml = ml
        self.spans = []  # [name, start, end, parent index or None, query id]
        self.stack = []
        self.counts = Counter()
        self.query = "setup"
        self._saved = []

    # wrappers

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.query]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _resolve(self, names, fn):
        counts = self.counts
        resolved, looked_up = names

        def wrapper(*args, **kwargs):
            counts[resolved] += 1
            inner = fn(*args, **kwargs)
            if looked_up is None:
                return inner

            def lookup(arg_values):
                counts[looked_up] += 1
                return inner(arg_values)

            return lookup

        return wrapper

    def _extra(self, attr, wrapper):
        """Counters read off the arguments or results of a wrapped call."""
        counts, ml = self.counts, self.ml
        if attr == "load_interpretation":
            def extra(*args, **kwargs):
                interp = wrapper(*args, **kwargs)
                counts["model.rows_loaded"] += _count_rows(interp)
                return interp
        elif attr == "parse_formula":
            def extra(*args, **kwargs):
                formula = wrapper(*args, **kwargs)
                counts["syntax.formula_nodes"] += _count_nodes(formula, ml.syntax.Formula)
                return formula
        elif attr == "aggregate":
            def extra(alg, kind, fam):
                counts["algebra.aggregate_items"] += len(fam.pairs)
                return wrapper(alg, kind, fam)
        else:
            return wrapper
        return extra

    def install(self):
        for owner_path, attr, name, kind in _PATCHES:
            owner = self.ml
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if kind == "span":
                wrapped = self._span(name, original)
            elif kind == "count":
                wrapped = self._count(name, original)
            else:
                wrapped = self._resolve(name, original)
            setattr(owner, attr, self._extra(attr, wrapped))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, query_id, fn):
        """Run one query under a root span; its spans share ``query_id``."""
        self.query = query_id
        return self._span("query", fn)()

    def wrap_framework(self, fw):
        """The same framework with counted connectives."""
        alg = fw.algebra
        counted = {op: self._count("algebra.connective_calls", getattr(alg, op))
                   for op in ("neg", "conj", "disj", "implies")}
        return dataclasses.replace(fw, algebra=dataclasses.replace(alg, **counted))

    # reading the trace

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        times = self.self_times()
        out = {m: {"value": times[span] * 1e3, "unit": "ms"} for m, span in SPAN_METRICS.items()}
        counts = dict(self.counts)
        counts["semantics.evaluate_calls"] = self.counts["semantics.evaluate_sentence"]
        counts["algebra.aggregate_calls"] = self.counts["algebra.aggregate"]
        for m in COUNT_METRICS:
            out[m] = {"value": counts.get(m, 0), "unit": "count"}
        return out

    def write(self, path, header):
        doc = {
            **header,
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "query": q}
                      for n, s, e, p, q in self.spans],
            "counters": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
