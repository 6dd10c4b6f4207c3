"""Memoized quantifier and bind nodes: variable elimination on bind chains."""

import json
import random
import time
import tracemalloc

import pytest

from monadlogic import (
    DISTRIBUTION,
    IDENTITY,
    NONEMPTY_SET,
    SAMPLER,
    CTable,
    Dist,
    EnumDomain,
    IntRangeDomain,
    Interpretation,
    TableFunc,
    eval_formula,
    evaluate_sentence,
    load_interpretation,
    load_network,
    make_algebra,
    make_framework,
    parse_formula,
    parse_signature,
    wmc_build,
    wmc_bruteforce,
)
from monadlogic import effects, model, semantics, syntax
from monadlogic.errors import EngineError, EvalTypeError, OpenFormulaError
from monadlogic.model import CONTINUOUS, FAITHFUL, BuiltinFunc, computational_fact, value_fact
from monadlogic.semantics import compile_formula
from monadlogic.syntax import Signature

from helpers import random_dist_pairs, reference_exact

_ALGEBRA = {
    IDENTITY: "boolean",
    NONEMPTY_SET: "priest",
    DISTRIBUTION: "product",
    SAMPLER: "product",
}


def framework(kind):
    return make_framework(kind, make_algebra(_ALGEBRA[kind]))


def load_system(sig_doc, doc):
    sig = parse_signature(json.dumps(sig_doc))
    interp = load_interpretation(doc, sig, DISTRIBUTION)
    return load_network(doc, sig, interp)


def wmc(network, sig2, interp2, text):
    query = parse_formula(text, sig2, free=network.free)
    built = wmc_build(network, query)
    return evaluate_sentence(built, framework(DISTRIBUTION), interp2).value, query


def chain_system(n, rng):
    """A binary chain x1 -> ... -> xn plus its transition probabilities."""
    p1 = rng.uniform(0.1, 0.9)
    # trans[i] = (P(x_i = 1 | x_{i-1} = 0), P(x_i = 1 | x_{i-1} = 1))
    trans = [(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)) for _ in range(n - 1)]
    entries = [{"name": "x1", "sort": "B", "parents": [],
                "rows": [[[[1, p1], [0, 1.0 - p1]]]]}]
    for i, (q0, q1) in enumerate(trans, start=2):
        entries.append({
            "name": f"x{i}", "sort": "B", "parents": [f"x{i - 1}"],
            "rows": [[0, [[1, q0], [0, 1.0 - q0]]], [1, [[1, q1], [0, 1.0 - q1]]]],
        })
    sig_doc = {"sorts": ["B"], "preds": {"eq": {"args": ["B", "B"]}}}
    doc = {
        "sorts": {"B": {"kind": "enum", "values": [0, 1]}},
        "preds": {"eq": {"kind": "builtin", "name": "eq"}},
        "network": {"vars": entries},
    }
    return sig_doc, doc, p1, trans


def forward(p, trans):
    """P(x_n = 1) by the closed-form forward pass from P(x_1 = 1) = p."""
    for q0, q1 in trans:
        p = (1.0 - p) * q0 + p * q1
    return p


class TestLongChain:
    def test_200_variable_chain_matches_forward_pass(self):
        rng = random.Random(200)
        sig_doc, doc, p1, trans = chain_system(200, rng)
        network, sig2, interp2 = load_system(sig_doc, doc)
        start = time.perf_counter()
        marginal, _ = wmc(network, sig2, interp2, "eq(x200, 1)")
        joint, _ = wmc(network, sig2, interp2, "eq(x1, 1) & eq(x200, 1)")
        middle, _ = wmc(network, sig2, interp2, "eq(x100, 0) -> eq(x150, 1)")
        elapsed = time.perf_counter() - start
        assert abs(marginal - forward(p1, trans)) <= 1e-9
        assert abs(joint - p1 * forward(1.0, trans)) <= 1e-9
        # P(x100 = 0 -> x150 = 1) = 1 - P(x100 = 0) * P(x150 = 0 | x100 = 0)
        p100 = forward(p1, trans[:99])
        expected = 1.0 - (1.0 - p100) * (1.0 - forward(0.0, trans[99:149]))
        assert abs(middle - expected) <= 1e-9
        assert elapsed < 1.0


def fanin_system(rng, n_vars=7, size=3, fan_in=3):
    """A network whose variables after the roots each have ``fan_in`` parents."""
    values = list(range(size))
    names = [f"x{i + 1}" for i in range(n_vars)]
    entries = []
    for i, name in enumerate(names):
        parents = sorted(rng.sample(names[:i], fan_in)) if i >= fan_in else []
        combos = [()]
        for _ in parents:
            combos = [c + (v,) for c in combos for v in values]
        rows = [[*c, [[v, p] for v, p in random_dist_pairs(rng, values)]] for c in combos]
        entries.append({"name": name, "sort": "S", "parents": parents, "rows": rows})
    sig_doc = {"sorts": ["S"], "preds": {"eq": {"args": ["S", "S"]}}}
    doc = {
        "sorts": {"S": {"kind": "enum", "values": values}},
        "preds": {"eq": {"kind": "builtin", "name": "eq"}},
        "network": {"vars": entries},
    }

    def atom():
        return f"eq({rng.choice(names)}, {rng.choice(values)})"

    queries = [
        atom(),
        f"({atom()}) & ({atom()}) | !({atom()})",
        f"({atom()}) -> ({atom()}) & ({atom()})",
        f"exists v:S. eq({names[-1]}, v) & eq({rng.choice(names[:-1])}, v)",
        f"forall v:S. !eq({rng.choice(names)}, v) | eq({names[0]}, v)",
    ]
    return sig_doc, doc, queries


class TestFanIn:
    def test_random_fan_in_networks_match_bruteforce(self):
        rng = random.Random(33)
        for _ in range(8):
            sig_doc, doc, queries = fanin_system(rng)
            network, sig2, interp2 = load_system(sig_doc, doc)
            assert max(len(v.parents) for v in network.vars) >= 3
            for text in queries:
                value, query = wmc(network, sig2, interp2, text)
                assert abs(value - wmc_bruteforce(network, interp2, query)) <= 1e-9, text


class CountingRows(dict):
    """Table rows that count lookups per argument tuple."""

    def __init__(self, rows):
        super().__init__(rows)
        self.lookups = {}

    def __getitem__(self, key):
        self.lookups[key] = self.lookups.get(key, 0) + 1
        return super().__getitem__(key)


SIG = Signature(
    sorts=frozenset(("S",)),
    mfuncs={"m": (("S",), "S")},
    preds={"q": ("S",), "r": ("S", "S")},
)
VALUES = (0, 1, 2)


def counting_interp(kind):
    def payload(v):
        if kind == IDENTITY:
            return v
        if kind == NONEMPTY_SET:
            return frozenset((v, (v + 1) % 3))
        return Dist(((v, 0.75), ((v + 1) % 3, 0.25)))

    rows = CountingRows({(v,): payload((v + 1) % 3) for v in VALUES})
    interp = Interpretation(
        kind=kind,
        sorts={"S": EnumDomain(VALUES)},
        mfuncs={"m": CTable(rows)},
        preds={
            "q": TableFunc({(v,): v != 1 for v in VALUES}),
            "r": TableFunc({(a, b): a <= b for a in VALUES for b in VALUES}),
        },
    )
    return interp, rows


class TestCacheKeys:
    @pytest.mark.parametrize("kind", [IDENTITY, NONEMPTY_SET, DISTRIBUTION, SAMPLER])
    def test_bind_runs_once_per_restricted_valuation(self, kind):
        # the bind reads only x; y ranges over three values around it
        interp, rows = counting_interp(kind)
        f = parse_formula("forall x:S. forall y:S. ([z := m(x)] q(z)) & r(x, y)", SIG)
        evaluate_sentence(f, framework(kind), interp, budget=50, seed=3)
        assert rows.lookups == {(v,): 1 for v in VALUES}

    def test_bind_runs_once_per_restricted_valuation_of_an_open_formula(self):
        interp, rows = counting_interp(DISTRIBUTION)
        f = parse_formula("[z := m(x)] r(z, y)", SIG, free={"x": "S", "y": "S"})
        denotation = compile_formula(f, framework(DISTRIBUTION), interp)
        for x in VALUES:
            for y in VALUES:
                for unused in range(2):
                    denotation({"x": x, "y": y, "unused": unused})
        assert rows.lookups == {(v,): 3 for v in VALUES}

    def test_inner_binds_of_an_open_run_are_numbered_within_one_call(self):
        # only the run's table on (x, y) is kept across calls: each new (x, y)
        # looks m up at x and at both outcomes w, which a later call with
        # the same w does again
        interp, rows = counting_interp(DISTRIBUTION)
        f = parse_formula("[w := m(x)] [z := m(w)] r(z, y)", SIG, free={"x": "S", "y": "S"})
        denotation = compile_formula(f, framework(DISTRIBUTION), interp)
        for x in VALUES:
            for y in VALUES:
                for unused in range(2):
                    denotation({"x": x, "y": y, "unused": unused})
        assert rows.lookups == {(v,): 9 for v in VALUES}

    def test_true_and_one_are_separate_entries(self):
        sig = Signature(
            sorts=frozenset(("N",)),
            funcs={"add": (("N", "N"), "N")},
            mfuncs={"m": (("N",), "N")},
            preds={"gt": ("N", "N")},
        )
        rows = CountingRows({(1,): Dist(((0, 0.5), (1, 0.5)))})
        interp = Interpretation(
            kind=DISTRIBUTION,
            sorts={"N": EnumDomain((0, 1))},
            funcs={"add": BuiltinFunc("add")},
            mfuncs={"m": CTable(rows)},
            preds={"gt": BuiltinFunc("gt")},
        )
        f = parse_formula("[y := m(x)] gt(add(x, y), 1)", sig, free={"x": "N"})
        denotation = compile_formula(f, framework(DISTRIBUTION), interp)
        assert denotation({"x": 1}) == 0.5
        assert denotation({"x": 1.0}) == 0.5
        # add rejects booleans, so a shared entry would hide the error
        with pytest.raises(EvalTypeError):
            denotation({"x": True})
        assert rows.lookups == {(1,): 3}
        assert denotation({"x": 1}) == 0.5 and rows.lookups == {(1,): 3}


class TestOpenFormulas:
    @pytest.mark.parametrize("kind", [IDENTITY, NONEMPTY_SET, DISTRIBUTION, SAMPLER])
    @pytest.mark.parametrize("text", ["[z := m(x)] q(z)", "[z := m(0)] r(z, x)"])
    def test_missing_variable_under_a_bind(self, kind, text):
        interp, _ = counting_interp(kind)
        f = parse_formula(text, SIG, free={"x": "S"})
        with pytest.raises(OpenFormulaError, match="'x'"):
            eval_formula(f, framework(kind), interp, {"y": 0})

    def test_missing_variable_under_a_quantifier(self):
        interp, _ = counting_interp(DISTRIBUTION)
        f = parse_formula("forall y:S. r(x, y)", SIG, free={"x": "S"})
        with pytest.raises(OpenFormulaError, match="'x'"):
            eval_formula(f, framework(DISTRIBUTION), interp, {})


class TestTableLifetimes:
    def test_sampler_body_values_are_reused_across_chunks(self):
        # the bind body reads only h, so it runs once per value of h for the
        # whole budget, not once per chunk of draws
        sig = Signature(
            sorts=frozenset(("S",)), mfuncs={"m": ((), "S")}, preds={"r": ("S", "S")},
        )
        lookups = []
        for budget in (1000, 5000):
            rows = CountingRows({(a, b): a <= b for a in VALUES for b in VALUES})
            interp = Interpretation(
                kind=SAMPLER,
                sorts={"S": EnumDomain(VALUES)},
                mfuncs={"m": CTable({(): Dist(((0, 0.25), (1, 0.25), (2, 0.5)))})},
                preds={"r": TableFunc(rows)},
            )
            f = parse_formula("[h := m()] forall x:S. r(x, h)", sig)
            evaluate_sentence(f, framework(SAMPLER), interp, budget=budget, seed=4)
            lookups.append(sum(rows.lookups.values()))
        assert lookups == [9, 9]

    def test_exact_tables_keep_memory_bounded(self):
        # every valuation restricts to a new x; keeping them all would grow
        # memory with the number of valuations
        sig = Signature(sorts=frozenset(("S", "T")), preds={"r": ("S", "T")})
        interp = Interpretation(
            kind=DISTRIBUTION,
            sorts={"S": IntRangeDomain(0, 19999), "T": EnumDomain((0, 1, 2))},
            preds={"r": BuiltinFunc("lt")},
        )
        f = parse_formula("exists y:T. r(x, y)", sig, free={"x": "S"})
        peaks = []
        for count in (5000, 20000):
            denotation = compile_formula(f, framework(DISTRIBUTION), interp)
            tracemalloc.start()
            try:
                for x in range(count):
                    assert denotation({"x": x}) == (1.0 if x < 2 else 0.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


def document(sig_doc, interp_doc, kind):
    sig = parse_signature(json.dumps(sig_doc))
    return sig, load_interpretation(interp_doc, sig, kind)


def outcome(fn):
    """A value with its type, or the type of the error raised instead."""
    try:
        value = fn()
    except EngineError as exc:
        return ("error", type(exc))
    return (type(value), value)


def rows_in(kind, table):
    """Document rows ``[*args, payload]`` in the form ``kind`` loads."""
    if kind == NONEMPTY_SET:
        return [[*args, [v for v, _ in pairs]] for args, pairs in table]
    return [[*args, [list(vp) for vp in pairs]] for args, pairs in table]


EXACT = [IDENTITY, NONEMPTY_SET, DISTRIBUTION]
STOCHASTIC = ("bernoulli", "normal", "uniform_real")


def stochastic_system(values):
    """Builtin draws over a real line ``Num`` plus an enum sort ``S``."""
    sig = parse_signature(json.dumps({
        "sorts": ["Num", "S"],
        "mfuncs": {"bernoulli": {"args": ["Num"], "result": "Num"},
                   "normal": {"args": ["Num", "Num"], "result": "Num"},
                   "uniform_real": {"args": ["Num", "Num"], "result": "Num"}},
        "preds": {"gt": {"args": ["Num", "Num"]}},
    }))
    interp = load_interpretation({
        "sorts": {"Num": {"kind": "real_interval"}, "S": {"kind": "enum", "values": values}},
        "mfuncs": {n: {"kind": "builtin", "name": n} for n in STOCHASTIC},
        "preds": {"gt": {"kind": "builtin", "name": "gt"}},
    }, sig, SAMPLER)
    return sig, interp


class TestValueFacts:
    """Each binder fixes a fact about its variable's values; tables whose
    variables all take type-faithful values key rows by the values alone,
    and must count the same rows as new as typed keys do."""

    @pytest.mark.parametrize("kind", EXACT)
    def test_a_ctable_yielding_one_and_true_keeps_typed_keys(self, kind):
        # m(0) yields 1 and m(1) yields True; the int row comes first, so a
        # table keyed by y alone would hand the True row the int row's value
        sig_doc = {
            "sorts": ["S", "N"],
            "funcs": {"add": {"args": ["N", "N"], "result": "N"}},
            "mfuncs": {"m": {"args": ["S"], "result": "N"}},
            "preds": {"gt": {"args": ["N", "N"]}},
        }
        interp_doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1]},
                      "N": {"kind": "enum", "values": [0, 1, 2]}},
            "funcs": {"add": {"kind": "builtin", "name": "add"}},
            "mfuncs": {"m": {"kind": "ctable",
                             "rows": rows_in(kind, [((0,), ((1, 1.0),)), ((1,), ((True, 1.0),))])}},
            "preds": {"gt": {"kind": "builtin", "name": "gt"}},
        }
        sig, interp = document(sig_doc, interp_doc, kind)
        assert interp.mfuncs["m"].fact(effects.monad(kind)) is None
        fw = framework(kind)
        f = parse_formula("forall x:S. [y := m(x)] exists w:N. gt(add(y, w), 0)", sig)
        # add rejects booleans, so a shared entry would hide the error
        with pytest.raises(EvalTypeError):
            evaluate_sentence(f, fw, interp)
        with pytest.raises(EvalTypeError):
            reference_exact(f, fw, interp, {})

    @pytest.mark.parametrize("kind", EXACT)
    def test_an_enum_of_mixed_types_matches_the_reference(self, kind):
        values = [True, 2, 2.5, "a"]
        rng = random.Random(f"mixed:{kind}")
        table = []
        for v in values:
            support = rng.sample(values, 1 if kind == IDENTITY else rng.randint(1, 3))
            table.append(((v,), tuple(zip(support, [1.0 / len(support)] * len(support)))))
        sig_doc = {
            "sorts": ["S"],
            "mfuncs": {"m": {"args": ["S"], "result": "S"}},
            "preds": {"r": {"args": ["S", "S"]}, "eq": {"args": ["S", "S"]}},
        }
        interp_doc = {
            "sorts": {"S": {"kind": "enum", "values": values}},
            "mfuncs": {"m": {"kind": "ctable", "rows": rows_in(kind, table)}},
            "preds": {"r": {"kind": "table",
                            "rows": [[a, b, rng.random() < 0.5] for a in values for b in values]},
                      "eq": {"kind": "builtin", "name": "eq"}},
        }
        sig, interp = document(sig_doc, interp_doc, kind)
        assert interp.mfuncs["m"].fact(effects.monad(kind)) == FAITHFUL
        fw = framework(kind)
        for text in [
            "forall x:S. exists y:S. [z := m(x)] (eq(z, y) | r(x, z))",
            "exists x:S. forall y:S. [z := m(y)] [u := m(z)] (r(u, x) -> eq(x, y))",
            "forall x:S. [z := m(x)] exists y:S. r(z, y) & !eq(y, x)",
        ]:
            f = parse_formula(text, sig)
            assert outcome(lambda: evaluate_sentence(f, fw, interp).value) == outcome(
                lambda: reference_exact(f, fw, interp, {})), text

    def test_the_outcome_fact_is_found_once_per_table(self):
        class CountingValues(dict):
            reads = 0

            def values(self):
                CountingValues.reads += 1
                return super().values()

        table = CTable(CountingValues({(v,): Dist(((v, 0.5), ((v + 1) % 3, 0.5))) for v in VALUES}))
        interp = Interpretation(kind=DISTRIBUTION, sorts={"S": EnumDomain(VALUES)},
                                mfuncs={"m": table}, preds=counting_interp(DISTRIBUTION)[0].preds)
        f = parse_formula("forall x:S. [z := m(x)] q(z)", SIG)
        for _ in range(3):
            evaluate_sentence(f, framework(DISTRIBUTION), interp)
        assert CountingValues.reads == 1 and table.fact(effects.monad(DISTRIBUTION)) == FAITHFUL

    def test_builtin_facts(self):
        _, interp = stochastic_system([0])
        facts = {n: computational_fact(interp, n) for n in STOCHASTIC}
        assert facts == {"bernoulli": FAITHFUL, "normal": CONTINUOUS, "uniform_real": CONTINUOUS}
        assert value_fact((True, 2, 2.5, "a")) == FAITHFUL
        assert value_fact((1, True)) is None and value_fact((1.0, 1)) is None

    def test_a_draw_repeated_by_a_quantifier_keeps_its_table(self, monkeypatch):
        # inside the quantifier each draw of t meets every item of S, so
        # normal(t, 1) is built once per draw, not once per row
        built = []
        arity, fact, normal = model._BUILTIN_STOCH["normal"]
        monkeypatch.setitem(model._BUILTIN_STOCH, "normal",
                            (arity, fact, lambda args, monad: built.append(args) or normal(args, monad)))
        sig, interp = stochastic_system([0, 1, 2])
        f = parse_formula("[t := normal(0, 1)] forall x:S. [u := normal(t, 1)] gt(u, t)", sig)
        evaluate_sentence(f, framework(SAMPLER), interp, budget=1500, seed=2)
        assert len(built) == 1 + 1500 and len(set(map(tuple, built))) == 1501


def repeated_valuations(denotation):
    """Apply an open denotation in ``x`` to each value of ``x`` four times,
    twice with each value of a variable the formula does not read."""
    for _ in range(2):
        for x in VALUES:
            for unused in range(2):
                denotation({"x": x, "unused": unused})


class TestRowDistinctness:
    """A quantifier or run whose incoming rows are pairwise distinct on
    variables it reads keeps no table; the values stay those of the
    tables."""

    @pytest.mark.parametrize("kind", EXACT)
    @pytest.mark.parametrize("text, lookups", [
        # the root quantifier's table serves repeated x; the run beneath it
        # reads x and y, on which its rows are distinct
        ("forall y:S. [z := m(x)] r(z, y)", 3),
        # this run reads only x, and its rows repeat x once per y
        ("exists y:S. ([z := m(x)] q(z)) & r(x, y)", 1),
    ])
    def test_open_formulas_look_up_as_with_every_table(self, kind, text, lookups):
        interp, rows = counting_interp(kind)
        f = parse_formula(text, SIG, free={"x": "S"})
        repeated_valuations(compile_formula(f, framework(kind), interp))
        assert rows.lookups == {(v,): lookups for v in VALUES}

    @pytest.mark.parametrize("kind", EXACT)
    @pytest.mark.parametrize("values", [(0, 1, 1, 2), (0, 1, True, 1.0, 2)],
                             ids=["repeated_item", "one_true_and_one_float"])
    def test_enums_whose_items_are_not_distinct_keys_match_the_reference(self, kind, values):
        interp = counting_interp(kind)[0]
        interp = Interpretation(kind=kind, sorts={"S": EnumDomain(values)},
                                mfuncs=interp.mfuncs, preds=interp.preds)
        fw = framework(kind)
        for text in [
            "forall x:S. exists y:S. [z := m(x)] (r(z, y) | q(x))",
            "exists x:S. forall y:S. r(x, y) -> ([z := m(y)] q(z))",
            "forall x:S. exists y:S. forall w:S. r(x, w) | r(w, y)",
            "exists x:S. forall y:S. [z := m(x)] [u := m(y)] (r(z, u) & !r(x, y))",
        ]:
            f = parse_formula(text, SIG)
            assert evaluate_sentence(f, fw, interp).value == reference_exact(f, fw, interp, {}), text

    @pytest.mark.parametrize("kind", EXACT)
    def test_only_the_root_table_of_a_nested_sentence_sees_only_new_rows(self, kind, monkeypatch):
        # shaped like forall x. exists y. [l := cls(x)][k := cls(y)] same(l, k) & !r(x, y)
        seen = {}
        new_rows = semantics._Table.new_rows

        def counted(table, cols, n):
            keys, new, sub = new_rows(table, cols, n)
            seen.setdefault(id(table), (table.names, []))[1].append((n, len(new)))
            return keys, new, sub

        monkeypatch.setattr(semantics._Table, "new_rows", counted)
        interp, _ = counting_interp(kind)
        f = parse_formula("forall x:S. exists y:S. [l := m(x)] [k := m(y)] (r(l, k) & !r(x, y))", SIG)
        denotation = compile_formula(f, framework(kind), interp)
        assert denotation({}) == reference_exact(f, framework(kind), interp, {})
        only_new = [(names, calls) for names, calls in seen.values() if all(n == k for n, k in calls)]
        assert only_new == [((), [(1, 1)])]

    def test_free_variables_come_from_one_walk_per_outermost_quantifier(self, monkeypatch):
        # compilation stays linear in the formula's size: every node finds
        # its free variables in one walk of the root
        walked = []
        free_sets = syntax.free_sets

        def counted(f):
            frees = free_sets(f)
            walked.append(len(frees))
            return frees

        monkeypatch.setattr(syntax, "free_sets", counted)
        interp, _ = counting_interp(DISTRIBUTION)
        fw = framework(DISTRIBUTION)
        f = parse_formula("(forall a:S. exists b:S. forall c:S. r(a, b) | r(b, c)) & (exists d:S. q(d))", SIG)
        compile_formula(f, fw, interp)
        assert walked == [9]
        walked.clear()
        deep = syntax.Atom("q", (syntax.Var("x0", "S"),))
        for i in reversed(range(300)):
            deep = syntax.Forall(f"x{i}", "S", deep)
        compile_formula(deep, fw, interp)
        assert walked == [301]
