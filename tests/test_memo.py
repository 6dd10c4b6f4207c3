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
from monadlogic.errors import EvalTypeError, OpenFormulaError
from monadlogic.model import BuiltinFunc
from monadlogic.semantics import compile_formula
from monadlogic.syntax import Signature

from helpers import random_dist_pairs

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
