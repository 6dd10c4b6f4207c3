"""The batched exact evaluator against a per-valuation reference."""

import dataclasses
import json
import random
from collections import Counter

import pytest

from monadlogic import (
    DISTRIBUTION,
    IDENTITY,
    LP3,
    NONEMPTY_SET,
    CTable,
    Dist,
    evaluate_sentence,
    load_interpretation,
    make_framework,
    parse_algebra_string,
    parse_signature,
    syntax,
)
from monadlogic.errors import EngineError
from monadlogic.semantics import compile_formula
from monadlogic.transforms import argmax_interpretation

from helpers import (
    finite_system,
    interpret,
    node_types,
    random_checked_formula,
    random_sampler_formula,
    reference_exact,
)

FRAMEWORKS = {
    "classical": (IDENTITY, "boolean"),
    "lp": (NONEMPTY_SET, "priest"),
    "product": (DISTRIBUTION, "product"),
    "sproduct": (DISTRIBUTION, "sproduct"),
    "ltn_p1": (DISTRIBUTION, "ltn:p=1"),
    "ltn_p2": (DISTRIBUTION, "ltn:p=2"),
    "ltn_q": (DISTRIBUTION, "ltnq:q=0.75"),
    "stl": (DISTRIBUTION, "stl:r=2"),
}


def framework(label):
    kind, selection = FRAMEWORKS[label]
    return make_framework(kind, parse_algebra_string(selection))


def outcome(fn):
    """A value with its type, or the code of the error raised instead."""
    try:
        value = fn()
    except EngineError as exc:
        return ("error", exc.code)
    return (type(value), value)


def system(rng, label):
    """A finite system loaded for the framework, with computational
    predicates ``mq`` (unary) and ``mp`` (nullary) added.

    Classical systems have point-mass rows; under ``lp`` the rows go
    through the argmax transformation, and some rows are uniform so that
    ties give the value B; ``stl`` rows of ``mq`` are numeric robustness
    values.
    """
    dirac = label == "classical" or (label == "stl" and rng.random() < 0.5)
    _, values, rows, base = finite_system(rng, dirac=dirac)
    if label == "lp":
        for k, pairs in rows["m"].items():
            if len(pairs) > 1 and rng.random() < 0.4:
                rows["m"][k] = tuple((v, 1.0 / len(pairs)) for v, _ in pairs)

    def coin(true, false):
        if dirac:
            return ((rng.choice((true, false)), 1.0),)
        p = 0.5 if label == "lp" and rng.random() < 0.4 else rng.uniform(0.1, 0.9)
        return ((true, p), (false, 1.0 - p))

    if label == "stl":
        mq = {(v,): coin(round(rng.uniform(0.1, 2.0), 3), -round(rng.uniform(0.1, 2.0), 3))
              for v in values}
    else:
        mq = {(v,): coin(True, False) for v in values}
    mpreds = {"mq": mq, "mp": {(): coin(True, False)}}
    if label == "classical":
        interp = interpret(values, rows, IDENTITY)
        payload = lambda pairs: pairs[0][0]
    else:
        interp = interpret(values, rows, DISTRIBUTION)
        payload = Dist
    interp = dataclasses.replace(interp, mpreds={
        name: CTable({k: payload(pairs) for k, pairs in table.items()})
        for name, table in mpreds.items()
    })
    if label == "lp":
        interp = argmax_interpretation(interp)
    return interp, base


@pytest.mark.parametrize("label", list(FRAMEWORKS))
class TestAgainstPerValuationReference:
    def test_random_finite_system_sentences(self, label):
        rng = random.Random(f"exact:{label}")
        fw = framework(label)
        shapes, results = Counter(), Counter()
        for i in range(200):
            interp, base = system(rng, label)
            if i % 4 == 0:
                f = base
            else:
                mpreds = ("mq", "mp") if label != "classical" or i % 8 == 1 else ()
                f = random_sampler_formula(rng, depth=rng.randint(2, 5), mpreds=mpreds)
            shapes.update(node_types(f))
            batch = outcome(lambda: evaluate_sentence(f, fw, interp).value)
            assert batch == outcome(lambda: reference_exact(f, fw, interp, {})), f
            results[batch[0] if batch[0] == "error" else batch[1]] += 1
        for name in ("Bind", "And", "Or", "Implies", "Not", "Forall", "Exists", "Atom"):
            assert shapes[name] >= 20, shapes
        if label != "classical":
            assert shapes["MAtom"] >= 20 and shapes["MProp"] >= 5, shapes
        # most sentences evaluate; errors are compared by code
        assert sum(n for r, n in results.items() if r != "error") >= 100, results
        if label == "lp":
            assert results[LP3.B] >= 10, results

    def test_one_denotation_over_many_valuations(self, label):
        # each node's table outlives a call, so later valuations reuse it
        rng = random.Random(f"open:{label}")
        fw = framework(label)
        for _ in range(40):
            interp, _ = system(rng, label)
            body = random_sampler_formula(rng, depth=rng.randint(2, 4)).body
            denotation = compile_formula(body, fw, interp)
            values = list(interp.sorts["S"].values) * 2
            rng.shuffle(values)
            for x in values:
                assert outcome(lambda: denotation({"x": x})) == outcome(
                    lambda: reference_exact(body, fw, interp, {"x": x})), (body, x)


@pytest.mark.parametrize("label", [label for label in FRAMEWORKS if label != "classical"])
def test_random_traffic_sentences(label, demo_text):
    sig = parse_signature(demo_text("traffic.sig.json"))
    interp = load_interpretation(json.loads(demo_text("traffic.interp.json")), sig, DISTRIBUTION)
    if label == "lp":
        interp = argmax_interpretation(interp)
    fw = framework(label)
    rng = random.Random(f"traffic:{label}")
    binds = 0
    for _ in range(300):
        f = random_checked_formula(rng, sig, depth=5)
        binds += node_types(f)["Bind"]
        assert outcome(lambda: evaluate_sentence(f, fw, interp).value) == outcome(
            lambda: reference_exact(f, fw, interp, {})), f
    assert binds >= 20


def test_the_traffic_demo_sentence(demo_text):
    sig = parse_signature(demo_text("traffic.sig.json"))
    interp = load_interpretation(json.loads(demo_text("traffic.interp.json")), sig, DISTRIBUTION)
    f = syntax.parse_formula(demo_text("traffic.formula"), sig)
    for label in ("lp", "product", "stl"):
        target = argmax_interpretation(interp) if label == "lp" else interp
        fw = framework(label)
        assert outcome(lambda: evaluate_sentence(f, fw, target).value) == outcome(
            lambda: reference_exact(f, fw, target, {}))
