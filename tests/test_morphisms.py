"""Monad morphisms on Dirac tables.

Point-mass rows read the same under the identity, distribution and
non-empty-set monads, so a sentence without computational atoms has one
value across the frameworks: ``True`` is ``1.0`` is ``T`` and ``False`` is
``0.0`` is ``F``, exactly, and a failing sentence fails with the same
error code everywhere.
"""

import random

from monadlogic import (
    DISTRIBUTION,
    IDENTITY,
    LP3,
    NONEMPTY_SET,
    eval_formula,
    make_algebra,
    make_framework,
)
from monadlogic.errors import EngineError

from helpers import finite_system, interpret, node_types, random_sampler_formula

FRAMEWORKS = (
    (IDENTITY, "boolean", {True: True, False: False}),
    (DISTRIBUTION, "product", {True: 1.0, False: 0.0}),
    (DISTRIBUTION, "sproduct", {True: 1.0, False: 0.0}),
    (NONEMPTY_SET, "priest", {True: LP3.T, False: LP3.F}),
)


def outcome(f, kind, algebra, truth, values, rows):
    """The sentence's value read back as a bool, or its error code."""
    fw = make_framework(kind, make_algebra(algebra))
    try:
        value = eval_formula(f, fw, interpret(values, rows, kind), {})
    except EngineError as exc:
        return "error", exc.code
    reading = {v: b for b, v in truth.items()}
    assert type(value) is type(truth[True]) and value in reading, (algebra, value)
    return "value", reading[value]


def sentences(rng, count):
    for i in range(count):
        _, values, rows, f = finite_system(rng, dirac=True)
        if i % 2:
            f = random_sampler_formula(rng, depth=rng.randint(2, 5))
        yield values, rows, f


class TestDiracTables:
    def test_classical_distributional_and_three_valued_agree(self):
        rng = random.Random(77)
        shapes, seen = set(), set()
        for values, rows, f in sentences(rng, 300):
            kinds = node_types(f)
            assert not kinds["MAtom"] and not kinds["MProp"]  # no classical reading
            shapes.update(kinds)
            outcomes = {outcome(f, kind, algebra, truth, values, rows)
                        for kind, algebra, truth in FRAMEWORKS}
            assert len(outcomes) == 1, (f, outcomes)
            seen |= outcomes
        assert {("value", True), ("value", False)} <= seen
        for name in ("Forall", "Exists", "Bind", "Not", "And", "Or", "Implies", "Atom"):
            assert name in shapes, shapes
