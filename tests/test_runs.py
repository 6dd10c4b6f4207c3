"""Bind runs: a maximal run of binds evaluates as one node that loops.

``top`` is the unit of every algebra's conjunction, so splitting a run
with it (``[x := m()] (top & [y := n(x)] B)``) must leave every value
unchanged, bit for bit.  The split parts are runs of their own, each keyed
by its top table, where the whole run keys its levels' frontiers inside
one call, so the two forms check each other; the per-valuation reference
checks both.
"""

import random

import pytest

from monadlogic import (
    DISTRIBUTION,
    IDENTITY,
    NONEMPTY_SET,
    CTable,
    Dist,
    EnumDomain,
    Interpretation,
    TableFunc,
    evaluate_sentence,
    make_framework,
    parse_algebra_string,
)
from monadlogic.errors import EngineError
from monadlogic.model import BuiltinFunc
from monadlogic.syntax import And, App, Atom, Bind, Exists, Implies, Lit, MAtom, Not, Or, Top, Var

from helpers import reference_exact

FRAMEWORKS = {
    "classical": (IDENTITY, "boolean"),
    "lp": (NONEMPTY_SET, "priest"),
    "product": (DISTRIBUTION, "product"),
    "stl": (DISTRIBUTION, "stl:r=2"),
}
# the row keys of every table; ``True`` and ``1.0`` find the rows of ``1``
KEYS = (0, 1, 2)
# outcomes of the same key that are == with different types
ONE = (1, True, 1.0)


def framework(label):
    kind, selection = FRAMEWORKS[label]
    return make_framework(kind, parse_algebra_string(selection))


def outcome(fn):
    """The repr of a value, or the code of the error raised instead."""
    try:
        return repr(fn())
    except EngineError as exc:
        return ("error", exc.code)


def payload(rng, kind, values):
    """A table row of the monad ``kind`` over distinct ``values``."""
    if kind == IDENTITY:
        return values[0]
    if kind == NONEMPTY_SET:
        return frozenset(values)
    weights = [rng.random() + 0.1 for _ in values]
    return Dist(zip(values, [w / sum(weights) for w in weights]))


def combos(arity):
    out = [()]
    for _ in range(arity):
        out = [c + (k,) for c in out for k in KEYS]
    return out


def run_system(rng, label, n_levels, fan_in, mixed):
    """A random run of binds with its interpretation.

    Level ``i`` binds ``c{i}`` of the variable bound last (``fan_in`` 1)
    or of up to ``fan_in`` variables bound before it; now and then it
    rebinds one of them.  ``mixed`` lets outcomes of the key 1 be any of
    1, True and 1.0, so the values are not type-faithful.  Returns
    (interpretation, levels, body).
    """
    kind = FRAMEWORKS[label][0]
    levels, visible, mfuncs = [], [], {}
    for i in range(n_levels):
        if fan_in == 1:
            parents = visible[-1:]
        else:
            parents = rng.sample(visible, min(len(visible), rng.randint(0, fan_in)))
        var = parents[0] if parents and rng.random() < 0.15 else f"x{i}"
        rows = {}
        for combo in combos(len(parents)):
            keys = rng.sample(KEYS, 1 if kind == IDENTITY else rng.randint(1, len(KEYS)))
            values = [rng.choice(ONE) if mixed and k == 1 else k for k in keys]
            rows[combo] = payload(rng, kind, values)
        mfuncs[f"c{i}"] = CTable(rows)
        levels.append((var, f"c{i}", tuple(parents)))
        if var in visible:
            visible.remove(var)
        visible.append(var)

    if label == "stl":
        def coin(k):  # robustness outcomes, never both infinities
            p, good, bad = 0.5 + k / 10, rng.uniform(0.1, 2.0), -rng.uniform(0.1, 2.0)
            return Dist(((round(good, 3), p), (round(bad, 3), 1.0 - p)))
    elif kind == NONEMPTY_SET:
        def coin(k):
            return frozenset(rng.choice(((True,), (False,), (True, False))))
    else:
        def coin(k):
            p = rng.uniform(0.1, 0.9)
            return Dist(((True, p), (False, 1.0 - p)))
    interp = Interpretation(
        kind=kind,
        sorts={"S": EnumDomain(KEYS)},
        funcs={"add": BuiltinFunc("add")},
        mfuncs=mfuncs,
        preds={
            "q": TableFunc({(k,): rng.random() < 0.5 for k in KEYS}),
            "r": TableFunc({(a, b): rng.random() < 0.5 for a in KEYS for b in KEYS}),
            "gt": BuiltinFunc("gt"),
        },
        mpreds={} if kind == IDENTITY else {"s": CTable({(k,): coin(k) for k in KEYS})},
    )

    def var():
        return Var(rng.choice(visible), "S")

    def atom():
        if label == "stl":  # crisp atoms would mix both infinities in a bind
            pick = "s"
        else:
            pick = rng.choice(["q", "r", "exists", "gt"] + ["s"] * (kind != IDENTITY))
        if pick == "s":
            return MAtom("s", (var(),))
        if pick == "q":
            return Atom("q", (var(),))
        if pick == "r":
            return Atom("r", (var(), var()))
        if pick == "exists":
            return Exists("v", "S", Atom("r", (var(), Var("v", "S"))))
        # add rejects booleans, so a True outcome keyed as 1 would show
        return Atom("gt", (App("add", (var(), var()), "S"), Lit(1)))

    body = atom()
    for _ in range(rng.randint(0, 2)):
        shape = rng.choice((Not, And, Or, Implies))
        body = Not(body) if shape is Not else shape(body, atom())
    return interp, levels, body


def nest(levels, body, cuts):
    """The run ``levels`` over ``body``, split with ``top &`` before every
    level in ``cuts`` (and before ``body`` for ``len(levels)``)."""
    f = body
    for i in reversed(range(len(levels))):
        if i + 1 in cuts:
            f = And(Top(), f)
        var, symbol, parents = levels[i]
        f = Bind(var, symbol, tuple(Var(p, "S") for p in parents), f)
    return f


@pytest.mark.parametrize("label", ["lp", "product"])
def test_a_frontier_keeps_one_and_true_apart(label):
    # x0 is 0 or 2, c1 maps 0 to 1 and 2 to True, and the frontier after
    # x1 holds x1 alone: a row of 1 must not answer for a row of True, on
    # which add fails
    kind = FRAMEWORKS[label][0]
    rng = random.Random(label)
    interp = Interpretation(
        kind=kind, sorts={"S": EnumDomain(KEYS)}, funcs={"add": BuiltinFunc("add")},
        mfuncs={"c0": CTable({(): payload(rng, kind, [0, 2])}),
                "c1": CTable({(0,): payload(rng, kind, [1]), (2,): payload(rng, kind, [True])}),
                "c2": CTable({(k,): payload(rng, kind, [0, 2]) for k in KEYS})},
        preds={"gt": BuiltinFunc("gt")},
    )
    body = Atom("gt", (App("add", (Var("x1", "S"), Var("x2", "S")), "S"), Lit(1)))
    levels = [("x0", "c0", ()), ("x1", "c1", ("x0",)), ("x2", "c2", ("x1",))]
    fw = framework(label)
    for cuts in ((), (1, 2, 3)):
        f = nest(levels, body, set(cuts))
        assert outcome(lambda: evaluate_sentence(f, fw, interp).value) == ("error", "TypeError")


@pytest.mark.parametrize("label", list(FRAMEWORKS))
@pytest.mark.parametrize("shape", ["chain", "fan-in"])
def test_splitting_a_run_keeps_every_value(label, shape):
    rng = random.Random(f"runs:{label}:{shape}")
    fw = framework(label)
    values = rebound = 0
    for i in range(60):
        if shape == "chain":
            n_levels, fan_in = rng.randint(2, 25), 1
        else:
            n_levels, fan_in = rng.randint(3, 6), 3
        interp, levels, body = run_system(rng, label, n_levels, fan_in, mixed=i % 2 == 1)
        n = len(levels)
        whole = nest(levels, body, ())
        want = outcome(lambda: evaluate_sentence(whole, fw, interp).value)
        if n <= 6:  # the reference walks every path of the run
            assert want == outcome(lambda: reference_exact(whole, fw, interp, {})), whole
        for cuts in (range(1, n + 1), {rng.randint(1, n)}, {rng.randint(1, n), rng.randint(1, n)}):
            f = nest(levels, body, set(cuts))
            assert outcome(lambda: evaluate_sentence(f, fw, interp).value) == want, (whole, f)
        values += isinstance(want, str)
        rebound += len({var for var, _, _ in levels}) < n
    assert values >= 40 and rebound >= 10, (values, rebound)
