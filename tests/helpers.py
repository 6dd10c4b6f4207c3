"""Shared generators for randomized property tests.

Systems are built directly as in-memory objects so the same row data can
be loaded under several monad kinds (e.g. to compare distributional and
classical evaluation of Dirac tables).
"""

from __future__ import annotations

import math
import random
from collections import Counter

from monadlogic import (
    IDENTITY,
    LP3,
    NONEMPTY_SET,
    CTable,
    Dist,
    EnumDomain,
    Interpretation,
    RandomKey,
    TableFunc,
    WeightedFamily,
    aggregate,
)
from monadlogic import model, syntax
from monadlogic.algebra import snap01
from monadlogic.errors import CarrierMismatchError, KindMismatchError
from monadlogic.syntax import (
    And,
    Atom,
    Bind,
    Exists,
    Forall,
    Implies,
    MAtom,
    MProp,
    Not,
    Or,
    Signature,
    Var,
)


def random_dist_pairs(rng: random.Random, values, dirac: bool = False):
    if dirac:
        return ((rng.choice(values), 1.0),)
    support = rng.sample(values, rng.randint(1, len(values)))
    raw = [rng.random() + 0.1 for _ in support]
    total = sum(raw)
    return tuple((v, w / total) for v, w in zip(support, raw))


def finite_system(rng: random.Random, dirac: bool = False):
    """A one-sort system: predicate q, computational function m, and a
    closed formula quantifying over the sort and binding m.

    Returns (signature, row data, formula).  Use :func:`interpret` to
    realize the rows under a monad kind.
    """
    size = rng.randint(1, 3)
    values = tuple(range(size))
    sig = Signature(
        sorts=frozenset(("S",)),
        mfuncs={"m": (("S",), "S")},
        preds={"q": ("S",), "r": ("S",)},
    )
    rows = {
        "q": {(v,): rng.random() < 0.5 for v in values},
        "r": {(v,): rng.random() < 0.5 for v in values},
        "m": {(v,): random_dist_pairs(rng, values, dirac) for v in values},
    }

    x, y = Var("x", "S"), Var("y", "S")
    atoms = [Atom("q", (x,)), Atom("r", (x,)), Atom("q", (y,)), Atom("r", (y,))]
    body = rng.choice(atoms)
    for _ in range(rng.randint(0, 2)):
        shape = rng.choice(("not", "and", "or", "implies"))
        other = rng.choice(atoms)
        if shape == "not":
            body = Not(body)
        elif shape == "and":
            body = And(body, other)
        elif shape == "or":
            body = Or(body, other)
        else:
            body = Implies(body, other)
    formula = Forall("x", "S", Bind("y", "m", (x,), body))
    return sig, values, rows, formula


def interpret(values, rows, monad_kind: str) -> Interpretation:
    """Realize finite-system rows under a monad kind."""

    def payload(pairs):
        if monad_kind == IDENTITY:
            assert len(pairs) == 1 and pairs[0][1] == 1.0
            return pairs[0][0]
        if monad_kind == NONEMPTY_SET:
            return frozenset(v for v, _ in pairs)
        return Dist(pairs)

    return Interpretation(
        kind=monad_kind,
        sorts={"S": EnumDomain(values)},
        preds={name: TableFunc(dict(rows[name])) for name in ("q", "r")},
        mfuncs={"m": CTable({k: payload(p) for k, p in rows["m"].items()})},
    )


def random_network_system(rng: random.Random, max_vars: int = 4, max_values: int = 3):
    """A random Bayesian network document plus a random query formula text.

    Returns (sig, doc, formula_text) in the JSON document schema so the
    same inputs drive the library and the command line.
    """
    n_vars = rng.randint(1, max_vars)
    size = rng.randint(2, max_values)
    values = list(range(size))
    sig_doc = {
        "sorts": ["S"],
        "preds": {"eq": {"args": ["S", "S"]}},
    }
    names = [f"x{i+1}" for i in range(n_vars)]
    entries = []
    for i, name in enumerate(names):
        parents = [p for p in names[:i] if rng.random() < 0.4][:2]
        rows = []
        combos = [()]
        for _ in parents:
            combos = [c + (v,) for c in combos for v in values]
        for combo in combos:
            pairs = random_dist_pairs(rng, values)
            rows.append([*combo, [[v, p] for v, p in pairs]])
        entries.append({"name": name, "sort": "S", "parents": parents, "rows": rows})
    doc = {
        "sorts": {"S": {"kind": "enum", "values": values}},
        "preds": {"eq": {"kind": "builtin", "name": "eq"}},
        "network": {"vars": entries},
    }

    def atom():
        return f"eq({rng.choice(names)}, {rng.choice(values)})"

    text = atom()
    for _ in range(rng.randint(0, 3)):
        shape = rng.choice(("!", "&", "|", "->"))
        if shape == "!":
            text = f"!({text})"
        else:
            text = f"({text}) {shape} ({atom()})"
    return sig_doc, doc, text


def random_checked_formula(rng: random.Random, sig: syntax.Signature, depth: int = 3):
    """A random well-sorted formula over the traffic-style signature,
    rendered through the public constructors (used for round-trip tests)."""
    def term_colour(env):
        if "l" in env and rng.random() < 0.6:
            return Var("l", "Colour")
        return syntax.App("red", (), "Colour")

    def formula(depth, env):
        roll = rng.random()
        if depth == 0 or roll < 0.25:
            choice = rng.randrange(4)
            if choice == 0:
                return syntax.TOP
            if choice == 1:
                return syntax.BOT
            if choice == 2:
                return Atom("eqc", (term_colour(env), term_colour(env)))
            return Atom("eqa", (syntax.App("go", (), "Action"),) * 2)
        if roll < 0.40:
            return Not(formula(depth - 1, env))
        if roll < 0.55:
            return And(formula(depth - 1, env), formula(depth - 1, env))
        if roll < 0.70:
            return Or(formula(depth - 1, env), formula(depth - 1, env))
        if roll < 0.85:
            return Implies(formula(depth - 1, env), formula(depth - 1, env))
        if roll < 0.95 and "x" not in env:
            return Forall("x", "Crossing", formula(depth - 1, env | {"x"}))
        if "x" in env and "l" not in env:
            return Bind("l", "light", (Var("x", "Crossing"),), formula(depth - 1, env | {"l"}))
        return Atom("eqc", (term_colour(env), term_colour(env)))

    return formula(depth, set())


def random_sampler_formula(rng: random.Random, depth: int = 4, mpreds=()):
    """A random closed formula over the finite-system signature (sort S,
    predicates q and r, computational function m) with nested
    quantifiers, binds and every connective.  ``mpreds`` names unary
    computational predicates to use as atoms as well; the name ``"mp"``
    stands for a nullary one."""
    fresh = iter(f"v{i}" for i in range(10_000))

    def leaf(env):
        choices = [("pred", p) for p in ("q", "r")] + [("mpred", p) for p in mpreds]
        kind, name = rng.choice(choices)
        if kind == "mpred" and name == "mp":
            return MProp("mp")
        if not env:
            return rng.choice((syntax.TOP, syntax.BOT))
        # prefer the innermost variable, often a bind's draw
        arg = (Var(env[-1] if rng.random() < 0.6 else rng.choice(env), "S"),)
        return Atom(name, arg) if kind == "pred" else MAtom(name, arg)

    def formula(depth, env):
        roll = rng.random()
        if depth == 0 or roll < 0.15:
            return leaf(env)
        if roll < 0.25:
            return Not(formula(depth - 1, env))
        if roll < 0.5:
            shape = rng.choice((And, Or, Implies))
            return shape(formula(depth - 1, env), formula(depth - 1, env))
        name = next(fresh)
        if roll < 0.6 or not env:
            quant = rng.choice((Forall, Exists))
            return quant(name, "S", formula(depth - 1, env + [name]))
        arg = (Var(rng.choice(env), "S"),)
        return Bind(name, "m", arg, formula(depth - 1, env + [name]))

    quant = rng.choice((Forall, Exists))
    return quant("x", "S", formula(depth - 1, ["x"]))


def node_types(f):
    """Count the formula's node types, plus quantifiers nested in
    quantifiers and binds below a connective, walking it iteratively."""
    counts = Counter()
    stack = [(f, False, False)]
    while stack:
        node, in_quant, in_conn = stack.pop()
        name = type(node).__name__
        counts[name] += 1
        quant = isinstance(node, (syntax.Forall, syntax.Exists))
        counts["nested quantifier"] += quant and in_quant
        counts["bind below a connective"] += isinstance(node, syntax.Bind) and in_conn
        conn = in_conn or isinstance(node, (syntax.And, syntax.Or, syntax.Implies))
        for field in ("body", "left", "right"):
            if hasattr(node, field):
                stack.append((getattr(node, field), in_quant or quant, conn))
    return counts


def _reference_draw(interp, name, args, key: RandomKey):
    """One draw of a computational symbol at a key, read off the
    interpretation's rows or builtin parameters."""
    impl = interp.mfuncs.get(name) or interp.mpreds.get(name)
    if isinstance(impl, model.BuiltinStoch):
        if impl.name == "bernoulli":
            return 1 if key.uniform(0) < args[0] else 0
        if impl.name == "normal":
            return key.normal(*args)
        return args[0] + key.uniform(0) * (args[1] - args[0])
    pairs = impl.rows[tuple(args)].pairs
    u, acc = key.uniform(0), 0.0
    for v, p in pairs:
        acc += p
        if u < acc:
            return v
    return pairs[-1][0]


def _reference_value(f, interp, nu, key: RandomKey, fixed: RandomKey, budget):
    """The truth value of one draw: ``key`` is the draw's key at this node,
    ``fixed`` the key that fixes interval-quantifier points."""

    def term(t):
        if isinstance(t, syntax.Var):
            return nu[t.name]
        if isinstance(t, syntax.Lit):
            return t.value
        return model.apply_function(interp, t.func, [term(a) for a in t.args])

    if isinstance(f, syntax.Top):
        return True
    if isinstance(f, syntax.Bot):
        return False
    if isinstance(f, syntax.Prop):
        return model.apply_predicate(interp, f.name, ())
    if isinstance(f, syntax.Atom):
        return model.apply_predicate(interp, f.pred, [term(t) for t in f.args])
    if isinstance(f, (syntax.MProp, syntax.MAtom)):
        name, args = (f.name, ()) if isinstance(f, syntax.MProp) else (f.mpred, f.args)
        v = _reference_draw(interp, name, [term(t) for t in args], key)
        assert v in (0, 1)
        return bool(v)
    if isinstance(f, syntax.Not):
        return not _reference_value(f.body, interp, nu, key, fixed, budget)
    if isinstance(f, (syntax.And, syntax.Or, syntax.Implies)):
        a = _reference_value(f.left, interp, nu, key.child(0), fixed.child(0), budget)
        b = _reference_value(f.right, interp, nu, key.child(1), fixed.child(1), budget)
        if isinstance(f, syntax.And):
            return a and b
        if isinstance(f, syntax.Or):
            return a or b
        return (not a) or b
    if isinstance(f, (syntax.Forall, syntax.Exists)):
        family = model.quantifier_family(interp, f.sort, budget, fixed.child(0))
        points = [a for _, a in family.items()] if family.is_exact else list(family.values)
        # a left-nested fold: ((v0 op v1) op v2) ... draws its left operand
        # at child 0 and its right one at child 1
        values = []
        for j, a in enumerate(points):
            k = key
            for _ in range(len(points) - 1 - j):
                k = k.child(0)
            if j:
                k = k.child(1)
            values.append(
                _reference_value(f.body, interp, {**nu, f.var: a}, k, fixed.child(1), budget)
            )
        return all(values) if isinstance(f, syntax.Forall) else any(values)
    if isinstance(f, syntax.Bind):
        a = _reference_draw(interp, f.mfunc, [term(t) for t in f.args], key.child(0))
        body_nu = {**nu, f.var: a}
        return _reference_value(f.body, interp, body_nu, key.child(1), fixed.child(0), budget)
    raise TypeError(f"not a formula: {f!r}")


def reference_estimate(f, interp, budget: int, seed: int):
    """Per-draw reference for the sampler kind: the estimate and binomial
    standard error of a closed formula, walking the formula once per
    draw's RandomKey.  Draw ``i`` is at ``RandomKey(seed).child(0).child(i)``
    and interval points are fixed at ``RandomKey(seed).child(1)``."""
    root = RandomKey(seed)
    draws = root.child(0)
    hits = sum(
        _reference_value(f, interp, {}, draws.child(i), root.child(1), budget)
        for i in range(budget)
    )
    est = hits / budget
    return est, math.sqrt(est * (1.0 - est) / budget)


def reference_exact(f, fw, interp, nu):
    """Per-valuation reference for the exact kinds: the truth value of
    ``f`` under the valuation ``nu``, walking the clauses of the semantics
    once per valuation with the algebra's operations and ``aggregate``.

    An atom is the unit of its basis truth value; a computational atom
    reads its computation in the truth space (the members under
    non-empty sets, the probability of truth or the expected robustness
    under distributions); a quantifier aggregates the family of its
    body's values; a bind is the Kleisli extension: the value at the
    single outcome, the union of the members over the outcomes, or the
    expectation over the support in its order.
    """
    alg, kind = fw.algebra, fw.monad_kind
    stl = alg.name == "stl_r"

    def unit(b):
        if kind == IDENTITY:
            return b
        if kind == NONEMPTY_SET:
            return LP3.T if b else LP3.F
        if stl:
            return math.inf if b else -math.inf
        return 1.0 if b else 0.0

    def basis(v):
        if isinstance(v, bool) or v in (0, 1):
            return bool(v)
        raise CarrierMismatchError(f"{v!r} is not a truth-basis value")

    def robustness(x):
        if x != x:
            raise CarrierMismatchError("expected robustness is undefined")
        return x

    def computation(name, args):
        c = model.apply_computational(interp, name, args)
        if c.kind != kind:
            raise KindMismatchError(f"{name!r} gave a {c.kind!r} computation")
        return c

    def term(t, nu):
        if isinstance(t, syntax.Var):
            return nu[t.name]
        if isinstance(t, syntax.Lit):
            return t.value
        return model.apply_function(interp, t.func, [term(a, nu) for a in t.args])

    def value(f, nu):
        if isinstance(f, syntax.Top):
            return alg.top
        if isinstance(f, syntax.Bot):
            return alg.bot
        if isinstance(f, syntax.Prop):
            return unit(model.apply_predicate(interp, f.name, ()))
        if isinstance(f, syntax.Atom):
            return unit(model.apply_predicate(interp, f.pred, [term(t, nu) for t in f.args]))
        if isinstance(f, (syntax.MProp, syntax.MAtom)):
            if kind == IDENTITY:
                raise CarrierMismatchError("computational atoms have no classical reading")
            name, args = (f.name, ()) if isinstance(f, syntax.MProp) else (f.mpred, f.args)
            c = computation(name, [term(t, nu) for t in args])
            if kind == NONEMPTY_SET:
                return LP3.from_members(basis(v) for v in c.values)
            if stl:
                total = 0.0
                for v, p in c.pairs:
                    total += p * (unit(v) if isinstance(v, bool) else float(v))
                return robustness(total)
            total = 0.0
            for v, p in c.pairs:
                if basis(v):
                    total += p
            return total
        if isinstance(f, syntax.Not):
            return alg.neg(value(f.body, nu))
        if isinstance(f, (syntax.And, syntax.Or, syntax.Implies)):
            op = {syntax.And: alg.conj, syntax.Or: alg.disj, syntax.Implies: alg.implies}[type(f)]
            return op(value(f.left, nu), value(f.right, nu))
        if isinstance(f, (syntax.Forall, syntax.Exists)):
            family = model.quantifier_family(interp, f.sort)
            pairs = [(w, value(f.body, {**nu, f.var: a})) for w, a in family.items()]
            quant = "forall" if isinstance(f, syntax.Forall) else "exists"
            return aggregate(alg, quant, WeightedFamily.exact(pairs))
        if isinstance(f, syntax.Bind):
            c = computation(f.mfunc, [term(t, nu) for t in f.args])
            if kind == IDENTITY:
                return value(f.body, {**nu, f.var: c.value})
            if kind == NONEMPTY_SET:
                members = set()
                for a in c.values:
                    members |= value(f.body, {**nu, f.var: a}).members
                return LP3.from_members(members)
            total = 0.0
            for a, p in c.pairs:
                total += p * value(f.body, {**nu, f.var: a})
            return robustness(total) if stl else snap01(total)
        raise TypeError(f"not a formula: {f!r}")

    return value(f, nu)
