"""Executable law suites behind ``selftest`` on the command line.

Each suite re-checks an algebraic contract on freshly generated random
instances: the monad axioms per computation kind, monoid laws and the
classical restriction per algebra, the lifted closed forms, quantifier
consistency, aggregator monotonicity, and a propositional truth-table
oracle.  Suites return pass/fail counts so a broken build fails loudly.
"""

from __future__ import annotations

import operator
import random
from typing import Dict, List, Tuple

from . import effects, model, semantics, syntax
from .algebra import (
    LP3,
    WeightedFamily,
    aggregate,
    lift_algebra,
    make_algebra,
)
from .effects import RandomKey

_CARRIER_3 = (0, 1, 2)


def _random_dist(rng: random.Random, values) -> effects.Dist:
    support = rng.sample(values, rng.randint(1, len(values)))
    raw = [rng.random() + 0.05 for _ in support]
    total = sum(raw)
    return effects.Dist((v, w / total) for v, w in zip(support, raw))


def random_computation(rng: random.Random, kind: str, values=_CARRIER_3):
    if kind == effects.IDENTITY:
        return effects.Pure(rng.choice(values))
    if kind == effects.NONEMPTY_SET:
        return effects.NESet(rng.sample(values, rng.randint(1, len(values))))
    return effects.monad(kind).row(_random_dist(rng, values))


def random_kleisli(rng: random.Random, kind: str, values=_CARRIER_3):
    table = {v: random_computation(rng, kind, values) for v in values}
    return lambda a: table[a]


def dist_close(a: effects.Dist, b: effects.Dist, tol: float = 1e-12) -> bool:
    support = set(a.support) | set(b.support)
    return all(abs(a.prob(v) - b.prob(v)) <= tol for v in support)


def empirical(c: effects.Sampler, n: int, seed: int) -> Dict[object, float]:
    counts: Dict[object, int] = {}
    for values in effects.draws(c, n, RandomKey(seed)):
        for v in values:
            counts[v] = counts.get(v, 0) + 1
    return {v: k / n for v, k in counts.items()}


def total_variation(p: Dict[object, float], q: Dict[object, float]) -> float:
    support = set(p) | set(q)
    return 0.5 * sum(abs(p.get(v, 0.0) - q.get(v, 0.0)) for v in support)


def suite_monad_laws(instances: int = 200, sampler_n: int = 30000) -> Tuple[str, int, int]:
    rng = random.Random(20240901)
    passed = failed = 0
    for kind in (effects.IDENTITY, effects.NONEMPTY_SET, effects.DISTRIBUTION):
        for _ in range(instances):
            x = rng.choice(_CARRIER_3)
            c = random_computation(rng, kind)
            k = random_kleisli(rng, kind)
            g = random_kleisli(rng, kind)
            same = dist_close if kind == effects.DISTRIBUTION else operator.eq
            unit = effects.monad(kind).unit
            checks = (
                same(effects.bind(unit(x), k), k(x)),
                same(effects.bind(c, unit), c),
                same(effects.bind(effects.bind(c, k), g),
                     effects.bind(c, lambda a: effects.bind(k(a), g))),
            )
            for ok in checks:
                passed, failed = passed + ok, failed + (not ok)
    # sampler laws hold statistically
    for i in range(3):
        x = rng.choice(_CARRIER_3)
        c = random_computation(rng, effects.SAMPLER)
        k = random_kleisli(rng, effects.SAMPLER)
        g = random_kleisli(rng, effects.SAMPLER)
        sides = (
            (effects.bind(effects.unit(effects.SAMPLER, x), k), k(x)),
            (effects.bind(c, lambda a: effects.unit(effects.SAMPLER, a)), c),
            (
                effects.bind(effects.bind(c, k), g),
                effects.bind(c, lambda a: effects.bind(k(a), g)),
            ),
        )
        for j, (left, right) in enumerate(sides):
            tv = total_variation(
                empirical(left, sampler_n, seed=1000 + 10 * i + j),
                empirical(right, sampler_n, seed=5000 + 10 * i + j),
            )
            ok = tv <= 0.02
            passed, failed = passed + ok, failed + (not ok)
    return "monad-laws", passed, failed


def suite_dist_normalization(instances: int = 300) -> Tuple[str, int, int]:
    rng = random.Random(20240902)
    passed = failed = 0
    for _ in range(instances):
        c = random_computation(rng, effects.DISTRIBUTION)
        k = random_kleisli(rng, effects.DISTRIBUTION)
        out = effects.bind(c, k)
        ok = abs(sum(p for _, p in out.pairs) - 1.0) <= 1e-9
        passed, failed = passed + ok, failed + (not ok)
    return "dist-normalization", passed, failed


def _algebra_zoo():
    return [
        make_algebra("boolean"),
        make_algebra("priest"),
        make_algebra("product"),
        make_algebra("sproduct"),
        make_algebra("ltn_p", {"p": 2.0}),
        make_algebra("ltn_q", {"q": 0.75}),
        make_algebra("stl_r", {"r": 10.0}),
    ]


def _random_carrier_value(rng: random.Random, alg):
    if alg.carrier == "bool":
        return rng.random() < 0.5
    if alg.carrier == "lp3":
        return rng.choice((LP3.F, LP3.B, LP3.T))
    if alg.carrier == "prob":
        return rng.random()
    return rng.uniform(-10.0, 10.0)


def _close(alg, a, b, tol=1e-12):
    if alg.carrier in ("bool", "lp3"):
        return a == b
    return abs(a - b) <= tol


def suite_monoid_laws(triples: int = 300) -> Tuple[str, int, int]:
    rng = random.Random(20240903)
    passed = failed = 0
    for alg in _algebra_zoo():
        if alg.approximate:
            continue  # smooth connectives are only a limit of a double monoid
        for _ in range(triples):
            x, y, z = (_random_carrier_value(rng, alg) for _ in range(3))
            checks = [
                _close(alg, alg.conj(alg.conj(x, y), z), alg.conj(x, alg.conj(y, z))),
                _close(alg, alg.disj(alg.disj(x, y), z), alg.disj(x, alg.disj(y, z))),
                _close(alg, alg.conj(alg.top, x), x),
                _close(alg, alg.conj(x, alg.top), x),
                _close(alg, alg.disj(alg.bot, x), x),
                _close(alg, alg.disj(x, alg.bot), x),
            ]
            for ok in checks:
                passed, failed = passed + ok, failed + (not ok)
    return "monoid-laws", passed, failed


def suite_classical_limit() -> Tuple[str, int, int]:
    boolean = make_algebra("boolean")
    passed = failed = 0
    for alg in _algebra_zoo():
        to_bool = {alg.bot: False, alg.top: True}
        from_bool = {False: alg.bot, True: alg.top}
        for a in (False, True):
            for b in (False, True):
                for op in ("conj", "disj", "implies"):
                    got = getattr(alg, op)(from_bool[a], from_bool[b])
                    ok = to_bool.get(got) == getattr(boolean, op)(a, b)
                    passed, failed = passed + ok, failed + (not ok)
            got = alg.neg(from_bool[a])
            ok = to_bool.get(got) == (not a)
            passed, failed = passed + ok, failed + (not ok)
    return "classical-limit", passed, failed


def suite_lifted_closed_forms(pairs: int = 1000) -> Tuple[str, int, int]:
    rng = random.Random(20240904)
    boolean = make_algebra("boolean")
    lifted = lift_algebra(boolean, effects.DISTRIBUTION)
    passed = failed = 0
    for _ in range(pairs):
        p, q = rng.random(), rng.random()
        checks = [
            abs(lifted.conj(p, q) - p * q) <= 1e-12,
            abs(lifted.disj(p, q) - (p + q - p * q)) <= 1e-12,
            abs(lifted.neg(p) - (1.0 - p)) <= 1e-12,
            abs(lifted.implies(p, q) - (1.0 - p + p * q)) <= 1e-12,
        ]
        for ok in checks:
            passed, failed = passed + ok, failed + (not ok)
    # the set-lifted table is the three-valued one
    priest = make_algebra("priest")
    set_lifted = lift_algebra(boolean, effects.NONEMPTY_SET)
    for x in (LP3.F, LP3.B, LP3.T):
        ok = set_lifted.neg(x) == priest.neg(x)
        passed, failed = passed + ok, failed + (not ok)
        for y in (LP3.F, LP3.B, LP3.T):
            for op in ("conj", "disj", "implies"):
                ok = getattr(set_lifted, op)(x, y) == getattr(priest, op)(x, y)
                passed, failed = passed + ok, failed + (not ok)
    return "lifted-closed-forms", passed, failed


def suite_quantifier_consistency(families: int = 200) -> Tuple[str, int, int]:
    rng = random.Random(20240905)
    product = make_algebra("product")
    passed = failed = 0
    for _ in range(families):
        values = [rng.random() for _ in range(rng.randint(1, 8))]
        unit = WeightedFamily.exact((1.0, v) for v in values)
        plain = 1.0
        for v in values:
            plain *= v
        ok = abs(aggregate(product, "forall", unit) - plain) <= 1e-12
        passed, failed = passed + ok, failed + (not ok)
        psum = 1.0
        for v in values:
            psum *= 1.0 - v
        ok = abs(aggregate(product, "exists", unit) - (1.0 - psum)) <= 1e-12
        passed, failed = passed + ok, failed + (not ok)
        mean = WeightedFamily.exact((1.0 / len(values), v) for v in values)
        geometric = plain ** (1.0 / len(values))
        ok = abs(aggregate(product, "forall", mean) - geometric) <= 1e-12
        passed, failed = passed + ok, failed + (not ok)
    return "quantifier-consistency", passed, failed


def suite_aggregator_monotonicity(trials: int = 200) -> Tuple[str, int, int]:
    rng = random.Random(20240906)
    passed = failed = 0
    for alg in _algebra_zoo():
        if alg.approximate:
            # the smooth min/max operators are not order-preserving (raising
            # a non-extremal value shifts weight toward it), so they are
            # exempt here just like from the monoid laws
            continue
        for _ in range(trials // 4):
            n = rng.randint(1, 6)
            values = [_random_carrier_value(rng, alg) for _ in range(n)]
            if alg.carrier == "prob":
                bumped = [min(1.0, v + rng.random() * (1.0 - v)) for v in values]
            elif alg.carrier == "lp3":
                bumped = [LP3(min(2, v + rng.randint(0, 2))) for v in values]
            else:
                bumped = [v or rng.random() < 0.5 for v in values]
            base = WeightedFamily.exact((1.0, v) for v in values)
            more = WeightedFamily.exact((1.0, v) for v in bumped)
            for kind in ("forall", "exists"):
                lo, hi = aggregate(alg, kind, base), aggregate(alg, kind, more)
                if alg.carrier in ("bool", "lp3"):
                    ok = hi >= lo
                else:
                    ok = hi >= lo - 1e-12
                passed, failed = passed + ok, failed + (not ok)
    return "aggregator-monotonicity", passed, failed


# propositional oracle


def random_propositional(rng: random.Random, names, depth: int = 3) -> syntax.Formula:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return syntax.TOP
        if roll < 0.2:
            return syntax.BOT
        return syntax.Prop(rng.choice(names))
    shape = rng.choice(("not", "and", "or", "implies"))
    if shape == "not":
        return syntax.Not(random_propositional(rng, names, depth - 1))
    cls = {"and": syntax.And, "or": syntax.Or, "implies": syntax.Implies}[shape]
    return cls(
        random_propositional(rng, names, depth - 1),
        random_propositional(rng, names, depth - 1),
    )


def truth_table_oracle(f: syntax.Formula, assignment: Dict[str, bool]) -> bool:
    if isinstance(f, syntax.Top):
        return True
    if isinstance(f, syntax.Bot):
        return False
    if isinstance(f, syntax.Prop):
        return assignment[f.name]
    if isinstance(f, syntax.Not):
        return not truth_table_oracle(f.body, assignment)
    if isinstance(f, syntax.And):
        return truth_table_oracle(f.left, assignment) and truth_table_oracle(f.right, assignment)
    if isinstance(f, syntax.Or):
        return truth_table_oracle(f.left, assignment) or truth_table_oracle(f.right, assignment)
    if isinstance(f, syntax.Implies):
        return (not truth_table_oracle(f.left, assignment)) or truth_table_oracle(
            f.right, assignment
        )
    raise TypeError(f"not propositional: {f!r}")


def propositional_setup(names, assignment: Dict[str, bool]):
    sig = syntax.Signature(
        sorts=frozenset(("U",)), preds={name: () for name in names}
    )
    interp = model.Interpretation(
        kind=effects.IDENTITY,
        sorts={"U": model.EnumDomain(("u",))},
        preds={name: model.TableFunc({(): assignment[name]}) for name in names},
    )
    return sig, interp


def suite_propositional_oracle(formulas: int = 200) -> Tuple[str, int, int]:
    rng = random.Random(20240907)
    names = ("p0", "p1", "p2", "p3")
    classical = semantics.make_framework(effects.IDENTITY, make_algebra("boolean"))
    passed = failed = 0
    for _ in range(formulas):
        f = random_propositional(rng, names)
        for bits in range(2 ** len(names)):
            assignment = {n: bool(bits >> i & 1) for i, n in enumerate(names)}
            _, interp = propositional_setup(names, assignment)
            got = semantics.eval_formula(f, classical, interp, {})
            ok = got == truth_table_oracle(f, assignment)
            passed, failed = passed + ok, failed + (not ok)
    return "propositional-oracle", passed, failed


_LAW_SUITES = (
    suite_monad_laws,
    suite_dist_normalization,
    suite_monoid_laws,
    suite_classical_limit,
)
_ALL_SUITES = _LAW_SUITES + (
    suite_lifted_closed_forms,
    suite_quantifier_consistency,
    suite_aggregator_monotonicity,
    suite_propositional_oracle,
)


def run_selftest(scope: str = "all") -> Tuple[List[str], bool]:
    """Run the requested suites; returns report lines and overall success."""
    suites = _LAW_SUITES if scope == "laws" else _ALL_SUITES
    lines = []
    ok = True
    for suite in suites:
        name, passed, failed = suite()
        status = "ok" if failed == 0 else "FAIL"
        lines.append(f"{name}: {status} ({passed} passed, {failed} failed)")
        ok = ok and failed == 0
    return lines, ok
