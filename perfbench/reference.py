"""Reference computations for the benchmark, written apart from monadlogic.

Nothing here imports the program.  Formulas are plain tuples, knowledge
bases are plain dicts, and every semantics is written out from its
definition:

formulas  ("forall"|"exists", var, sort, body)
          ("bind", var, mfunc, (term, ...), body)
          ("not", f)   ("and"|"or"|"imp", f, g)
          ("atom", pred, (term, ...))   ("matom", mpred, (term, ...))
terms     ("var", name)   ("app", func, (term, ...))   ("lit", value)

A knowledge base (KB) is a dict with the keys ``sorts`` (name -> list of
(weight, value)), ``funcs`` and ``preds`` (name -> row dict keyed by the
argument tuple, or the name of a builtin), ``mfuncs`` and ``mpreds``
(name -> row dict of [(value, prob), ...]).
"""

from __future__ import annotations

import math

ARGMAX_TOL = 1e-12
_BUILTINS = {
    "add": lambda x, y: x + y,
    "eq": lambda x, y: x == y,
    "lt": lambda x, y: x < y,
    "gt": lambda x, y: x > y,
}


# rendering into the program's concrete syntax


def render_term(t) -> str:
    if t[0] == "var":
        return t[1]
    if t[0] == "lit":
        return repr(t[1])
    return f"{t[1]}({', '.join(render_term(a) for a in t[2])})" if t[2] else t[1]


def render(f) -> str:
    """Concrete syntax with every compound operand parenthesised."""
    op = f[0]
    if op in ("forall", "exists"):
        return f"({op} {f[1]}:{f[2]}. {render(f[3])})"
    if op == "bind":
        args = ", ".join(render_term(a) for a in f[3])
        return f"([{f[1]} := {f[2]}({args})] {render(f[4])})"
    if op == "not":
        return f"!{render(f[1])}"
    if op in ("and", "or", "imp"):
        sym = {"and": "&", "or": "|", "imp": "->"}[op]
        return f"({render(f[1])} {sym} {render(f[2])})"
    args = ", ".join(render_term(a) for a in f[2])
    return f"{f[1]}({args})"


# logics: how atoms, connectives, binds and quantifiers combine values


class Classical:
    """Two-valued truth on a KB whose computational rows are point masses."""

    def crisp(self, b):
        return b

    def neg(self, a):
        return not a

    def conn(self, op, a, b):
        if op == "and":
            return a and b
        if op == "or":
            return a or b
        return (not a) or b

    def quant(self, kind, pairs):
        vals = [v for _, v in pairs]
        return all(vals) if kind == "forall" else any(vals)

    def bind(self, row, body):
        (value, p), = row
        if p != 1.0:
            raise ValueError("classical binds need point-mass rows")
        return body(value)

    def matom(self, row):
        raise ValueError("computational predicates have no classical reading")


_F, _B, _T = 0, 1, 2
PRIEST_NAMES = {_F: "F", _B: "B", _T: "T"}


def argmax_support(row):
    best = max(p for _, p in row)
    return [v for v, p in row if p >= best - ARGMAX_TOL]


def _from_members(ms):
    return _B if len(ms) == 2 else (_T if True in ms else _F)


def _members(v):
    return {_F: {False}, _B: {True, False}, _T: {True}}[v]


class Priest:
    """Logic of paradox F < B < T, binds ranging over argmax branch sets."""

    def crisp(self, b):
        return _T if b else _F

    def neg(self, a):
        return 2 - a

    def conn(self, op, a, b):
        if op == "and":
            return min(a, b)
        if op == "or":
            return max(a, b)
        return max(2 - a, b)

    def quant(self, kind, pairs):
        vals = [v for _, v in pairs]
        return min(vals) if kind == "forall" else max(vals)

    def bind(self, row, body):
        ms = set()
        for v in argmax_support(row):
            ms |= _members(body(v))
        return _from_members(ms)

    def matom(self, row):
        return _from_members(set(bool(v) for v in argmax_support(row)))


class Prob:
    """Probabilities: product-family connectives, expectation binds.

    ``implication`` is "residual" (Goguen, with residual negation) or
    "strong" (1 - x + xy, involutive negation).  ``p`` None selects the
    weighted product quantifiers; a number selects LTN p-means over
    normalised weights.
    """

    def __init__(self, implication: str, p=None):
        self.residual = implication == "residual"
        self.p = p

    def crisp(self, b):
        return 1.0 if b else 0.0

    def neg(self, a):
        if self.residual:
            return 1.0 if a == 0.0 else 0.0
        return 1.0 - a

    def conn(self, op, a, b):
        if op == "and":
            return a * b
        if op == "or":
            return a + b - a * b
        if self.residual:
            return 1.0 if a <= b else b / a
        return 1.0 - a + a * b

    def quant(self, kind, pairs):
        if self.p is None:
            acc = 1.0
            for w, v in pairs:
                acc *= (v if kind == "forall" else 1.0 - v) ** w
            return acc if kind == "forall" else 1.0 - acc
        total = sum(w for w, _ in pairs)
        p = self.p
        if kind == "exists":
            return sum(w / total * v**p for w, v in pairs) ** (1.0 / p)
        return 1.0 - sum(w / total * (1.0 - v) ** p for w, v in pairs) ** (1.0 / p)

    def bind(self, row, body):
        return sum(p * body(v) for v, p in row)

    def matom(self, row):
        return sum(p for v, p in row if v is True)


# the inductive evaluator


def _term(t, kb, env):
    if t[0] == "var":
        return env[t[1]]
    if t[0] == "lit":
        return t[1]
    args = tuple(_term(a, kb, env) for a in t[2])
    impl = kb["funcs"][t[1]]
    return _BUILTINS[impl](*args) if isinstance(impl, str) else impl[args]


def evaluate(f, kb, logic, env=None):
    """Value of formula ``f`` in ``kb`` under ``logic`` and valuation ``env``."""
    env = env or {}
    op = f[0]
    if op == "atom":
        args = tuple(_term(a, kb, env) for a in f[2])
        impl = kb["preds"][f[1]]
        return logic.crisp(bool(_BUILTINS[impl](*args) if isinstance(impl, str) else impl[args]))
    if op == "matom":
        args = tuple(_term(a, kb, env) for a in f[2])
        return logic.matom(kb["mpreds"][f[1]][args])
    if op == "not":
        return logic.neg(evaluate(f[1], kb, logic, env))
    if op in ("and", "or", "imp"):
        return logic.conn(op, evaluate(f[1], kb, logic, env), evaluate(f[2], kb, logic, env))
    if op in ("forall", "exists"):
        _, var, sort, body = f
        pairs = [(w, evaluate(body, kb, logic, {**env, var: a})) for w, a in kb["sorts"][sort]]
        return logic.quant(op, pairs)
    if op == "bind":
        _, var, mfunc, args, body = f
        row = kb["mfuncs"][mfunc][tuple(_term(a, kb, env) for a in args)]
        return logic.bind(row, lambda a: evaluate(body, kb, logic, {**env, var: a}))
    raise ValueError(f"not a formula: {f!r}")


# Bayesian networks: sum-product elimination in topological order


def _indicator(query, names):
    """Boolean value of a query over network variables, as a function."""

    def value(f, nu):
        op = f[0]
        if op == "atom":  # eq(var, literal)
            return nu[f[2][0][1]] == f[2][1][1]
        if op == "not":
            return not value(f[1], nu)
        if op == "and":
            return value(f[1], nu) and value(f[2], nu)
        if op == "or":
            return value(f[1], nu) or value(f[2], nu)
        raise ValueError(f"unsupported query node {op!r}")

    return lambda assignment: value(query, dict(zip(names, assignment)))


def _query_vars(f, out):
    if f[0] == "atom":
        name = f[2][0][1]
        if name not in out:
            out.append(name)
    else:
        for child in f[1:]:
            _query_vars(child, out)
    return out


def network_probability(net, query) -> float:
    """P(query) for ``net``, a topologically ordered list of
    (name, values, parents, rows) with rows keyed by parent tuples and
    holding [(value, prob), ...]."""
    values = {name: vals for name, vals, _, _ in net}
    factors = []  # (variables, table keyed by assignment tuples)
    for name, vals, parents, rows in net:
        scope = tuple(parents) + (name,)
        table = {}
        for pa, row in rows.items():
            for v, p in row:
                table[tuple(pa) + (v,)] = p
        factors.append((scope, table))
    qvars = tuple(_query_vars(query, []))
    ind = _indicator(query, qvars)
    factors.append((qvars, {a: 1.0 if ind(a) else 0.0 for a in assignments([values[v] for v in qvars])}))

    for name, _, _, _ in net:
        touching = [fac for fac in factors if name in fac[0]]
        factors = [fac for fac in factors if name not in fac[0]]
        scope = tuple(sorted({v for s, _ in touching for v in s} - {name}))
        table = {}
        for assignment in assignments([values[v] for v in scope]):
            nu = dict(zip(scope, assignment))
            total = 0.0
            for x in values[name]:
                nu[name] = x
                term = 1.0
                for s, t in touching:
                    term *= t.get(tuple(nu[v] for v in s), 0.0)
                total += term
            table[assignment] = total
        factors.append((scope, table))
    result = 1.0
    for scope, table in factors:
        result *= table[()]
    return result


def assignments(domains):
    """Every tuple of values, one from each domain, in order."""
    out = [()]
    for dom in domains:
        out = [a + (v,) for a in out for v in dom]
    return out


# closed forms of the sampler queries


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def weather_probability(hd: float, mu: float, sigma: float) -> float:
    """P((h = 1 and t < 0) or (h = 0 and t > 15)), h ~ B(hd), t ~ N(mu, sigma)."""
    return hd * normal_cdf(-mu / sigma) + (1.0 - hd) * (1.0 - normal_cdf((15.0 - mu) / sigma))


def digit_sum_probability(row_a, row_b, target) -> float:
    """Convolution of two classifier rows at one sum."""
    return sum(pa * pb for a, pa in row_a for b, pb in row_b if a + b == target)


def chain_forward(init, step, emit, length: int, observed) -> float:
    """P(emit(h_T) = observed) after ``length`` states of a Markov chain."""
    alpha = dict(init)
    for _ in range(length - 1):
        nxt = {}
        for h, a in alpha.items():
            for g, p in step[h]:
                nxt[g] = nxt.get(g, 0.0) + a * p
        alpha = nxt
    return sum(a * p for h, a in alpha.items() for o, p in emit[h] if o == observed)


def any_of_bernoullis(p: float, k: int) -> float:
    return 1.0 - (1.0 - p) ** k
