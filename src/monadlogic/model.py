"""Universe values, sort domains, and interpretations of symbols.

An interpretation gives every sort a domain and every symbol an
implementation: ordinary symbols get lookup tables or deterministic
builtins, computational symbols get conditional tables (finite
distributions per argument tuple) or stochastic builtin families.

Interpretations are loaded for a fixed monad kind, whose
:class:`~monadlogic.effects.Monad` reads their table rows and
``bernoulli`` coins.  Continuous domains and the continuous builtin
families (``normal``, ``uniform_real``) exist only under a monad that
draws (the ``sampler`` kind); the finite kinds reject them at load time.
Table coverage is checked lazily, at application time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from . import effects
from .errors import (
    DivisionByZeroError,
    EmptyDomainError,
    EvalTypeError,
    BudgetMissingError,
    FiniteOnlyError,
    MissingSymbolError,
    MissingTableRowError,
    ParamOutOfRangeError,
    SchemaError,
    UnknownSortError,
)
from .algebra import WeightedFamily
from .effects import Monad, RandomKey
from .syntax import Signature

Value = Union[bool, int, float, str]


# domains


@dataclass(frozen=True)
class UniformDensity:
    pass


@dataclass(frozen=True)
class NormalDensity:
    mu: float
    sigma: float
    truncated: bool = False


@dataclass(frozen=True)
class EnumDomain:
    """A finite enumeration, optionally with a quantifier weight table.

    ``weights`` is None (unit weights, the default), the string ``"mean"``
    (weights 1/n, the averaging regime), or a value -> weight map.
    """

    values: Tuple[Value, ...]
    weights: object = None

    def family_pairs(self):
        if self.weights is None:
            return tuple((1.0, v) for v in self.values)
        if self.weights == "mean":
            n = len(self.values)
            return tuple((1.0 / n, v) for v in self.values)
        return tuple((float(self.weights[v]), v) for v in self.values)


@dataclass(frozen=True)
class IntRangeDomain:
    lo: int
    hi: int  # inclusive

    def family_pairs(self):
        return tuple((1.0, v) for v in range(self.lo, self.hi + 1))


@dataclass(frozen=True)
class RealIntervalDomain:
    """A real interval carrying the density its quantifiers sample from."""

    lo: float
    hi: float
    density: object = None

    def sample(self, key: RandomKey) -> float:
        if self.density is None:
            raise BudgetMissingError("interval sort has no density to sample from")
        if isinstance(self.density, UniformDensity):
            return self.lo + key.uniform(0) * (self.hi - self.lo)
        d = self.density
        if not d.truncated:
            return key.normal(d.mu, d.sigma)
        for attempt in range(1000):  # rejection against the interval
            x = key.normal(d.mu, d.sigma, index=attempt)
            if self.lo <= x <= self.hi:
                return x
        raise ParamOutOfRangeError(
            f"rejection sampling failed for normal({d.mu}, {d.sigma}) on "
            f"[{self.lo}, {self.hi}]"
        )


Domain = Union[EnumDomain, IntRangeDomain, RealIntervalDomain]


# symbol implementations


@dataclass(frozen=True)
class TableFunc:
    rows: Dict[Tuple[Value, ...], Value]


@dataclass(frozen=True)
class BuiltinFunc:
    name: str


@dataclass(frozen=True)
class CTable:
    """Conditional table: argument tuple -> row payload.

    The payload is what the interpretation's monad ``load``s: a plain
    value (identity), a frozenset (nonempty_set), or an ``effects.Dist``
    (distribution and sampler).
    """

    rows: Dict[Tuple[Value, ...], object]
    # the value fact of the rows' outcomes per monad, found on first use
    facts: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def fact(self, monad: Monad) -> Optional[str]:
        """The value fact of the union of every row's outcomes, as
        ``monad`` reads the stored rows; worked out once per table."""
        if monad not in self.facts:
            self.facts[monad] = value_fact(monad.outcomes(self.rows.values()))
        return self.facts[monad]


@dataclass(frozen=True)
class BuiltinStoch:
    name: str


@dataclass(frozen=True)
class Interpretation:
    kind: str
    sorts: Dict[str, Domain]
    funcs: Dict[str, object] = field(default_factory=dict)
    mfuncs: Dict[str, object] = field(default_factory=dict)
    preds: Dict[str, object] = field(default_factory=dict)
    mpreds: Dict[str, object] = field(default_factory=dict)


# value facts: what the binder of a variable fixes about the values it
# takes, at compile time.  A finite set of values is type-faithful when no
# two of them are == with different types (as True, 1 and 1.0 are);
# continuous values are new on every draw.  None is no fact.

FAITHFUL = "faithful"
CONTINUOUS = "continuous"


def value_fact(values) -> Optional[str]:
    """The value fact of finitely many ``values``: FAITHFUL when no two
    of them are == with different types."""
    typed = set(zip(values, map(type, values)))
    return FAITHFUL if len({v for v, _ in typed}) == len(typed) else None


# builtins

_NUMERIC = (int, float)


def _num(name: str, v: Value) -> Union[int, float]:
    if isinstance(v, bool) or not isinstance(v, _NUMERIC):
        raise EvalTypeError(f"builtin {name!r} needs numeric arguments, got {v!r}")
    return v


def _nums(name: str, args):
    """The arguments of a numeric builtin, each checked as by :func:`_num`."""
    for a in args:
        t = type(a)
        if t is not int and t is not float:
            _num(name, a)
    return args


def _builtin_div(x, y):
    if y == 0:
        raise DivisionByZeroError("div by zero")
    return x / y


_BUILTIN_FUNCS = {
    "add": (2, lambda x, y: x + y),
    "sub": (2, lambda x, y: x - y),
    "mul": (2, lambda x, y: x * y),
    "div": (2, _builtin_div),
    "neg": (1, lambda x: -x),
    "abs": (1, abs),
    "min": (2, min),
    "max": (2, max),
}

_BUILTIN_PREDS = {
    "eq": (2, lambda x, y: x == y),
    "lt": (2, lambda x, y: x < y),
    "le": (2, lambda x, y: x <= y),
    "gt": (2, lambda x, y: x > y),
    "ge": (2, lambda x, y: x >= y),
}

# arity and the value fact of the outcomes: bernoulli gives the ints 0
# and 1, the others continuous draws
_BUILTIN_STOCH = {"bernoulli": (1, FAITHFUL), "normal": (2, CONTINUOUS), "uniform_real": (2, CONTINUOUS)}


def compile_function(interp: Interpretation, name: str):
    """Resolve a function symbol once; returns a callable on argument lists."""
    impl = interp.funcs.get(name)
    if impl is None:
        raise MissingSymbolError(f"no interpretation for function {name!r}")
    if isinstance(impl, TableFunc):
        rows = impl.rows

        def table_fn(args):
            try:
                return rows[tuple(args)]
            except KeyError:
                raise MissingTableRowError(
                    f"function {name!r} has no row for {tuple(args)!r}"
                ) from None

        return table_fn
    arity, fn = _BUILTIN_FUNCS[impl.name]
    bname = impl.name

    def builtin_fn(args):
        if len(args) != arity:
            raise EvalTypeError(f"builtin {bname!r} expects {arity} arguments")
        return fn(*_nums(bname, args))

    return builtin_fn


def compile_predicate(interp: Interpretation, name: str):
    """Resolve a predicate symbol once; returns a callable yielding bool."""
    impl = interp.preds.get(name)
    if impl is None:
        raise MissingSymbolError(f"no interpretation for predicate {name!r}")
    if isinstance(impl, TableFunc):
        rows = impl.rows

        def table_fn(args):
            try:
                return bool(rows[tuple(args)])
            except KeyError:
                raise MissingTableRowError(
                    f"predicate {name!r} has no row for {tuple(args)!r}"
                ) from None

        return table_fn
    arity, fn = _BUILTIN_PREDS[impl.name]
    bname = impl.name
    if bname == "eq":

        def eq_fn(args):
            if len(args) != arity:
                raise EvalTypeError(f"builtin {bname!r} expects {arity} arguments")
            return bool(fn(*args))

        return eq_fn

    def builtin_fn(args):
        if len(args) != arity:
            raise EvalTypeError(f"builtin {bname!r} expects {arity} arguments")
        return bool(fn(*_nums(bname, args)))

    return builtin_fn


def apply_function(interp: Interpretation, name: str, args) -> Value:
    """Evaluate an ordinary function symbol on argument values."""
    return compile_function(interp, name)(args)


def apply_predicate(interp: Interpretation, name: str, args) -> bool:
    """Evaluate an ordinary predicate symbol to a truth-basis value."""
    return compile_predicate(interp, name)(args)


def _builtin_stochastic(name: str, args, monad: Monad) -> effects.Computation:
    if name == "bernoulli":
        p = _num(name, args[0])
        if not 0.0 <= p <= 1.0:
            raise ParamOutOfRangeError(f"bernoulli parameter {p!r} outside [0, 1]")
        return monad.coin(p)
    if not monad.draws:
        raise FiniteOnlyError(f"builtin {name!r} needs the sampler kind")
    params = [_num(name, a) for a in args]
    try:
        finite = all(map(math.isfinite, params))
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ParamOutOfRangeError(f"{name} needs finite parameters, got {tuple(params)!r}")
    if name == "normal":
        mu, sigma = params
        if sigma <= 0:
            raise ParamOutOfRangeError(f"normal needs sigma > 0, got {sigma!r}")
        return effects.Sampler(draw=lambda states: effects.normals(states, mu, sigma))
    if name == "uniform_real":
        lo, hi = params
        if not (lo < hi and math.isfinite(float(hi) - float(lo))):
            raise ParamOutOfRangeError(
                f"uniform_real needs lo < hi a finite distance apart, got [{lo!r}, {hi!r}]"
            )
        return effects.Sampler(
            draw=lambda states: [lo + u * (hi - lo) for u in effects.uniforms(states)]
        )
    raise MissingSymbolError(f"unknown stochastic builtin {name!r}")


def compile_computational(interp: Interpretation, name: str):
    """Resolve a computational symbol once; returns a callable producing a
    computation of the interpretation's monad kind per argument list."""
    impl = interp.mfuncs.get(name) or interp.mpreds.get(name)
    if impl is None:
        raise MissingSymbolError(f"no interpretation for computational symbol {name!r}")
    monad = effects.monad(interp.kind)
    if isinstance(impl, BuiltinStoch):
        bname = impl.name
        return lambda args: _builtin_stochastic(bname, args, monad)
    rows, row = impl.rows, monad.row

    def table_fn(args):
        try:
            payload = rows[tuple(args)]
        except KeyError:
            raise MissingTableRowError(
                f"computational {name!r} has no row for {tuple(args)!r}"
            ) from None
        return row(payload)

    return table_fn


def computational_fact(interp: Interpretation, name: str) -> Optional[str]:
    """The value fact of the outcomes of a resolved computational symbol."""
    impl = interp.mfuncs.get(name) or interp.mpreds.get(name)
    if isinstance(impl, BuiltinStoch):
        return _BUILTIN_STOCH[impl.name][1]
    return impl.fact(effects.monad(interp.kind))


def apply_computational(interp: Interpretation, name: str, args) -> effects.Computation:
    """Evaluate a computational symbol to a computation of the
    interpretation's monad kind.  Samplers are lazy; their randomness is
    supplied a batch of key states at a time."""
    return compile_computational(interp, name)(args)


def quantifier_family(
    interp: Interpretation,
    sort: str,
    budget: Optional[int] = None,
    key: Optional[RandomKey] = None,
) -> WeightedFamily:
    """The family a quantifier over ``sort`` ranges over.

    Finite domains give an exact family with the sort-attached weights
    (unit by default); interval domains give ``budget`` points drawn
    deterministically from the attached density.
    """
    domain = interp.sorts.get(sort)
    if domain is None:
        raise UnknownSortError(f"no domain for sort {sort!r}")
    if isinstance(domain, (EnumDomain, IntRangeDomain)):
        pairs = domain.family_pairs()
        if not pairs:
            raise EmptyDomainError(f"sort {sort!r} has an empty domain")
        return WeightedFamily.exact(pairs)
    if budget is None or budget < 1:
        raise BudgetMissingError(f"quantifying continuous sort {sort!r} needs a sample budget")
    if key is None:
        raise BudgetMissingError(f"quantifying continuous sort {sort!r} needs a random key")
    return WeightedFamily.sampled(
        tuple(domain.sample(key.child(i)) for i in range(budget))
    )


# document loading


_VALUE_TYPES = (bool, int, float, str)


def _load_value(v) -> Value:
    if isinstance(v, _VALUE_TYPES):
        return v
    raise SchemaError(f"{v!r} is not a universe value")


def _number(raw) -> Optional[float]:
    """A JSON number as a float; None for anything else, booleans and
    integers too large for a float included."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None
    try:
        return float(raw)
    except OverflowError:
        return None


def _finite_bound(raw, which):
    if raw is None:
        return -math.inf if which == "lo" else math.inf
    bound = float(raw) if raw in ("-inf", "inf") else _number(raw)
    if bound is None:
        raise SchemaError(f"bad interval bound {raw!r}")
    return bound


def _load_weights(name: str, weights, values) -> dict:
    if not isinstance(weights, dict):
        raise SchemaError(f"sort {name!r}: weights must be a map or \"mean\"")
    table = {}
    for v in values:
        # JSON object keys are strings; fall back for numeric values
        raw = weights.get(v) if v in weights else weights.get(str(v))
        if raw is None:
            raise SchemaError(f"sort {name!r}: missing weight for {v!r}")
        w = _number(raw)
        if w is None or not math.isfinite(w) or w < 0:
            raise SchemaError(f"sort {name!r}: weight {raw!r} is not a finite number >= 0")
        table[v] = w
    if all(w == 0.0 for w in table.values()):
        raise SchemaError(f"sort {name!r}: weights must not all be zero")
    return table


def _load_domain(name: str, spec, monad: Monad) -> Domain:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError(f"sort {name!r} needs a domain object with a 'kind'")
    kind = spec["kind"]
    if kind == "enum":
        values = spec.get("values", [])
        if not isinstance(values, list):
            raise SchemaError(f"sort {name!r}: enum values must be a list")
        values = tuple(map(_load_value, values))
        if not values:
            raise EmptyDomainError(f"sort {name!r} has an empty enumeration")
        if len(set(values)) != len(values):
            raise SchemaError(f"sort {name!r} has duplicate values")
        weights = spec.get("weights")
        if weights is not None and weights != "mean":
            weights = _load_weights(name, weights, values)
        return EnumDomain(values, weights)
    if kind == "int_range":
        lo, hi = spec.get("lo"), spec.get("hi")
        if type(lo) is not int or type(hi) is not int:
            raise SchemaError(f"sort {name!r}: int_range needs integer lo/hi")
        if lo > hi:
            raise EmptyDomainError(f"sort {name!r}: empty integer range [{lo}, {hi}]")
        return IntRangeDomain(lo, hi)
    if kind == "real_interval":
        if not monad.draws:
            raise FiniteOnlyError(
                f"sort {name!r}: real intervals need the sampler kind, not {monad.kind!r}"
            )
        lo = _finite_bound(spec.get("lo"), "lo")
        hi = _finite_bound(spec.get("hi"), "hi")
        if not lo < hi:
            raise SchemaError(f"sort {name!r}: need lo < hi, got [{lo}, {hi}]")
        density = spec.get("density")
        if density is None:
            return RealIntervalDomain(lo, hi, None)
        if not isinstance(density, dict):
            raise SchemaError(f"sort {name!r}: density must be an object")
        dkind = density.get("kind")
        if dkind == "uniform":
            if not math.isfinite(hi - lo):
                raise SchemaError(f"sort {name!r}: uniform density needs bounds a finite distance apart")
            return RealIntervalDomain(lo, hi, UniformDensity())
        if dkind == "normal":
            mu, sigma = _number(density.get("mu")), _number(density.get("sigma"))
            if mu is None or sigma is None:
                raise SchemaError(f"sort {name!r}: normal density needs mu and sigma")
            if not (math.isfinite(mu) and math.isfinite(sigma)):
                raise SchemaError(f"sort {name!r}: normal density needs finite mu and sigma")
            if sigma <= 0:
                raise SchemaError(f"sort {name!r}: normal density needs sigma > 0")
            truncated = math.isfinite(lo) or math.isfinite(hi)
            return RealIntervalDomain(lo, hi, NormalDensity(mu, sigma, truncated))
        raise SchemaError(f"sort {name!r}: unknown density {dkind!r}")
    raise SchemaError(f"sort {name!r}: unknown domain kind {kind!r}")


def row_key(row_args) -> Tuple[Value, ...]:
    """Validate the argument values of a document row as a table key."""
    return tuple(_load_value(a) for a in row_args)


def _parse_payload(payload):
    """A ctable row's payload: a list of values (set form) as a frozenset,
    or ``[[value, probability], ...]`` as a :class:`~effects.Dist`."""
    if not isinstance(payload, list) or not payload:
        raise ValueError("row payload must be a non-empty list")
    if not isinstance(payload[0], list):
        return frozenset(map(_load_value, payload))
    # once per pair of every row: the common types are checked inline, and
    # a pair that is not two items fails to unpack
    for v, p in payload:
        if type(p) is not float and _number(p) is None:
            raise ValueError(f"probability {p!r} of {v!r} is not a number")
        if type(v) not in _VALUE_TYPES:
            _load_value(v)
    return effects.Dist(payload)


def _rows(label: str, rows) -> list:
    if not isinstance(rows, list):
        raise SchemaError(f"{label}: 'rows' must be a list")
    return rows


def load_ctable(label: str, rows, n_args: int, monad: Monad) -> CTable:
    """The conditional table of document rows ``[args..., payload]``, each
    payload stored as ``monad.load`` keeps it; ``label`` names the symbol
    or network variable in errors."""
    table = {}
    for row in _rows(label, rows):
        if not isinstance(row, list) or len(row) != n_args + 1:
            raise SchemaError(f"{label}: rows need {n_args} arguments plus a payload")
        try:
            table[row_key(row[:-1])] = monad.load(_parse_payload(row[-1]))
        except (SchemaError, TypeError, ValueError) as exc:
            raise SchemaError(f"{label}: bad row: {exc}") from exc
    return CTable(table)


def _load_table(symbol: str, spec, n_args: int, omega: bool):
    rows = {}
    for row in _rows(repr(symbol), spec.get("rows", [])):
        if not isinstance(row, list) or len(row) != n_args + 1:
            raise SchemaError(f"{symbol!r}: rows need {n_args} arguments plus a result")
        result = row[-1]
        if omega and not isinstance(result, bool):
            raise SchemaError(f"{symbol!r}: predicate rows must end in a boolean")
        rows[row_key(row[:-1])] = _load_value(result)
    return TableFunc(rows)


def load_interpretation(doc, sig: Signature, monad_kind: str) -> Interpretation:
    """Load a JSON interpretation document against a signature.

    ``doc`` may be the document text or an already-parsed object.  Every
    sort and every symbol of the signature must be covered.
    """
    monad = effects.monad(monad_kind)
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SchemaError(f"malformed interpretation document: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("interpretation document must be an object")
    unknown = set(doc) - {"sorts", "funcs", "mfuncs", "preds", "mpreds", "network"}
    if unknown:
        raise SchemaError(f"unknown interpretation keys: {sorted(unknown)}")

    sorts = {}
    sort_section = doc.get("sorts", {})
    if not isinstance(sort_section, dict):
        raise SchemaError("'sorts' must be an object")
    for name in sig.sorts:
        if name not in sort_section:
            raise MissingSymbolError(f"no domain for sort {name!r}")
        sorts[name] = _load_domain(name, sort_section[name], monad)
    for name in set(sort_section) - sig.sorts:
        raise SchemaError(f"domain for undeclared sort {name!r}")

    def section(key, declared, load_one):
        out = {}
        given = doc.get(key, {})
        if not isinstance(given, dict):
            raise SchemaError(f"'{key}' must be an object")
        for name in set(given) - set(declared):
            raise SchemaError(f"{key} entry for undeclared symbol {name!r}")
        for name, arity in declared.items():
            if name not in given:
                raise MissingSymbolError(f"no interpretation for {key[:-1]} {name!r}")
            spec = given[name]
            if not isinstance(spec, dict):
                raise SchemaError(f"{key} entry {name!r} must be an object, not {spec!r}")
            out[name] = load_one(name, spec, arity)
        return out

    def load_plain(name, spec, args, omega):
        """A function (``omega`` False) or predicate: a table or a builtin."""
        what, builtins = ("predicate", _BUILTIN_PREDS) if omega else ("function", _BUILTIN_FUNCS)
        kind = spec.get("kind")
        if kind == "table":
            return _load_table(name, spec, len(args), omega)
        if kind == "builtin":
            bname = spec.get("name")
            if not isinstance(bname, str) or bname not in builtins:
                raise SchemaError(f"{name!r}: unknown builtin {what} {bname!r}")
            if builtins[bname][0] != len(args):
                raise SchemaError(f"{name!r}: builtin {bname!r} arity mismatch")
            return BuiltinFunc(bname)
        raise SchemaError(f"{name!r}: {what} kind must be 'table' or 'builtin'")

    def load_stoch(name, spec, args):
        kind = spec.get("kind")
        if kind == "ctable":
            return load_ctable(repr(name), spec.get("rows", []), len(args), monad)
        if kind == "builtin":
            bname = spec.get("name")
            if not isinstance(bname, str) or bname not in _BUILTIN_STOCH:
                raise SchemaError(f"{name!r}: unknown stochastic builtin {bname!r}")
            arity, fact = _BUILTIN_STOCH[bname]
            if arity != len(args):
                raise SchemaError(f"{name!r}: builtin {bname!r} arity mismatch")
            if fact is CONTINUOUS and not monad.draws:
                raise FiniteOnlyError(
                    f"{name!r}: builtin {bname!r} needs the sampler kind, not {monad_kind!r}"
                )
            return BuiltinStoch(bname)
        raise SchemaError(f"{name!r}: computational kind must be 'ctable' or 'builtin'")

    # function arities are (arg sorts, result sort), predicate arities arg sorts
    return Interpretation(
        kind=monad_kind,
        sorts=sorts,
        funcs=section("funcs", sig.funcs, lambda n, s, a: load_plain(n, s, a[0], False)),
        mfuncs=section("mfuncs", sig.mfuncs, lambda n, s, a: load_stoch(n, s, a[0])),
        preds=section("preds", sig.preds, lambda n, s, a: load_plain(n, s, a, True)),
        mpreds=section("mpreds", sig.mpreds, load_stoch),
    )


# serialization (used by the argmax transform)


def _dump_domain(domain: Domain) -> dict:
    if isinstance(domain, EnumDomain):
        out = {"kind": "enum", "values": list(domain.values)}
        if domain.weights == "mean":
            out["weights"] = "mean"
        elif isinstance(domain.weights, dict):
            out["weights"] = {str(k): v for k, v in domain.weights.items()}
        return out
    if isinstance(domain, IntRangeDomain):
        return {"kind": "int_range", "lo": domain.lo, "hi": domain.hi}
    out = {"kind": "real_interval", "lo": domain.lo, "hi": domain.hi}
    if isinstance(domain.density, UniformDensity):
        out["density"] = {"kind": "uniform"}
    elif isinstance(domain.density, NormalDensity):
        out["density"] = {"kind": "normal", "mu": domain.density.mu, "sigma": domain.density.sigma}
    return out


def _dump_payload(payload) -> list:
    if isinstance(payload, frozenset):
        return sorted(payload, key=lambda v: (str(type(v)), str(v)))
    if isinstance(payload, effects.Dist):
        return [[v, p] for v, p in payload.pairs]
    return [payload]


def dump_interpretation(interp: Interpretation) -> dict:
    """Serialize back to the document schema (set rows for the lp kind)."""
    doc = {"sorts": {}, "funcs": {}, "mfuncs": {}, "preds": {}, "mpreds": {}}
    for name, domain in interp.sorts.items():
        doc["sorts"][name] = _dump_domain(domain)
    for section, impls in (("funcs", interp.funcs), ("preds", interp.preds)):
        for name, impl in impls.items():
            if isinstance(impl, BuiltinFunc):
                doc[section][name] = {"kind": "builtin", "name": impl.name}
            else:
                doc[section][name] = {
                    "kind": "table",
                    "rows": [[*k, v] for k, v in impl.rows.items()],
                }
    for section, impls in (("mfuncs", interp.mfuncs), ("mpreds", interp.mpreds)):
        for name, impl in impls.items():
            if isinstance(impl, BuiltinStoch):
                doc[section][name] = {"kind": "builtin", "name": impl.name}
            else:
                doc[section][name] = {
                    "kind": "ctable",
                    "rows": [[*k, _dump_payload(v)] for k, v in impl.rows.items()],
                }
    return doc
