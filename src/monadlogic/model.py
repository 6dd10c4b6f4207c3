"""Universe values, sort domains, and interpretations of symbols.

An interpretation gives every sort a domain and every symbol an
implementation: ordinary symbols get lookup tables or deterministic
builtins, computational symbols get conditional tables (finite
distributions per argument tuple) or stochastic builtin families.

Interpretations are loaded for a fixed monad kind.  Continuous domains
and the continuous builtin families (``normal``, ``uniform_real``) exist
only under the ``sampler`` kind; the finite kinds reject them at load
time.  Table coverage is checked lazily, at application time.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from . import effects
from .errors import (
    DivisionByZeroError,
    EmptyDomainError,
    EvalTypeError,
    BudgetMissingError,
    FiniteOnlyError,
    KindMismatchError,
    MissingSymbolError,
    MissingTableRowError,
    ParamOutOfRangeError,
    SchemaError,
    UnknownSortError,
)
from .algebra import WeightedFamily
from .effects import RandomKey
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

    The payload representation follows the interpretation's monad kind:
    a plain value (identity), a frozenset (nonempty_set), or an
    ``effects.Dist`` (distribution and sampler).
    """

    rows: Dict[Tuple[Value, ...], object]


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

_BUILTIN_STOCH = {"bernoulli": 1, "normal": 2, "uniform_real": 2}
_CONTINUOUS_BUILTINS = ("normal", "uniform_real")


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


def _dist_to_computation(dist: effects.Dist, kind: str) -> effects.Computation:
    if kind == effects.DISTRIBUTION:
        return dist
    if kind == effects.SAMPLER:
        # inverse CDF: the first value whose running mass exceeds the
        # uniform; the last bound is open, so rounding falls on the last value
        values = [v for v, _ in dist.pairs]
        bounds, acc = [], 0.0
        for _, p in dist.pairs:
            acc += p
            bounds.append(acc)
        bounds[-1] = math.inf
        return effects.Sampler(
            draw=lambda states: [values[bisect_right(bounds, u)] for u in effects.uniforms(states)]
        )
    raise KindMismatchError(f"cannot realize a distribution row under kind {kind!r}")


def _builtin_stochastic(name: str, args, kind: str) -> effects.Computation:
    if name == "bernoulli":
        p = _num(name, args[0])
        if not 0.0 <= p <= 1.0:
            raise ParamOutOfRangeError(f"bernoulli parameter {p!r} outside [0, 1]")
        if kind == effects.IDENTITY:
            if p in (0.0, 1.0):
                return effects.Pure(int(p))
            raise KindMismatchError("bernoulli is not deterministic under the classical kind")
        if kind == effects.NONEMPTY_SET:
            support = {int(p)} if p in (0.0, 1.0) else {0, 1}
            return effects.NESet(support)
        if kind == effects.DISTRIBUTION:
            return effects.Dist(((1, p), (0, 1.0 - p)))
        return effects.Sampler(
            draw=lambda states: [1 if u < p else 0 for u in effects.uniforms(states)]
        )
    if kind != effects.SAMPLER:
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
    kind = interp.kind
    if isinstance(impl, BuiltinStoch):
        bname = impl.name
        return lambda args: _builtin_stochastic(bname, args, kind)
    rows = impl.rows

    def table_fn(args):
        try:
            payload = rows[tuple(args)]
        except KeyError:
            raise MissingTableRowError(
                f"computational {name!r} has no row for {tuple(args)!r}"
            ) from None
        if kind == effects.IDENTITY:
            return effects.Pure(payload)
        if kind == effects.NONEMPTY_SET:
            return effects.NESet(payload)
        return _dist_to_computation(payload, kind)

    return table_fn


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


def _load_value(v) -> Value:
    if isinstance(v, (bool, int, float, str)):
        return v
    raise SchemaError(f"{v!r} is not a universe value")


def _finite_bound(raw, which):
    if raw is None:
        return -math.inf if which == "lo" else math.inf
    if isinstance(raw, str) and raw in ("-inf", "inf"):
        return float(raw)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    raise SchemaError(f"bad interval bound {raw!r}")


def _load_domain(name: str, spec, monad_kind: str) -> Domain:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError(f"sort {name!r} needs a domain object with a 'kind'")
    kind = spec["kind"]
    if kind == "enum":
        values = tuple(_load_value(v) for v in spec.get("values", []))
        if not values:
            raise EmptyDomainError(f"sort {name!r} has an empty enumeration")
        if len(set(values)) != len(values):
            raise SchemaError(f"sort {name!r} has duplicate values")
        weights = spec.get("weights")
        if weights is not None and weights != "mean":
            if not isinstance(weights, dict):
                raise SchemaError(f"sort {name!r}: weights must be a map or \"mean\"")
            table = {}
            for v in values:
                # JSON object keys are strings; fall back for numeric values
                w = weights.get(v) if v in weights else weights.get(str(v))
                if w is None:
                    raise SchemaError(f"sort {name!r}: missing weight for {v!r}")
                if not isinstance(w, (int, float)) or w < 0:
                    raise SchemaError(f"sort {name!r}: bad weight {w!r}")
                table[v] = float(w)
            if all(w == 0.0 for w in table.values()):
                raise SchemaError(f"sort {name!r}: weights must not all be zero")
            weights = table
        return EnumDomain(values, weights)
    if kind == "int_range":
        lo, hi = spec.get("lo"), spec.get("hi")
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise SchemaError(f"sort {name!r}: int_range needs integer lo/hi")
        if lo > hi:
            raise EmptyDomainError(f"sort {name!r}: empty integer range [{lo}, {hi}]")
        return IntRangeDomain(lo, hi)
    if kind == "real_interval":
        if monad_kind != effects.SAMPLER:
            raise FiniteOnlyError(
                f"sort {name!r}: real intervals need the sampler kind, not {monad_kind!r}"
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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise SchemaError(f"sort {name!r}: uniform density needs finite bounds")
            return RealIntervalDomain(lo, hi, UniformDensity())
        if dkind == "normal":
            mu, sigma = density.get("mu"), density.get("sigma")
            if not isinstance(mu, (int, float)) or not isinstance(sigma, (int, float)):
                raise SchemaError(f"sort {name!r}: normal density needs mu and sigma")
            if not (math.isfinite(mu) and math.isfinite(sigma)):
                raise SchemaError(f"sort {name!r}: normal density needs finite mu and sigma")
            if sigma <= 0:
                raise SchemaError(f"sort {name!r}: normal density needs sigma > 0")
            truncated = math.isfinite(lo) or math.isfinite(hi)
            return RealIntervalDomain(lo, hi, NormalDensity(float(mu), float(sigma), truncated))
        raise SchemaError(f"sort {name!r}: unknown density {dkind!r}")
    raise SchemaError(f"sort {name!r}: unknown domain kind {kind!r}")


def row_key(row_args) -> Tuple[Value, ...]:
    """Validate the argument values of a document row as a table key."""
    return tuple(_load_value(a) for a in row_args)


def _load_ctable_payload(symbol: str, payload, monad_kind: str):
    if not isinstance(payload, list) or not payload:
        raise SchemaError(f"{symbol!r}: row payload must be a non-empty list")
    set_form = not isinstance(payload[0], list)
    if set_form:
        values = frozenset(_load_value(v) for v in payload)
        if monad_kind == effects.NONEMPTY_SET:
            return values
        if monad_kind == effects.IDENTITY:
            if len(values) != 1:
                raise SchemaError(
                    f"{symbol!r}: classical rows must be deterministic, got {sorted(map(repr, values))}"
                )
            return next(iter(values))
        raise SchemaError(f"{symbol!r}: value sets are only loadable under the lp kind")
    try:
        dist = effects.Dist((_load_value(v), p) for v, p in payload)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{symbol!r}: bad distribution row: {exc}") from exc
    if monad_kind == effects.IDENTITY:
        support = dist.support
        if len(support) != 1:
            raise SchemaError(f"{symbol!r}: classical rows must be deterministic")
        return support[0]
    if monad_kind == effects.NONEMPTY_SET:
        raise SchemaError(
            f"{symbol!r}: the lp kind needs set-valued rows (lists of values)"
        )
    return dist


def _spec_rows(symbol: str, spec) -> list:
    rows = spec.get("rows", [])
    if not isinstance(rows, list):
        raise SchemaError(f"{symbol!r}: 'rows' must be a list")
    return rows


def _load_table(symbol: str, spec, n_args: int, omega: bool):
    rows = {}
    for row in _spec_rows(symbol, spec):
        if not isinstance(row, list) or len(row) != n_args + 1:
            raise SchemaError(f"{symbol!r}: rows need {n_args} arguments plus a result")
        result = row[-1]
        if omega and not isinstance(result, bool):
            raise SchemaError(f"{symbol!r}: predicate rows must end in a boolean")
        rows[row_key(row[:-1])] = _load_value(result)
    return TableFunc(rows)


def _load_ctable(symbol: str, spec, n_args: int, monad_kind: str):
    rows = {}
    for row in _spec_rows(symbol, spec):
        if not isinstance(row, list) or len(row) != n_args + 1:
            raise SchemaError(f"{symbol!r}: rows need {n_args} arguments plus a payload")
        rows[row_key(row[:-1])] = _load_ctable_payload(symbol, row[-1], monad_kind)
    return CTable(rows)


def load_interpretation(doc, sig: Signature, monad_kind: str) -> Interpretation:
    """Load a JSON interpretation document against a signature.

    ``doc`` may be the document text or an already-parsed object.  Every
    sort and every symbol of the signature must be covered.
    """
    if monad_kind not in effects.MONAD_KINDS:
        raise KindMismatchError(f"unknown monad kind {monad_kind!r}")
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed interpretation document: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("interpretation document must be an object")
    unknown = set(doc) - {"sorts", "funcs", "mfuncs", "preds", "mpreds", "network"}
    if unknown:
        raise SchemaError(f"unknown interpretation keys: {sorted(unknown)}")

    sorts = {}
    sort_section = doc.get("sorts", {})
    for name in sig.sorts:
        if name not in sort_section:
            raise MissingSymbolError(f"no domain for sort {name!r}")
        sorts[name] = _load_domain(name, sort_section[name], monad_kind)
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

    def load_func(name, spec, arity):
        args = arity[0]
        kind = spec.get("kind")
        if kind == "table":
            return _load_table(name, spec, len(args), omega=False)
        if kind == "builtin":
            bname = spec.get("name")
            if bname not in _BUILTIN_FUNCS:
                raise SchemaError(f"{name!r}: unknown builtin function {bname!r}")
            if _BUILTIN_FUNCS[bname][0] != len(args):
                raise SchemaError(f"{name!r}: builtin {bname!r} arity mismatch")
            return BuiltinFunc(bname)
        raise SchemaError(f"{name!r}: function kind must be 'table' or 'builtin'")

    def load_pred(name, spec, args):
        kind = spec.get("kind")
        if kind == "table":
            return _load_table(name, spec, len(args), omega=True)
        if kind == "builtin":
            bname = spec.get("name")
            if bname not in _BUILTIN_PREDS:
                raise SchemaError(f"{name!r}: unknown builtin predicate {bname!r}")
            if _BUILTIN_PREDS[bname][0] != len(args):
                raise SchemaError(f"{name!r}: builtin {bname!r} arity mismatch")
            return BuiltinFunc(bname)
        raise SchemaError(f"{name!r}: predicate kind must be 'table' or 'builtin'")

    def load_stoch(name, spec, arity):
        args = arity[0]  # arity is (arg sorts, result sort or None)
        kind = spec.get("kind")
        if kind == "ctable":
            return _load_ctable(name, spec, len(args), monad_kind)
        if kind == "builtin":
            bname = spec.get("name")
            if bname not in _BUILTIN_STOCH:
                raise SchemaError(f"{name!r}: unknown stochastic builtin {bname!r}")
            if _BUILTIN_STOCH[bname] != len(args):
                raise SchemaError(f"{name!r}: builtin {bname!r} arity mismatch")
            if bname in _CONTINUOUS_BUILTINS and monad_kind != effects.SAMPLER:
                raise FiniteOnlyError(
                    f"{name!r}: builtin {bname!r} needs the sampler kind, not {monad_kind!r}"
                )
            return BuiltinStoch(bname)
        raise SchemaError(f"{name!r}: computational kind must be 'ctable' or 'builtin'")

    def load_mpred(name, spec, args):
        return load_stoch(name, spec, (args, None))

    return Interpretation(
        kind=monad_kind,
        sorts=sorts,
        funcs=section("funcs", sig.funcs, load_func),
        mfuncs=section("mfuncs", sig.mfuncs, load_stoch),
        preds=section("preds", sig.preds, lambda n, s, a: load_pred(n, s, a)),
        mpreds=section("mpreds", sig.mpreds, lambda n, s, a: load_mpred(n, s, a)),
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
