"""Truth algebras: connective tables and quantifier reductions.

Each algebra packages the constants, the unary negation, the three binary
connectives and a pair of quantifier reductions (the evaluator's only way
to reduce a quantifier's items, under every monad) over one carrier:

* ``boolean``  -- classical two-valued logic on ``bool``.
* ``priest``   -- the three-valued logic of paradox on F < B < T.
* ``product``  -- probabilities with the product t-norm, probabilistic sum,
  Goguen (residual) implication and residual negation.
* ``sproduct`` -- same monoids with the strong implication 1 - x + x*y and
  involutive negation.
* ``ltn_p``    -- sproduct connectives with p-mean quantifiers (p >= 1).
* ``ltn_q``    -- sproduct connectives with log-power q-mean quantifiers
  (1/2 <= q <= 1); the universal quantifier tends to the geometric mean as
  q -> 1 and the existential one is its de-Morgan dual.
* ``stl_r``    -- extended-real robustness values combined with the smooth
  min/max approximations A^r / O^r (r > 0).  Only approximately a double
  monoid: the smooth connectives are not associative, so the monoid-law
  self-tests skip them by design.

``lift_algebra`` builds the canonical algebra on computations over a base
carrier: every connective binds its arguments and re-embeds the base
result, so e.g. lifting the boolean algebra over distributions yields the
closed forms p*q, p + q - p*q, 1 - p and 1 - p + p*q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterable, Sequence, Tuple

from . import effects
from .effects import LP3, basis, snap01
from .errors import (
    ArityMismatchError,
    CarrierMismatchError,
    EmptyFamilyError,
    ExactOnlyError,
    NegativeWeightError,
    ParamOutOfRangeError,
    UnknownAlgebraError,
)

_LN_ZERO = 1e-300  # values below this count as 0 and contribute ln 0 = -inf

BOOL = "bool"
LP3_CARRIER = "lp3"
PROB = "prob"
XREAL = "xreal"
SAMPLER_CARRIER = "sampler"

FORALL = "forall"
EXISTS = "exists"


_PRIEST_NEG = (LP3.T, LP3.B, LP3.F)  # indexed by F, B, T


class WeightedFamily:
    """A family of items to aggregate: exact weighted pairs or a sampled batch.

    Exact families pair every item with a nonnegative weight (not all
    zero); sampled families hold a deterministic batch of N >= 1 draws.
    """

    __slots__ = ("kind", "pairs", "values")

    def __init__(self, kind, pairs=None, values=None):
        self.kind = kind
        self.pairs = pairs
        self.values = values

    @classmethod
    def exact(cls, pairs: Iterable[Tuple[float, object]]) -> "WeightedFamily":
        ps = tuple((float(w), v) for w, v in pairs)
        for w, _ in ps:
            if w < 0.0:
                raise NegativeWeightError(f"negative family weight {w!r}")
            if not math.isfinite(w):
                raise NegativeWeightError(f"non-finite family weight {w!r}")
        if not ps or all(w == 0.0 for w, _ in ps):
            raise EmptyFamilyError("exact family needs at least one positive weight")
        return cls("exact", pairs=ps)

    @classmethod
    def sampled(cls, values: Sequence[object]) -> "WeightedFamily":
        vs = tuple(values)
        if not vs:
            raise EmptyFamilyError("sampled family needs at least one draw")
        return cls("sampled", values=vs)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def items(self):
        """Positive-weight items of an exact family."""
        return tuple((w, v) for w, v in self.pairs if w > 0.0)

    def __repr__(self):
        body = self.pairs if self.is_exact else self.values
        return f"WeightedFamily({self.kind}, {body!r})"


@dataclass(frozen=True)
class TruthAlgebra:
    """An operation table over one truth-value carrier.

    ``forall`` and ``exists`` reduce a block: ``(weights, rows)`` maps an
    iterable of value tuples, each as long as the positive ``weights``, to
    a list of one value per row, unchecked.  ``pin`` returns an expectation
    of carrier values (a bind under finite distributions) to the carrier,
    and ``embed`` reads an outcome of a computational predicate as a truth
    value; by default the unit embedding of the basis, ``top`` or ``bot``.
    """

    name: str
    carrier: str
    top: object
    bot: object
    neg: Callable
    conj: Callable
    disj: Callable
    implies: Callable
    forall: Callable
    exists: Callable
    pin: Callable = snap01
    embed: Callable = None
    params: dict = field(default_factory=dict)
    approximate: bool = False  # smooth connectives; monoid laws hold only in the limit

    def __post_init__(self):
        if self.embed is None:
            top, bot = self.top, self.bot
            object.__setattr__(self, "embed", lambda v: top if basis(v) else bot)


# connective tables


def _prob_implies_residual(x: float, y: float) -> float:
    return 1.0 if x <= y else y / x


def _prob_neg_residual(x: float) -> float:
    return 1.0 if x == 0.0 else 0.0


def _signed_pow(x: float, q: float) -> float:
    """Odd extension of the power map, so log-space means stay real."""
    if x == 0.0:
        return 0.0
    if x == -math.inf:
        return -math.inf
    if x == math.inf:
        return math.inf
    return math.copysign(abs(x) ** q, x)


def _smooth_min(weights: Sequence[float], values: Sequence[float], r: float) -> float:
    """Weighted smooth-minimum of extended reals; tends to min as r grows.

    Three cases split on the sign of the minimum; +inf entries carry
    vanishing weight and drop out unless every entry is +inf.  NaN is no
    robustness value, and the minimum scan would skip it, so it is rejected.
    """
    finite_min = math.inf
    for v in values:
        if v < finite_min:
            finite_min = v
        elif v != v:
            raise CarrierMismatchError("nan is not a robustness value (stl_r)")
    m = finite_min
    if m == math.inf:
        return math.inf
    if m == -math.inf:
        return -math.inf
    if m == 0.0:
        return 0.0
    num = den = 0.0
    if m < 0.0:
        for w, v in zip(weights, values):
            if v == math.inf:
                continue
            t = (v - m) / m  # <= 0
            e = math.exp(r * t)
            num += w * m * math.exp(t) * e
            den += w * e
    else:
        for w, v in zip(weights, values):
            if v == math.inf:
                continue
            t = (v - m) / m  # >= 0
            e = math.exp(-r * t)
            num += w * v * e
            den += w * e
    return num / den


def _smooth_max(weights: Sequence[float], values: Sequence[float], r: float) -> float:
    return -_smooth_min(weights, [-v for v in values], r)


def make_algebra(name: str, params: dict = None) -> TruthAlgebra:
    """Build a named truth algebra, validating its parameters."""
    params = dict(params or {})
    if name == "boolean":
        return TruthAlgebra(
            name, BOOL, True, False,
            neg=lambda x: not x,
            conj=lambda x, y: x and y,
            disj=lambda x, y: x or y,
            implies=lambda x, y: (not x) or y,
            forall=lambda weights, rows: list(map(all, rows)),
            exists=lambda weights, rows: list(map(any, rows)),
        )
    if name == "priest":
        # min and max of members return a member; negation is a lookup
        return TruthAlgebra(
            name, LP3_CARRIER, LP3.T, LP3.F,
            neg=lambda x: _PRIEST_NEG[x],
            conj=min,
            disj=max,
            implies=lambda x, y: max(_PRIEST_NEG[x], y),
            forall=lambda weights, rows: list(map(min, rows)),
            exists=lambda weights, rows: list(map(max, rows)),
        )
    product_forall = _rowwise(_weighted_product)
    product_exists = _rowwise(lambda ws, vs: 1.0 - _weighted_product(ws, _complement(vs)))
    if name == "product":
        return TruthAlgebra(
            name, PROB, 1.0, 0.0,
            neg=_prob_neg_residual,
            conj=lambda x, y: x * y,
            disj=lambda x, y: snap01(x + y - x * y),
            implies=_prob_implies_residual,
            forall=product_forall,
            exists=product_exists,
        )
    if name in ("sproduct", "ltn_p", "ltn_q"):
        forall, exists = product_forall, product_exists
        if name == "ltn_p":
            p = float(params.get("p", 0.0))
            if not (math.isfinite(p) and p >= 1.0):
                raise ParamOutOfRangeError(f"ltn_p needs a finite p >= 1, got {params.get('p')!r}")
            params = {"p": p}
            forall = _rowwise(lambda ws, vs: snap01(1.0 - _pmean(ws, _complement(vs), p)), True)
            exists = _rowwise(lambda ws, vs: snap01(_pmean(ws, vs, p)), True)
        elif name == "ltn_q":
            q = float(params.get("q", 0.0))
            if not 0.5 <= q <= 1.0:
                raise ParamOutOfRangeError(f"ltn_q needs 1/2 <= q <= 1, got {params.get('q')!r}")
            params = {"q": q}
            forall = _rowwise(lambda ws, vs: snap01(_log_power_forall(ws, vs, q)), True)
            exists = _rowwise(
                lambda ws, vs: snap01(1.0 - _log_power_forall(ws, _complement(vs), q)), True
            )
        else:
            params = {}
        return TruthAlgebra(
            name, PROB, 1.0, 0.0,
            neg=lambda x: 1.0 - x,
            conj=lambda x, y: x * y,
            disj=lambda x, y: snap01(x + y - x * y),
            implies=lambda x, y: snap01(1.0 - x + x * y),
            forall=forall,
            exists=exists,
            params=params,
        )
    if name == "stl_r":
        r = float(params.get("r", 0.0))
        if not (math.isfinite(r) and r > 0.0):
            raise ParamOutOfRangeError(f"stl_r needs a finite r > 0, got {params.get('r')!r}")
        return TruthAlgebra(
            name, XREAL, math.inf, -math.inf,
            neg=lambda x: -x,
            conj=lambda x, y: _smooth_min((1.0, 1.0), (x, y), r),
            disj=lambda x, y: _smooth_max((1.0, 1.0), (x, y), r),
            implies=lambda x, y: _smooth_max((1.0, 1.0), (-x, y), r),
            forall=_rowwise(lambda ws, vs: _smooth_min(ws, vs, r)),
            exists=_rowwise(lambda ws, vs: _smooth_max(ws, vs, r)),
            pin=_robustness,
            embed=_robustness_outcome,
            params={"r": r},
            approximate=True,
        )
    raise UnknownAlgebraError(f"unknown algebra {name!r}")


def parse_algebra_string(text: str) -> TruthAlgebra:
    """Parse a selection string: boolean | priest | product | sproduct |
    ltn:p=<float> | ltnq:q=<float> | stl:r=<float>."""
    head, _, tail = text.partition(":")
    if head in ("boolean", "priest", "product", "sproduct") and not tail:
        return make_algebra(head)
    named = {"ltn": ("ltn_p", "p"), "ltnq": ("ltn_q", "q"), "stl": ("stl_r", "r")}
    if head in named and tail:
        name, pname = named[head]
        key, _, raw = tail.partition("=")
        if key == pname:
            try:
                value = float(raw)
            except ValueError:
                raise UnknownAlgebraError(f"bad algebra parameter in {text!r}")
            return make_algebra(name, {pname: value})
    raise UnknownAlgebraError(f"unknown algebra selection {text!r}")


def check_carrier(alg: TruthAlgebra, v):
    """Coerce and validate one truth value against the algebra's carrier."""
    if alg.carrier == BOOL:
        if isinstance(v, bool):
            return v
    elif alg.carrier == LP3_CARRIER:
        if isinstance(v, LP3):
            return v
    elif alg.carrier == PROB:
        if isinstance(v, (int, float)) and not isinstance(v, bool) and 0.0 <= v <= 1.0:
            return float(v)
    elif alg.carrier == XREAL:
        if isinstance(v, (int, float)) and not isinstance(v, bool) and not math.isnan(v):
            return float(v)
    elif alg.carrier == SAMPLER_CARRIER:
        if isinstance(v, effects.Sampler):
            return v
    raise CarrierMismatchError(f"{v!r} is not a {alg.carrier} truth value ({alg.name})")


_CONNECTIVES = {"neg": 1, "conj": 2, "disj": 2, "implies": 2}


def apply_connective(alg: TruthAlgebra, op: str, args: Sequence):
    """Apply one of neg/conj/disj/implies to carrier-checked arguments."""
    if op not in _CONNECTIVES:
        raise ArityMismatchError(f"unknown connective {op!r}")
    if len(args) != _CONNECTIVES[op]:
        raise ArityMismatchError(f"{op} expects {_CONNECTIVES[op]} arguments, got {len(args)}")
    checked = [check_carrier(alg, a) for a in args]
    return getattr(alg, op)(*checked)


# quantifier reductions


def _rowwise(fn: Callable, normalize: bool = False) -> Callable:
    """The block reduction running ``fn(weights, row)`` on each row; with
    ``normalize`` the weights are scaled to sum to 1, once per block."""

    def reduce_block(weights, rows):
        if normalize:
            total = sum(weights)
            weights = [w / total for w in weights]
        return [fn(weights, row) for row in rows]

    return reduce_block


def _weighted_product(weights, values) -> float:
    total = 1.0
    for w, x in zip(weights, values):
        if x < _LN_ZERO:
            return 0.0
        total *= x**w
    return total


def _complement(values):
    return [1.0 - v for v in values]


def _pmean(weights, values, p: float) -> float:
    acc = 0.0
    for w, v in zip(weights, values):
        acc += w * v**p
    return acc ** (1.0 / p)


def _log_power_forall(weights, values, q: float) -> float:
    acc = 0.0
    for w, v in zip(weights, values):
        if v < _LN_ZERO:
            return 0.0
        acc += w * _signed_pow(math.log(v), q)
    return math.exp(_signed_pow(acc, 1.0 / q))


def aggregate(alg: TruthAlgebra, kind: str, fam: WeightedFamily):
    """Reduce an exact weighted family of truth values with the algebra's
    quantifier (``forall`` or ``exists``): its block reduction on one row.
    The items are checked against the carrier first; the evaluator's values
    come from the algebra's own operations and skip this call.  A sampled
    family has no weights and is rejected."""
    if kind not in (FORALL, EXISTS):
        raise ArityMismatchError(f"unknown aggregation kind {kind!r}")
    if not fam.is_exact:
        raise ExactOnlyError(f"{alg.name} aggregates exact finite families only")
    items = fam.items()
    row = tuple(check_carrier(alg, v) for _, v in items)
    return getattr(alg, kind)(tuple(w for w, _ in items), (row,))[0]


def _robustness(x: float) -> float:
    """An expected robustness; NaN (mass on both +inf and -inf) has no reading."""
    if x != x:
        raise CarrierMismatchError(
            "expected robustness is undefined: outcomes at both +inf and -inf (stl_r)"
        )
    return x


def _robustness_outcome(v) -> float:
    """A computational predicate's outcome as a robustness: crisp outcomes
    at +inf or -inf, numbers other than NaN as they are."""
    if isinstance(v, bool):
        return math.inf if v else -math.inf
    if isinstance(v, (int, float)) and v == v:
        return float(v)
    raise CarrierMismatchError(f"{v!r} is not a robustness value (stl_r)")


# lifting


def lift_algebra(base: TruthAlgebra, monad_kind: str) -> TruthAlgebra:
    """Lift a base algebra to computations: bind the arguments, apply the
    base operation, and return the unit of the result.  Truth values are
    read off the computations with the monad's ``truth``, and the
    quantifiers fold the lifted connectives."""
    if base.carrier != BOOL:
        raise CarrierMismatchError("only the boolean base algebra is lifted")
    monad = effects.monad(monad_kind)
    embed, extract, unit = monad.embed, monad.truth, monad.unit

    def lifted_unop(op):
        def run(a):
            return extract(effects.bind(embed(a), lambda x: unit(op(x))))

        return run

    def lifted_binop(op):
        def run(a, b):
            ca, cb = embed(a), embed(b)
            return extract(
                effects.bind(ca, lambda x: effects.bind(cb, lambda y: unit(op(x, y))))
            )

        return run

    def folded(op):
        return lambda weights, rows: [reduce(op, row) for row in rows]

    conj, disj = lifted_binop(base.conj), lifted_binop(base.disj)
    return TruthAlgebra(
        name=f"lifted_{base.name}_{monad_kind}",
        carrier=monad.carrier,
        top=extract(unit(base.top)),
        bot=extract(unit(base.bot)),
        neg=lifted_unop(base.neg),
        conj=conj,
        disj=disj,
        implies=lifted_binop(base.implies),
        forall=folded(conj),
        exists=folded(disj),
    )
