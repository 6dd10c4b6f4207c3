"""The uniform inductive evaluator.

One structural recursion interprets every formula, parameterized by a
:class:`Framework` (a monad kind plus a truth algebra on the monadic
truth space) and an interpretation of the signature:

* atoms apply the interpreted predicate and embed the result with the
  monad's unit,
* connectives apply the algebra's operation table,
* quantifiers aggregate the weighted family of per-element values,
* bind formulas sequence the computation with the Kleisli extension.

The recursion runs once and yields the denotation as a function from
valuations to truth values (``compile_formula``); evaluation applies it.
Nothing is compiled away or restructured: the staged function mirrors
the inductive definition clause by clause, it just avoids re-walking
the syntax tree on every Monte Carlo draw.  The one addition is a memo
on every quantifier and bind node, keyed on the valuation restricted to
the node's free variables: the same clause runs, but at most once per
distinct restriction.  On the bind chains of weighted model counting
this turns path enumeration into variable elimination.

The four supported pairings are classical (identity monad, boolean
algebra), logic-of-paradox (non-empty sets, three-valued algebra),
distributional (finite distributions, any probability-carrier algebra
including the smooth robustness one), and sampling (seeded boolean
samplers with the lifted boolean connectives, whose expectations agree
with the product algebra).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional

from . import effects, model, syntax
from .algebra import (
    LP3,
    TruthAlgebra,
    WeightedFamily,
    aggregate,
    lift_algebra,
    make_algebra,
    snap01,
)
from .effects import RandomKey
from .errors import (
    BudgetMissingError,
    CarrierMismatchError,
    FiniteOnlyError,
    KindMismatchError,
    NestingTooDeepError,
    OpenFormulaError,
)

Valuation = Dict[str, model.Value]

_COMPATIBLE = {
    effects.IDENTITY: ("boolean",),
    effects.NONEMPTY_SET: ("priest",),
    effects.DISTRIBUTION: ("product", "sproduct", "ltn_p", "ltn_q", "stl_r"),
    effects.SAMPLER: ("product",),
}


@dataclass(frozen=True)
class Framework:
    """A monad kind paired with a compatible truth algebra.

    ``algebra`` holds the operational table (for the sampler kind, the
    boolean algebra lifted to samplers); ``algebra_name`` keeps the
    user-facing selection for reporting.
    """

    monad_kind: str
    algebra: TruthAlgebra
    algebra_name: str


def make_framework(monad_kind: str, algebra: TruthAlgebra) -> Framework:
    """Pair a monad kind with an algebra, rejecting incompatible mixes."""
    allowed = _COMPATIBLE.get(monad_kind)
    if allowed is None:
        raise KindMismatchError(f"unknown monad kind {monad_kind!r}")
    if algebra.name not in allowed:
        raise CarrierMismatchError(
            f"monad kind {monad_kind!r} supports algebras {allowed}, not {algebra.name!r}"
        )
    if monad_kind == effects.SAMPLER:
        operational = lift_algebra(make_algebra("boolean"), effects.SAMPLER)
    else:
        operational = algebra
    return Framework(monad_kind, operational, algebra.name)


@dataclass(frozen=True)
class EvalReport:
    """Sentence-level result: the truth value plus run metadata."""

    value: object
    monad_kind: str
    algebra: str
    samples: Optional[int] = None
    seed: Optional[int] = None
    stderr: Optional[float] = None


def eval_term(term: syntax.Term, interp: model.Interpretation, nu: Valuation):
    if isinstance(term, syntax.Var):
        if term.name not in nu:
            raise OpenFormulaError(f"no value for variable {term.name!r}")
        return nu[term.name]
    if isinstance(term, syntax.Lit):
        return term.value
    return model.apply_function(
        interp, term.func, [eval_term(a, interp, nu) for a in term.args]
    )


def _basis_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    if v in (0, 1):
        return bool(v)
    raise CarrierMismatchError(f"{v!r} is not a truth-basis value")


def _eta_fn(fw: Framework) -> Callable[[bool], object]:
    """The unit embedding of basis truth values, fixed per framework."""
    kind = fw.monad_kind
    if kind == effects.IDENTITY:
        return lambda omega: omega
    if kind == effects.NONEMPTY_SET:
        return LP3.from_bool
    if kind == effects.DISTRIBUTION:
        if fw.algebra.name == "stl_r":
            return lambda omega: math.inf if omega else -math.inf
        return lambda omega: 1.0 if omega else 0.0
    return lambda omega: effects.unit(effects.SAMPLER, omega)


def _eta(fw: Framework, omega: bool):
    """Embed a basis truth value into the framework's truth space."""
    return _eta_fn(fw)(omega)


def _matom_value(fw: Framework, c: effects.Computation):
    """Read a computational predicate's value as a framework truth value."""
    if fw.monad_kind == effects.IDENTITY:
        raise CarrierMismatchError(
            "computational predicates have no classical reading; "
            "use a transformation or a non-classical framework"
        )
    if c.kind != fw.monad_kind:
        raise KindMismatchError(
            f"computational symbol produced a {c.kind!r} value under "
            f"the {fw.monad_kind!r} framework"
        )
    if fw.monad_kind == effects.NONEMPTY_SET:
        return LP3.from_members(_basis_bool(v) for v in c.values)
    if fw.monad_kind == effects.DISTRIBUTION:
        if fw.algebra.name == "stl_r":
            # robustness rows may be numeric; crisp rows map to +/-inf
            total = 0.0
            for v, p in c.pairs:
                x = (math.inf if v else -math.inf) if isinstance(v, bool) else float(v)
                total += p * x
            return total
        return sum(p for v, p in c.pairs if _basis_bool(v))
    return _bool_sampler(c)


def _bool_sampler(c: effects.Sampler) -> effects.Sampler:
    if c.is_const:
        return effects.unit(effects.SAMPLER, _basis_bool(c.const))
    return effects.Sampler(lambda key: _basis_bool(c.sample(key)))


_MISSING = object()


def _memoized(fn: Callable[[Valuation], object], free: FrozenSet[str]):
    """Cache a node's denotation on the valuation restricted to ``free``.

    A denotation reads its free variables and nothing else of the
    valuation, and every monad's value is a pure function of what it reads
    (a sampler's value is a procedure of its key), so equal restrictions
    give equal values.  Keys pair each value with its type, which keeps
    ``True``, ``1`` and ``1.0`` apart.  The table lives in the closure and
    dies with the compiled denotation.
    """
    names = tuple(sorted(free))
    cache: dict = {}

    def memo_fn(nu):
        try:
            values = [nu[name] for name in names]
        except KeyError as exc:
            raise OpenFormulaError(f"no value for variable {exc.args[0]!r}") from None
        key = (*values, *map(type, values))
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = fn(nu)
        return value

    return memo_fn


def compile_formula(
    f: syntax.Formula,
    fw: Framework,
    interp: model.Interpretation,
    budget: Optional[int] = None,
    key: Optional[RandomKey] = None,
) -> Callable[[Valuation], object]:
    """Build the denotation of a sort-checked formula: a function from
    valuations of its free variables to truth values.

    ``budget`` and ``key`` fix the sampled points of continuous-sort
    quantifiers (sampler framework); exact frameworks ignore them.  Each
    clause returns its denotation together with its free variables, and
    quantifier and bind nodes are memoized on them (:func:`_memoized`).
    """
    kind = fw.monad_kind
    alg = fw.algebra
    eta = _eta_fn(fw)
    closed = frozenset()

    def comp_term(t: syntax.Term):
        if isinstance(t, syntax.Var):
            name = t.name

            def var_fn(nu):
                try:
                    return nu[name]
                except KeyError:
                    raise OpenFormulaError(f"no value for variable {name!r}") from None

            return var_fn, frozenset((name,))
        if isinstance(t, syntax.Lit):
            value = t.value
            return (lambda nu: value), closed
        arg_fns, free = comp_terms(t.args)
        run = model.compile_function(interp, t.func)
        return (lambda nu: run([fn(nu) for fn in arg_fns])), free

    def comp_terms(terms):
        compiled = [comp_term(a) for a in terms]
        free = closed.union(*(names for _, names in compiled))
        return tuple(fn for fn, _ in compiled), free

    def comp(f: syntax.Formula, key: Optional[RandomKey]):
        if isinstance(f, syntax.Top):
            top = alg.top
            return (lambda nu: top), closed
        if isinstance(f, syntax.Bot):
            bot = alg.bot
            return (lambda nu: bot), closed
        if isinstance(f, syntax.Prop):
            value = eta(model.apply_predicate(interp, f.name, ()))
            return (lambda nu: value), closed
        if isinstance(f, syntax.Atom):
            arg_fns, free = comp_terms(f.args)
            run = model.compile_predicate(interp, f.pred)
            return (lambda nu: eta(run([fn(nu) for fn in arg_fns]))), free
        if isinstance(f, syntax.MProp):
            value = _matom_value(fw, model.apply_computational(interp, f.name, []))
            return (lambda nu: value), closed
        if isinstance(f, syntax.MAtom):
            arg_fns, free = comp_terms(f.args)
            run = model.compile_computational(interp, f.mpred)
            return (lambda nu: _matom_value(fw, run([fn(nu) for fn in arg_fns]))), free
        if isinstance(f, syntax.Not):
            body, free = comp(f.body, key)
            neg = alg.neg
            return (lambda nu: neg(body(nu))), free
        if isinstance(f, (syntax.And, syntax.Or, syntax.Implies)):
            left, left_free = comp(f.left, key.child(0) if key is not None else None)
            right, right_free = comp(f.right, key.child(1) if key is not None else None)
            op = {
                syntax.And: alg.conj,
                syntax.Or: alg.disj,
                syntax.Implies: alg.implies,
            }[type(f)]
            return (lambda nu: op(left(nu), right(nu))), left_free | right_free
        if isinstance(f, (syntax.Forall, syntax.Exists)):
            fn, free = comp_quantifier(f, key)
        elif isinstance(f, syntax.Bind):
            fn, free = comp_bind(f, key)
        else:
            raise TypeError(f"not a formula: {f!r}")
        return _memoized(fn, free), free

    def comp_quantifier(f, key):
        quant = "forall" if isinstance(f, syntax.Forall) else "exists"
        fam_key = key.child(0) if key is not None else None
        family = model.quantifier_family(interp, f.sort, budget, fam_key)
        if family.is_exact:
            elements = family.items()
        else:
            if kind != effects.SAMPLER:
                raise FiniteOnlyError(
                    f"quantifying continuous sort {f.sort!r} needs the sampler framework"
                )
            # points are fixed per compilation; each draw of the resulting
            # sampler then draws the body once per point and folds
            elements = tuple((1.0, a) for a in family.values)
        body, body_free = comp(f.body, key.child(1) if key is not None else None)
        var = f.var

        def quant_fn(nu):
            pairs = [(w, body({**nu, var: a})) for w, a in elements]
            return aggregate(alg, quant, WeightedFamily.exact(pairs))

        return quant_fn, body_free - {var}

    def comp_bind(f, key):
        arg_fns, args_free = comp_terms(f.args)
        body, body_free = comp(f.body, key.child(0) if key is not None else None)
        var, mfunc = f.var, f.mfunc
        run = model.compile_computational(interp, mfunc)
        free = args_free | (body_free - {var})

        def computation(nu):
            c = run([fn(nu) for fn in arg_fns])
            if c.kind != kind:
                raise KindMismatchError(
                    f"bind of {mfunc!r} produced a {c.kind!r} computation under "
                    f"the {kind!r} framework"
                )
            return c

        if kind == effects.IDENTITY:
            return (lambda nu: body({**nu, var: computation(nu).value})), free
        if kind == effects.NONEMPTY_SET:

            def lp_fn(nu):
                members = set()
                for a in computation(nu).values:
                    members |= body({**nu, var: a}).members
                return LP3.from_members(members)

            return lp_fn, free
        if kind == effects.DISTRIBUTION:
            stl = alg.name == "stl_r"

            def dist_fn(nu):
                total = 0.0
                for a, p in computation(nu).pairs:
                    total += p * body({**nu, var: a})
                # the expectation is a convex combination; pin fp noise
                return total if stl else snap01(total)

            return dist_fn, free

        def sampler_fn(nu):
            return effects.bind(computation(nu), lambda a: body({**nu, var: a}))

        return sampler_fn, free

    return comp(f, key)[0]


def eval_formula(
    f: syntax.Formula,
    fw: Framework,
    interp: model.Interpretation,
    nu: Valuation,
    budget: Optional[int] = None,
    key: Optional[RandomKey] = None,
):
    """Evaluate a sort-checked formula under a valuation of its free
    variables."""
    return compile_formula(f, fw, interp, budget, key)(nu)


def evaluate_sentence(
    f: syntax.Formula,
    fw: Framework,
    interp: model.Interpretation,
    budget: Optional[int] = None,
    seed: Optional[int] = None,
) -> EvalReport:
    """Evaluate a closed formula and realize the result.

    Sampler-framework runs need ``budget`` and ``seed`` and report an
    estimate with its binomial standard error; the exact frameworks
    return the truth value directly.  Compilation, evaluation and
    realization recurse along the formula (and, under the sampler, along
    each quantifier's fold), so nesting beyond the interpreter's
    recursion limit raises :class:`NestingTooDeepError`.
    """
    try:
        fv = syntax.free_vars(f)
        if fv:
            names = ", ".join(name for name, _ in fv)
            raise OpenFormulaError(f"sentence has free variables: {names}")

        if fw.monad_kind == effects.SAMPLER:
            if budget is None or seed is None:
                raise BudgetMissingError("sampler evaluation needs a sample budget and a seed")
            root = RandomKey(seed)
            value = eval_formula(f, fw, interp, {}, budget, root.child(1))
            realized = effects.realize(value, budget, root.child(0))
            return EvalReport(
                value=realized.value,
                monad_kind=fw.monad_kind,
                algebra=fw.algebra_name,
                samples=budget,
                seed=seed,
                stderr=realized.stderr,
            )
        value = eval_formula(f, fw, interp, {}, budget, None)
        return EvalReport(value=value, monad_kind=fw.monad_kind, algebra=fw.algebra_name)
    except RecursionError:
        raise NestingTooDeepError(
            "formula nests too deeply to evaluate "
            f"(recursion limit {sys.getrecursionlimit()})"
        ) from None
