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
the syntax tree.  The exact kinds add a memo on every quantifier and
bind node, keyed on the valuation restricted to the node's free
variables: the same clause runs, but at most once per distinct
restriction.  On the bind chains of weighted model counting this turns
path enumeration into variable elimination.

Under the sampler kind every clause is staged as a *batch denotation*
instead: it maps a chunk of draws -- the valuation shared by the chunk,
per-draw value columns of the bind variables, and one 64-bit key state
per draw -- to the list of the draws' truth values.  The key tree is the
one a per-draw interpretation would use: a bind draws its outer value
at child 0 and runs its body at child 1, a connective evaluates its left
operand at child 0 and its right one at child 1, and the items of a
quantifier follow the left-nested fold (item ``j`` of ``m`` at child
0 taken ``m - 1 - j`` times, then child 1 unless ``j`` is 0).  A bind
builds each computation once per distinct argument tuple, draws the
outer values for the whole chunk and runs its body once on the extended
chunk; a subformula without a bind or a computational atom runs once
per distinct restriction of the chunk, never once per draw.

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
from .effects import RandomKey, child_states, draw_grouped
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
    boolean algebra lifted to samplers, whose batch evaluation applies
    the boolean table draw by draw); ``algebra_name`` keeps the
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
    """The unit embedding of basis truth values, fixed per exact framework."""
    kind = fw.monad_kind
    if kind == effects.IDENTITY:
        return lambda omega: omega
    if kind == effects.NONEMPTY_SET:
        return LP3.from_bool
    if fw.algebra.name == "stl_r":
        return lambda omega: math.inf if omega else -math.inf
    return lambda omega: 1.0 if omega else 0.0


def _robustness(x: float) -> float:
    """An expected robustness; NaN (mass on both +inf and -inf) has no reading."""
    if x != x:
        raise CarrierMismatchError(
            "expected robustness is undefined: outcomes at both +inf and -inf (stl_r)"
        )
    return x


def _matom_value(fw: Framework, c: effects.Computation):
    """Read a computational predicate's value as an exact framework's truth value."""
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
    if fw.algebra.name == "stl_r":
        # robustness rows may be numeric; crisp rows map to +/-inf
        total = 0.0
        for v, p in c.pairs:
            x = (math.inf if v else -math.inf) if isinstance(v, bool) else float(v)
            total += p * x
        return _robustness(total)
    return sum(p for v, p in c.pairs if _basis_bool(v))


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
    Under the sampler kind the denotation maps a valuation to a sampler
    over batches of draws (:func:`_compile_batches`).
    """
    kind = fw.monad_kind
    if kind == effects.SAMPLER:
        return _compile_batches(f, interp, budget, key)
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
        if not family.is_exact:
            raise FiniteOnlyError(
                f"quantifying continuous sort {f.sort!r} needs the sampler framework"
            )
        elements = family.items()
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
        stl = alg.name == "stl_r"

        def dist_fn(nu):
            total = 0.0
            for a, p in computation(nu).pairs:
                total += p * body({**nu, var: a})
            # the expectation is a convex combination; pin fp noise
            return _robustness(total) if stl else snap01(total)

        return dist_fn, free

    return comp(f, key)[0]


_NO_COLS: Dict[str, list] = {}
_ONE_ROW = range(1)
# computations a sampler bind or atom keeps; arguments read from draws of a
# continuous sort are new on every draw, so the table starts over when full
_KEPT_COMPUTATIONS = 4096


def _distinct(names, cols):
    """Group a chunk's rows by their values in the named columns.

    Returns the distinct restrictions as columns, their number, and each
    row's index into them.  Keys pair each value with its type, which
    keeps ``True``, ``1`` and ``1.0`` apart.
    """
    columns = [cols[name] for name in names]
    keys = zip(*columns, *(map(type, c) for c in columns))
    seen: dict = {}
    index = [seen.setdefault(k, len(seen)) for k in keys]
    distinct = list(zip(*seen)) or [()] * len(names)
    return dict(zip(names, distinct)), len(seen), index


def _grouped(fn, free: FrozenSet[str]):
    """Run a draw-free batch denotation once per distinct restriction of
    the chunk's valuation to ``free`` and spread the values over the rows."""
    names = tuple(sorted(free))

    def grouped(nu, cols, states):
        varying = [name for name in names if name in cols]
        if not varying:
            return fn(nu, _NO_COLS, _ONE_ROW) * len(states)
        sub, count, index = _distinct(varying, cols)
        if not count:
            return []
        values = fn(nu, sub, range(count))
        return [values[g] for g in index]

    return grouped


def _apply_rows(run, arg_fns, nu, cols, n):
    """Apply a resolved symbol to each row's argument values."""
    if not arg_fns:
        return [run(())] * n
    return list(map(run, zip(*[fn(nu, cols, n) for fn in arg_fns])))


def _compile_batches(
    f: syntax.Formula,
    interp: model.Interpretation,
    budget: Optional[int],
    key: Optional[RandomKey],
) -> Callable[[Valuation], effects.Sampler]:
    """Stage a formula under the sampler kind as batch denotations.

    Each clause returns ``(fn, free, draws)``: ``fn(nu, cols, states)``
    maps a chunk to its list of boolean values, ``free`` are its free
    variables and ``draws`` says whether it contains a bind or a
    computational atom.  Draw-free clauses never read the key states;
    where they meet a drawing one they are wrapped by :func:`_grouped`.
    Applying the result to a valuation first evaluates, on a chunk of no
    draws, everything a draw does not feed (outer computations, draw-free
    parts), so those errors surface then, and returns the sampler.
    """
    base = make_algebra("boolean")
    closed = frozenset()

    def term(t: syntax.Term):
        if isinstance(t, syntax.Var):
            name = t.name

            def var_fn(nu, cols, n):
                col = cols.get(name)
                if col is not None:
                    return col
                try:
                    return [nu[name]] * n
                except KeyError:
                    raise OpenFormulaError(f"no value for variable {name!r}") from None

            return var_fn, frozenset((name,))
        if isinstance(t, syntax.Lit):
            value = t.value
            return (lambda nu, cols, n: [value] * n), closed
        arg_fns, free = terms(t.args)
        run = model.compile_function(interp, t.func)
        return (lambda nu, cols, n: _apply_rows(run, arg_fns, nu, cols, n)), free

    def terms(ts):
        compiled = [term(a) for a in ts]
        return tuple(fn for fn, _ in compiled), closed.union(*(names for _, names in compiled))

    def computations(symbol, args, mismatch):
        """Per chunk: the computation of each distinct argument tuple, built
        once while the table holds fewer than ``_KEPT_COMPUTATIONS``, and
        each row's index into them."""
        arg_fns, free = terms(args)
        names = tuple(sorted(free))
        run = model.compile_computational(interp, symbol)
        table: dict = {}

        def lookup(nu, cols):
            varying = [name for name in names if name in cols]
            sub, count, index = _NO_COLS, 1, None
            if varying:
                sub, count, index = _distinct(varying, cols)
            comps = []
            rows = zip(*[fn(nu, sub, count) for fn in arg_fns]) if arg_fns else [()] * count
            for row in rows:
                k = (*row, *map(type, row))
                c = table.get(k)
                if c is None:
                    c = run(row)
                    if c.kind != effects.SAMPLER:
                        raise KindMismatchError(
                            f"{mismatch} a {c.kind!r} computation under the 'sampler' framework"
                        )
                    if len(table) == _KEPT_COMPUTATIONS:
                        table.clear()
                    table[k] = c
                comps.append(c)
            return comps, index

        return lookup, free

    def comp(f: syntax.Formula, key: Optional[RandomKey]):
        if isinstance(f, (syntax.Top, syntax.Bot, syntax.Prop)):
            if isinstance(f, syntax.Prop):
                value = model.apply_predicate(interp, f.name, ())
            else:
                value = base.top if isinstance(f, syntax.Top) else base.bot
            return (lambda nu, cols, states: [value] * len(states)), closed, False
        if isinstance(f, syntax.Atom):
            arg_fns, free = terms(f.args)
            run = model.compile_predicate(interp, f.pred)
            return (
                (lambda nu, cols, states: _apply_rows(run, arg_fns, nu, cols, len(states))),
                free,
                False,
            )
        if isinstance(f, (syntax.MProp, syntax.MAtom)):
            if isinstance(f, syntax.MProp):
                symbol, args = f.name, ()
            else:
                symbol, args = f.mpred, f.args
            lookup, free = computations(symbol, args, "computational symbol produced")

            def matom_fn(nu, cols, states):
                comps, index = lookup(nu, cols)
                if not states:
                    return []
                return [_basis_bool(v) for v in draw_grouped(comps, index, states)]

            return matom_fn, free, True
        if isinstance(f, syntax.Not):
            body, free, draws = comp(f.body, key)
            neg = base.neg
            return (lambda nu, cols, states: list(map(neg, body(nu, cols, states))), free, draws)
        if isinstance(f, (syntax.And, syntax.Or, syntax.Implies)):
            return comp_connective(f, key)
        if isinstance(f, (syntax.Forall, syntax.Exists)):
            return comp_quantifier(f, key)
        if isinstance(f, syntax.Bind):
            return comp_bind(f, key)
        raise TypeError(f"not a formula: {f!r}")

    def comp_connective(f, key):
        left, left_free, left_draws = comp(f.left, key.child(0) if key is not None else None)
        right, right_free, right_draws = comp(f.right, key.child(1) if key is not None else None)
        op = {syntax.And: base.conj, syntax.Or: base.disj, syntax.Implies: base.implies}[type(f)]
        draws = left_draws or right_draws
        if draws:
            left = left if left_draws else _grouped(left, left_free)
            right = right if right_draws else _grouped(right, right_free)

        def connective_fn(nu, cols, states):
            a = left(nu, cols, child_states(states, 0) if left_draws else states)
            b = right(nu, cols, child_states(states, 1) if right_draws else states)
            return list(map(op, a, b))

        return connective_fn, left_free | right_free, draws

    def comp_quantifier(f, key):
        op = base.conj if isinstance(f, syntax.Forall) else base.disj
        fam_key = key.child(0) if key is not None else None
        family = model.quantifier_family(interp, f.sort, budget, fam_key)
        if family.is_exact:
            items = family.items()
        else:
            # the points are fixed per compilation
            items = tuple((1.0, a) for a in family.values)
        unit_weights = all(w == 1.0 for w, _ in items)
        points = [a for _, a in items]
        body, body_free, draws = comp(f.body, key.child(1) if key is not None else None)
        var = f.var

        def quant_fn(nu, cols, states):
            if var in cols:
                cols = {name: col for name, col in cols.items() if name != var}
            acc = None
            # last item first: item j of m sits at child 0 taken m - 1 - j
            # times, then child 1 unless j is 0, so one pass walks the chain
            for j in range(len(points) - 1, -1, -1):
                item_states = states
                if draws and j:
                    item_states, states = child_states(states, 1), child_states(states, 0)
                values = body({**nu, var: points[j]}, cols, item_states)
                acc = values if acc is None else list(map(op, values, acc))
            if not unit_weights:
                raise CarrierMismatchError("sampler quantifiers support unit weights only")
            return acc

        return quant_fn, body_free - {var}, draws

    def comp_bind(f, key):
        var = f.var
        lookup, args_free = computations(f.mfunc, f.args, f"bind of {f.mfunc!r} produced")
        body, body_free, body_draws = comp(f.body, key.child(0) if key is not None else None)
        if not body_draws:
            body = _grouped(body, body_free)

        def bind_fn(nu, cols, states):
            comps, index = lookup(nu, cols)
            if not states:
                return []
            drawn = draw_grouped(comps, index, child_states(states, 0))
            if var in nu:
                nu = {name: v for name, v in nu.items() if name != var}
            return body(nu, {**cols, var: drawn}, child_states(states, 1))

        return bind_fn, args_free | (body_free - {var}), True

    fn, free, draws = comp(f, key)
    names = tuple(sorted(free))

    def denotation(nu):
        for name in names:
            if name not in nu:
                raise OpenFormulaError(f"no value for variable {name!r}")
        if not draws:
            return effects.unit(effects.SAMPLER, fn(nu, _NO_COLS, _ONE_ROW)[0])
        fn(nu, _NO_COLS, ())  # a chunk of no draws: build what no draw feeds
        return effects.Sampler(draw=lambda states: fn(nu, _NO_COLS, states))

    return denotation


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
    return the truth value directly.  Compilation and evaluation recurse
    along the formula (a quantifier's items are folded in a loop), so
    nesting beyond the interpreter's recursion limit raises
    :class:`NestingTooDeepError`.
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
