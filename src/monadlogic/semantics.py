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
the syntax tree.  Every clause is staged as a *batch denotation* that
maps many valuations at once, held as value columns, to their truth
values.

Under the exact kinds (identity, non-empty sets, finite distributions)
applying the denotation turns the valuation into one-row columns.
Atoms and connectives map over whole columns.  A quantifier extends
each row by every family element and aggregates each row's slice, in
item order.  A bind extends each row by its computation's support and
folds the rows back: the single outcome (identity), the union of
members (non-empty sets), or the expectation in support order
(distributions).  Quantifier and bind nodes group their rows by the
restriction to the node's free variables and compute only restrictions
the node has not met before, keeping the values for as long as the
denotation lives.  On the bind chains of weighted model counting this
turns path enumeration into variable elimination.

Under the sampler kind a batch denotation maps a chunk of draws -- the
valuation shared by the chunk, per-draw value columns of the bind
variables, and one 64-bit key state per draw -- to the list of the
draws' truth values.  The key tree is the one a per-draw interpretation
would use: a bind draws its outer value at child 0 and runs its body at
child 1, a connective evaluates its left operand at child 0 and its
right one at child 1, and the items of a quantifier follow the
left-nested fold (item ``j`` of ``m`` at child 0 taken ``m - 1 - j``
times, then child 1 unless ``j`` is 0).  A bind builds each computation
once per distinct argument tuple, draws the outer values for the whole
chunk and runs its body once on the extended chunk; a subformula
without a bind or a computational atom runs once per distinct
restriction of the chunk, never once per draw.

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
    clause returns its batch denotation together with its free variables:
    ``fn(cols, n)`` maps ``n`` rows of value columns to the rows' truth
    values.  Applying the result turns the valuation into one-row columns.
    A quantifier extends each row by every family element and aggregates
    each row's slice; a bind extends each row by its computation's support
    and folds the rows back.  Both group their rows by the restriction to
    their own free variables and compute only restrictions they have not
    seen before (:func:`_new_rows`).  Under the sampler kind the
    denotation maps a valuation to a sampler over batches of draws
    (:func:`_compile_batches`).
    """
    kind = fw.monad_kind
    if kind == effects.SAMPLER:
        return _compile_batches(f, interp, budget, key)
    alg = fw.algebra
    eta = _eta_fn(fw)

    def comp(f: syntax.Formula, key: Optional[RandomKey]):
        if isinstance(f, (syntax.Top, syntax.Bot, syntax.Prop, syntax.MProp)):
            if isinstance(f, syntax.Top):
                value = alg.top
            elif isinstance(f, syntax.Bot):
                value = alg.bot
            elif isinstance(f, syntax.Prop):
                value = eta(model.apply_predicate(interp, f.name, ()))
            else:
                value = _matom_value(fw, model.apply_computational(interp, f.name, []))
            return (lambda cols, n: [value] * n), _CLOSED
        if isinstance(f, syntax.Atom):
            arg_fns, free = _stage_terms(interp, f.args)
            run = model.compile_predicate(interp, f.pred)

            def atom_fn(cols, n):
                return list(map(eta, _apply_rows(run, arg_fns, _EMPTY, cols, n)))

            return atom_fn, free
        if isinstance(f, syntax.MAtom):
            arg_fns, free = _stage_terms(interp, f.args)
            run = model.compile_computational(interp, f.mpred)

            def matom_fn(cols, n):
                return [_matom_value(fw, c) for c in _apply_rows(run, arg_fns, _EMPTY, cols, n)]

            return matom_fn, free
        if isinstance(f, syntax.Not):
            body, free = comp(f.body, key)
            neg = alg.neg
            return (lambda cols, n: list(map(neg, body(cols, n)))), free
        if isinstance(f, (syntax.And, syntax.Or, syntax.Implies)):
            left, left_free = comp(f.left, key.child(0) if key is not None else None)
            right, right_free = comp(f.right, key.child(1) if key is not None else None)
            op = {
                syntax.And: alg.conj,
                syntax.Or: alg.disj,
                syntax.Implies: alg.implies,
            }[type(f)]
            free = left_free | right_free
            return (lambda cols, n: list(map(op, left(cols, n), right(cols, n)))), free
        if isinstance(f, (syntax.Forall, syntax.Exists)):
            return comp_quantifier(f, key)
        if isinstance(f, syntax.Bind):
            return comp_bind(f, key)
        raise TypeError(f"not a formula: {f!r}")

    # Quantifier and bind nodes keep a table from the restrictions of rows
    # to their free variables to values, and compute only the rows whose
    # restriction is new (:func:`_new_rows`).  The grouping is written
    # into each node, so evaluation nests one Python frame per node.

    def comp_quantifier(f, key):
        quant = "forall" if isinstance(f, syntax.Forall) else "exists"
        fam_key = key.child(0) if key is not None else None
        family = model.quantifier_family(interp, f.sort, budget, fam_key)
        if not family.is_exact:
            raise FiniteOnlyError(
                f"quantifying continuous sort {f.sort!r} needs the sampler framework"
            )
        # the weights are checked once, here; each row pairs them with its values
        items = family.items()
        weights = [w for w, _ in items]
        points = [a for _, a in items]
        size = len(points)
        body, body_free = comp(f.body, key.child(1) if key is not None else None)
        var = f.var
        free = body_free - {var}
        names, table = tuple(sorted(free)), {}

        def quant_fn(cols, n):
            keys, new, sub = _new_rows(names, table, cols, n)
            if new:
                m = len(new)
                values = body(_extended(sub, [points] * m, var, points * m), m * size)
                for start, k in zip(range(0, m * size, size), new):
                    row = tuple(zip(weights, values[start:start + size]))
                    table[k] = aggregate(alg, quant, WeightedFamily("exact", pairs=row))
            return [table[k] for k in keys]

        return quant_fn, free

    def comp_bind(f, key):
        arg_fns, args_free = _stage_terms(interp, f.args)
        body, body_free = comp(f.body, key.child(0) if key is not None else None)
        var, mfunc = f.var, f.mfunc
        run = model.compile_computational(interp, mfunc)
        free = args_free | (body_free - {var})
        names, table = tuple(sorted(free)), {}

        def computations(cols, n):
            comps = _apply_rows(run, arg_fns, _EMPTY, cols, n)
            for c in comps:
                if c.kind != kind:
                    raise KindMismatchError(
                        f"bind of {mfunc!r} produced a {c.kind!r} computation under "
                        f"the {kind!r} framework"
                    )
            return comps

        if kind == effects.IDENTITY:

            def identity_fn(cols, n):
                keys, new, sub = _new_rows(names, table, cols, n)
                if new:
                    m = len(new)
                    outcomes = [c.value for c in computations(sub, m)]
                    table.update(zip(new, body({**sub, var: outcomes}, m)))
                return [table[k] for k in keys]

            return identity_fn, free
        if kind == effects.NONEMPTY_SET:

            def lp_fn(cols, n):
                keys, new, sub = _new_rows(names, table, cols, n)
                if new:
                    supports = [c.values for c in computations(sub, len(new))]
                    column = [a for support in supports for a in support]
                    values = iter(body(_extended(sub, supports, var, column), len(column)))
                    for k, support in zip(new, supports):
                        members = set()
                        for _, v in zip(support, values):
                            members |= v.members
                        table[k] = LP3.from_members(members)
                return [table[k] for k in keys]

            return lp_fn, free
        # the expectation is a convex combination; pin fp noise
        finish = _robustness if alg.name == "stl_r" else snap01

        def dist_fn(cols, n):
            keys, new, sub = _new_rows(names, table, cols, n)
            if new:
                rows = [c.pairs for c in computations(sub, len(new))]
                column = [a for pairs in rows for a, _ in pairs]
                values = iter(body(_extended(sub, rows, var, column), len(column)))
                out = []
                for pairs in rows:
                    total = 0.0
                    for (_, p), v in zip(pairs, values):
                        total += p * v
                    out.append(finish(total))
                table.update(zip(new, out))
            return [table[k] for k in keys]

        return dist_fn, free

    fn, free = comp(f, key)
    names = tuple(sorted(free))

    def denotation(nu):
        cols = {}
        for name in names:
            if name not in nu:
                raise OpenFormulaError(f"no value for variable {name!r}")
            cols[name] = (nu[name],)
        return fn(cols, 1)[0]

    return denotation


_CLOSED: FrozenSet[str] = frozenset()
_EMPTY: Dict[str, list] = {}  # no valuation, or no columns
_ONE_ROW = range(1)
# computations a sampler bind or atom keeps; arguments read from draws of a
# continuous sort are new on every draw, so the table starts over when full
_KEPT_COMPUTATIONS = 4096


def _row_keys(names, cols):
    """Each row's key on the named columns.  Keys pair each value with its
    type, which keeps ``True``, ``1`` and ``1.0`` apart."""
    columns = [cols[name] for name in names]
    return zip(*columns, *(map(type, c) for c in columns))


def _distinct(names, cols):
    """Group a chunk's rows by their values in the named columns.

    Returns the distinct restrictions as columns, their number, and each
    row's index into them.
    """
    seen: dict = {}
    index = [seen.setdefault(k, len(seen)) for k in _row_keys(names, cols)]
    distinct = list(zip(*seen)) or [()] * len(names)
    return dict(zip(names, distinct)), len(seen), index


def _new_rows(names, table, cols, n):
    """Group rows by their restriction to ``names`` for a node's table.

    Returns every row's key, the keys not yet in ``table`` in the order
    they first occur, and those restrictions as columns.  A node's value
    depends only on the restriction, since a denotation reads its free
    variables and nothing else and every exact value is a pure function
    of what it reads.
    """
    keys = list(_row_keys(names, cols)) if names else [()] * n
    new = [k for k in dict.fromkeys(keys) if k not in table]
    return keys, new, dict(zip(names, zip(*new)))


def _extended(cols, outcomes, var, column):
    """The columns with row ``i`` repeated once per entry of
    ``outcomes[i]``, plus ``column``, those entries in order, as ``var``."""
    ext = {name: [v for v, row in zip(col, outcomes) for _ in row] for name, col in cols.items()}
    ext[var] = column
    return ext


def _grouped(fn, free: FrozenSet[str]):
    """Run a draw-free batch denotation once per distinct restriction of
    the chunk's valuation to ``free`` and spread the values over the rows."""
    names = tuple(sorted(free))

    def grouped(nu, cols, states):
        varying = [name for name in names if name in cols]
        if not varying:
            return fn(nu, _EMPTY, _ONE_ROW) * len(states)
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


def _stage_term(interp: model.Interpretation, t: syntax.Term):
    """Stage a term as a batch function ``fn(nu, cols, n)`` giving each of
    ``n`` rows its value, together with the term's free variables.  A
    variable is read from its column, else from the valuation ``nu``
    shared by the rows."""
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
        return (lambda nu, cols, n: [value] * n), _CLOSED
    arg_fns, free = _stage_terms(interp, t.args)
    run = model.compile_function(interp, t.func)
    return (lambda nu, cols, n: _apply_rows(run, arg_fns, nu, cols, n)), free


def _stage_terms(interp: model.Interpretation, terms):
    staged = [_stage_term(interp, t) for t in terms]
    return tuple(fn for fn, _ in staged), _CLOSED.union(*(free for _, free in staged))


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

    def computations(symbol, args, mismatch):
        """Per chunk: the computation of each distinct argument tuple, built
        once while the table holds fewer than ``_KEPT_COMPUTATIONS``, and
        each row's index into them."""
        arg_fns, free = _stage_terms(interp, args)
        names = tuple(sorted(free))
        run = model.compile_computational(interp, symbol)
        table: dict = {}

        def lookup(nu, cols):
            varying = [name for name in names if name in cols]
            sub, count, index = _EMPTY, 1, None
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
            return (lambda nu, cols, states: [value] * len(states)), _CLOSED, False
        if isinstance(f, syntax.Atom):
            arg_fns, free = _stage_terms(interp, f.args)
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
            return effects.unit(effects.SAMPLER, fn(nu, _EMPTY, _ONE_ROW)[0])
        fn(nu, _EMPTY, ())  # a chunk of no draws: build what no draw feeds
        return effects.Sampler(draw=lambda states: fn(nu, _EMPTY, states))

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
