"""The uniform inductive evaluator.

One structural recursion interprets every formula, parameterized by a
:class:`Framework` (a monad, :class:`~monadlogic.effects.Monad`, paired
with a truth algebra on the monadic truth space) and an interpretation
of the signature:

* atoms apply the interpreted predicate and embed the result with the
  unit: the algebra's ``top`` or ``bot``,
* connectives apply the algebra's operation table,
* quantifiers aggregate the weighted family of per-element values,
* bind formulas sequence the computation with the Kleisli extension, and
  computational atoms read their computation's outcomes the same way.

The recursion runs once and yields the denotation as a function from
valuations to truth values (``compile_formula``); evaluation applies it.
Nothing is compiled away or restructured: the staged function mirrors the
inductive definition clause by clause, one clause per formula constructor
for every monad.  Each clause is staged as a *batch denotation*
``fn(cols, n, states)`` that maps ``n`` rows, held as value columns, to
their truth values; ``states`` is an :class:`~monadlogic.effects.Lanes`
batch of one 64-bit key state per row when the rows are draws of the
sampler, and None otherwise.  A drawing clause derives its operands' and
its body's batches from it without unpacking it.

What differs between the monads is held by the monad value.  A bind
looks up each row's computation, asks the monad to ``expand`` the rows by
its outcomes -- the support under the exact kinds (identity, non-empty
sets, finite distributions), one draw at child 0 of the row's state under
the sampler -- runs its body once on the expanded rows, and asks the monad
to ``fold`` the values back into one per row: the single outcome, the
union of members, the expectation in support order, or the draw itself.
A quantifier extends each row by every element of its family and reduces
each row's values with ``aggregate``; rows that are draws of the sampler
hold basis values and fold them with the boolean table instead.

A node *draws* when the monad draws and the node holds a bind or a
computational atom.  Every other node is a pure function of its free
variables, so it computes each distinct restriction of its rows to them
once.  Under the exact kinds no node draws: quantifier, bind and
computational-atom nodes keep their values for as long as the denotation
lives and compute only restrictions they have not met, which on the bind
chains of weighted model counting turns path enumeration into variable
elimination.  Under the sampler a draw-free subformula runs once per
distinct restriction of each chunk of draws, and a computation is built
once per distinct restriction of the rows to its arguments' variables.

The sampler's key tree is the one a per-draw interpretation would use: a
bind draws its outer value at child 0 and runs its body at child 1, a
connective evaluates its left operand at child 0 and its right one at
child 1, and the items of a quantifier follow the left-nested fold (item
``j`` of ``m`` at child 0 taken ``m - 1 - j`` times, then child 1 unless
``j`` is 0).  Interval points are fixed per compilation, at child 0 of
the quantifier's position in the compile-time key tree.

The four supported pairings are classical (identity monad, boolean
algebra), logic-of-paradox (non-empty sets, three-valued algebra),
distributional (finite distributions, any probability-carrier algebra
including the smooth robustness one), and sampling (seeded boolean
samplers with the boolean table applied draw by draw, whose expectations
agree with the product algebra).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from itertools import filterfalse
from typing import Callable, Dict, FrozenSet, Optional

from . import effects, model, syntax
from .algebra import FORALL, EXISTS, TruthAlgebra, WeightedFamily, aggregate, make_algebra
from .effects import RandomKey, child_states, item_states
from .errors import (
    BudgetMissingError,
    CarrierMismatchError,
    FiniteOnlyError,
    NestingTooDeepError,
    OpenFormulaError,
)

Valuation = Dict[str, model.Value]


@dataclass(frozen=True)
class Framework:
    """A monad kind paired with a compatible truth algebra.

    ``algebra`` holds the operational table: under the sampler the boolean
    table, which evaluation applies draw by draw; ``algebra_name`` keeps
    the user-facing selection for reporting.
    """

    monad_kind: str
    algebra: TruthAlgebra
    algebra_name: str


def make_framework(monad_kind: str, algebra: TruthAlgebra) -> Framework:
    """Pair a monad kind with an algebra, rejecting incompatible mixes."""
    monad = effects.monad(monad_kind)
    monad.pair(algebra.name)
    # draws are basis values, combined by the boolean table
    operational = make_algebra("boolean") if monad.draws else algebra
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


def compile_formula(
    f: syntax.Formula,
    fw: Framework,
    interp: model.Interpretation,
    budget: Optional[int] = None,
    key: Optional[RandomKey] = None,
) -> Callable[[Valuation], object]:
    """Build the denotation of a sort-checked formula: a function from
    valuations of its free variables to truth values (under the sampler,
    to a sampler over batches of draws).

    ``budget`` and ``key`` fix the sampled points of continuous-sort
    quantifiers; finite sorts ignore them.  Each clause returns its batch
    denotation ``fn(cols, n, states)``, its free variables and whether it
    draws.  Applying the result turns the valuation into one-row columns
    and hands the root to the monad: the exact kinds evaluate it once,
    the sampler first evaluates it on no draws, so that errors needing no
    draw come first, and returns the sampler of its draws.
    """
    monad, alg = effects.monad(fw.monad_kind), fw.algebra

    def comp(f: syntax.Formula, key: Optional[RandomKey]):
        if isinstance(f, (syntax.Top, syntax.Bot, syntax.Prop)):
            if isinstance(f, syntax.Prop):
                value = alg.top if model.apply_predicate(interp, f.name, ()) else alg.bot
            else:
                value = alg.top if isinstance(f, syntax.Top) else alg.bot
            return (lambda cols, n, states: [value] * n), _CLOSED, False
        if isinstance(f, syntax.Atom):
            arg_fns, free = _stage_terms(interp, f.args)
            run = model.compile_predicate(interp, f.pred)
            top, bot = alg.top, alg.bot

            def atom_fn(cols, n, states):
                return [top if b else bot for b in _apply_rows(run, arg_fns, cols, n)]

            return atom_fn, free, False
        if isinstance(f, (syntax.MProp, syntax.MAtom)):
            return comp_matom(f)
        if isinstance(f, syntax.Not):
            body, free, draws = comp(f.body, key)
            neg = alg.neg
            return (lambda cols, n, states: list(map(neg, body(cols, n, states)))), free, draws
        if isinstance(f, (syntax.And, syntax.Or, syntax.Implies)):
            return comp_connective(f, key)
        if isinstance(f, (syntax.Forall, syntax.Exists)):
            return comp_quantifier(f, key)
        if isinstance(f, syntax.Bind):
            return comp_bind(f, key)
        raise TypeError(f"not a formula: {f!r}")

    def computations(symbol, args):
        """Each row's computation, ``fn(cols, n)``.  Rows reach an exact
        bind or computational atom as distinct restrictions of its node, so
        exact computations are built row by row.  Draws repeat their
        arguments, so under the sampler a computation is built once per
        distinct restriction of the rows to the arguments' variables, while
        the table holds fewer than ``_KEPT_COMPUTATIONS``."""
        arg_fns, free = _stage_terms(interp, args)
        run = model.compile_computational(interp, symbol)
        monad.accept(interp.kind, symbol)
        build = partial(_apply_rows, run, arg_fns)
        if not monad.draws:
            return build, free
        names, table = tuple(sorted(free)), {}

        def lookup(cols, n):
            keys, missing, sub = _new_rows(names, table, cols, n)
            if len(table) + len(missing) > _KEPT_COMPUTATIONS:
                table.clear()
                keys, missing, sub = _new_rows(names, table, cols, n)
            return _spread(table, keys, missing, build(sub, len(missing)) if missing else [])

        return lookup, free

    def comp_matom(f):
        if isinstance(f, syntax.MProp):
            symbol, args = f.name, ()
        else:
            symbol, args = f.mpred, f.args
        lookup, free = computations(symbol, args)
        draws = monad.draws
        embed = alg.embed if monad.reads_rows else _no_classical_reading
        expand, fold, pin = monad.expand, monad.fold, alg.pin
        names, table = tuple(sorted(free)), None if draws else {}

        def matom_fn(cols, n, states):
            if table is not None:
                keys, new, cols = _new_rows(names, table, cols, n)
                n = len(new)
            out = []
            if n:
                comps = lookup(cols, n)
                if draws and states is None:
                    out = [None] * n  # no draws: only the computations were wanted
                else:
                    rows, column = expand(comps, states)
                    out = fold(rows, [embed(v) for v in column], pin)
            if table is None:
                return out
            table.update(zip(new, out))
            return list(map(table.__getitem__, keys))

        return matom_fn, free, draws

    def comp_connective(f, key):
        left, left_free, left_draws = comp(f.left, _key_child(key, 0))
        right, right_free, right_draws = comp(f.right, _key_child(key, 1))
        op = {syntax.And: alg.conj, syntax.Or: alg.disj, syntax.Implies: alg.implies}[type(f)]
        draws = left_draws or right_draws
        if draws:
            # a draw-free operand runs once per distinct restriction of the chunk
            if not left_draws:
                left = _grouped(left, left_free)
            if not right_draws:
                right = _grouped(right, right_free)

        def connective_fn(cols, n, states):
            left_states = right_states = None
            if states is not None:
                left_states = child_states(states, 0) if left_draws else None
                right_states = child_states(states, 1) if right_draws else None
            return list(map(op, left(cols, n, left_states), right(cols, n, right_states)))

        return connective_fn, left_free | right_free, draws

    def comp_quantifier(f, key):
        family = model.quantifier_family(interp, f.sort, budget, _key_child(key, 0))
        if family.is_exact:
            items = family.items()
        elif monad.draws:
            items = tuple((1.0, a) for a in family.values)  # points fixed per compilation
        else:
            raise FiniteOnlyError(
                f"quantifying continuous sort {f.sort!r} needs the sampler framework"
            )
        weights = [w for w, _ in items]
        points = [a for _, a in items]
        size = len(points)
        body, body_free, draws = comp(f.body, _key_child(key, 1))
        var = f.var
        block = max(1, _BLOCK_ROWS // size)
        if draws:
            # the draws of a chunk fold their items with the boolean table
            op = alg.conj if isinstance(f, syntax.Forall) else alg.disj
            unit_weights = all(w == 1.0 for w in weights)

            def reduce(values):
                if not unit_weights:
                    raise CarrierMismatchError("sampler quantifiers support unit weights only")
                acc = values[0::size]
                for j in range(1, size):
                    acc = list(map(op, acc, values[j::size]))
                return acc

        else:
            quant = FORALL if isinstance(f, syntax.Forall) else EXISTS

            def reduce(values):
                return [
                    aggregate(alg, quant, WeightedFamily("exact", pairs=tuple(zip(weights, row))))
                    for row in zip(*[iter(values)] * size)
                ]

        free = body_free - {var}
        names, table = tuple(sorted(free)), None if monad.draws else {}

        def quant_fn(cols, n, states):
            if table is not None:
                keys, new, cols = _new_rows(names, table, cols, n)
                n = len(new)
            # rows in blocks, so a chunk of draws by many points stays small
            out = []
            for start in range(0, n, block):
                sub = {name: col[start:start + block] for name, col in cols.items()}
                m = min(block, n - start)
                sub_states = None if states is None else item_states(states[start:start + block], size)
                out += reduce(body(_extended(sub, [points] * m, var, points * m), m * size, sub_states))
            if table is None:
                return out
            table.update(zip(new, out))
            return list(map(table.__getitem__, keys))

        return quant_fn, free, draws

    def comp_bind(f, key):
        var = f.var
        lookup, args_free = computations(f.mfunc, f.args)
        body, body_free, body_draws = comp(f.body, _key_child(key, 0))
        draws = monad.draws
        if draws and not body_draws:
            body = _grouped(body, body_free)
        expand, fold, pin = monad.expand, monad.fold, alg.pin

        free = args_free | (body_free - {var})
        names, table = tuple(sorted(free)), None if draws else {}

        def bind_fn(cols, n, states):
            if table is not None:
                keys, new, cols = _new_rows(names, table, cols, n)
                n = len(new)
            out = []
            if n:
                comps = lookup(cols, n)
                if draws and states is None:
                    out = [None] * n  # no draws: only the computations were wanted
                else:
                    rows, column = expand(comps, None if states is None else child_states(states, 0))
                    body_states = child_states(states, 1) if body_draws else None
                    values = body(_extended(cols, rows, var, column), len(column), body_states)
                    out = fold(rows, values, pin)
            if table is None:
                return out
            table.update(zip(new, out))
            return list(map(table.__getitem__, keys))

        return bind_fn, free, draws

    fn, free, draws = comp(f, key)
    names = tuple(sorted(free))

    def denotation(nu):
        cols = {}
        for name in names:
            if name not in nu:
                raise OpenFormulaError(f"no value for variable {name!r}")
            cols[name] = (nu[name],)
        return monad.result(
            lambda n, states: fn({name: col * n for name, col in cols.items()}, n, states), draws
        )

    return denotation


_CLOSED: FrozenSet[str] = frozenset()
# computations a bind or atom keeps; arguments read from draws of a
# continuous sort are new on every draw, so the table starts over when full
_KEPT_COMPUTATIONS = 4096
# rows a quantifier hands its body at once
_BLOCK_ROWS = 1 << 14


def _key_child(key: Optional[RandomKey], index: int) -> Optional[RandomKey]:
    return None if key is None else key.child(index)


def _no_classical_reading(v):
    raise CarrierMismatchError(
        "computational predicates have no classical reading; "
        "use a transformation or a non-classical framework"
    )


def _row_keys(names, cols):
    """Each row's key on the named columns.  Keys pair each value with its
    type, which keeps ``True``, ``1`` and ``1.0`` apart."""
    columns = list(map(cols.__getitem__, names))
    return zip(*columns, *map(map, [type] * len(columns), columns))


def _new_rows(names, table, cols, n):
    """Group rows by their restriction to ``names`` for a node's table.

    Returns every row's key, the keys not yet in ``table`` in the order
    they first occur, and those restrictions as columns.  A draw-free
    node's value depends only on the restriction, since a denotation reads
    its free variables and nothing else.  Nodes call it from their own
    clause rather than through a wrapper, so evaluation nests one Python
    frame per node.
    """
    keys = list(_row_keys(names, cols)) if names else [()] * n
    new = list(filterfalse(table.__contains__, dict.fromkeys(keys)))
    return keys, new, dict(zip(names, zip(*new)))


def _spread(table, keys, new, out):
    """Keep the values ``out`` of the ``new`` keys and give every row its value."""
    table.update(zip(new, out))
    return list(map(table.__getitem__, keys))


def _grouped(fn, free: FrozenSet[str]):
    """Run a draw-free batch denotation once per distinct restriction of
    the rows of a call to ``free``."""
    names = tuple(sorted(free))

    def grouped(cols, n, states):
        table: dict = {}
        keys, new, sub = _new_rows(names, table, cols, n)
        return _spread(table, keys, new, fn(sub, len(new), None) if new else [])

    return grouped


def _extended(cols, rows, var, column):
    """The columns with row ``i`` repeated once per entry of ``rows[i]``
    (once, when ``rows`` is None), plus ``column`` as ``var``."""
    if rows is None:
        return {**cols, var: column}
    index = [i for i, row in enumerate(rows) for _ in row]
    ext = {name: list(map(col.__getitem__, index)) for name, col in cols.items()}
    ext[var] = column
    return ext


def _apply_rows(run, arg_fns, cols, n):
    """Apply a resolved symbol to each row's argument values."""
    if not arg_fns:
        return [run(())] * n
    return list(map(run, zip(*[fn(cols, n) for fn in arg_fns])))


def _stage_term(interp: model.Interpretation, t: syntax.Term):
    """Stage a term as a batch function ``fn(cols, n)`` giving each of
    ``n`` rows its value, together with the term's free variables."""
    if isinstance(t, syntax.Var):
        name = t.name
        return (lambda cols, n: cols[name]), frozenset((name,))
    if isinstance(t, syntax.Lit):
        value = t.value
        return (lambda cols, n: [value] * n), _CLOSED
    arg_fns, free = _stage_terms(interp, t.args)
    run = model.compile_function(interp, t.func)
    return (lambda cols, n: _apply_rows(run, arg_fns, cols, n)), free


def _stage_terms(interp: model.Interpretation, terms):
    staged = [_stage_term(interp, t) for t in terms]
    return tuple(fn for fn, _ in staged), _CLOSED.union(*(free for _, free in staged))


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
    along the formula (a quantifier's items are rows of one batch), so
    nesting beyond the interpreter's recursion limit raises
    :class:`NestingTooDeepError`.
    """
    try:
        fv = syntax.free_vars(f)
        if fv:
            names = ", ".join(name for name, _ in fv)
            raise OpenFormulaError(f"sentence has free variables: {names}")
        if not effects.monad(fw.monad_kind).draws:
            value = eval_formula(f, fw, interp, {}, budget, None)
            return EvalReport(value=value, monad_kind=fw.monad_kind, algebra=fw.algebra_name)
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
    except RecursionError:
        raise NestingTooDeepError(
            "formula nests too deeply to evaluate "
            f"(recursion limit {sys.getrecursionlimit()})"
        ) from None
