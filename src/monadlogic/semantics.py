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

What differs between the monads is held by the monad value.  A run of
binds, each the body of the one before, is one clause that loops: each
bind looks up each row's computation and asks the monad to ``expand`` the
rows by its outcomes -- the support under the exact kinds (identity,
non-empty sets, finite distributions), one draw at child 0 of the row's
state under the sampler; the run's body runs once on the last bind's
rows, and the monad ``fold``s the values back into one per row: the
single outcome, the union of members, the expectation in support order,
or the draw itself.  The exact kinds sweep forward, numbering the
distinct rows of each bind on its *frontier* (the variables the rest of
the run reads), then fold backward; the sampler only goes forward.  A
computational atom ends a run, its body embedding each outcome as a
truth value.  A quantifier extends each row by every element of its
family and hands the body's values, a row of items per row, to the
algebra's ``forall`` or ``exists`` with the family's weights; under the
sampler that is the boolean table, whose reduction of draws (their fold
with ``and`` or ``or``) estimates the product algebra for unit weights only.

A node *draws* when the monad draws and the node holds a bind or a
computational atom.  One rule memoizes: a draw-free function of some
variables is run once per distinct restriction of its rows to them,
wherever a restriction can repeat, and its table of values lives as long
as the denotation.  The functions are a draw-free quantifier or run (of
its free variables), a draw-free operand or body of a drawing node (of
its free variables), and a drawing node's computations (of its
arguments' variables).  Whether a quantifier's or a run's restrictions
can repeat is a compile-time *row-distinctness fact*: the variables on
which the rows of one call are pairwise distinct, or None.  The root has
None, since a valuation can come again; a negation or connective hands
its fact to its operands; a quantifier of an exact kind whose items are
distinct keys hands its body its own free variables and its variable;
run bodies, and every node under the sampler, have None.  A quantifier
or run whose free variables include its fact keeps no table, since each
of its rows would be new.  A table that holds more than ``_KEPT`` values
after a call starts over.  On the bind chains of weighted model counting
the rule eliminates variables, not paths.

Each binder fixes a *value fact* about its variable at compile time: a
quantifier over a finite sort or an interval's fixed points, a bind over
a conditional table (the outcomes of all its rows) or over ``bernoulli``
gives finitely many values, which are *type-faithful* when no two of
them are ``==`` with different types; a bind over ``normal`` or
``uniform_real`` gives continuous draws, new on every row of its body
(inside a quantifier of that body each draw meets every item, and counts
as type-faithful floats).  The free variables of an open formula have no
fact.  A table whose variables are all type-faithful keys its rows by
their values alone, and none is kept where a variable is continuous;
either way the same rows count as new.

The sampler's key tree is the one a per-draw interpretation would use: a
bind draws its outer value at child 0 and runs its body at child 1, a
computational atom draws at the row's own state, a connective evaluates
its left operand at child 0 and its right one at child 1, and the items
of a quantifier follow the left-nested fold (item ``j`` of ``m`` at child
0 taken ``m - 1 - j`` times, then child 1 unless ``j`` is 0).  Interval
points are fixed per compilation, at child 0 of the quantifier's position
in the compile-time key tree.

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
from itertools import count, filterfalse
from typing import Callable, Dict, FrozenSet, Optional

from . import effects, model, syntax
from .algebra import TruthAlgebra, aggregate, make_algebra  # perfbench/tracing.py wraps aggregate here
from .effects import RandomKey, child_states, item_states
from .errors import (
    BudgetMissingError,
    CarrierMismatchError,
    FiniteOnlyError,
    NestingTooDeepError,
    OpenFormulaError,
    ParamOutOfRangeError,
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
    draw come first, and returns the sampler of its draws.  The result's
    ``free`` names the formula's free variables, sorted.
    """
    monad, alg = effects.monad(fw.monad_kind), fw.algebra
    # free variables by node id, from one walk of each outermost
    # quantifier that needs its own before its body compiles
    frees: Dict[int, FrozenSet[str]] = {}
    # each bound variable's value fact, set by its innermost binder while
    # the binder's body compiles; free variables of the formula have none
    facts: Dict[str, Optional[str]] = {}

    def comp(f: syntax.Formula, key: Optional[RandomKey], distinct_on: Optional[FrozenSet[str]]):
        """The batch denotation of ``f``, its free variables and whether it
        draws.  ``distinct_on`` is the node's row-distinctness fact: the
        variables on which the rows of one call are pairwise distinct, or
        None."""
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
        if isinstance(f, syntax.Not):
            body, free, draws = comp(f.body, key, distinct_on)
            neg = alg.neg
            return (lambda cols, n, states: list(map(neg, body(cols, n, states)))), free, draws
        if isinstance(f, (syntax.And, syntax.Or, syntax.Implies)):
            return comp_connective(f, key, distinct_on)
        if isinstance(f, (syntax.Forall, syntax.Exists)):
            return comp_quantifier(f, key, distinct_on)
        if isinstance(f, (syntax.Bind, syntax.MAtom, syntax.MProp)):
            return comp_run(f, key, distinct_on)
        raise TypeError(f"not a formula: {f!r}")

    def comp_connective(f, key, distinct_on):
        left, left_free, left_draws = comp(f.left, _key_child(key, 0), distinct_on)
        right, right_free, right_draws = comp(f.right, _key_child(key, 1), distinct_on)
        op = {syntax.And: alg.conj, syntax.Or: alg.disj, syntax.Implies: alg.implies}[type(f)]
        draws = left_draws or right_draws
        if draws:
            if not left_draws:
                left = _grouped(f.left, left, left_free, facts)
            if not right_draws:
                right = _grouped(f.right, right, right_free, facts)

        def connective_fn(cols, n, states):
            left_states = right_states = None
            if states is not None:
                left_states = child_states(states, 0) if left_draws else None
                right_states = child_states(states, 1) if right_draws else None
            return list(map(op, left(cols, n, left_states), right(cols, n, right_states)))

        return connective_fn, left_free | right_free, draws

    def comp_quantifier(f, key, distinct_on):
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
        var = f.var
        # the body's rows are pairwise distinct on the quantifier's free
        # variables and var when no two items are the same key of a table
        # (a library enum may repeat one)
        body_on = None
        if not monad.draws and len(set(zip(points, map(type, points)))) == size:
            if id(f) not in frees:
                frees.update(syntax.free_sets(f))
            body_on = frees[id(f)] | {var}
        # the body meets each row once per item, so a draw in scope is no
        # longer new on every row; draws are floats, hence type-faithful
        drawn = [name for name, fact in facts.items() if fact is model.CONTINUOUS]
        facts.update(dict.fromkeys(drawn, model.FAITHFUL))
        shadowed, facts[var] = facts.get(var), model.value_fact(points)
        body, body_free, draws = comp(f.body, _key_child(key, 1), body_on)
        facts.update(dict.fromkeys(drawn, model.CONTINUOUS))
        facts[var] = shadowed
        block = max(1, _BLOCK_ROWS // size)
        reduce = alg.forall if isinstance(f, syntax.Forall) else alg.exists
        if draws and any(w != 1.0 for w in weights):
            reduce = _unit_weights_only
        free = body_free - {var}
        names = tuple(free)
        table = None if draws or _drawn(free, facts) or _covers(free, distinct_on) else _Table(free, facts)

        def quant_fn(cols, n, states):
            if table is not None:
                keys, new, cols = table.new_rows(cols, n)
                n = len(new)
            # rows in blocks, so a chunk of draws by many points stays small
            out = []
            for start in range(0, n, block):
                sub = {name: cols[name][start:start + block] for name in names}
                m = min(block, n - start)
                sub_states = None if states is None else item_states(states[start:start + block], size)
                values = body(_extended(sub, names, [points] * m, var, points * m), m * size, sub_states)
                out += reduce(weights, zip(*[iter(values)] * size))
            return out if table is None else table.spread(keys, new, out)

        return quant_fn, free, draws

    def comp_run(f, key, distinct_on):
        """A maximal run of binds ``[v1 := c1(a1)] ... [vk := ck(ak)] B``,
        each the body of the one before, in one loop.  A computational atom
        ends a run with a body that embeds each outcome; it draws at the
        row's own state, where a bind draws at child 0, its body at child 1."""
        draws, bound = monad.draws, []
        while isinstance(f, (syntax.Bind, syntax.MAtom, syntax.MProp)):
            if isinstance(f, syntax.Bind):
                symbol, args, var = f.mfunc, f.args, f.var
            else:
                var = _OUTCOME
                symbol, args = (f.name, ()) if isinstance(f, syntax.MProp) else (f.mpred, f.args)
            arg_fns, args_free = _stage_terms(interp, args)
            lookup = partial(_apply_rows, model.compile_computational(interp, symbol), arg_fns)
            monad.accept(interp.kind, symbol)
            if draws and not _drawn(args_free, facts):
                # draws repeat their arguments: a computation per new restriction to them
                lookup = partial(_Table(args_free, facts).apply, lookup)
            bound.append((var, lookup, args_free, facts.get(var)))
            if var is _OUTCOME:
                break
            facts[var] = model.computational_fact(interp, symbol)
            f, key = f.body, _key_child(key, 0)
        if var is _OUTCOME:
            embed = alg.embed if monad.reads_rows else _no_classical_reading
            body = lambda cols, n, states: list(map(embed, cols[_OUTCOME]))
            free, body_draws = _CLOSED, False
        else:
            body, free, body_draws = comp(f, key, None)
            if draws and not body_draws:
                body = _grouped(f, body, free, facts)
        # backward, each level's frontier: the variables the rest of the run
        # reads.  The exact kinds number a level's rows on it, unless it keeps
        # the level's variable and all its rows' ones, so no row can repeat.
        levels = []
        for var, lookup, args_free, shadowed in reversed(bound):
            rest = free - {var}
            repeats = levels and not draws and not (var in free and args_free <= rest)
            frontier = _Table(free, facts) if repeats else None
            levels.append((var, lookup, tuple(rest), body_draws, frontier))
            if var is not _OUTCOME:
                facts[var] = shadowed
            free, body_draws = args_free | rest, True
        levels.reverse()
        expand, fold, pin = monad.expand, monad.fold, alg.pin

        def draw_fn(cols, n, states):
            if not n:
                return []
            if states is None:
                levels[0][1](cols, n)
                return [None] * n  # no draws: only the outer computations are built
            for var, lookup, names, body_draws, _ in levels:
                own = states if var is _OUTCOME else child_states(states, 0)
                cols = _extended(cols, names, None, var, expand(lookup(cols, n), own)[1])
                states = child_states(states, 1) if body_draws else None
            return body(cols, n, states)

        if draws:
            return draw_fn, free, True
        table = None if _covers(free, distinct_on) else _Table(free, facts)

        def sweep_fn(cols, n, states):
            if table is not None:
                keys, new, cols = table.new_rows(cols, n)
                n = len(new)
            out = []
            if n:
                # forward: number each level's distinct frontier rows
                passes = []
                for var, lookup, names, _, frontier in levels:
                    rows, column = expand(lookup(cols, n), None)
                    cols, n, nums = _extended(cols, names, rows, var, column), len(column), None
                    if frontier is not None:
                        nums, cols, n = frontier.numbered(cols, n)
                    passes.append((rows, nums))
                out = body(cols, n, None)
                # backward: fold each level's values from the next level's
                for rows, nums in reversed(passes):
                    out = fold(rows, out if nums is None else list(map(out.__getitem__, nums)), pin)
            return out if table is None else table.spread(keys, new, out)

        return sweep_fn, free, False

    fn, free, draws = comp(f, key, None)
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

    denotation.free = names
    return denotation


_CLOSED: FrozenSet[str] = frozenset()
# the column of a computational atom's outcomes, named by no variable
_OUTCOME = object()
# entries a table keeps from one call to the next
_KEPT = 4096
# rows a quantifier hands its body at once
_BLOCK_ROWS = 1 << 14


def _key_child(key: Optional[RandomKey], index: int) -> Optional[RandomKey]:
    return None if key is None else key.child(index)


def _unit_weights_only(weights, rows):
    """The reduction of a drawing quantifier whose weights are not all 1."""
    raise CarrierMismatchError("sampler quantifiers support unit weights only")


def _no_classical_reading(v):
    raise CarrierMismatchError(
        "computational predicates have no classical reading; "
        "use a transformation or a non-classical framework"
    )


def _covers(free: FrozenSet[str], distinct_on: Optional[FrozenSet[str]]) -> bool:
    """Whether rows pairwise distinct on ``distinct_on`` stay distinct when
    restricted to ``free``, so that a table of them would never hit."""
    return distinct_on is not None and distinct_on <= free


def _drawn(free: FrozenSet[str], facts) -> bool:
    """Whether one of the variables ``free`` holds continuous draws, which
    make every row new, so that a table of them would never hit."""
    return model.CONTINUOUS in map(facts.get, free)


class _Table:
    """The values of a draw-free function of the variables ``free``, one
    per distinct restriction of the rows to them.  A quantifier or run
    builds one only where a restriction can repeat: when ``free`` does
    not include the node's row-distinctness fact.

    When their value ``facts`` make every variable type-faithful (no two
    of its values ``==`` with different types), a row's key is the tuple
    of its values, or the value itself for one variable.  Otherwise the key
    pairs each value with its type, which keeps ``True``, ``1`` and
    ``1.0`` apart.  Both count the same rows as new.  A call that leaves
    more than ``_KEPT`` entries starts the table over, so memory does not
    grow with the number of valuations; ``numbered`` keeps nothing.  Nodes
    call ``new_rows`` and ``spread`` from their own clause, not through a
    wrapper, so evaluation nests one Python frame per node.
    """

    __slots__ = ("names", "kept", "plain")

    def __init__(self, free: FrozenSet[str], facts):
        self.names = tuple(sorted(free))
        self.kept: dict = {}
        self.plain = None not in map(facts.get, self.names)

    def keys(self, cols, n):
        names = self.names
        if self.plain and len(names) == 1:
            return cols[names[0]]
        columns = list(map(cols.__getitem__, names))
        if not self.plain:
            return list(zip(*columns, *map(map, [type] * len(columns), columns)))
        return list(zip(*columns)) if columns else [()] * n

    def columns(self, keys):
        """The rows of the distinct ``keys``, as columns."""
        if self.plain and len(self.names) == 1:
            return {self.names[0]: keys}
        return dict(zip(self.names, zip(*keys)))

    def new_rows(self, cols, n):
        """Every row's key, the keys not kept yet in the order they first
        occur, and those restrictions as columns."""
        keys = self.keys(cols, n)
        new = list(filterfalse(self.kept.__contains__, dict.fromkeys(keys)))
        return keys, new, self.columns(new)

    def spread(self, keys, new, out):
        """Keep the values ``out`` of the ``new`` keys and give every row its value."""
        kept = self.kept
        kept.update(zip(new, out))
        out = list(map(kept.__getitem__, keys))
        if len(kept) > _KEPT:
            kept.clear()
        return out

    def apply(self, fn, cols, n, *extra):
        """Each row's value of ``fn(cols, n, *extra)``, run on the new rows only."""
        keys, new, sub = self.new_rows(cols, n)
        return self.spread(keys, new, fn(sub, len(new), *extra) if new else [])

    def numbered(self, cols, n):
        """Every row's number among the distinct keys in the order they
        first occur, the rows of those keys as columns, and their count."""
        keys = self.keys(cols, n)
        index = dict(zip(dict.fromkeys(keys), count()))
        return list(map(index.__getitem__, keys)), self.columns(list(index)), len(index)


def _grouped(f: syntax.Formula, fn, free: FrozenSet[str], facts):
    """The draw-free batch denotation ``fn`` of ``f``, run once per
    distinct restriction of its rows to ``free``.  A quantifier keeps a
    table of its own, and continuous draws make every row new, so then
    the denotation is returned as it is."""
    if isinstance(f, (syntax.Forall, syntax.Exists)) or _drawn(free, facts):
        return fn
    table = _Table(free, facts)
    return lambda cols, n, states: table.apply(fn, cols, n, None)


def _extended(cols, names, rows, var, column):
    """The ``names`` columns with row ``i`` repeated once per entry of
    ``rows[i]`` (once, when ``rows`` is None), plus ``column`` as ``var``."""
    if not names:
        return {var: column}
    if rows is None:
        ext = {name: cols[name] for name in names}
    else:
        index = [i for i, row in enumerate(rows) for _ in row]
        ext = {name: list(map(cols[name].__getitem__, index)) for name in names}
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

    Sampler-framework runs need ``budget`` and a ``seed`` in
    ``[0, 2**64)`` and report an estimate with its binomial standard
    error; the exact frameworks return the truth value directly.
    Compilation and evaluation loop along a run of binds and recurse
    through connectives and quantifiers (a quantifier's items are rows of
    one batch), so a chain of binds of any length evaluates, and other
    nesting beyond the interpreter's recursion limit raises
    :class:`NestingTooDeepError`.
    """
    try:
        drawing = effects.monad(fw.monad_kind).draws
        if drawing:
            if budget is None or seed is None:
                raise BudgetMissingError("sampler evaluation needs a sample budget and a seed")
            if not 0 <= seed < 1 << 64:
                raise ParamOutOfRangeError(f"seed {seed} is outside [0, 2**64)")
            root = RandomKey(seed)
        denotation = compile_formula(f, fw, interp, budget, root.child(1) if drawing else None)
        if denotation.free:
            raise OpenFormulaError(f"sentence has free variables: {', '.join(denotation.free)}")
        value = denotation({})
        if not drawing:
            return EvalReport(value=value, monad_kind=fw.monad_kind, algebra=fw.algebra_name)
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
