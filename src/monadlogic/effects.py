"""Computation monads and a splittable deterministic randomness source.

A :class:`Computation` is an effectful value over some carrier of plain
Python values: a single value, a non-empty set of candidate values, a
finitely-supported probability distribution, or a seeded sampling
procedure.  Each kind is a :class:`Monad` value (``MONADS``) whose
``unit`` embeds a value into a computation and whose ``bind`` sequences
computations (the Kleisli extension), with the usual laws

    bind(unit(x), k) == k(x)
    bind(c, unit)    == c
    bind(bind(c, f), g) == bind(c, lambda x: bind(f(x), g))

holding exactly for the finite kinds and statistically for samplers.  The
module functions :func:`unit`, :func:`bind` and :func:`realize` dispatch
to the monad of a kind or of a computation.  A monad value implements
the Kleisli extension once, as the evaluator's batch bind (``expand``,
then ``fold`` or ``join``), from which its scalar ``bind`` and ``truth``
derive; it also holds the truth algebras it pairs with and how an
interpretation's table rows and ``bernoulli`` coins become computations.

Randomness is never global: every draw is a pure function of a
:class:`RandomKey`, so sampling is reproducible bit-for-bit given
``(seed, sample index)`` regardless of evaluation order.  Samplers draw a
batch at a time: a batch is a :class:`Lanes` value, 64-bit key *states*
packed into one int, a 128-bit lane per state whose upper half absorbs
every carry and product.  The states are derived with the same splitmix64
arithmetic as :meth:`RandomKey.child` (:func:`child_states`), a whole
batch a step at a time with a few big-int operations, so each lane ends
bit-for-bit where the scalar :class:`RandomKey` ends; a sampler maps a
batch to the list of its draws.  A batch stays packed from
:func:`draw_states` through the evaluator to the draws, which read it out
once (:func:`uniforms`).  :func:`realize` feeds ``CHUNK`` draws per batch,
so memory stays bounded whatever the budget.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple, Union

from .errors import BudgetMissingError, CarrierMismatchError, KindMismatchError

Value = Union[bool, int, float, str]

IDENTITY = "identity"
NONEMPTY_SET = "nonempty_set"
DISTRIBUTION = "distribution"
SAMPLER = "sampler"

MONAD_KINDS = (IDENTITY, NONEMPTY_SET, DISTRIBUTION, SAMPLER)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_DRAW_SALT = 0xD1B54A32D192ED03
_PROB_EPS = 1e-15
_SUM_TOL = 1e-9
_UNIFORM_DENOM = 2.0**64 + 1.0  # rounds to 2.0**64
# mixed values of 2**64 - 1024 and above round up to a uniform of 1.0, so
# they are clamped below
_UNIFORM_TOP = (1 << 64) - 1025
_SNAP_TOL = 1e-9

CHUNK = 1024  # draws per batch in realize
_BIG_ENDIAN = sys.byteorder == "big"


def _mix(z: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit state."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class RandomKey:
    """A point in a key tree: a 64-bit seed plus a path of child indices.

    Child keys derived from distinct indices yield statistically
    independent streams; derivation is a pure function of (seed, path).
    """

    __slots__ = ("seed", "path", "_state")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = seed & _MASK
        self.path = ()
        self._state = _mix(self.seed ^ _GAMMA)
        for index in path:
            child = self.child(index)
            self.path, self._state = child.path, child._state

    @classmethod
    def from_state(cls, state: int) -> "RandomKey":
        """The key at a 64-bit state of a batch; its seed and path are unknown."""
        key = object.__new__(cls)
        key.seed = key.path = None
        key._state = state
        return key

    @property
    def state(self) -> int:
        return self._state

    def child(self, index: int) -> "RandomKey":
        key = object.__new__(RandomKey)
        key.seed = self.seed
        key.path = None if self.path is None else self.path + (index,)
        key._state = _mix((self._state + (index + 1) * _GAMMA) & _MASK)
        return key

    def uniform(self, index: int = 0) -> float:
        """Deterministic uniform draw in (0, 1), one per (key, index)."""
        z = _mix((self._state + (index + 1) * _DRAW_SALT) & _MASK)
        return (min(z, _UNIFORM_TOP) + 1.0) / _UNIFORM_DENOM

    def normal(self, mu: float = 0.0, sigma: float = 1.0, index: int = 0) -> float:
        """Deterministic normal draw via the Box-Muller transform."""
        u1 = self.uniform(2 * index)
        u2 = self.uniform(2 * index + 1)
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def __repr__(self) -> str:
        if self.path is None:
            return f"RandomKey(state={self._state:#x})"
        return f"RandomKey(seed={self.seed}, path={self.path})"


# batch arithmetic over key states.  A batch of n states is one int with a
# 128-bit lane per state (a Lanes value): state i sits in bits 128i to
# 128i + 63 and the upper half of its lane is zero.  splitmix64 then runs
# on every state at once, a few big-int operations per step.  No lane
# carries into the next: every step masks each lane back below 2**64, so a
# sum of two lane values stays below 2**65 and a product with a 64-bit
# constant below 2**128, and the bits a right shift brings in from the next
# lane land above bit 63, where the next mask drops them.  The arithmetic
# is exact: each lane ends where RandomKey.child and RandomKey.uniform end.
# A batch stays packed from draw_states to the draws; only uniforms, a
# per-key Sampler(fn) and a split of a batch over several samplers read
# its states out.


class _Repeats(dict):
    """Lane-repeated words for one batch size, each built on first use:
    ``repeats[w]`` holds the 64-bit word ``w`` in every lane.  Batches
    derived from one another with the same size share one, and so do the
    full chunks of one :func:`draws` call."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, word: int) -> int:
        value = self[word] = int.from_bytes(word.to_bytes(16, "little") * self.n, "little")
        return value


def _words(z: int, n: int) -> array:
    """The ``2n`` 64-bit words of the ``n`` lanes of ``z`` as stored, in
    little-endian byte order: word ``2i`` is lane ``i``'s state.  Words move
    between such arrays as they are; ``_native`` reads them as numbers."""
    return array("Q", z.to_bytes(16 * n, "little"))


def _native(words: array) -> array:
    """Stored words as numbers (and numbers as stored words), in place."""
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _from_states(words: array) -> int:
    """The lane int whose lane ``i`` holds the stored word ``words[i]``."""
    lanes = array("Q", bytes(16 * len(words)))
    lanes[::2] = words
    return int.from_bytes(lanes, "little")


class Lanes:
    """A batch of 64-bit key states, packed one per 128-bit lane of ``z``.

    It reads as a sequence of int states (``len``, iteration,
    :meth:`tolist`); a slice is a batch again, and :meth:`take` and
    :meth:`split` gather lanes by index.  ``repeats`` holds the
    lane-repeated words of its size and passes to the batches derived
    from it.
    """

    __slots__ = ("z", "n", "repeats")

    def __init__(self, z: int, n: int, repeats: _Repeats = None):
        self.z, self.n = z, n
        self.repeats = _Repeats(n) if repeats is None else repeats

    @classmethod
    def of(cls, states: Iterable[int]) -> "Lanes":
        """Pack 64-bit states."""
        words = _native(array("Q", states))
        return cls(_from_states(words), len(words))

    def tolist(self) -> List[int]:
        return _native(_words(self.z, self.n)[::2]).tolist()

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(self.tolist())

    def __getitem__(self, part: slice) -> "Lanes":
        start, stop, step = part.indices(self.n)
        if step != 1:
            raise ValueError("batch slices take every lane")
        if stop <= start:
            return Lanes(0, 0)
        if stop - start == self.n:
            return self
        z = self.z >> (128 * start)
        if stop < self.n:
            z &= (1 << (128 * (stop - start))) - 1
        return Lanes(z, stop - start)

    def take(self, indices: Sequence[int]) -> "Lanes":
        """The batch of lanes ``indices``, in that order."""
        return self.split((indices,))[0]

    def split(self, groups: Iterable[Sequence[int]]) -> List["Lanes"]:
        """``take`` for each group of indices, reading the lanes once."""
        states = _words(self.z, self.n)[::2]
        return [
            Lanes(_from_states(array("Q", map(states.__getitem__, idx))), len(idx))
            for idx in groups
        ]

    def __repr__(self) -> str:
        return f"Lanes({self.tolist()!r})"


def _mix_lanes(z: int, inc: int, mask: int) -> int:
    """``_mix((s + i) & _MASK)`` in every lane, for a lane ``s`` of ``z``
    and the lane ``i`` of ``inc``; ``mask`` is ``_MASK`` in every lane."""
    z = (z + inc) & mask
    z = (z ^ (z >> 30)) & mask
    z = z * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) & mask
    z = z * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)) & mask


def _step(states: Lanes, inc: int) -> int:
    """The lane int of ``_mix((s + inc) & _MASK)`` for every state ``s``."""
    repeats = states.repeats
    return _mix_lanes(states.z, repeats[inc & _MASK], repeats[_MASK])


def child_states(states: Lanes, index: int) -> Lanes:
    """The states of ``RandomKey.child(index)`` for every state of a batch."""
    return Lanes(_step(states, (index + 1) * _GAMMA), states.n, states.repeats)


def draw_states(key: RandomKey, start: int, stop: int, repeats: _Repeats = None) -> Lanes:
    """The states of ``key.child(i)`` for ``start <= i < stop``; batches of
    that size may share one ``repeats``."""
    indices = Lanes.of(range(start, stop))
    if repeats is None:
        repeats = indices.repeats
    # lane i holds i * _GAMMA, below 2**128 - 2**64, so the increment (the
    # key's state plus child 0's _GAMMA) carries into no other lane
    inc = repeats[(key.state + _GAMMA) & _MASK]
    return Lanes(_mix_lanes(indices.z * _GAMMA, inc, repeats[_MASK]), indices.n, repeats)


def item_states(states: Lanes, m: int) -> Lanes:
    """The states of the ``m`` items of a quantifier at every state of a
    batch, row by row.  Item ``j`` sits at child 0 taken ``m - 1 - j``
    times, then child 1 unless ``j`` is 0: the key tree of the left-nested
    fold ``((v0 op v1) op v2) ...``.  Each step walks every row at once."""
    if m == 1:
        return states
    z, n, repeats = states.z, states.n, states.repeats
    mask, inc0, inc1 = repeats[_MASK], repeats[_GAMMA], repeats[2 * _GAMMA & _MASK]
    out = array("Q", bytes(8 * n * m))
    for j in range(m - 1, 0, -1):
        out[j::m] = _words(_mix_lanes(z, inc1, mask), n)[::2]
        z = _mix_lanes(z, inc0, mask)
    out[0::m] = _words(z, n)[::2]
    return Lanes(_from_states(out), n * m)


def uniforms(states: Lanes, index: int = 0) -> List[float]:
    """``RandomKey.uniform(index)`` at every state of a batch."""
    mixed = _native(_words(_step(states, (index + 1) * _DRAW_SALT), states.n)[::2])
    out = [(x + 1.0) / _UNIFORM_DENOM for x in mixed]
    if 1.0 in out:  # rare enough to convert the batch again, clamped
        out = [(min(x, _UNIFORM_TOP) + 1.0) / _UNIFORM_DENOM for x in mixed]
    return out


def normals(states: Lanes, mu: float, sigma: float) -> List[float]:
    """``RandomKey.normal(mu, sigma)`` at every state of a batch."""
    log, sqrt, cos, tau = math.log, math.sqrt, math.cos, 2.0 * math.pi
    return [
        mu + sigma * sqrt(-2.0 * log(u1)) * cos(tau * u2)
        for u1, u2 in zip(uniforms(states, 0), uniforms(states, 1))
    ]


# the truth basis and the truth spaces of the finite kinds


def basis(v: Value) -> bool:
    """A truth-basis value (a bool, or the numbers 0 and 1) as a bool."""
    if isinstance(v, bool):
        return v
    if v in (0, 1):
        return bool(v)
    raise CarrierMismatchError(f"{v!r} is not a truth-basis value")


def snap01(x: float) -> float:
    """Pin epsilon excursions of probability arithmetic to the boundary.

    Convex combinations and t-(co)norm formulas are mathematically inside
    [0, 1]; floating point can land a few ulps outside.  Anything beyond
    the tolerance is a genuine carrier violation and passes through for
    the carrier check to reject.
    """
    if 0.0 <= x <= 1.0:
        return x
    if 1.0 < x <= 1.0 + _SNAP_TOL:
        return 1.0
    if -_SNAP_TOL <= x < 0.0:
        return 0.0
    return x


class LP3(enum.IntEnum):
    """Three-valued truth, the non-empty subsets of the truth basis:
    false < both-true-and-false < true."""

    F = 0
    B = 1
    T = 2

    @classmethod
    def from_members(cls, members: Iterable[bool]) -> "LP3":
        ms = set(members)
        if ms == {True}:
            return cls.T
        if ms == {False}:
            return cls.F
        if ms == {True, False}:
            return cls.B
        raise CarrierMismatchError(f"{ms!r} is not a non-empty subset of the truth basis")

    @property
    def members(self) -> frozenset:
        if self is LP3.T:
            return frozenset((True,))
        if self is LP3.F:
            return frozenset((False,))
        return frozenset((True, False))

    def __repr__(self) -> str:
        return self.name

    __str__ = __repr__


def _type_rank(v: Value) -> int:
    if isinstance(v, bool):
        return 0
    if isinstance(v, int):
        return 1
    if isinstance(v, float):
        return 2
    return 3


def _sort_key(v: Value):
    return (_type_rank(v), v)


class Computation:
    """Base class; concrete kinds below."""

    kind: str


@dataclass(frozen=True)
class Pure(Computation):
    """A stateless computation: just the value (identity monad)."""

    value: Value
    kind = IDENTITY


class NESet(Computation):
    """A non-deterministic computation: a non-empty set of candidates."""

    kind = NONEMPTY_SET
    __slots__ = ("values",)

    def __init__(self, values: Iterable[Value]):
        vs = frozenset(values)
        if not vs:
            raise ValueError("non-deterministic computations need at least one value")
        object.__setattr__(self, "values", vs)

    def __eq__(self, other):
        return isinstance(other, NESet) and self.values == other.values

    def __hash__(self):
        return hash((NESet, self.values))

    def __repr__(self):
        return f"NESet({sorted(self.values, key=_sort_key)!r})"


class Dist(Computation):
    """A finitely-supported probability distribution.

    Support is canonicalized: duplicates merged, entries below 1e-15
    dropped (then renormalized), pairs sorted by a total value order, so
    structural equality is decidable.
    """

    kind = DISTRIBUTION
    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable):
        acc: dict = {}
        for v, p in pairs:
            p = float(p)
            if p < 0.0:
                raise ValueError(f"negative probability {p!r} for {v!r}")
            acc[v] = acc.get(v, 0.0) + p
        total = sum(acc.values())
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=_SUM_TOL):
            raise ValueError(f"distribution mass {total!r} is not 1")
        kept = {v: p for v, p in acc.items() if p >= _PROB_EPS}
        if not kept:
            raise ValueError("distribution has no support above threshold")
        norm = sum(kept.values())
        if len(kept) != len(acc):
            kept = {v: p / norm for v, p in kept.items()}
        if len(set(map(type, kept))) == 1:
            # one value type: equal ranks leave the value to order the pairs
            order = itemgetter(0)
        else:
            order = lambda vp: _sort_key(vp[0])
        object.__setattr__(self, "pairs", tuple(sorted(kept.items(), key=order)))

    def prob(self, value: Value) -> float:
        for v, p in self.pairs:
            if v == value:
                return p
        return 0.0

    @property
    def support(self):
        return tuple(v for v, _ in self.pairs)

    def __eq__(self, other):
        return isinstance(other, Dist) and self.pairs == other.pairs

    def __hash__(self):
        return hash((Dist, self.pairs))

    def __repr__(self):
        return f"Dist({list(self.pairs)!r})"


_NO_CONST = object()


class Sampler(Computation):
    """A seeded sampling procedure, drawn a batch of key states at a time.

    ``draw`` maps a batch of key states (:class:`Lanes`) to the list of
    their draws; each draw is a pure function of its state.
    ``Sampler(fn)`` wraps a per-key procedure ``fn(RandomKey)``, and
    ``sample(key)`` draws a single key.
    Constant samplers (the image of ``unit``) are flagged so ``bind`` may
    apply the left-unit monad law directly instead of consuming keys.
    """

    kind = SAMPLER
    __slots__ = ("draw", "const")

    def __init__(
        self,
        fn: Callable[[RandomKey], Value] = None,
        const=_NO_CONST,
        draw: Callable[[Lanes], list] = None,
    ):
        if const is not _NO_CONST:
            draw = lambda states: [const] * len(states)
        elif fn is not None:
            from_state = RandomKey.from_state
            draw = lambda states: [fn(from_state(s)) for s in states]
        self.draw = draw
        self.const = const

    @property
    def is_const(self) -> bool:
        return self.const is not _NO_CONST

    def sample(self, key: RandomKey) -> Value:
        return self.draw(Lanes.of((key.state,)))[0]

    def __repr__(self):
        if self.is_const:
            return f"Sampler(const={self.const!r})"
        return f"Sampler({self.draw!r})"


_TRUE_SAMPLER = Sampler(const=True)
_FALSE_SAMPLER = Sampler(const=False)


def draw_grouped(samplers: Sequence[Sampler], states: Lanes) -> list:
    """Draw row ``i`` of a batch from ``samplers[i]``, each distinct
    sampler once for all of its rows."""
    if not samplers:
        return []
    first = samplers[0]
    if samplers.count(first) == len(samplers):
        return first.draw(states)
    groups = defaultdict(list)  # samplers hash by identity
    for i, sampler in enumerate(samplers):
        groups[sampler].append(i)
    out = [None] * len(states)
    for (sampler, idx), part in zip(groups.items(), states.split(groups.values())):
        for i, v in zip(idx, sampler.draw(part)):
            out[i] = v
    return out


@dataclass(frozen=True)
class Realization:
    """The observable result of a computation over the truth basis."""

    value: object
    stderr: float = None
    samples: int = None
    seed: int = None


def _check_budget(budget: int, key: RandomKey) -> None:
    if budget is None or budget < 1:
        raise BudgetMissingError("sampler realization needs a sample budget N >= 1")
    if key is None:
        raise BudgetMissingError("sampler realization needs a RandomKey")


def draws(c: Sampler, budget: int, key: RandomKey) -> Iterator[list]:
    """Draw ``c`` at ``key.child(i)`` for ``i < budget``, ``CHUNK`` at a time."""
    _check_budget(budget, key)
    full = _Repeats(CHUNK)  # shared by the full chunks and the batches derived from them
    for start in range(0, budget, CHUNK):
        stop = min(start + CHUNK, budget)
        yield c.draw(draw_states(key, start, stop, full if stop - start == CHUNK else None))


# the monads


def _expect_kind(c: Computation, kind: str) -> Computation:
    if c.kind != kind:
        raise KindMismatchError(
            f"continuation returned a {c.kind!r} computation inside a {kind!r} one"
        )
    return c


class Monad:
    """A computation monad, as the library and the evaluator use it.

    A monad implements ``unit``, ``embed``, ``load``, ``row``, ``coin``,
    ``expand`` and ``fold``/``join``; ``bind``, ``truth`` and ``outcomes``
    derive from them.  ``algebras`` names the truth algebras it pairs with
    and ``carrier`` the carrier of the boolean algebra lifted over it.
    ``truth`` reads a computation over the truth basis as a truth value,
    ``embed`` is its inverse, and ``bases`` are the truth values of False
    and True.  A batch bind takes each row's computation, asks ``expand``
    for the outcomes, evaluates the body once at every outcome of every row
    and asks ``fold`` for each row's truth value (``join`` for its
    computation).  A monad that ``draws`` gives a row one outcome, drawn at
    the row's key state, and its rows' truth values are basis values;
    ``reads_rows`` is False where a computational predicate has no reading.
    ``load`` keeps a parsed table row of an interpretation document in the
    form ``row`` turns into a computation, and ``coin`` is ``bernoulli``.
    """

    kind: str
    algebras: Tuple[str, ...]
    carrier: str
    bases: tuple
    draws = False
    reads_rows = True

    def pair(self, algebra_name: str) -> None:
        """Reject a truth algebra this monad does not pair with."""
        if algebra_name not in self.algebras:
            raise CarrierMismatchError(
                f"monad kind {self.kind!r} supports algebras {self.algebras}, not {algebra_name!r}"
            )

    def accept(self, kind: str, symbol: str) -> None:
        """Reject a computational symbol whose computations are of another kind."""
        if kind != self.kind:
            raise KindMismatchError(
                f"computational symbol {symbol!r} produces {kind!r} computations "
                f"under the {self.kind!r} framework"
            )

    def load(self, row):
        """The stored form of a parsed row, a frozenset of values (set
        form) or a :class:`Dist`: here the distribution itself."""
        if not isinstance(row, Dist):
            raise ValueError(f"value sets are only loadable under the lp kind, not {self.kind!r}")
        return row

    def outcomes(self, rows) -> List[Value]:
        """The values that stored rows can yield, every row's in turn."""
        return self.expand([self.row(stored) for stored in rows], None)[1]

    def bind(self, c: Computation, k: Callable[[Value], Computation]) -> Computation:
        """The Kleisli extension: ``k`` at every outcome of ``c``, joined."""
        rows, outcomes = self.expand([c], None)
        return self.join(rows, [_expect_kind(k(a), self.kind) for a in outcomes])

    def truth(self, c: Computation):
        """The fold of the basis values of ``c``'s outcomes."""
        rows, outcomes = self.expand([c], None)
        return self.fold(rows, [self.bases[basis(v)] for v in outcomes], snap01)[0]

    def realize(self, c: Computation, budget: int = None, key: RandomKey = None) -> Realization:
        return Realization(self.truth(c))

    def fold(self, rows, values, pin):
        """Each row's value: with one outcome per row, the body's value."""
        return values

    def join(self, rows, comps: List[Computation]) -> Computation:
        """One expanded row's computation from the body's at its outcomes:
        with one outcome, the body's."""
        return comps[0]

    def result(self, run: Callable, draws: bool):
        """The value at one valuation of a batch denotation ``run(n, states)``."""
        return run(1, None)[0]


class _Identity(Monad):
    kind, algebras, carrier = IDENTITY, ("boolean",), "bool"
    bases = (False, True)
    reads_rows = False  # computational predicates have no classical reading

    def unit(self, v):
        return Pure(v)

    def embed(self, t):
        return Pure(t)

    def load(self, row):
        """A point mass or a singleton set, stored as its value."""
        values = row.support if isinstance(row, Dist) else tuple(row)
        if len(values) != 1:
            raise ValueError(f"classical rows must be deterministic, got {row!r}")
        return values[0]

    def row(self, stored):
        return Pure(stored)

    def coin(self, p):
        if p in (0.0, 1.0):
            return Pure(int(p))
        raise KindMismatchError("bernoulli is not deterministic under the classical kind")

    def expand(self, comps, states):
        """The single outcome of each row's computation."""
        return None, [c.value for c in comps]


class _Set(Monad):
    kind, algebras, carrier = NONEMPTY_SET, ("priest",), "lp3"
    bases = (LP3.F, LP3.T)

    def unit(self, v):
        return NESet((v,))

    def embed(self, t):
        return NESet(t.members)

    def load(self, row):
        if isinstance(row, Dist):
            raise ValueError("the lp kind needs set-valued rows (lists of values)")
        return row

    def row(self, stored):
        return NESet(stored)

    def coin(self, p):
        return NESet({int(p)} if p in (0.0, 1.0) else {0, 1})

    def expand(self, comps, states):
        """Each row's candidate values."""
        rows = [c.values for c in comps]
        return rows, [a for support in rows for a in support]

    def fold(self, rows, values, pin):
        """The union of the members of each row's values."""
        values = iter(values)
        out = []
        for support in rows:
            members = set()
            for _, v in zip(support, values):
                members |= v.members
            out.append(LP3.from_members(members))
        return out

    def join(self, rows, comps):
        """The union of the candidates."""
        return NESet(v for c in comps for v in c.values)


class _Dist(Monad):
    kind, carrier = DISTRIBUTION, "prob"
    algebras = ("product", "sproduct", "ltn_p", "ltn_q", "stl_r")
    bases = (0.0, 1.0)

    def unit(self, v):
        return Dist(((v, 1.0),))

    def embed(self, p):
        return Dist(((True, p), (False, 1.0 - p)))

    def row(self, stored):
        return stored

    def coin(self, p):
        return Dist(((1, p), (0, 1.0 - p)))

    def expand(self, comps, states):
        """Each row's support, in support order."""
        rows = [c.pairs for c in comps]
        return rows, [a for pairs in rows for a, _ in pairs]

    def fold(self, rows, values, pin):
        """Each row's expectation, summed in support order and ``pin``ned
        to the algebra's carrier."""
        values = iter(values)
        out = []
        for pairs in rows:
            total = 0.0
            for (_, p), v in zip(pairs, values):
                total += p * v
            out.append(pin(total))
        return out

    def join(self, rows, comps):
        """The mixture: each distribution weighted by its outcome's mass."""
        return Dist((b, p * q) for (_, p), c in zip(rows[0], comps) for b, q in c.pairs)


class _Sampler(Monad):
    kind, algebras, carrier = SAMPLER, ("product",), "sampler"
    draws = True

    def unit(self, v):
        if v is True:  # constant samplers are immutable, so share them
            return _TRUE_SAMPLER
        if v is False:
            return _FALSE_SAMPLER
        return Sampler(const=v)

    def bind(self, c, k):
        """Draw the outer value with child key 0 and run the continuation
        with child key 1; a batch runs ``k`` once per distinct (hashable)
        outer value."""
        if c.is_const:
            return _expect_kind(k(c.const), SAMPLER)

        def draw(states):
            inner: dict = {}
            rows = []
            for a in c.draw(child_states(states, 0)):
                if (a, type(a)) not in inner:
                    inner[a, type(a)] = _expect_kind(k(a), SAMPLER)
                rows.append(inner[a, type(a)])
            return draw_grouped(rows, child_states(states, 1))

        return Sampler(draw=draw)

    def truth(self, c):
        return c

    def embed(self, s):
        return s

    def outcomes(self, rows):
        """The supports of the stored distributions."""
        return [v for stored in rows for v, _ in stored.pairs]

    def row(self, stored):
        """Draw a stored distribution by inverse CDF: the first value whose
        running mass exceeds the uniform; the last bound is open, so
        rounding falls on the last value."""
        values = [v for v, _ in stored.pairs]
        bounds = list(accumulate(p for _, p in stored.pairs))
        bounds[-1] = math.inf
        return Sampler(draw=lambda states: [values[bisect_right(bounds, u)] for u in uniforms(states)])

    def coin(self, p):
        return Sampler(draw=lambda states: [1 if u < p else 0 for u in uniforms(states)])

    def realize(self, c, budget=None, key=None):
        """An estimate from ``budget`` draws keyed by (seed, sample index),
        with its binomial standard error.  A constant sampler draws nothing,
        but needs the same budget and key."""
        if c.is_const:
            _check_budget(budget, key)
            return Realization(1.0 if basis(c.const) else 0.0, stderr=0.0, samples=budget, seed=key.seed)
        hits = 0
        for values in draws(c, budget, key):
            for v in values:
                if v is True:
                    hits += 1
                elif v is not False and basis(v):
                    hits += 1
        est = hits / budget
        stderr = math.sqrt(est * (1.0 - est) / budget)
        return Realization(est, stderr=stderr, samples=budget, seed=key.seed)

    def expand(self, comps, states):
        """One outcome per row, drawn at the row's state."""
        return None, draw_grouped(comps, states)

    def result(self, run, draws):
        if not draws:
            return self.unit(run(1, None)[0])
        run(1, None)  # no draws: build what no draw feeds, so its errors come first
        return Sampler(draw=lambda states: run(len(states), states))


MONADS = {m.kind: m for m in (_Identity(), _Set(), _Dist(), _Sampler())}


def monad(kind: str) -> Monad:
    """The monad value of a kind."""
    found = MONADS.get(kind) if isinstance(kind, str) else None
    if found is None:
        raise KindMismatchError(f"unknown monad kind {kind!r}")
    return found


def _monad_of(c, verb: str) -> Monad:
    found = MONADS.get(c.kind) if isinstance(c, Computation) else None
    if found is None:
        raise KindMismatchError(f"cannot {verb} {type(c).__name__}")
    return found


def unit(kind: str, v: Value) -> Computation:
    """Embed a value into a computation of the given monad kind."""
    return monad(kind).unit(v)


def bind(c: Computation, k: Callable[[Value], Computation]) -> Computation:
    """Kleisli extension: sequence ``c`` into the computation ``k`` builds.

    identity: plain application.  Sets: union of images.  Distributions:
    the two-level marginal, renormalization-checked.  Samplers: draw the
    outer value with child key 0, run the continuation with child key 1.
    """
    return _monad_of(c, "bind").bind(c, k)


def realize(c: Computation, budget: int = None, key: RandomKey = None) -> Realization:
    """Read a truth-basis computation off as a report.

    Exact kinds are read directly; samplers are estimated from ``budget``
    draws keyed by (seed, sample index), with a binomial standard error.
    The draws are made in batches of ``CHUNK`` (:func:`draws`).  A value
    outside the truth basis raises :class:`CarrierMismatchError`.
    """
    return _monad_of(c, "realize").realize(c, budget, key)
