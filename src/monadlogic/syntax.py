"""Concrete grammar, abstract syntax and sort checking.

The formula language is a many-sorted first-order logic extended with
computational bind formulas ``[x := m(T, ...)]F`` that run a computational
function symbol ``m`` and evaluate ``F`` with ``x`` bound to its result.

Grammar (binds and quantifiers extend maximally to the right; ``->`` is
right-associative, ``&`` and ``|`` left-associative, ``!`` binds tightest)::

    formula  := quant | bind | impl
    quant    := ("forall"|"exists") IDENT ":" IDENT "." formula
    bind     := "[" assign ("," assign)* "]" formula
    assign   := IDENT ":=" IDENT "(" termlist? ")"
    impl     := disj ("->" impl)?
    disj     := conj ("|" conj)*
    conj     := unary ("&" unary)*
    unary    := "!" unary | atom
    atom     := "top" | "bot" | "(" formula ")" | IDENT ("(" termlist? ")")?
    termlist := term ("," term)*
    term     := IDENT ("(" termlist? ")")? | NUMBER

A multi-assignment bracket ``[a := m(), b := n()]F`` is shorthand for the
nested binds ``[a := m()][b := n()]F``.  Numeric literals carry a synthetic
``Int``/``Real`` sort and are accepted at any argument position.  Variable
shadowing by nested binders is rejected rather than renamed.  Property
access is written applicatively, ``prop(T)``; a dotted surface form is not
supported.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .errors import (
    ArityMismatchError,
    DuplicateSymbolError,
    FormulaSyntaxError,
    NestingTooDeepError,
    SortMismatchError,
    UnknownSortError,
    UnknownSymbolError,
)

INT_SORT = "Int"
REAL_SORT = "Real"


# signatures


@dataclass(frozen=True)
class Signature:
    """Sorts plus four disjoint symbol classes.

    ``funcs``/``mfuncs`` map a name to ``(argument sorts, result sort)``;
    ``preds``/``mpreds`` map a name to its argument sorts.  The ``m``
    variants are computational: their interpretations return effectful
    values and they may appear only in bind formulas (functions) or as
    atoms evaluated inside the monad (predicates).
    """

    sorts: frozenset
    funcs: Dict[str, Tuple[Tuple[str, ...], str]] = field(default_factory=dict)
    mfuncs: Dict[str, Tuple[Tuple[str, ...], str]] = field(default_factory=dict)
    preds: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    mpreds: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        dup = set(self.funcs) & set(self.mfuncs)
        if dup:
            raise DuplicateSymbolError(f"function symbols declared twice: {sorted(dup)}")
        dup = set(self.preds) & set(self.mpreds)
        if dup:
            raise DuplicateSymbolError(f"predicate symbols declared twice: {sorted(dup)}")
        for name, (args, result) in {**self.funcs, **self.mfuncs}.items():
            for s in (*args, result):
                if s not in self.sorts:
                    raise UnknownSortError(f"symbol {name!r} mentions unknown sort {s!r}")
        for name, args in {**self.preds, **self.mpreds}.items():
            for s in args:
                if s not in self.sorts:
                    raise UnknownSortError(f"symbol {name!r} mentions unknown sort {s!r}")


def _arity_entry(name, spec, with_result):
    if not isinstance(spec, dict) or "args" not in spec:
        raise FormulaSyntaxError(f"symbol {name!r} needs an object with an 'args' list")
    args = spec["args"]
    if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
        raise FormulaSyntaxError(f"symbol {name!r}: 'args' must be a list of sort names")
    if with_result:
        result = spec.get("result")
        if not isinstance(result, str):
            raise FormulaSyntaxError(f"symbol {name!r} needs a 'result' sort")
        return tuple(args), result
    return tuple(args)


def parse_signature(text: str) -> Signature:
    """Parse a JSON signature document.

    Top-level keys: ``sorts`` (list of names), ``funcs``/``mfuncs``
    (name -> {args: [...], result: sort}) and ``preds``/``mpreds``
    (name -> {args: [...]}).
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormulaSyntaxError(f"malformed signature document: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormulaSyntaxError("signature document must be an object")
    unknown = set(doc) - {"sorts", "funcs", "mfuncs", "preds", "mpreds"}
    if unknown:
        raise FormulaSyntaxError(f"unknown signature keys: {sorted(unknown)}")
    sorts = doc.get("sorts", [])
    if not isinstance(sorts, list) or not all(isinstance(s, str) for s in sorts):
        raise FormulaSyntaxError("'sorts' must be a list of sort names")
    if len(set(sorts)) != len(sorts):
        raise DuplicateSymbolError("duplicate sort names")

    def table(key, with_result):
        section = doc.get(key, {})
        if not isinstance(section, dict):
            raise FormulaSyntaxError(f"'{key}' must be an object")
        return {
            name: _arity_entry(name, spec, with_result) for name, spec in section.items()
        }

    return Signature(
        sorts=frozenset(sorts),
        funcs=table("funcs", True),
        mfuncs=table("mfuncs", True),
        preds=table("preds", False),
        mpreds=table("mpreds", False),
    )


# abstract syntax


class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str
    sort: str


@dataclass(frozen=True)
class Lit(Term):
    """Numeric literal; sort is the synthetic Int or Real."""

    value: object

    @property
    def sort(self) -> str:
        return INT_SORT if isinstance(self.value, int) else REAL_SORT


@dataclass(frozen=True)
class App(Term):
    func: str
    args: Tuple[Term, ...]
    sort: str


class Formula:
    pass


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class MProp(Formula):
    name: str


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class MAtom(Formula):
    mpred: str
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    sort: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    sort: str
    body: Formula


@dataclass(frozen=True)
class Bind(Formula):
    """``[var := mfunc(args)] body``: run the computation, bind its value."""

    var: str
    mfunc: str
    args: Tuple[Term, ...]
    body: Formula


TOP = Top()
BOT = Bot()


# tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|->|[!&|()\[\],.:])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"forall", "exists", "top", "bot"}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature, env: Dict[str, str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig
        self.env = dict(env)

    # token plumbing

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, text: str):
        kind, value, offset = self._next()
        if value != text or kind == "eof":
            raise FormulaSyntaxError(f"expected {text!r} at offset {offset}, got {value!r}")

    def _ident(self):
        kind, value, offset = self._next()
        if kind != "ident" or value in _KEYWORDS:
            raise FormulaSyntaxError(f"expected an identifier at offset {offset}, got {value!r}")
        return value

    # scope

    def _bind_var(self, name: str, sort: str):
        if name in self.env:
            raise DuplicateSymbolError(
                f"binder shadows variable {name!r} already in scope"
            )
        self.env[name] = sort

    def _unbind_var(self, name: str):
        del self.env[name]

    # formulas

    def formula(self) -> Formula:
        kind, value, _ = self._peek()
        if value in ("forall", "exists"):
            return self._quant()
        if value == "[":
            return self._bind()
        return self._impl()

    def _quant(self) -> Formula:
        _, word, _ = self._next()
        var = self._ident()
        self._expect(":")
        sort = self._ident()
        if sort not in self.sig.sorts:
            raise UnknownSortError(f"quantifier over unknown sort {sort!r}")
        self._expect(".")
        self._bind_var(var, sort)
        body = self.formula()
        self._unbind_var(var)
        cls = Forall if word == "forall" else Exists
        return cls(var, sort, body)

    def _bind(self) -> Formula:
        # assignments desugar left-to-right, so each one sees the previous;
        # consecutive brackets read as one list, so a run takes no frame per bind
        self._expect("[")
        assigns = []
        while True:
            assign = self._assign()
            self._bind_var(assign[0], assign[2])
            assigns.append(assign)
            if self._peek()[1] == ",":
                self._next()
                continue
            self._expect("]")
            if self._peek()[1] != "[":
                break
            self._next()
        body = self.formula()
        for var, _, _, _ in reversed(assigns):
            self._unbind_var(var)
        for var, mfunc, _, args in reversed(assigns):
            body = Bind(var, mfunc, args, body)
        return body

    def _assign(self):
        var = self._ident()
        self._expect(":=")
        mfunc = self._ident()
        if mfunc not in self.sig.mfuncs:
            if mfunc in self.sig.funcs:
                raise UnknownSymbolError(
                    f"{mfunc!r} is an ordinary function symbol; binds need a computational one"
                )
            raise UnknownSymbolError(f"unknown computational function {mfunc!r}")
        self._expect("(")
        args = self._termlist() if self._peek()[1] != ")" else []
        self._expect(")")
        arg_sorts, result = self.sig.mfuncs[mfunc]
        self._check_args(mfunc, args, arg_sorts)
        return var, mfunc, result, tuple(args)

    def _impl(self) -> Formula:
        left = self._disj()
        if self._peek()[1] == "->":
            self._next()
            return Implies(left, self._impl())
        return left

    def _disj(self) -> Formula:
        out = self._conj()
        while self._peek()[1] == "|":
            self._next()
            out = Or(out, self._conj())
        return out

    def _conj(self) -> Formula:
        out = self._unary()
        while self._peek()[1] == "&":
            self._next()
            out = And(out, self._unary())
        return out

    def _unary(self) -> Formula:
        if self._peek()[1] == "!":
            self._next()
            return Not(self._unary())
        return self._atom()

    def _atom(self) -> Formula:
        kind, value, offset = self._peek()
        if value == "top":
            self._next()
            return TOP
        if value == "bot":
            self._next()
            return BOT
        if value == "(":
            self._next()
            out = self.formula()
            self._expect(")")
            return out
        if kind != "ident":
            raise FormulaSyntaxError(f"expected a formula at offset {offset}, got {value!r}")
        name = self._ident()
        args = None
        if self._peek()[1] == "(":
            self._next()
            args = self._termlist() if self._peek()[1] != ")" else []
            self._expect(")")
        if name in self.sig.preds:
            declared = self.sig.preds[name]
            self._check_args(name, args, declared)
            return Atom(name, tuple(args)) if args else Prop(name)
        if name in self.sig.mpreds:
            declared = self.sig.mpreds[name]
            self._check_args(name, args, declared)
            return MAtom(name, tuple(args)) if args else MProp(name)
        if name in self.sig.funcs or name in self.sig.mfuncs:
            raise UnknownSymbolError(f"{name!r} is a function symbol, not a predicate")
        raise UnknownSymbolError(f"unknown predicate {name!r}")

    # terms

    def _termlist(self):
        out = [self._term()]
        while self._peek()[1] == ",":
            self._next()
            out.append(self._term())
        return out

    def _term(self) -> Term:
        kind, value, offset = self._peek()
        if kind == "number":
            self._next()
            if re.fullmatch(r"-?\d+", value):
                return Lit(int(value))
            return Lit(float(value))
        if kind != "ident":
            raise FormulaSyntaxError(f"expected a term at offset {offset}, got {value!r}")
        name = self._ident()
        if self._peek()[1] == "(":
            self._next()
            args = self._termlist() if self._peek()[1] != ")" else []
            self._expect(")")
            if name not in self.sig.funcs:
                if name in self.sig.mfuncs:
                    raise UnknownSymbolError(
                        f"computational function {name!r} may only appear in a bind"
                    )
                raise UnknownSymbolError(f"unknown function {name!r}")
            arg_sorts, result = self.sig.funcs[name]
            self._check_args(name, args, arg_sorts)
            return App(name, tuple(args), result)
        if name in self.env:
            return Var(name, self.env[name])
        if name in self.sig.funcs:
            arg_sorts, result = self.sig.funcs[name]
            if arg_sorts:
                raise ArityMismatchError(f"function {name!r} expects {len(arg_sorts)} arguments")
            return App(name, (), result)
        if name in self.sig.mfuncs:
            raise UnknownSymbolError(f"computational function {name!r} may only appear in a bind")
        raise UnknownSymbolError(f"unknown term symbol {name!r}")

    def _check_args(self, name: str, args, declared):
        if args is None:
            args = []
        if len(args) != len(declared):
            raise ArityMismatchError(
                f"{name!r} expects {len(declared)} arguments, got {len(args)}"
            )
        for term, want in zip(args, declared):
            if isinstance(term, Lit):
                continue  # literals are sort-polymorphic by design
            if term.sort != want:
                raise SortMismatchError(
                    f"argument of {name!r} has sort {term.sort!r}, expected {want!r}"
                )


def parse_formula(
    text: str, sig: Signature, free: Optional[Dict[str, str]] = None
) -> Formula:
    """Parse and sort-check a formula.

    ``free`` optionally pre-binds variables (name -> sort) so open
    formulas can be parsed, e.g. the body of a network query before it is
    closed by a chain of binds.
    """
    parser = _Parser(text, sig, free or {})
    try:
        out = parser.formula()
    except RecursionError:
        raise NestingTooDeepError("parse") from None
    kind, value, offset = parser._peek()
    if kind != "eof":
        raise FormulaSyntaxError(f"unexpected trailing input at offset {offset}: {value!r}")
    return out


# free variables


def _term_vars(terms) -> Dict[str, str]:
    """The variables of ``terms`` with their sorts, in first-occurrence order."""
    out = {}
    for t in terms:
        if isinstance(t, Var):
            out[t.name] = t.sort
        elif isinstance(t, App):
            out.update(_term_vars(t.args))
    return out


def free_sets(f: Formula) -> Dict[int, Dict[str, str]]:
    """Every node's free variables with their sorts, in first-occurrence
    order, keyed by the node's ``id``; a bind's argument tuple has an entry
    too, keyed by the tuple's ``id``.

    This one walk is the only place free variables are computed:
    :func:`free_vars` reads the root's entry and ``compile_formula`` every
    node's.  A run of binds is walked in a loop, so a chain of any length
    takes no recursion frame per bind; other nesting beyond the recursion
    limit raises :class:`NestingTooDeepError`."""
    frees = {}

    def walk(f):
        run = []
        while isinstance(f, Bind):
            run.append(f)
            f = f.body
        if isinstance(f, (Atom, MAtom)):
            free = _term_vars(f.args)
        elif isinstance(f, Not):
            free = walk(f.body)
        elif isinstance(f, (And, Or, Implies)):
            free = {**walk(f.left), **walk(f.right)}
        elif isinstance(f, (Forall, Exists)):
            free = {n: s for n, s in walk(f.body).items() if n != f.var}
        else:
            free = {}
        frees[id(f)] = free
        for bind in reversed(run):
            args = frees[id(bind.args)] = _term_vars(bind.args)
            free = frees[id(bind)] = {**args, **{n: s for n, s in free.items() if n != bind.var}}
        return free

    try:
        walk(f)
    except RecursionError:
        raise NestingTooDeepError("walk") from None
    return frees


def free_vars(f: Formula) -> Tuple[Tuple[str, str], ...]:
    """Free variables with sorts in first-occurrence order: the root's entry of :func:`free_sets`."""
    return tuple(free_sets(f)[id(f)].items())


# pretty printing

_LEVEL = {
    Implies: 1,
    Or: 2,
    And: 3,
    Not: 4,
    Forall: 0,
    Exists: 0,
    Bind: 0,
}


def _level(f: Formula) -> int:
    return _LEVEL.get(type(f), 5)


def pretty_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):  # an infinite float as the literal that overflows to it
        return repr(t.value).replace("inf", "1e999") if type(t.value) is float else repr(t.value)
    if not t.args:
        return t.func
    return f"{t.func}({', '.join(pretty_term(a) for a in t.args)})"


def pretty(f: Formula) -> str:
    """Render a formula; the result reparses to a structurally equal AST.
    A run of binds is rendered in a loop; other nesting beyond the
    recursion limit raises :class:`NestingTooDeepError`."""
    try:
        return _pretty(f)
    except RecursionError:
        raise NestingTooDeepError("print") from None


def _pretty(f: Formula) -> str:
    def wrap(child, minimum):
        text = _pretty(child)
        return f"({text})" if _level(child) < minimum else text

    if isinstance(f, Top):
        return "top"
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, (Prop, MProp)):
        return f.name
    if isinstance(f, Atom):
        return f"{f.pred}({', '.join(pretty_term(a) for a in f.args)})"
    if isinstance(f, MAtom):
        return f"{f.mpred}({', '.join(pretty_term(a) for a in f.args)})"
    if isinstance(f, Not):
        return f"!{wrap(f.body, 4)}"
    if isinstance(f, And):
        return f"{wrap(f.left, 3)} & {wrap(f.right, 4)}"
    if isinstance(f, Or):
        return f"{wrap(f.left, 2)} | {wrap(f.right, 3)}"
    if isinstance(f, Implies):
        return f"{wrap(f.left, 2)} -> {wrap(f.right, 1)}"
    if isinstance(f, (Forall, Exists)):
        word = "forall" if isinstance(f, Forall) else "exists"
        return f"{word} {f.var}:{f.sort}. {_pretty(f.body)}"
    if isinstance(f, Bind):
        run = []  # a loop, so a run of any length takes no frame per bind
        while isinstance(f, Bind):
            run.append(f"[{f.var} := {f.mfunc}({', '.join(map(pretty_term, f.args))})] ")
            f = f.body
        return "".join(run) + _pretty(f)
    raise TypeError(f"not a formula: {f!r}")
