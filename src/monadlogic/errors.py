"""Error taxonomy shared by all modules.

Every error carries a stable ``code`` (its class name without the ``Error``
suffix) so the command-line front-end can emit single-line diagnostics that
name the failing check.
"""

import sys


class EngineError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        name = type(self).__name__
        return name[:-5] if name.endswith("Error") else name


class UsageError(EngineError):
    """Command line invoked with an inconsistent set of options."""


class NestingTooDeepError(EngineError):
    """A formula nests deeper than the interpreter's recursion limit lets
    the parser, the free-variable walk, the printer or the evaluator
    follow.  A run of binds is followed in a loop, so a bind chain of any
    length evaluates."""

    def __init__(self, step: str):
        super().__init__(f"formula nests too deeply to {step} (recursion limit {sys.getrecursionlimit()})")


# syntax

class FormulaSyntaxError(EngineError):
    """Malformed formula text or configuration document."""

    @property
    def code(self) -> str:
        return "SyntaxError"


class DuplicateSymbolError(EngineError):
    """A name is declared twice, or a binder shadows a variable in scope."""


class UnknownSortError(EngineError):
    """A sort is mentioned that the signature does not declare."""


class UnknownSymbolError(EngineError):
    """An identifier does not resolve against the signature."""


class ArityMismatchError(EngineError):
    """Wrong number of arguments for a symbol or connective."""


class SortMismatchError(EngineError):
    """An argument's sort disagrees with the declared arity."""


# algebra

class UnknownAlgebraError(EngineError):
    """Unrecognised truth-algebra name."""


class ParamOutOfRangeError(EngineError):
    """Algebra or builtin parameter outside its admissible range."""


class CarrierMismatchError(EngineError):
    """A truth value does not belong to the algebra's carrier."""


class EmptyFamilyError(EngineError):
    """Aggregation over an empty (or all-zero-weight) family."""


class ExactOnlyError(EngineError):
    """Lattice aggregators accept exact finite families only."""


class NegativeWeightError(EngineError):
    """A family weight is negative."""


# effects

class KindMismatchError(EngineError):
    """Computations of different monad kinds were combined."""


class BudgetMissingError(EngineError):
    """A sample count is needed but none was supplied."""


# model

class SchemaError(EngineError):
    """A configuration document violates the expected schema."""


class MissingSymbolError(EngineError):
    """A declared symbol has no implementation."""


class FiniteOnlyError(EngineError):
    """A continuous construct appeared under a finite-only monad."""


class EmptyDomainError(EngineError):
    """A sort domain has no elements."""


class MissingTableRowError(EngineError):
    """A lookup table has no row for the requested arguments."""


class DivisionByZeroError(EngineError):
    """Division builtin applied to a zero divisor."""


class EvalTypeError(EngineError):
    """A builtin was applied to values of the wrong type."""

    @property
    def code(self) -> str:
        return "TypeError"


# semantics

class OpenFormulaError(EngineError):
    """A sentence-level operation received a formula with free variables."""


# transforms

class ContinuousUnsupportedError(EngineError):
    """The argmax transformation needs finite-support tables."""


class CyclicParentsError(EngineError):
    """Network parents do not respect the topological order."""


class UnknownVariableError(EngineError):
    """A formula mentions a variable the network does not bind."""
