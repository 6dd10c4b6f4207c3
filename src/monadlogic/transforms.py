"""Framework-to-framework transformations and weighted model counting.

``argmax_interpretation`` sends a distributional interpretation to a
non-deterministic one: every conditional-table row keeps exactly the
values of maximal probability (ties within a small tolerance all
survive), and all other symbols are left untouched.  The result loads
under the non-empty-set kind and evaluates three-valued.

Weighted model counting closes a classical query over network variables
with a chain of binds ``[x1 := cpd_x1(), x2 := cpd_x2(parents), ...]F``;
its distributional evaluation equals the explicit sum over variable
valuations, which ``wmc_bruteforce`` computes independently.  The
evaluator runs the chain as one loop: a forward sweep keeps each bind's
distinct rows on the variables the rest of the chain still reads, and a
backward sweep folds them, so the chain is summed out variable by
variable in topological order: the cost is exponential only in the
frontier width (the most variables any bind's continuation still needs),
not in the number of variables, and a chain of any length evaluates.
``wmc_bruteforce`` stays exponential in the number of variables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from . import effects, model, semantics, syntax
from .algebra import make_algebra
from .errors import (
    ContinuousUnsupportedError,
    CyclicParentsError,
    FiniteOnlyError,
    KindMismatchError,
    MissingTableRowError,
    SchemaError,
    UnknownVariableError,
)


@dataclass(frozen=True)
class TransformSpec:
    name: str = "argmax"
    tolerance: float = 1e-12  # maximizer ties; recognizes rounded uniform rows


def _argmax_payload(payload, tolerance: float):
    best = max(p for _, p in payload.pairs)
    return frozenset(v for v, p in payload.pairs if p >= best - tolerance)


def argmax_interpretation(
    interp: model.Interpretation, spec: TransformSpec = TransformSpec()
) -> model.Interpretation:
    """Keep every maximal-probability value of each conditional-table row.

    Only finite-support tables transform; stochastic builtin families
    (and anything else continuous) are rejected.
    """
    if interp.kind != effects.DISTRIBUTION:
        raise ContinuousUnsupportedError(
            f"argmax transforms distributional interpretations, not {interp.kind!r}"
        )

    def transform(impls):
        out = {}
        for name, impl in impls.items():
            if isinstance(impl, model.BuiltinStoch):
                raise ContinuousUnsupportedError(
                    f"{name!r}: argmax needs finite tables, not builtin {impl.name!r}"
                )
            out[name] = model.CTable(
                {args: _argmax_payload(p, spec.tolerance) for args, p in impl.rows.items()}
            )
        return out

    return replace(
        interp,
        kind=effects.NONEMPTY_SET,
        mfuncs=transform(interp.mfuncs),
        mpreds=transform(interp.mpreds),
    )


# weighted model counting


@dataclass(frozen=True)
class NetworkVar:
    name: str
    sort: str
    parents: Tuple[str, ...]
    mfunc: str


@dataclass(frozen=True)
class Network:
    vars: Tuple[NetworkVar, ...]

    @property
    def free(self):
        return {v.name: v.sort for v in self.vars}


def load_network(doc: dict, sig: syntax.Signature, interp: model.Interpretation):
    """Read the ``network`` section of an interpretation document.

    Each entry carries its conditional table inline, loaded as a ctable
    is (``model.load_ctable``); loading registers a fresh computational
    symbol per variable and returns the network plus the extended
    signature and interpretation.
    """
    section = doc.get("network")
    if not isinstance(section, dict) or not isinstance(section.get("vars"), list):
        raise SchemaError("network section needs a 'vars' list")
    entries = section["vars"]
    monad = effects.monad(interp.kind)
    net_vars = []
    new_mfuncs = dict(sig.mfuncs)
    new_impls = dict(interp.mfuncs)
    seen = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise SchemaError(f"network vars must be objects, not {entry!r}")
        name, sort = entry.get("name"), entry.get("sort")
        if not isinstance(name, str) or not isinstance(sort, str):
            raise SchemaError("network vars need 'name' and 'sort'")
        if name in seen:
            raise SchemaError(f"network variable {name!r} declared twice")
        if sort not in sig.sorts:
            raise SchemaError(f"network variable {name!r} has unknown sort {sort!r}")
        parents = entry.get("parents", [])
        if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
            raise SchemaError(f"network variable {name!r}: 'parents' must be a list of names")
        parents = tuple(parents)
        for p in parents:
            if p not in seen:
                raise CyclicParentsError(
                    f"variable {name!r} lists parent {p!r} that is not declared before it"
                )
        mfunc = f"cpd_{name}"
        if mfunc in new_mfuncs:
            raise SchemaError(f"network symbol {mfunc!r} collides with the signature")
        parent_sorts = tuple(seen[p] for p in parents)
        new_mfuncs[mfunc] = (parent_sorts, sort)
        new_impls[mfunc] = model.load_ctable(
            f"network variable {name!r}", entry.get("rows", []), len(parents), monad
        )
        seen[name] = sort
        net_vars.append(NetworkVar(name, sort, parents, mfunc))
    if not net_vars:
        raise SchemaError("network needs at least one variable")

    network = Network(tuple(net_vars))
    return network, replace(sig, mfuncs=new_mfuncs), replace(interp, mfuncs=new_impls)


def wmc_build(network: Network, formula: syntax.Formula) -> syntax.Formula:
    """Close a classical query with the network's chain of binds.

    The query's free variables must all be network variables; unused
    network variables simply marginalize out.
    """
    bound = network.free
    for name, sort in syntax.free_vars(formula):
        if name not in bound:
            raise UnknownVariableError(f"query mentions unbound variable {name!r}")
        if bound[name] != sort:
            raise UnknownVariableError(
                f"query uses {name!r} at sort {sort!r}, network declares {bound[name]!r}"
            )
    sorts = {v.name: v.sort for v in network.vars}
    out = formula
    for var in reversed(network.vars):
        args = tuple(syntax.Var(p, sorts[p]) for p in var.parents)
        out = syntax.Bind(var.name, var.mfunc, args, out)
    return out


def _domain_values(interp: model.Interpretation, sort: str):
    domain = interp.sorts[sort]
    if isinstance(domain, model.EnumDomain):
        return domain.values
    if isinstance(domain, model.IntRangeDomain):
        return tuple(range(domain.lo, domain.hi + 1))
    raise FiniteOnlyError(f"brute-force counting needs finite sorts, not {sort!r}")


def wmc_bruteforce(
    network: Network, interp: model.Interpretation, formula: syntax.Formula
) -> float:
    """Exact weight sum over all variable valuations.

    Chain-rule weights come from the same conditional tables the bind
    chain uses; the query is evaluated classically (0/1) per valuation.
    The tables must hold distributions, as they do when the network was
    loaded under the ``distribution`` or ``sampler`` kind.
    """
    for var in network.vars:
        if not all(isinstance(row, effects.Dist) for row in interp.mfuncs[var.mfunc].rows.values()):
            raise KindMismatchError(
                f"wmc_bruteforce weighs distribution rows, but network variable {var.name!r} "
                f"was loaded under the {interp.kind!r} kind"
            )
    classical = semantics.make_framework(effects.IDENTITY, make_algebra("boolean"))
    query = semantics.compile_formula(formula, classical, interp)
    names = [v.name for v in network.vars]
    domains = [_domain_values(interp, v.sort) for v in network.vars]

    def weight(nu):
        w = 1.0
        for var in network.vars:
            table = interp.mfuncs[var.mfunc]
            key = tuple(nu[p] for p in var.parents)
            if key not in table.rows:
                raise MissingTableRowError(
                    f"network variable {var.name!r} has no row for parents {key!r}"
                )
            w *= table.rows[key].prob(nu[var.name])
        return w

    total = 0.0
    def enumerate_from(index: int, nu: dict):
        nonlocal total
        if index == len(names):
            w = weight(nu)
            if w > 0.0 and query(nu):
                total += w
            return
        for value in domains[index]:
            nu[names[index]] = value
            enumerate_from(index + 1, nu)
        del nu[names[index]]

    enumerate_from(0, {})
    return total
