"""Design guards: no ladders on the monad kind or the algebra's name.

The semantics is one set of clauses over a monad value and a truth
algebra.  Per-kind behaviour belongs to the monad (``effects.Monad``) and
quantifier behaviour to the algebra (``TruthAlgebra.forall``/``exists``),
so ``semantics.py`` never compares against a monad kind and
``algebra.aggregate`` never tests an algebra's name.  The monad also reads
an interpretation's table rows and ``bernoulli`` coins, and says whether
continuous sorts and builtins are allowed (``draws``), so ``model.py``
never compares against a monad kind either.

Each exact monad implements its Kleisli extension once, as the
evaluator's ``expand`` and ``fold``/``join``: the scalar ``bind`` and
``truth`` come from ``effects.Monad``, and only the sampler, whose
outcomes are drawn at key states, has its own.

A bind is one clause: a run of binds, each the body of the one before,
compiles and evaluates in one loop, and a computational atom is a run of
one, so ``compile_formula`` has no second bind path.
"""

import ast
import inspect
import textwrap

from monadlogic import algebra, effects, model, semantics

KINDS = {"IDENTITY", "NONEMPTY_SET", "DISTRIBUTION", "SAMPLER", "monad_kind"}


def _kind_or_name(node):
    """Whether an expression reads a monad kind or an attribute ``.name``."""
    if isinstance(node, ast.Name):
        return node.id in KINDS
    return isinstance(node, ast.Attribute) and (node.attr in KINDS or node.attr == "name")


def ladder_tests(source):
    """The comparisons against a monad kind or an algebra name in
    ``source``, and the method calls on a name (``alg.name.startswith``)."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.Compare):
            if any(_kind_or_name(n) for operand in (node.left, *node.comparators)
                   for n in ast.walk(operand)):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if _kind_or_name(node.func.value) and not isinstance(node.func.value, ast.Name):
                found.append(ast.unparse(node))
    return found


def test_semantics_compares_against_no_monad_kind_or_algebra_name():
    assert ladder_tests(inspect.getsource(semantics)) == []


def test_model_compares_against_no_monad_kind():
    assert ladder_tests(inspect.getsource(model)) == []


def test_aggregate_tests_no_algebra_name():
    assert ladder_tests(inspect.getsource(algebra.aggregate)) == []


def test_the_guard_sees_a_ladder():
    source = (
        "def f(fw, alg, kind):\n"
        "    if fw.monad_kind == effects.SAMPLER or kind == effects.IDENTITY:\n"
        "        return alg.name in ('product', 'sproduct')\n"
        "    return alg.name.startswith('lifted_')\n"
    )
    assert len(ladder_tests(source)) == 4


RUN_NODES = {"Bind", "MAtom", "MProp"}


def _names_run_nodes(node):
    return any(isinstance(n, ast.Attribute) and n.attr in RUN_NODES for n in ast.walk(node))


def bind_clauses(source):
    """The functions of ``source`` that name a bind or a computational
    atom: the nested clauses of each top-level function (but for the
    dispatcher ``comp``), and the top-level functions that name one
    outside their clauses."""
    found = []
    for outer in ast.parse(textwrap.dedent(source)).body:
        if not isinstance(outer, ast.FunctionDef):
            continue
        clauses = [n for n in outer.body if isinstance(n, ast.FunctionDef)]
        found += [c.name for c in clauses if c.name != "comp" and _names_run_nodes(c)]
        rest = [n for n in outer.body if not isinstance(n, ast.FunctionDef)]
        if any(map(_names_run_nodes, rest)):
            found.append(outer.name)
    return found


def test_compile_formula_has_one_bind_clause():
    assert bind_clauses(inspect.getsource(semantics)) == ["comp_run"]


def test_the_guard_sees_a_second_bind_path():
    source = (
        "def compile_formula(f):\n"
        "    def comp(f):\n"
        "        return isinstance(f, syntax.Bind)\n"
        "    def comp_run(f):\n"
        "        return syntax.Bind\n"
        "    def comp_atom(f):\n"
        "        return isinstance(f, (syntax.MAtom, syntax.MProp))\n"
        "def _bind_fn(f):\n"
        "    return f.body if isinstance(f, syntax.Bind) else f\n"
    )
    assert bind_clauses(source) == ["comp_run", "comp_atom", "_bind_fn"]


def test_only_the_sampler_has_its_own_scalar_bind():
    own = {type(m).__name__: sorted({"bind", "truth"} & set(vars(type(m))))
           for m in effects.MONADS.values()}
    assert own == {"_Identity": [], "_Set": [], "_Dist": [], "_Sampler": ["bind", "truth"]}
