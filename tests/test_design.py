"""Design guards: no ladders on the monad kind or the algebra's name.

The semantics is one set of clauses over a monad value and a truth
algebra.  Per-kind behaviour belongs to the monad (``effects.Monad``) and
quantifier behaviour to the algebra (``TruthAlgebra.forall``/``exists``),
so ``semantics.py`` never compares against a monad kind and
``algebra.aggregate`` never tests an algebra's name.  The monad also reads
an interpretation's table rows and ``bernoulli`` coins, and says whether
continuous sorts and builtins are allowed (``draws``), so ``model.py``
never compares against a monad kind either.
"""

import ast
import inspect
import textwrap

from monadlogic import algebra, model, semantics

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
