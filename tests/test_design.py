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

Each builtin is one registry entry holding its row function, so
``model.py`` resolves a symbol (``compile_*`` and everything they reach)
without comparing a builtin's name against a string.

A bind is one clause: a run of binds, each the body of the one before,
compiles and evaluates in one loop, and a computational atom is a run of
one, so ``compile_formula`` has no second bind path.  The loop serves
every monad, so no clause defines a second evaluation function for the
sampler.  A stochastic builtin resolves to its registry entry's row
function with the monad bound, not to a per-row lookup by name.
"""

import ast
import inspect
import textwrap

from monadlogic import algebra, effects, model, semantics

RESOLVERS = ("compile_function", "compile_predicate", "compile_computational")

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


def evaluation_functions(source):
    """Each clause of ``compile_formula`` in ``source`` with the batch
    functions ``(cols, n, states)`` it defines with ``def``."""
    found = {}
    for outer in ast.parse(textwrap.dedent(source)).body:
        if isinstance(outer, ast.FunctionDef) and outer.name == "compile_formula":
            for clause in outer.body:
                if isinstance(clause, ast.FunctionDef):
                    found[clause.name] = [
                        n.name for n in ast.walk(clause) if isinstance(n, ast.FunctionDef)
                        and [a.arg for a in n.args.args] == ["cols", "n", "states"]]
    return found


def test_each_clause_defines_one_evaluation_function():
    found = evaluation_functions(inspect.getsource(semantics))
    assert found["comp_run"] == ["run_fn"]
    assert {clause: fns for clause, fns in found.items() if len(fns) > 1} == {}


def test_the_guard_sees_a_second_evaluation_function():
    source = (
        "def compile_formula(f):\n"
        "    def comp_run(f):\n"
        "        def draw_fn(cols, n, states):\n"
        "            return []\n"
        "        def sweep_fn(cols, n, states):\n"
        "            return []\n"
        "        return draw_fn if draws else sweep_fn\n"
    )
    assert evaluation_functions(source) == {"comp_run": ["draw_fn", "sweep_fn"]}


def test_a_stochastic_builtin_resolves_to_its_registry_row():
    interp = model.Interpretation(kind=effects.SAMPLER, sorts={},
                                  mfuncs={"m": model.BuiltinStoch("normal")})
    run = model.compile_computational(interp, "m", 2)
    assert run.func is model._BUILTIN_STOCH["normal"][-1]
    assert run.keywords == {"monad": effects.monad(effects.SAMPLER)}
    assert not hasattr(model, "_builtin_stochastic")


def test_only_the_sampler_has_its_own_scalar_bind():
    own = {type(m).__name__: sorted({"bind", "truth"} & set(vars(type(m))))
           for m in effects.MONADS.values()}
    assert own == {"_Identity": [], "_Set": [], "_Dist": [], "_Sampler": ["bind", "truth"]}


def reached(source, roots):
    """The top-level functions and assignments of ``source`` that ``roots``
    reach by name (classes are the data they resolve, not code they run)."""
    defs = {}
    for node in ast.parse(textwrap.dedent(source)).body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    seen, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name in defs and name not in seen:
            seen[name] = defs[name]
            todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)]
    return list(seen.values())


def string_tests(nodes):
    """The comparisons in ``nodes`` with a string constant in an operand."""
    return [ast.unparse(node) for root in nodes for node in ast.walk(root)
            if isinstance(node, ast.Compare)
            and any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                    for operand in (node.left, *node.comparators) for n in ast.walk(operand))]


def test_symbol_resolution_compares_no_builtin_name():
    assert string_tests(reached(inspect.getsource(model), RESOLVERS)) == []


def test_the_guard_sees_a_builtin_name_test():
    source = (
        "def compile_predicate(interp, name):\n"
        "    return _row(interp.preds[name].name)\n"
        "def _row(bname):\n"
        "    return eq_fn if bname == 'eq' else _BUILTINS[bname]\n"
        "_BUILTINS = {'lt': lambda x, y: x < y, 'in': lambda x: x in ('a', 'b')}\n"
        "def unreached(name):\n"
        "    return name == 'normal'\n"
    )
    assert string_tests(reached(source, RESOLVERS)) == ["bname == 'eq'", "x in ('a', 'b')"]
