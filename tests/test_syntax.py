"""Grammar, sort checking, free variables, pretty-printing."""

import json
import random

import pytest

from monadlogic import free_vars, parse_formula, parse_signature, pretty
from monadlogic.errors import (
    ArityMismatchError,
    DuplicateSymbolError,
    FormulaSyntaxError,
    NestingTooDeepError,
    SortMismatchError,
    UnknownSortError,
    UnknownSymbolError,
)
from monadlogic.syntax import (
    And,
    App,
    Atom,
    Bind,
    Exists,
    Forall,
    Implies,
    Lit,
    Not,
    Or,
    Prop,
    Signature,
    Top,
    Var,
)

from helpers import random_checked_formula

MNIST_SIG = json.dumps(
    {
        "sorts": ["ImageData", "Image", "Digit"],
        "funcs": {
            "im1": {"args": ["ImageData"], "result": "Image"},
            "im2": {"args": ["ImageData"], "result": "Image"},
            "sum": {"args": ["ImageData"], "result": "Digit"},
            "add": {"args": ["Digit", "Digit"], "result": "Digit"},
        },
        "mfuncs": {"classify": {"args": ["Image"], "result": "Digit"}},
        "preds": {"eq": {"args": ["Digit", "Digit"]}},
    }
)

PROP_SIG = Signature(
    sorts=frozenset(("U",)),
    preds={name: () for name in "abcd"},
)


class TestParseSignature:
    def test_degenerate(self):
        sig = parse_signature('{"sorts": ["Bool"]}')
        assert sig.sorts == frozenset(("Bool",))
        assert not sig.funcs and not sig.preds

    def test_mnist_schema(self):
        sig = parse_signature(
            json.dumps(
                {
                    "sorts": ["Digit", "Image"],
                    "mfuncs": {"classify": {"args": ["Image"], "result": "Digit"}},
                    "funcs": {"add": {"args": ["Digit", "Digit"], "result": "Digit"}},
                    "preds": {"eq": {"args": ["Digit", "Digit"]}},
                }
            )
        )
        assert len(sig.mfuncs) == 1 and len(sig.funcs) == 1 and len(sig.preds) == 1
        assert sig.mfuncs["classify"] == (("Image",), "Digit")

    def test_duplicate_func_and_mfunc(self):
        doc = {
            "sorts": ["S"],
            "funcs": {"f": {"args": [], "result": "S"}},
            "mfuncs": {"f": {"args": [], "result": "S"}},
        }
        with pytest.raises(DuplicateSymbolError):
            parse_signature(json.dumps(doc))

    def test_unknown_sort_in_arity(self):
        doc = {"sorts": ["S"], "preds": {"p": {"args": ["T"]}}}
        with pytest.raises(UnknownSortError):
            parse_signature(json.dumps(doc))

    def test_malformed_document(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_signature("{not json")
        assert err.value.code == "SyntaxError"


class TestParseFormula:
    def test_top(self):
        assert parse_formula("top", PROP_SIG) == Top()

    def test_precedence(self):
        got = parse_formula("!a & b -> c | d", PROP_SIG)
        want = Implies(And(Not(Prop("a")), Prop("b")), Or(Prop("c"), Prop("d")))
        assert got == want

    def test_implies_right_associative(self):
        got = parse_formula("a -> b -> c", PROP_SIG)
        assert got == Implies(Prop("a"), Implies(Prop("b"), Prop("c")))

    def test_left_associative_chains(self):
        got = parse_formula("a & b & c", PROP_SIG)
        assert got == And(And(Prop("a"), Prop("b")), Prop("c"))

    def test_quantified_bind_formula(self):
        sig = parse_signature(MNIST_SIG)
        got = parse_formula(
            "forall x:ImageData. [n1 := classify(im1(x))][n2 := classify(im2(x))] "
            "eq(add(n1, n2), sum(x))",
            sig,
        )
        x = Var("x", "ImageData")
        want = Forall(
            "x",
            "ImageData",
            Bind(
                "n1",
                "classify",
                (App("im1", (x,), "Image"),),
                Bind(
                    "n2",
                    "classify",
                    (App("im2", (x,), "Image"),),
                    Atom(
                        "eq",
                        (
                            App("add", (Var("n1", "Digit"), Var("n2", "Digit")), "Digit"),
                            App("sum", (x,), "Digit"),
                        ),
                    ),
                ),
            ),
        )
        assert got == want

    def test_do_shorthand_desugars(self):
        sig = parse_signature(MNIST_SIG)
        a = parse_formula(
            "forall x:ImageData. [n1 := classify(im1(x)), n2 := classify(im2(x))] "
            "eq(add(n1, n2), sum(x))",
            sig,
        )
        b = parse_formula(
            "forall x:ImageData. [n1 := classify(im1(x))][n2 := classify(im2(x))] "
            "eq(add(n1, n2), sum(x))",
            sig,
        )
        assert a == b

    def test_quantifier_scopes_maximally_right(self):
        got = parse_formula("forall x:U. a -> b", Signature(frozenset(("U",)), preds={"a": (), "b": ()}))
        assert isinstance(got, Forall) and isinstance(got.body, Implies)

    def test_literals_are_sort_polymorphic(self):
        sig = parse_signature(MNIST_SIG)
        got = parse_formula("exists x:ImageData. eq(sum(x), 1)", sig)
        assert isinstance(got, Exists)
        assert got.body.args[1] == Lit(1)
        assert Lit(1).sort == "Int" and Lit(1.5).sort == "Real"

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse_formula("nosuch", PROP_SIG)

    def test_arity_mismatch(self):
        sig = parse_signature(MNIST_SIG)
        with pytest.raises(ArityMismatchError):
            parse_formula("exists x:ImageData. eq(sum(x))", sig)

    def test_sort_mismatch(self):
        sig = parse_signature(MNIST_SIG)
        with pytest.raises(SortMismatchError):
            parse_formula("exists x:ImageData. eq(im1(x), 1)", sig)

    def test_mfunc_not_a_term(self):
        sig = parse_signature(MNIST_SIG)
        with pytest.raises(UnknownSymbolError):
            parse_formula("exists x:Image. eq(classify(x), 1)", sig)

    def test_func_not_a_bind_target(self):
        sig = parse_signature(MNIST_SIG)
        with pytest.raises(UnknownSymbolError):
            parse_formula("exists x:ImageData. [n := sum(x)] eq(n, 1)", sig)

    def test_shadowing_rejected(self):
        sig = parse_signature(MNIST_SIG)
        with pytest.raises(DuplicateSymbolError):
            parse_formula("forall x:Image. [x := classify(x)] eq(x, 1)", sig)
        with pytest.raises(DuplicateSymbolError):
            parse_formula("forall x:Image. forall x:Image. top", sig)

    def test_bind_variable_not_free_in_its_own_args(self):
        sig = parse_signature(MNIST_SIG)
        with pytest.raises(UnknownSymbolError):
            parse_formula("[n := classify(im1(n))] eq(n, 1)", sig)

    def test_trailing_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("top top", PROP_SIG)

    def test_deep_nesting_is_a_coded_error(self):
        for text in ("!" * 5000 + "a", "(" * 3000 + "a" + ")" * 3000):
            with pytest.raises(NestingTooDeepError):
                parse_formula(text, PROP_SIG)

    def test_free_parameter_environment(self):
        sig = parse_signature(MNIST_SIG)
        got = parse_formula("eq(n, 1)", sig, free={"n": "Digit"})
        assert got == Atom("eq", (Var("n", "Digit"), Lit(1)))

    def test_unary_nests(self):
        assert parse_formula("!!a", PROP_SIG) == Not(Not(Prop("a")))

    def test_parenthesized_quantifier_inside_connective(self):
        sig = Signature(frozenset(("U",)), preds={"a": (), "p": ("U",)})
        got = parse_formula("a & (forall x:U. p(x))", sig)
        assert isinstance(got, And) and isinstance(got.right, Forall)


class TestFreeVars:
    def test_closed(self):
        assert free_vars(Top()) == ()

    def test_bind_scoping(self):
        sig = parse_signature(
            json.dumps(
                {
                    "sorts": ["ImageData", "Digit"],
                    "funcs": {"im1": {"args": ["ImageData"], "result": "ImageData"}},
                    "mfuncs": {"classify": {"args": ["ImageData"], "result": "Digit"}},
                    "preds": {"eq": {"args": ["Digit", "Digit"]}},
                }
            )
        )
        f = parse_formula(
            "[n := classify(im1(x))] eq(n, y)",
            sig,
            free={"x": "ImageData", "y": "Digit"},
        )
        assert free_vars(f) == (("x", "ImageData"), ("y", "Digit"))

    def test_quantifier_removes_bound(self):
        sig = Signature(frozenset(("S",)), preds={"p": ("S",)})
        f = parse_formula("forall x:S. p(x)", sig)
        assert free_vars(f) == ()

    def test_first_occurrence_order(self):
        sig = Signature(frozenset(("S",)), preds={"p": ("S", "S")})
        f = parse_formula("p(b, a) & p(a, b)", sig, free={"a": "S", "b": "S"})
        assert free_vars(f) == (("b", "S"), ("a", "S"))

    def test_a_chain_of_10000_binds(self):
        # a run of binders is walked in a loop; each bind reads the variable
        # bound before it, the first reads the free y, the body reads z
        f = Atom("p", (Var("x9999", "S"), Var("z", "S")))
        for i in reversed(range(10000)):
            f = Bind(f"x{i}", "m", (Var(f"x{i - 1}" if i else "y", "S"),), f)
        assert free_vars(f) == (("y", "S"), ("z", "S"))

    def test_a_rebinding_run_scopes_each_argument_outside_its_bind(self):
        # [x := m(x)] [y := m(x)] exists x:S. p(x, w), built as the parser
        # rejects shadowing: only the first m reads the free x
        x, w = Var("x", "S"), Var("w", "S")
        f = Bind("x", "m", (x,), Bind("y", "m", (x,), Exists("x", "S", Atom("p", (x, w)))))
        assert free_vars(f) == (("x", "S"), ("w", "S"))


TRAFFIC_SIG = Signature(
    sorts=frozenset(("Crossing", "Colour", "Action")),
    funcs={"red": ((), "Colour"), "go": ((), "Action")},
    mfuncs={
        "light": (("Crossing",), "Colour"),
        "drive": (("Crossing", "Colour"), "Action"),
    },
    preds={"eqc": ("Colour", "Colour"), "eqa": ("Action", "Action")},
)


class TestRoundTrip:
    CORPUS = [
        "top",
        "bot",
        "!a & b -> c | d",
        "a -> b -> c",
        "a & (b | c)",
        "(a -> b) -> c",
        "!(a & b)",
        "a | (b & !c) | d",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_propositional_corpus(self, text):
        ast = parse_formula(text, PROP_SIG)
        assert parse_formula(pretty(ast), PROP_SIG) == ast

    def test_demo_formulas(self, demo_text):
        for sig_name, formula_name in (
            ("traffic.sig.json", "traffic.formula"),
            ("weather.sig.json", "weather.formula"),
        ):
            sig = parse_signature(demo_text(sig_name))
            ast = parse_formula(demo_text(formula_name), sig)
            assert parse_formula(pretty(ast), sig) == ast

    def test_random_formulas(self):
        rng = random.Random(2024)
        for _ in range(300):
            ast = random_checked_formula(rng, TRAFFIC_SIG)
            text = pretty(ast)
            assert parse_formula(text, TRAFFIC_SIG) == ast, text

    def test_nested_bind_printing(self):
        sig = parse_signature(MNIST_SIG)
        text = (
            "forall x:ImageData. [n1 := classify(im1(x)), n2 := classify(im2(x))] "
            "eq(add(n1, n2), sum(x))"
        )
        ast = parse_formula(text, sig)
        printed = pretty(ast)
        assert printed.count("[") == 2  # shorthand prints as nested binds
        assert parse_formula(printed, sig) == ast

    CHAIN_SIG = Signature(frozenset(("S",)), mfuncs={"m0": ((), "S"), "m": (("S",), "S")},
                          preds={"p": ("S",)})

    def test_a_run_of_5000_bracketed_binds(self):
        # consecutive brackets read and print in a loop; deep ASTs are
        # compared through pretty, since dataclass == recurses
        chain = [f"x{i} := m(x{i - 1})" if i else "x0 := m0()" for i in range(5000)]
        text = "".join(f"[{a}] " for a in chain) + "p(x4999)"
        ast = parse_formula(text, self.CHAIN_SIG)
        assert pretty(ast) == text
        assert pretty(parse_formula(f"[{', '.join(chain)}] p(x4999)", self.CHAIN_SIG)) == text

    def test_bracket_groups_and_comma_lists_give_one_run(self):
        texts = ("[a := m0(), b := m(a)] [c := m(b)] p(c)",
                 "[a := m0()][b := m(a), c := m(b)] p(c)",
                 "[a := m0(), b := m(a), c := m(b)] p(c)")
        asts = [parse_formula(t, self.CHAIN_SIG) for t in texts]
        assert asts[0] == asts[1] == asts[2]
        assert pretty(asts[0]) == "[a := m0()] [b := m(a)] [c := m(b)] p(c)"
        with pytest.raises(DuplicateSymbolError):
            parse_formula("[a := m0()] [a := m(a)] p(a)", self.CHAIN_SIG)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("[a := m0()] [", self.CHAIN_SIG)


class TestNumbers:
    def test_negative_and_scientific_literals(self):
        sig = parse_signature(
            json.dumps({"sorts": ["S"], "preds": {"lt": {"args": ["S", "S"]}}})
        )
        f = parse_formula("lt(-3, 2e-1)", sig)
        assert f.args[0] == Lit(-3) and f.args[1] == Lit(0.2)
        assert parse_formula(pretty(f), sig) == f


class TestNullaryNormalization:
    def test_explicit_parens_normalize_to_propositional_form(self):
        got_bare = parse_formula("a", PROP_SIG)
        got_parens = parse_formula("a()", PROP_SIG)
        assert got_bare == got_parens == Prop("a")
        assert pretty(got_parens) == "a"
