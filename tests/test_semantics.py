"""The uniform evaluator across all four frameworks."""

import json
import math
import random

import pytest

from monadlogic import (
    DISTRIBUTION,
    IDENTITY,
    NONEMPTY_SET,
    SAMPLER,
    LP3,
    CTable,
    Dist,
    EnumDomain,
    Interpretation,
    RealIntervalDomain,
    TableFunc,
    argmax_interpretation,
    eval_formula,
    evaluate_sentence,
    load_interpretation,
    make_algebra,
    make_framework,
    parse_formula,
    parse_signature,
)
from monadlogic.errors import (
    BudgetMissingError,
    CarrierMismatchError,
    KindMismatchError,
    OpenFormulaError,
)
from monadlogic.model import BuiltinFunc, UniformDensity
from monadlogic.syntax import Signature

from helpers import finite_system, interpret


def classical():
    return make_framework(IDENTITY, make_algebra("boolean"))


def lp():
    return make_framework(NONEMPTY_SET, make_algebra("priest"))


def dist(algebra="product", params=None):
    return make_framework(DISTRIBUTION, make_algebra(algebra, params))


def sampler():
    return make_framework(SAMPLER, make_algebra("product"))


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class TestFrameworkPairings:
    def test_accepted(self):
        assert classical().algebra_name == "boolean"
        assert lp().algebra_name == "priest"
        assert dist("stl_r", {"r": 5.0}).algebra_name == "stl_r"
        assert sampler().algebra.carrier == "bool"

    def test_rejected(self):
        with pytest.raises(CarrierMismatchError):
            make_framework(IDENTITY, make_algebra("product"))
        with pytest.raises(CarrierMismatchError):
            make_framework(DISTRIBUTION, make_algebra("boolean"))
        with pytest.raises(CarrierMismatchError):
            make_framework(SAMPLER, make_algebra("sproduct"))
        with pytest.raises(KindMismatchError):
            make_framework("state", make_algebra("product"))


class TestClassical:
    def test_tautology(self):
        sig = Signature(frozenset(("B",)), preds={"p": ("B",)})
        interp = Interpretation(
            kind=IDENTITY,
            sorts={"B": EnumDomain((0, 1))},
            preds={"p": TableFunc({(0,): True, (1,): False})},
        )
        f = parse_formula("forall x:B. p(x) | !p(x)", sig)
        assert evaluate_sentence(f, classical(), interp).value is True
        g = parse_formula("forall x:B. p(x)", sig)
        assert evaluate_sentence(g, classical(), interp).value is False

    def test_computational_predicates_rejected(self):
        sig = Signature(frozenset(("B",)), mpreds={"mq": ()})
        interp = Interpretation(
            kind=IDENTITY,
            sorts={"B": EnumDomain((0,))},
            mpreds={"mq": CTable({(): True})},
        )
        f = parse_formula("mq", sig)
        with pytest.raises(CarrierMismatchError):
            evaluate_sentence(f, classical(), interp)

    def test_open_formula_rejected(self):
        sig = Signature(frozenset(("B",)), preds={"p": ("B",)})
        interp = Interpretation(kind=IDENTITY, sorts={"B": EnumDomain((0,))},
                                preds={"p": TableFunc({(0,): True})})
        f = parse_formula("p(x)", sig, free={"x": "B"})
        with pytest.raises(OpenFormulaError, match="^sentence has free variables: x$"):
            evaluate_sentence(f, classical(), interp)

    def test_compile_errors_come_before_an_open_formula(self):
        # the free variables are read off the compiled denotation, so an
        # error that compiling raises is reported first, under every kind
        sig = Signature(frozenset(("R",)), mfuncs={"m": (("R",), "R")}, preds={"lt": ("R", "R")})
        interp = Interpretation(
            kind=IDENTITY,
            sorts={"R": RealIntervalDomain(0.0, 1.0, UniformDensity())},
            mfuncs={"m": CTable({})},
            preds={"lt": BuiltinFunc("lt")},
        )
        quantified = parse_formula("forall t:R. lt(t, x)", sig, free={"x": "R"})
        with pytest.raises(BudgetMissingError, match="continuous sort 'R'"):
            evaluate_sentence(quantified, dist(), interp)
        bound = parse_formula("[z := m(x)] lt(z, x)", sig, free={"x": "R"})
        with pytest.raises(KindMismatchError):
            evaluate_sentence(bound, dist(), interp)
        with pytest.raises(OpenFormulaError, match="^sentence has free variables: x$"):
            evaluate_sentence(bound, classical(), interp)


@pytest.fixture(scope="module")
def mnist_system(demo_text):
    sig = parse_signature(demo_text("mnist.sig.json"))
    interp = load_interpretation(
        json.loads(demo_text("mnist.interp.json")), sig, DISTRIBUTION
    )
    f = parse_formula("[n1 := classify(im1)][n2 := classify(im2)] eq(add(n1, n2), 1)", sig)
    return sig, interp, f


@pytest.fixture(scope="module")
def traffic_system(demo_text):
    sig = parse_signature(demo_text("traffic.sig.json"))
    doc = json.loads(demo_text("traffic.interp.json"))
    f = parse_formula(demo_text("traffic.formula"), sig)
    return sig, doc, f


class TestMnistToy:
    def test_value_is_half(self, mnist_system):
        _, interp, f = mnist_system
        assert evaluate_sentence(f, dist(), interp).value == 0.5

    def test_brute_force_pair_enumeration(self, mnist_system):
        # oracle: enumerate digit pairs weighted by the classifier rows
        _, interp, f = mnist_system
        rows = interp.mfuncs["classify"].rows
        total = 0.0
        for n1, p1 in rows[("img1",)].pairs:
            for n2, p2 in rows[("img2",)].pairs:
                total += p1 * p2 * (1.0 if n1 + n2 == 1 else 0.0)
        got = evaluate_sentence(f, dist(), interp).value
        assert abs(got - total) <= 1e-12 and abs(got - 0.5) <= 1e-12


class TestTrafficLights:
    def test_dist_value(self, traffic_system):
        # hand sum: red 1, amber 0.5, green 1, each at weight 1/3
        sig, doc, f = traffic_system
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        assert abs(evaluate_sentence(f, dist(), interp).value - 5.0 / 6.0) <= 1e-12

    def test_argmax_yields_both(self, traffic_system):
        sig, doc, f = traffic_system
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        assert evaluate_sentence(f, lp(), argmax_interpretation(interp)).value is LP3.B

    def test_bind_body_open_evaluation(self, traffic_system):
        sig, doc, f = traffic_system
        interp = argmax_interpretation(load_interpretation(doc, sig, DISTRIBUTION))
        body = parse_formula(
            "[l := light(x)][d := drive(x, l)] "
            "((eqa(d, go) & !eqc(l, red)) | (!eqa(d, go) & eqc(l, red)))",
            sig,
            free={"x": "Crossing"},
        )
        assert eval_formula(body, lp(), interp, {"x": "c1"}) is LP3.B

    @pytest.mark.parametrize(
        "light,drive_rows,expected",
        [
            ("red", {"red": "stop"}, LP3.T),
            ("green", {"green": "stop"}, LP3.F),
        ],
    )
    def test_dirac_variants_stay_crisp(self, traffic_system, light, drive_rows, expected):
        sig, doc, f = traffic_system
        dirac = json.loads(json.dumps(doc))
        dirac["mfuncs"]["light"]["rows"] = [["c1", [[light, 1.0]]]]
        dirac["mfuncs"]["drive"]["rows"] = [
            ["c1", colour, [[action, 1.0]]] for colour, action in drive_rows.items()
        ]
        interp = argmax_interpretation(load_interpretation(dirac, sig, DISTRIBUTION))
        assert evaluate_sentence(f, lp(), interp).value is expected

    def test_bind_uses_union_not_join(self, traffic_system):
        # amber branch mixes T and F: the Kleisli union gives B, the
        # lattice join would give T
        sig, doc, f = traffic_system
        interp = argmax_interpretation(load_interpretation(doc, sig, DISTRIBUTION))
        body = parse_formula(
            "[d := drive(x, l)] eqa(d, go)", sig, free={"x": "Crossing", "l": "Colour"}
        )
        assert eval_formula(body, lp(), interp, {"x": "c1", "l": "amber"}) is LP3.B


class TestWeather:
    def test_sampler_matches_closed_form(self, demo_text):
        sig = parse_signature(demo_text("weather.sig.json"))
        interp = load_interpretation(json.loads(demo_text("weather.interp.json")), sig, SAMPLER)
        f = parse_formula(demo_text("weather.formula"), sig)
        report = evaluate_sentence(f, sampler(), interp, budget=20000, seed=7)
        closed = 0.5 * _normal_cdf(0.0) + 0.5 * (1.0 - _normal_cdf(15.0))
        se = math.sqrt(closed * (1 - closed) / 20000)
        assert abs(report.value - closed) <= 4 * se
        assert report.samples == 20000 and report.seed == 7

    def test_budget_and_seed_required(self, demo_text):
        sig = parse_signature(demo_text("weather.sig.json"))
        interp = load_interpretation(json.loads(demo_text("weather.interp.json")), sig, SAMPLER)
        f = parse_formula(demo_text("weather.formula"), sig)
        with pytest.raises(BudgetMissingError):
            evaluate_sentence(f, sampler(), interp)

    def test_reproducible(self, demo_text):
        sig = parse_signature(demo_text("weather.sig.json"))
        interp = load_interpretation(json.loads(demo_text("weather.interp.json")), sig, SAMPLER)
        f = parse_formula(demo_text("weather.formula"), sig)
        a = evaluate_sentence(f, sampler(), interp, budget=5000, seed=3)
        b = evaluate_sentence(f, sampler(), interp, budget=5000, seed=3)
        assert a.value == b.value and a.stderr == b.stderr


class TestDiracCollapse:
    def test_dist_equals_classical_on_dirac_tables(self):
        rng = random.Random(404)
        for _ in range(200):
            sig, values, rows, formula = finite_system(rng, dirac=True)
            d_val = eval_formula(formula, dist(), interpret(values, rows, DISTRIBUTION), {})
            c_val = eval_formula(formula, classical(), interpret(values, rows, IDENTITY), {})
            assert d_val in (0.0, 1.0)
            assert bool(d_val) == c_val


class TestSamplerDistAgreement:
    def test_estimates_within_four_standard_errors(self):
        rng = random.Random(505)
        n = 100000
        for index in range(50):
            sig, values, rows, formula = finite_system(rng)
            exact = eval_formula(formula, dist(), interpret(values, rows, DISTRIBUTION), {})
            report = evaluate_sentence(
                formula, sampler(), interpret(values, rows, SAMPLER), budget=n, seed=index
            )
            se = math.sqrt(exact * (1.0 - exact) / n)
            assert abs(report.value - exact) <= max(4 * se, 1e-12), (index, exact, report.value)


class TestQuantifierLaws:
    def _system(self, values, truth):
        sig = Signature(frozenset(("S",)), preds={"p": ("S",)})
        interp = Interpretation(
            kind=DISTRIBUTION,
            sorts={"S": EnumDomain(values)},
            preds={"p": TableFunc({(v,): truth[v] for v in values})},
        )
        return sig, interp

    def test_finite_forall_is_plain_product(self):
        rng = random.Random(33)
        for _ in range(100):
            sig, values, rows, _ = finite_system(rng)
            interp = interpret(values, rows, DISTRIBUTION)
            body = parse_formula("[y := m(x)] q(y)", sig, free={"x": "S"})
            f = parse_formula("forall x:S. [y := m(x)] q(y)", sig)
            per_element = [
                eval_formula(body, dist(), interp, {"x": v}) for v in values
            ]
            product = 1.0
            for v in per_element:
                product *= v
            assert abs(eval_formula(f, dist(), interp, {}) - product) <= 1e-12

    def test_constant_body_fixed_points(self):
        for c in (0.3, 0.7):
            sig = Signature(frozenset(("S",)), mpreds={"mc": ()})
            interp = Interpretation(
                kind=DISTRIBUTION,
                sorts={"S": EnumDomain((0, 1, 2), weights="mean")},
                mpreds={"mc": CTable({(): Dist(((True, c), (False, 1 - c)))})},
            )
            f = parse_formula("forall x:S. mc", sig)
            assert abs(eval_formula(f, dist(), interp, {}) - c) <= 1e-12
            for fw in (dist("ltn_p", {"p": 4.0}), dist("ltn_q", {"q": 0.75})):
                assert abs(eval_formula(f, fw, interp, {}) - c) <= 1e-12

    def test_zero_absorption(self):
        sig, interp = self._system((0, 1, 2), {0: True, 1: False, 2: True})
        f = parse_formula("forall x:S. p(x)", sig)
        assert eval_formula(f, dist(), interp, {}) == 0.0

    def test_valuation_irrelevance(self, demo_text):
        sig = parse_signature(demo_text("mnist.sig.json"))
        interp = load_interpretation(json.loads(demo_text("mnist.interp.json")), sig, DISTRIBUTION)
        f = parse_formula("[n1 := classify(im1)][n2 := classify(im2)] eq(add(n1, n2), 1)", sig)
        sentence = evaluate_sentence(f, dist(), interp).value
        padded = eval_formula(f, dist(), interp, {"junk": 42, "x": "img1"})
        assert padded == sentence


class TestSamplerQuantifiers:
    def test_finite_forall_is_product_in_expectation(self):
        sig = Signature(frozenset(("S",)), mpreds={"mq": ("S",)})
        rows = {(0,): Dist(((True, 0.8), (False, 0.2))), (1,): Dist(((True, 0.5), (False, 0.5)))}
        interp = Interpretation(
            kind=SAMPLER, sorts={"S": EnumDomain((0, 1))}, mpreds={"mq": CTable(rows)}
        )
        f = parse_formula("forall x:S. mq(x)", sig)
        report = evaluate_sentence(f, sampler(), interp, budget=100000, seed=12)
        exact = 0.8 * 0.5
        se = math.sqrt(exact * (1 - exact) / 100000)
        assert abs(report.value - exact) <= 4 * se

    def test_continuous_forall_fixed_points(self):
        sig = parse_signature(
            json.dumps({"sorts": ["T"], "preds": {"lt": {"args": ["T", "T"]}}})
        )
        doc = {
            "sorts": {
                "T": {"kind": "real_interval", "lo": 0, "hi": 1, "density": {"kind": "uniform"}}
            },
            "preds": {"lt": {"kind": "builtin", "name": "lt"}},
        }
        interp = load_interpretation(doc, sig, SAMPLER)
        f = parse_formula("forall t:T. lt(t, 2)", sig)
        report = evaluate_sentence(f, sampler(), interp, budget=200, seed=1)
        assert report.value == 1.0
        g = parse_formula("exists t:T. lt(t, 0)", sig)
        assert evaluate_sentence(g, sampler(), interp, budget=200, seed=1).value == 0.0

    def test_continuous_forall_rejected_in_finite_framework(self):
        sig = parse_signature(
            json.dumps({"sorts": ["T"], "preds": {"lt": {"args": ["T", "T"]}}})
        )
        doc = {
            "sorts": {
                "T": {"kind": "real_interval", "lo": 0, "hi": 1, "density": {"kind": "uniform"}}
            },
            "preds": {"lt": {"kind": "builtin", "name": "lt"}},
        }
        # the loader already rejects continuous domains for finite kinds
        from monadlogic.errors import FiniteOnlyError

        with pytest.raises(FiniteOnlyError):
            load_interpretation(doc, sig, DISTRIBUTION)


class TestStlFramework:
    @pytest.fixture()
    def system(self):
        sig = Signature(
            frozenset(("S",)),
            preds={"big": ("S",)},
            mpreds={"rob": ("S",)},
            mfuncs={"pick": ((), "S")},
        )
        interp = Interpretation(
            kind=DISTRIBUTION,
            sorts={"S": EnumDomain((0, 1, 2))},
            preds={"big": TableFunc({(0,): False, (1,): True, (2,): True})},
            mpreds={
                "rob": CTable(
                    {(0,): Dist(((-2.0, 1.0),)), (1,): Dist(((1.0, 0.5), (3.0, 0.5))), (2,): Dist(((4.0, 1.0),))}
                )
            },
            mfuncs={"pick": CTable({(): Dist(((0, 0.5), (2, 0.5)))})},
        )
        return sig, interp

    def test_constants(self, system):
        sig, interp = system
        fw = dist("stl_r", {"r": 10.0})
        assert evaluate_sentence(parse_formula("top", sig), fw, interp).value == math.inf
        assert evaluate_sentence(parse_formula("bot", sig), fw, interp).value == -math.inf

    def test_crisp_atoms_are_infinite(self, system):
        sig, interp = system
        fw = dist("stl_r", {"r": 10.0})
        f = parse_formula("big(x)", sig, free={"x": "S"})
        assert eval_formula(f, fw, interp, {"x": 1}) == math.inf
        assert eval_formula(f, fw, interp, {"x": 0}) == -math.inf

    def test_mpred_rows_take_expectation(self, system):
        sig, interp = system
        fw = dist("stl_r", {"r": 10.0})
        f = parse_formula("rob(x)", sig, free={"x": "S"})
        assert eval_formula(f, fw, interp, {"x": 1}) == 2.0

    def test_forall_approximates_min(self, system):
        sig, interp = system
        f = parse_formula("forall x:S. rob(x)", sig)
        for r, tol in ((1.0, 1.5), (10.0, 0.2), (100.0, 1e-3)):
            got = evaluate_sentence(f, dist("stl_r", {"r": r}), interp).value
            assert abs(got - (-2.0)) <= tol

    def test_bind_takes_expectation(self, system):
        sig, interp = system
        f = parse_formula("[x := pick()] rob(x)", sig)
        got = evaluate_sentence(f, dist("stl_r", {"r": 10.0}), interp).value
        assert got == 0.5 * (-2.0) + 0.5 * 4.0

    def test_negation_flips_sign(self, system):
        sig, interp = system
        f = parse_formula("!rob(x)", sig, free={"x": "S"})
        assert eval_formula(f, dist("stl_r", {"r": 10.0}), interp, {"x": 2}) == -4.0


class TestStlUndefinedValues:
    """Mass on both +inf and -inf has no expected robustness; NaN must not
    pass for a truth value."""

    @pytest.fixture()
    def system(self):
        sig = Signature(
            frozenset(("S",)),
            preds={"p": ("S",)},
            mpreds={"m": (), "sure": ()},
            mfuncs={"c": ((), "S")},
        )
        interp = Interpretation(
            kind=DISTRIBUTION,
            sorts={"S": EnumDomain((0, 1))},
            preds={"p": TableFunc({(0,): False, (1,): True})},
            mpreds={
                "m": CTable({(): Dist(((True, 0.5), (False, 0.5)))}),
                "sure": CTable({(): Dist(((True, 1.0),))}),
            },
            mfuncs={"c": CTable({(): Dist(((0, 0.5), (1, 0.5)))})},
        )
        return sig, interp

    @pytest.mark.parametrize("text", ["m", "m & top", "!m | bot", "[y := c()] p(y)",
                                      "([y := c()] p(y)) -> top"])
    def test_mixed_infinite_outcomes_are_rejected(self, system, text):
        sig, interp = system
        with pytest.raises(CarrierMismatchError, match="undefined"):
            evaluate_sentence(parse_formula(text, sig), dist("stl_r", {"r": 2.0}), interp)

    def test_crisp_rows_with_one_outcome_stay_infinite(self, system):
        sig, interp = system
        fw = dist("stl_r", {"r": 2.0})
        assert evaluate_sentence(parse_formula("sure", sig), fw, interp).value == math.inf
        assert evaluate_sentence(parse_formula("sure & top", sig), fw, interp).value == math.inf

    def test_same_formulas_are_defined_under_product(self, system):
        sig, interp = system
        for text in ("m", "m & top", "[y := c()] p(y)"):
            assert evaluate_sentence(parse_formula(text, sig), dist(), interp).value == 0.5


class TestComputationalAtomValues:
    @pytest.mark.parametrize("algebra", ["product", "sproduct"])
    def test_all_false_row_reads_as_a_float(self, algebra):
        sig = parse_signature(json.dumps({"sorts": ["S"], "mpreds": {"m": {"args": ["S"]}}}))
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0]}},
            "mpreds": {"m": {"kind": "ctable", "rows": [[0, [[False, 1.0]]]]}},
        }
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        f = parse_formula("m(x)", sig, free={"x": "S"})
        value = eval_formula(f, dist(algebra), interp, {"x": 0})
        assert value == 0.0 and type(value) is float


class TestKindChecks:
    def test_interp_and_framework_kinds_must_agree_on_computations(self, demo_text):
        sig = parse_signature(demo_text("mnist.sig.json"))
        interp = load_interpretation(json.loads(demo_text("mnist.interp.json")), sig, DISTRIBUTION)
        f = parse_formula("[n1 := classify(im1)] eq(n1, 1)", sig)
        with pytest.raises(KindMismatchError):
            evaluate_sentence(f, classical(), interp)

    def test_classical_formula_evaluates_under_any_interpretation_kind(self, demo_text):
        sig = parse_signature(demo_text("mnist.sig.json"))
        interp = load_interpretation(json.loads(demo_text("mnist.interp.json")), sig, DISTRIBUTION)
        f = parse_formula("eq(1, 1)", sig)
        assert evaluate_sentence(f, classical(), interp).value is True


class TestMoreQuantifierShapes:
    def test_int_range_enumerates(self):
        sig = parse_signature(
            json.dumps({"sorts": ["N"], "preds": {"le": {"args": ["N", "N"]}}})
        )
        interp = load_interpretation(
            {
                "sorts": {"N": {"kind": "int_range", "lo": 1, "hi": 4}},
                "preds": {"le": {"kind": "builtin", "name": "le"}},
            },
            sig,
            IDENTITY,
        )
        fw = classical()
        assert evaluate_sentence(parse_formula("forall n:N. le(n, 4)", sig), fw, interp).value is True
        assert evaluate_sentence(parse_formula("forall n:N. le(n, 3)", sig), fw, interp).value is False
        assert evaluate_sentence(parse_formula("exists n:N. le(4, n)", sig), fw, interp).value is True

    def test_weighted_sort_rejected_under_sampler(self):
        sig = parse_signature(
            json.dumps({"sorts": ["S"], "mpreds": {"mq": {"args": ["S"]}}})
        )
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1], "weights": "mean"}},
            "mpreds": {
                "mq": {
                    "kind": "ctable",
                    "rows": [[0, [[True, 0.5], [False, 0.5]]], [1, [[True, 1.0]]]],
                }
            },
        }
        interp = load_interpretation(doc, sig, SAMPLER)
        f = parse_formula("forall x:S. mq(x)", sig)
        with pytest.raises(CarrierMismatchError):
            evaluate_sentence(f, sampler(), interp, budget=10, seed=0)

    def test_weighted_sort_fine_under_dist(self):
        sig = parse_signature(
            json.dumps({"sorts": ["S"], "mpreds": {"mq": {"args": ["S"]}}})
        )
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1], "weights": "mean"}},
            "mpreds": {
                "mq": {
                    "kind": "ctable",
                    "rows": [[0, [[True, 0.5], [False, 0.5]]], [1, [[True, 1.0]]]],
                }
            },
        }
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        f = parse_formula("forall x:S. mq(x)", sig)
        got = evaluate_sentence(f, dist(), interp).value
        assert abs(got - math.sqrt(0.5)) <= 1e-12  # geometric mean of 0.5 and 1


class TestConstantsAcrossFrameworks:
    def test_top_and_bot_realize_per_framework(self, demo_text):
        sig = parse_signature(demo_text("mnist.sig.json"))
        doc = json.loads(demo_text("mnist.interp.json"))
        top = parse_formula("top", sig)
        bot = parse_formula("bot", sig)

        interp = load_interpretation(doc, sig, DISTRIBUTION)
        assert evaluate_sentence(top, dist(), interp).value == 1.0
        assert evaluate_sentence(bot, dist(), interp).value == 0.0
        assert evaluate_sentence(top, dist("stl_r", {"r": 2.0}), interp).value == math.inf

        classical_interp = load_interpretation(doc, sig, SAMPLER)
        report = evaluate_sentence(top, sampler(), classical_interp, budget=50, seed=0)
        assert report.value == 1.0 and report.stderr == 0.0

    def test_top_is_true_under_lp(self):
        sig = Signature(frozenset(("S",)))
        interp = Interpretation(kind=NONEMPTY_SET, sorts={"S": EnumDomain((0,))})
        assert evaluate_sentence(parse_formula("top", sig), lp(), interp).value is LP3.T
        assert evaluate_sentence(parse_formula("bot", sig), lp(), interp).value is LP3.F


class TestExistentialAggregation:
    def test_exists_is_probabilistic_sum(self):
        values = {0: 0.3, 1: 0.6, 2: 0.1}
        sig = Signature(frozenset(("S",)), mpreds={"mq": ("S",)})
        interp = Interpretation(
            kind=DISTRIBUTION,
            sorts={"S": EnumDomain(tuple(values))},
            mpreds={
                "mq": CTable(
                    {(v,): Dist(((True, p), (False, 1 - p))) for v, p in values.items()}
                )
            },
        )
        f = parse_formula("exists x:S. mq(x)", sig)
        oracle = 1.0
        for p in values.values():
            oracle *= 1.0 - p
        got = evaluate_sentence(f, dist(), interp).value
        assert abs(got - (1.0 - oracle)) <= 1e-12


class TestQuantifiedStations:
    def test_forall_over_stations_multiplies_closed_forms(self):
        # two stations with different humidity/temperature parameters; the
        # universal sentence estimates the product of the per-station values
        sig = parse_signature(json.dumps({
            "sorts": ["World", "Num"],
            "funcs": {
                "hd": {"args": ["World"], "result": "Num"},
                "mu": {"args": ["World"], "result": "Num"},
                "sigma": {"args": ["World"], "result": "Num"},
            },
            "mfuncs": {
                "bernoulli": {"args": ["Num"], "result": "Num"},
                "normal": {"args": ["Num", "Num"], "result": "Num"},
            },
            "preds": {
                "eq": {"args": ["Num", "Num"]},
                "lt": {"args": ["Num", "Num"]},
                "gt": {"args": ["Num", "Num"]},
            },
        }))
        doc = {
            "sorts": {
                "World": {"kind": "enum", "values": ["w1", "w2"]},
                "Num": {"kind": "real_interval", "lo": None, "hi": None,
                         "density": {"kind": "normal", "mu": 0, "sigma": 1}},
            },
            "funcs": {
                "hd": {"kind": "table", "rows": [["w1", 0.5], ["w2", 0.8]]},
                "mu": {"kind": "table", "rows": [["w1", 0.0], ["w2", 10.0]]},
                "sigma": {"kind": "table", "rows": [["w1", 1.0], ["w2", 5.0]]},
            },
            "mfuncs": {
                "bernoulli": {"kind": "builtin", "name": "bernoulli"},
                "normal": {"kind": "builtin", "name": "normal"},
            },
            "preds": {
                "eq": {"kind": "builtin", "name": "eq"},
                "lt": {"kind": "builtin", "name": "lt"},
                "gt": {"kind": "builtin", "name": "gt"},
            },
        }
        interp = load_interpretation(doc, sig, SAMPLER)
        f = parse_formula(
            "forall w:World. [h := bernoulli(hd(w))][t := normal(mu(w), sigma(w))] "
            "((eq(h, 1) & lt(t, 0)) | (eq(h, 0) & gt(t, 15)))",
            sig,
        )

        def station(p, mu, sg):
            return p * _normal_cdf((0 - mu) / sg) + (1 - p) * (1 - _normal_cdf((15 - mu) / sg))

        exact = station(0.5, 0.0, 1.0) * station(0.8, 10.0, 5.0)
        n = 100000
        report = evaluate_sentence(f, sampler(), interp, budget=n, seed=21)
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(report.value - exact) <= 4 * se


class TestReportFields:
    def test_stochastic_fields_iff_sampler(self, demo_text):
        sig = parse_signature(demo_text("mnist.sig.json"))
        interp = load_interpretation(json.loads(demo_text("mnist.interp.json")), sig, DISTRIBUTION)
        f = parse_formula("top", sig)
        report = evaluate_sentence(f, dist(), interp)
        assert report.samples is None and report.seed is None and report.stderr is None
        assert report.monad_kind == DISTRIBUTION and report.algebra == "product"
        sampler_interp = load_interpretation(
            json.loads(demo_text("mnist.interp.json")), sig, SAMPLER
        )
        report = evaluate_sentence(f, sampler(), sampler_interp, budget=10, seed=4)
        assert report.samples == 10 and report.seed == 4 and report.stderr == 0.0


class TestEvalTerm:
    def test_variable_literal_and_application(self):
        from monadlogic.syntax import App, Atom, Lit, Var

        sig = parse_signature(json.dumps({
            "sorts": ["S"],
            "funcs": {
                "add": {"args": ["S", "S"], "result": "S"},
                "tag": {"args": ["S"], "result": "S"},
            },
            "preds": {"eq": {"args": ["S", "S"]}},
        }))
        interp = load_interpretation({
            "sorts": {"S": {"kind": "enum", "values": [0, 1, 2, 3, 9]}},
            "funcs": {
                "add": {"kind": "builtin", "name": "add"},
                "tag": {"kind": "table", "rows": [[3, 9]]},
            },
            "preds": {"eq": {"kind": "builtin", "name": "eq"}},
        }, sig, IDENTITY)

        def term_equals(term, value, nu):
            return eval_formula(Atom("eq", (term, Lit(value))), classical(), interp, nu)

        assert term_equals(Var("x", "S"), 3, {"x": 3}) is True
        assert term_equals(App("add", (Lit(1), Lit(2)), "S"), 3, {}) is True
        assert term_equals(App("tag", (Var("x", "S"),), "S"), 9, {"x": 3}) is True
        assert term_equals(App("tag", (Var("x", "S"),), "S"), 3, {"x": 3}) is False
