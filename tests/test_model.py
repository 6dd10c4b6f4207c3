"""Domains, interpretations, builtins, quantifier families."""

import json
import math

import pytest

from monadlogic import (
    DISTRIBUTION,
    IDENTITY,
    NONEMPTY_SET,
    SAMPLER,
    Dist,
    NESet,
    Pure,
    RandomKey,
    Sampler,
    apply_computational,
    apply_function,
    apply_predicate,
    dump_interpretation,
    load_interpretation,
    parse_signature,
    quantifier_family,
)
from monadlogic.errors import (
    BudgetMissingError,
    DivisionByZeroError,
    EmptyDomainError,
    EvalTypeError,
    FiniteOnlyError,
    KindMismatchError,
    MissingSymbolError,
    MissingTableRowError,
    ParamOutOfRangeError,
    SchemaError,
)


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@pytest.fixture(scope="module")
def traffic(demo_text):
    sig = parse_signature(demo_text("traffic.sig.json"))
    return sig, json.loads(demo_text("traffic.interp.json"))


@pytest.fixture(scope="module")
def weather(demo_text):
    sig = parse_signature(demo_text("weather.sig.json"))
    return sig, json.loads(demo_text("weather.interp.json"))


class TestLoading:
    def test_traffic_loads_under_dist(self, traffic):
        sig, doc = traffic
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        row = interp.mfuncs["drive"].rows[("c1", "amber")]
        assert row == Dist((("stop", 0.5), ("go", 0.5)))

    def test_weather_loads_under_sampler_only(self, weather):
        sig, doc = weather
        assert load_interpretation(doc, sig, SAMPLER).kind == SAMPLER
        with pytest.raises(FiniteOnlyError):
            load_interpretation(doc, sig, DISTRIBUTION)

    def test_continuous_builtin_rejected_under_dist(self):
        sig = parse_signature(
            json.dumps(
                {"sorts": ["S"], "mfuncs": {"n": {"args": ["S", "S"], "result": "S"}}}
            )
        )
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1]}},
            "mfuncs": {"n": {"kind": "builtin", "name": "normal"}},
        }
        with pytest.raises(FiniteOnlyError):
            load_interpretation(doc, sig, DISTRIBUTION)
        sig2 = parse_signature(
            json.dumps({"sorts": ["S"], "mfuncs": {"b": {"args": ["S"], "result": "S"}}})
        )
        doc2 = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1]}},
            "mfuncs": {"b": {"kind": "builtin", "name": "bernoulli"}},
        }
        # bernoulli has finite support, so every kind accepts it
        assert load_interpretation(doc2, sig2, DISTRIBUTION).kind == DISTRIBUTION

    def test_missing_symbol(self, traffic):
        sig, doc = traffic
        pruned = {**doc, "mfuncs": {"light": doc["mfuncs"]["light"]}}
        with pytest.raises(MissingSymbolError):
            load_interpretation(pruned, sig, DISTRIBUTION)

    def test_missing_sort_domain(self, traffic):
        sig, doc = traffic
        pruned = {**doc, "sorts": {k: v for k, v in doc["sorts"].items() if k != "Action"}}
        with pytest.raises(MissingSymbolError):
            load_interpretation(pruned, sig, DISTRIBUTION)

    def test_empty_enum(self):
        sig = parse_signature('{"sorts": ["S"]}')
        with pytest.raises(EmptyDomainError):
            load_interpretation({"sorts": {"S": {"kind": "enum", "values": []}}}, sig, IDENTITY)

    @pytest.mark.parametrize("section", [5, "S"], ids=["number", "string"])
    def test_sorts_section_must_be_an_object(self, section):
        sig = parse_signature('{"sorts": ["S"]}')
        with pytest.raises(SchemaError, match="'sorts'"):
            load_interpretation({"sorts": section}, sig, IDENTITY)

    @pytest.mark.parametrize("values", [5, "ab", {"x": 1}], ids=["number", "string", "object"])
    def test_enum_values_must_be_a_list(self, values):
        sig = parse_signature('{"sorts": ["S"]}')
        with pytest.raises(SchemaError, match="'S'"):
            load_interpretation({"sorts": {"S": {"kind": "enum", "values": values}}}, sig, IDENTITY)

    @pytest.mark.parametrize("section, name", [
        ("funcs", "add"), ("preds", "eq"), ("mfuncs", "bernoulli"), ("mpreds", "bernoulli"),
    ])
    def test_builtin_name_must_be_a_string(self, section, name):
        sig = parse_signature(json.dumps({
            "sorts": ["S"],
            "funcs": {"f": {"args": ["S", "S"], "result": "S"}},
            "preds": {"p": {"args": ["S", "S"]}},
            "mfuncs": {"m": {"args": ["S"], "result": "S"}},
            "mpreds": {"q": {"args": ["S"]}},
        }))
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1]}},
            "funcs": {"f": {"kind": "builtin", "name": "add"}},
            "preds": {"p": {"kind": "builtin", "name": "eq"}},
            "mfuncs": {"m": {"kind": "builtin", "name": "bernoulli"}},
            "mpreds": {"q": {"kind": "builtin", "name": "bernoulli"}},
        }
        load_interpretation(doc, sig, DISTRIBUTION)
        symbol = {"funcs": "f", "preds": "p", "mfuncs": "m", "mpreds": "q"}[section]
        doc[section][symbol]["name"] = [name]
        with pytest.raises(SchemaError, match=repr(symbol)):
            load_interpretation(doc, sig, DISTRIBUTION)

    def test_duplicate_enum_values(self):
        sig = parse_signature('{"sorts": ["S"]}')
        with pytest.raises(SchemaError):
            load_interpretation(
                {"sorts": {"S": {"kind": "enum", "values": [1, 1]}}}, sig, IDENTITY
            )

    def test_pred_rows_must_be_boolean(self):
        sig = parse_signature(json.dumps({"sorts": ["S"], "preds": {"p": {"args": ["S"]}}}))
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0]}},
            "preds": {"p": {"kind": "table", "rows": [[0, 1]]}},
        }
        with pytest.raises(SchemaError):
            load_interpretation(doc, sig, IDENTITY)

    def test_ctable_rows_must_normalize(self):
        sig = parse_signature(
            json.dumps({"sorts": ["S"], "mfuncs": {"m": {"args": [], "result": "S"}}})
        )
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1]}},
            "mfuncs": {"m": {"kind": "ctable", "rows": [[[[0, 0.4], [1, 0.4]]]]}},
        }
        with pytest.raises(SchemaError):
            load_interpretation(doc, sig, DISTRIBUTION)

    def test_classical_kind_needs_dirac_rows(self, traffic):
        sig, doc = traffic
        with pytest.raises(SchemaError):
            load_interpretation(doc, sig, IDENTITY)

    def test_lp_kind_needs_set_rows(self, traffic):
        sig, doc = traffic
        with pytest.raises(SchemaError):
            load_interpretation(doc, sig, NONEMPTY_SET)

    def test_lp_set_rows_load(self):
        sig = parse_signature(
            json.dumps({"sorts": ["S"], "mfuncs": {"m": {"args": [], "result": "S"}}})
        )
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1]}},
            "mfuncs": {"m": {"kind": "ctable", "rows": [[[0, 1]]]}},
        }
        interp = load_interpretation(doc, sig, NONEMPTY_SET)
        assert interp.mfuncs["m"].rows[()] == frozenset((0, 1))

    def test_unknown_keys_rejected(self):
        sig = parse_signature('{"sorts": ["S"]}')
        with pytest.raises(SchemaError):
            load_interpretation(
                {"sorts": {"S": {"kind": "enum", "values": [0]}}, "extra": {}}, sig, IDENTITY
            )

    @pytest.mark.parametrize(
        "section,spec",
        [
            ("funcs", 5),
            ("funcs", ["table"]),
            ("preds", "builtin"),
            ("mfuncs", None),
            ("funcs", {"kind": "table", "rows": 5}),
            ("mfuncs", {"kind": "ctable", "rows": {"a": 1}}),
        ],
    )
    def test_symbol_spec_must_be_an_object_with_row_list(self, section, spec):
        sig = parse_signature(json.dumps({
            "sorts": ["S"],
            "funcs": {"f": {"args": ["S"], "result": "S"}},
            "preds": {"p": {"args": ["S"]}},
            "mfuncs": {"m": {"args": [], "result": "S"}},
        }))
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0]}},
            "funcs": {"f": {"kind": "table", "rows": [[0, 0]]}},
            "preds": {"p": {"kind": "table", "rows": [[0, True]]}},
            "mfuncs": {"m": {"kind": "ctable", "rows": [[[[0, 1.0]]]]}},
        }
        load_interpretation(doc, sig, DISTRIBUTION)
        name = {"funcs": "f", "preds": "p", "mfuncs": "m"}[section]
        doc[section] = {name: spec}
        with pytest.raises(SchemaError):
            load_interpretation(doc, sig, DISTRIBUTION)

    def test_density_must_be_an_object(self):
        sig = parse_signature('{"sorts": ["R"]}')
        doc = {"sorts": {"R": {"kind": "real_interval", "lo": 0, "hi": 1, "density": "uniform"}}}
        with pytest.raises(SchemaError):
            load_interpretation(doc, sig, SAMPLER)

    def test_weights_validation(self):
        sig = parse_signature('{"sorts": ["S"]}')
        base = {"kind": "enum", "values": ["a", "b"]}
        with pytest.raises(SchemaError):
            load_interpretation(
                {"sorts": {"S": {**base, "weights": {"a": 1.0}}}}, sig, IDENTITY
            )
        with pytest.raises(SchemaError):
            load_interpretation(
                {"sorts": {"S": {**base, "weights": {"a": -1.0, "b": 1.0}}}}, sig, IDENTITY
            )
        ok = load_interpretation(
            {"sorts": {"S": {**base, "weights": {"a": 0.5, "b": 0.5}}}}, sig, IDENTITY
        )
        assert ok.sorts["S"].weights == {"a": 0.5, "b": 0.5}

    @pytest.mark.parametrize("weight", [math.nan, math.inf, True, 10**400],
                             ids=["nan", "inf", "true", "huge_int"])
    def test_weights_must_be_finite_numbers(self, weight):
        sig = parse_signature('{"sorts": ["S"]}')
        spec = {"kind": "enum", "values": ["a", "b"], "weights": {"a": weight, "b": 1}}
        with pytest.raises(SchemaError, match="'S'"):
            load_interpretation({"sorts": {"S": spec}}, sig, DISTRIBUTION)

    @pytest.mark.parametrize("lo, hi", [(False, True), (0, True), (False, 1)])
    def test_int_range_bounds_are_not_booleans(self, lo, hi):
        sig = parse_signature('{"sorts": ["S"]}')
        spec = {"kind": "int_range", "lo": lo, "hi": hi}
        with pytest.raises(SchemaError, match="'S'"):
            load_interpretation({"sorts": {"S": spec}}, sig, IDENTITY)

    @pytest.mark.parametrize("spec", [
        {"kind": "real_interval", "lo": 0, "hi": 10**400},
        {"kind": "real_interval", "density": {"kind": "normal", "mu": 10**400, "sigma": 1}},
        {"kind": "real_interval", "density": {"kind": "normal", "mu": True, "sigma": 1}},
    ])
    def test_interval_numbers_must_be_numbers_that_fit_a_float(self, spec):
        sig = parse_signature('{"sorts": ["R"]}')
        with pytest.raises(SchemaError, match="'R'|10000"):
            load_interpretation({"sorts": {"R": spec}}, sig, SAMPLER)

    @pytest.mark.parametrize("kind", [DISTRIBUTION, SAMPLER])
    @pytest.mark.parametrize("payload", [
        [[True, "0.5"], [False, "0.5"]],
        [[True, True]],
        [[0, 10**400], [1, 0]],
    ])
    def test_row_probabilities_must_be_numbers(self, payload, kind):
        sig = parse_signature(
            json.dumps({"sorts": ["S"], "mfuncs": {"m": {"args": [], "result": "S"}}})
        )
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1]}},
            "mfuncs": {"m": {"kind": "ctable", "rows": [[payload]]}},
        }
        with pytest.raises(SchemaError, match="'m'"):
            load_interpretation(doc, sig, kind)


class TestBuiltins:
    @pytest.fixture()
    def interp(self):
        sig = parse_signature(
            json.dumps(
                {
                    "sorts": ["S"],
                    "funcs": {
                        "add": {"args": ["S", "S"], "result": "S"},
                        "div": {"args": ["S", "S"], "result": "S"},
                        "tab": {"args": ["S"], "result": "S"},
                    },
                    "preds": {"lt": {"args": ["S", "S"]}, "eq": {"args": ["S", "S"]}},
                }
            )
        )
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1, 2, 3, 7]}},
            "funcs": {
                "add": {"kind": "builtin", "name": "add"},
                "div": {"kind": "builtin", "name": "div"},
                "tab": {"kind": "table", "rows": [[0, 7]]},
            },
            "preds": {
                "lt": {"kind": "builtin", "name": "lt"},
                "eq": {"kind": "builtin", "name": "eq"},
            },
        }
        return load_interpretation(doc, sig, IDENTITY)

    def test_add(self, interp):
        assert apply_function(interp, "add", [3, 4]) == 7
        assert isinstance(apply_function(interp, "add", [3, 4]), int)

    def test_mixed_widens_to_real(self, interp):
        assert apply_function(interp, "add", [3, 0.5]) == 3.5

    def test_table_lookup(self, interp):
        assert apply_function(interp, "tab", [0]) == 7
        with pytest.raises(MissingTableRowError):
            apply_function(interp, "tab", [1])

    def test_division_by_zero(self, interp):
        with pytest.raises(DivisionByZeroError):
            apply_function(interp, "div", [1, 0])

    def test_type_error_on_symbol(self, interp):
        with pytest.raises(EvalTypeError):
            apply_function(interp, "add", ["a", 1])
        with pytest.raises(EvalTypeError):
            apply_predicate(interp, "lt", ["a", "b"])

    def test_eq_on_symbols(self, interp):
        assert apply_predicate(interp, "eq", ["a", "a"]) is True
        assert apply_predicate(interp, "lt", [1, 2]) is True


class TestComputational:
    def test_ctable_row_as_dist(self, demo_text):
        sig = parse_signature(demo_text("mnist.sig.json"))
        interp = load_interpretation(json.loads(demo_text("mnist.interp.json")), sig, DISTRIBUTION)
        c = apply_computational(interp, "classify", ["img1"])
        assert c == Dist(((0, 0.5), (1, 0.5)))

    def test_bernoulli_degenerate(self):
        sig = parse_signature(
            json.dumps({"sorts": ["S"], "mfuncs": {"b": {"args": ["S"], "result": "S"}}})
        )
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1]}},
            "mfuncs": {"b": {"kind": "builtin", "name": "bernoulli"}},
        }
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        assert apply_computational(interp, "b", [1.0]) == Dist(((1, 1.0),))
        with pytest.raises(ParamOutOfRangeError):
            apply_computational(interp, "b", [1.5])
        classical = load_interpretation(doc, sig, IDENTITY)
        assert apply_computational(classical, "b", [1.0]) == Pure(1)
        with pytest.raises(KindMismatchError):
            apply_computational(classical, "b", [0.5])
        lp = load_interpretation(doc, sig, NONEMPTY_SET)
        assert apply_computational(lp, "b", [0.5]) == NESet((0, 1))

    def test_sampler_row_draws_from_table(self, demo_text):
        sig = parse_signature(demo_text("mnist.sig.json"))
        interp = load_interpretation(json.loads(demo_text("mnist.interp.json")), sig, SAMPLER)
        c = apply_computational(interp, "classify", ["img1"])
        assert isinstance(c, Sampler)
        key = RandomKey(77)
        draws = [c.sample(key.child(i)) for i in range(20000)]
        freq = sum(1 for d in draws if d == 1) / len(draws)
        assert abs(freq - 0.5) <= 0.02

    def test_normal_param_check(self, weather):
        sig, doc = weather
        interp = load_interpretation(doc, sig, SAMPLER)
        with pytest.raises(ParamOutOfRangeError):
            apply_computational(interp, "normal", [0.0, 0.0])

    @pytest.mark.parametrize("name, args", [
        ("normal", [math.inf, 1.0]),
        ("normal", [0.0, math.inf]),
        ("normal", [0.0, math.nan]),
        ("normal", [math.nan, 1.0]),
        ("uniform_real", [-math.inf, math.inf]),
        ("uniform_real", [0.0, math.nan]),
        ("uniform_real", [-1e308, 1e308]),
    ])
    def test_non_finite_continuous_parameters_rejected(self, name, args):
        sig = parse_signature(json.dumps({
            "sorts": ["Num"],
            "mfuncs": {name: {"args": ["Num", "Num"], "result": "Num"}},
        }))
        doc = {
            "sorts": {"Num": {"kind": "real_interval", "lo": None, "hi": None}},
            "mfuncs": {name: {"kind": "builtin", "name": name}},
        }
        interp = load_interpretation(doc, sig, SAMPLER)
        with pytest.raises(ParamOutOfRangeError):
            apply_computational(interp, name, args)


class TestQuantifierFamily:
    def test_enum_unit_weights(self, traffic):
        sig, doc = traffic
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        fam = quantifier_family(interp, "Colour")
        assert fam.pairs == ((1.0, "red"), (1.0, "amber"), (1.0, "green"))

    def test_enum_mean_mode(self):
        sig = parse_signature('{"sorts": ["S"]}')
        interp = load_interpretation(
            {"sorts": {"S": {"kind": "enum", "values": ["a", "b"], "weights": "mean"}}},
            sig,
            IDENTITY,
        )
        assert quantifier_family(interp, "S").pairs == ((0.5, "a"), (0.5, "b"))

    def test_weight_table(self):
        sig = parse_signature('{"sorts": ["S"]}')
        interp = load_interpretation(
            {"sorts": {"S": {"kind": "enum", "values": [0, 1], "weights": {"0": 0.25, "1": 0.75}}}},
            sig,
            IDENTITY,
        )
        assert quantifier_family(interp, "S").pairs == ((0.25, 0), (0.75, 1))

    def test_int_range_enumerates(self):
        sig = parse_signature('{"sorts": ["S"]}')
        interp = load_interpretation(
            {"sorts": {"S": {"kind": "int_range", "lo": 2, "hi": 5}}}, sig, IDENTITY
        )
        assert [v for _, v in quantifier_family(interp, "S").pairs] == [2, 3, 4, 5]

    def test_interval_points_reproducible(self):
        sig = parse_signature('{"sorts": ["S"]}')
        doc = {
            "sorts": {
                "S": {"kind": "real_interval", "lo": 0, "hi": 1, "density": {"kind": "uniform"}}
            }
        }
        interp = load_interpretation(doc, sig, SAMPLER)
        a = quantifier_family(interp, "S", budget=4, key=RandomKey(5))
        b = quantifier_family(interp, "S", budget=4, key=RandomKey(5))
        assert a.values == b.values and len(a.values) == 4
        assert all(0.0 <= v <= 1.0 for v in a.values)

    def test_budget_required_for_intervals(self):
        sig = parse_signature('{"sorts": ["S"]}')
        doc = {
            "sorts": {
                "S": {"kind": "real_interval", "lo": 0, "hi": 1, "density": {"kind": "uniform"}}
            }
        }
        interp = load_interpretation(doc, sig, SAMPLER)
        with pytest.raises(BudgetMissingError):
            quantifier_family(interp, "S")


class TestDensities:
    def test_uniform_mean_converges(self):
        sig = parse_signature('{"sorts": ["S"]}')
        doc = {
            "sorts": {
                "S": {"kind": "real_interval", "lo": 2, "hi": 6, "density": {"kind": "uniform"}}
            }
        }
        interp = load_interpretation(doc, sig, SAMPLER)
        n = 100000
        fam = quantifier_family(interp, "S", budget=n, key=RandomKey(11))
        mean = sum(fam.values) / n
        sd = math.sqrt(sum((v - mean) ** 2 for v in fam.values) / n)
        assert abs(mean - 4.0) <= 4 * sd / math.sqrt(n)

    def test_truncated_normal_mean_converges(self):
        lo, hi, mu, sigma = 0.0, 2.0, 0.5, 1.0
        sig = parse_signature('{"sorts": ["S"]}')
        doc = {
            "sorts": {
                "S": {
                    "kind": "real_interval",
                    "lo": lo,
                    "hi": hi,
                    "density": {"kind": "normal", "mu": mu, "sigma": sigma},
                }
            }
        }
        interp = load_interpretation(doc, sig, SAMPLER)
        n = 100000
        fam = quantifier_family(interp, "S", budget=n, key=RandomKey(23))
        assert all(lo <= v <= hi for v in fam.values)
        mean = sum(fam.values) / n
        sd = math.sqrt(sum((v - mean) ** 2 for v in fam.values) / n)
        alpha, beta = (lo - mu) / sigma, (hi - mu) / sigma
        phi = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        expected = mu + sigma * (phi(alpha) - phi(beta)) / (_normal_cdf(beta) - _normal_cdf(alpha))
        assert abs(mean - expected) <= 4 * sd / math.sqrt(n)

    @pytest.mark.parametrize("mu, sigma", [
        (0, math.nan), (math.nan, 1), (math.inf, 1), (0, math.inf),
    ])
    def test_non_finite_normal_density_rejected(self, mu, sigma):
        sig = parse_signature('{"sorts": ["S"]}')
        # json parses NaN and Infinity, so documents can carry them
        text = json.dumps({
            "sorts": {
                "S": {
                    "kind": "real_interval", "lo": None, "hi": None,
                    "density": {"kind": "normal", "mu": mu, "sigma": sigma},
                }
            }
        })
        with pytest.raises(SchemaError):
            load_interpretation(text, sig, SAMPLER)

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.7e308, 0.2e308), (None, 0)])
    def test_uniform_density_needs_bounds_a_finite_distance_apart(self, lo, hi):
        # a width of inf would put every sampled point at inf
        sig = parse_signature('{"sorts": ["S"]}')
        spec = {"kind": "real_interval", "lo": lo, "hi": hi, "density": {"kind": "uniform"}}
        with pytest.raises(SchemaError, match="'S'"):
            load_interpretation({"sorts": {"S": spec}}, sig, SAMPLER)

    def test_uniform_density_on_a_wide_finite_interval(self):
        sig = parse_signature('{"sorts": ["S"]}')
        spec = {"kind": "real_interval", "lo": -0.8e308, "hi": 0.8e308, "density": {"kind": "uniform"}}
        interp = load_interpretation({"sorts": {"S": spec}}, sig, SAMPLER)
        fam = quantifier_family(interp, "S", budget=1000, key=RandomKey(3))
        assert all(-0.8e308 <= v <= 0.8e308 for v in fam.values)

    def test_unbounded_normal_allowed(self, weather):
        sig, doc = weather
        interp = load_interpretation(doc, sig, SAMPLER)
        domain = interp.sorts["Num"]
        assert domain.lo == -math.inf and domain.hi == math.inf
        assert not domain.density.truncated


class TestDump:
    def test_round_trip(self, traffic):
        sig, doc = traffic
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        doc2 = dump_interpretation(interp)
        again = load_interpretation(doc2, sig, DISTRIBUTION)
        assert again.mfuncs["drive"].rows == interp.mfuncs["drive"].rows
        assert again.funcs["red"].rows == interp.funcs["red"].rows
