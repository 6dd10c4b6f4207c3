"""Argmax transformation and weighted model counting."""

import json
import random

import pytest

from monadlogic import (
    DISTRIBUTION,
    IDENTITY,
    NONEMPTY_SET,
    LP3,
    TransformSpec,
    argmax_interpretation,
    eval_formula,
    evaluate_sentence,
    load_interpretation,
    load_network,
    make_algebra,
    make_framework,
    parse_formula,
    parse_signature,
    wmc_build,
    wmc_bruteforce,
)
from monadlogic.errors import (
    ContinuousUnsupportedError,
    CyclicParentsError,
    KindMismatchError,
    SchemaError,
    UnknownVariableError,
)
from monadlogic import semantics
from monadlogic.syntax import Bind

from helpers import finite_system, interpret, random_network_system


def dist_framework():
    return make_framework(DISTRIBUTION, make_algebra("product"))


class TestArgmax:
    def test_uniform_row_keeps_all(self, demo_doc, demo_text):
        sig = parse_signature(demo_text("traffic.sig.json"))
        interp = load_interpretation(demo_doc("traffic.interp.json"), sig, DISTRIBUTION)
        out = argmax_interpretation(interp)
        assert out.kind == NONEMPTY_SET
        assert out.mfuncs["light"].rows[("c1",)] == frozenset(("red", "amber", "green"))
        assert out.mfuncs["drive"].rows[("c1", "amber")] == frozenset(("stop", "go"))
        assert out.mfuncs["drive"].rows[("c1", "red")] == frozenset(("stop",))

    def test_dirac_gives_singleton(self, demo_doc, demo_text):
        sig = parse_signature(demo_text("mnist.sig.json"))
        interp = load_interpretation(demo_doc("mnist.interp.json"), sig, DISTRIBUTION)
        out = argmax_interpretation(interp)
        assert out.mfuncs["classify"].rows[("img2",)] == frozenset((1,))
        assert out.mfuncs["classify"].rows[("img1",)] == frozenset((0, 1))

    def test_unique_maximizer(self):
        sig = parse_signature(
            json.dumps({"sorts": ["S"], "mfuncs": {"m": {"args": [], "result": "S"}}})
        )
        doc = {
            "sorts": {"S": {"kind": "enum", "values": ["a", "b"]}},
            "mfuncs": {"m": {"kind": "ctable", "rows": [[[["a", 0.6], ["b", 0.4]]]]}},
        }
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        assert argmax_interpretation(interp).mfuncs["m"].rows[()] == frozenset(("a",))

    def test_builtin_rejected(self, demo_doc, demo_text):
        sig = parse_signature(demo_text("weather.sig.json"))
        doc = demo_doc("weather.interp.json")
        doc = json.loads(json.dumps(doc))
        doc["sorts"]["Num"] = {"kind": "enum", "values": [0, 1]}
        doc["mfuncs"]["normal"] = {"kind": "ctable", "rows": []}
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        with pytest.raises(ContinuousUnsupportedError):
            argmax_interpretation(interp)

    def test_wrong_kind_rejected(self):
        sig = parse_signature(
            json.dumps({"sorts": ["S"], "mfuncs": {"m": {"args": [], "result": "S"}}})
        )
        doc = {
            "sorts": {"S": {"kind": "enum", "values": ["a"]}},
            "mfuncs": {"m": {"kind": "ctable", "rows": [[["a"]]]}},
        }
        lp_interp = load_interpretation(doc, sig, NONEMPTY_SET)
        with pytest.raises(ContinuousUnsupportedError):
            argmax_interpretation(lp_interp)

    def test_idempotent_on_dirac_tables(self):
        rng = random.Random(808)
        for _ in range(50):
            _, values, rows, _ = finite_system(rng, dirac=True)
            interp = interpret(values, rows, DISTRIBUTION)
            out = argmax_interpretation(interp)
            for args, pairs in rows["m"].items():
                assert out.mfuncs["m"].rows[args] == frozenset((pairs[0][0],))

    def test_functorial_on_diracs(self):
        # after argmax of a deterministic system, three-valued evaluation
        # never produces B and matches the classical run
        rng = random.Random(909)
        lp_fw = make_framework(NONEMPTY_SET, make_algebra("priest"))
        classical = make_framework(IDENTITY, make_algebra("boolean"))
        for _ in range(100):
            sig, values, rows, formula = finite_system(rng, dirac=True)
            lp_val = eval_formula(
                formula, lp_fw, argmax_interpretation(interpret(values, rows, DISTRIBUTION)), {}
            )
            c_val = eval_formula(formula, classical, interpret(values, rows, IDENTITY), {})
            assert lp_val is (LP3.T if c_val else LP3.F)

    def test_tie_tolerance(self):
        sig = parse_signature(
            json.dumps({"sorts": ["S"], "mfuncs": {"m": {"args": [], "result": "S"}}})
        )
        third = 1.0 / 3.0
        doc = {
            "sorts": {"S": {"kind": "enum", "values": ["a", "b", "c"]}},
            "mfuncs": {
                "m": {
                    "kind": "ctable",
                    "rows": [[[["a", third], ["b", third], ["c", 1.0 - 2 * third]]]],
                }
            },
        }
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        assert argmax_interpretation(interp).mfuncs["m"].rows[()] == frozenset(("a", "b", "c"))
        assert TransformSpec().tolerance == 1e-12


class TestNetworkLoading:
    def test_demo_network(self, demo_doc, demo_text):
        sig = parse_signature(demo_text("wmc.sig.json"))
        doc = demo_doc("wmc.interp.json")
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        network, sig2, interp2 = load_network(doc, sig, interp)
        assert [v.name for v in network.vars] == ["x1", "x2"]
        assert sig2.mfuncs["cpd_x1"] == ((), "B")
        assert interp2.mfuncs["cpd_x1"].rows[()].prob(1) == 0.3

    def test_forward_parent_rejected(self, demo_doc, demo_text):
        sig = parse_signature(demo_text("wmc.sig.json"))
        doc = json.loads(json.dumps(demo_doc("wmc.interp.json")))
        doc["network"]["vars"][0]["parents"] = ["x2"]
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        with pytest.raises(CyclicParentsError):
            load_network(doc, sig, interp)

    def test_bad_rows_rejected(self, demo_doc, demo_text):
        sig = parse_signature(demo_text("wmc.sig.json"))
        doc = json.loads(json.dumps(demo_doc("wmc.interp.json")))
        doc["network"]["vars"][0]["rows"] = [[[[1, 0.3], [0, 0.3]]]]
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        with pytest.raises(SchemaError):
            load_network(doc, sig, interp)

    @pytest.mark.parametrize("payload", [
        [[None, 0.7], [1, 0.3]],
        [[1, "0.3"], [0, "0.7"]],
        [[1, True]],
    ])
    def test_row_values_and_probabilities_checked(self, demo_doc, demo_text, payload):
        sig = parse_signature(demo_text("wmc.sig.json"))
        doc = json.loads(json.dumps(demo_doc("wmc.interp.json")))
        doc["network"]["vars"][0]["rows"] = [[payload]]
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        with pytest.raises(SchemaError, match="network variable 'x1'"):
            load_network(doc, sig, interp)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("entry", 5),
            ("parents", "x1"),
            ("parents", [1]),
            ("rows", 5),
            ("rows", [[[0], [[1, 1.0]]], [1, [[1, 1.0]]]]),
        ],
    )
    def test_bad_shapes_rejected(self, demo_doc, demo_text, field, value):
        sig = parse_signature(demo_text("wmc.sig.json"))
        doc = json.loads(json.dumps(demo_doc("wmc.interp.json")))
        doc["network"]["vars"][1]["parents"] = ["x1"]
        if field == "entry":
            doc["network"]["vars"][1] = value
        else:
            doc["network"]["vars"][1][field] = value
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        with pytest.raises(SchemaError):
            load_network(doc, sig, interp)


@pytest.fixture(scope="module")
def demo_network(demo_doc, demo_text):
    sig = parse_signature(demo_text("wmc.sig.json"))
    doc = demo_doc("wmc.interp.json")
    interp = load_interpretation(doc, sig, DISTRIBUTION)
    return load_network(doc, sig, interp)


class TestWmc:
    def test_build_shape(self, demo_network):
        network, sig2, _ = demo_network
        f = parse_formula("eq(x1, 1) & eq(x2, 1)", sig2, free=network.free)
        built = wmc_build(network, f)
        assert isinstance(built, Bind) and built.var == "x1"
        assert isinstance(built.body, Bind) and built.body.var == "x2"
        assert built.body.body == f

    def test_independent_example(self, demo_network):
        network, sig2, interp2 = demo_network
        f = parse_formula("eq(x1, 1) & eq(x2, 1)", sig2, free=network.free)
        built = wmc_build(network, f)
        value = evaluate_sentence(built, dist_framework(), interp2).value
        assert abs(value - 0.15) <= 1e-12
        assert abs(wmc_bruteforce(network, interp2, f) - 0.15) <= 1e-12

    def test_top_counts_to_one(self, demo_network):
        network, sig2, interp2 = demo_network
        f = parse_formula("top", sig2)
        built = wmc_build(network, f)
        assert abs(evaluate_sentence(built, dist_framework(), interp2).value - 1.0) <= 1e-12
        assert abs(wmc_bruteforce(network, interp2, f) - 1.0) <= 1e-12

    def test_bot_counts_to_zero(self, demo_network):
        network, sig2, interp2 = demo_network
        f = parse_formula("bot", sig2)
        built = wmc_build(network, f)
        assert evaluate_sentence(built, dist_framework(), interp2).value == 0.0
        assert wmc_bruteforce(network, interp2, f) == 0.0

    def test_unknown_variable(self, demo_network):
        network, sig2, _ = demo_network
        f = parse_formula("eq(x9, 1)", sig2, free={"x9": "B"})
        with pytest.raises(UnknownVariableError):
            wmc_build(network, f)

    def test_three_variable_chain(self):
        sig_doc = {"sorts": ["S"], "preds": {"eq": {"args": ["S", "S"]}}}
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1]}},
            "preds": {"eq": {"kind": "builtin", "name": "eq"}},
            "network": {
                "vars": [
                    {"name": "x1", "sort": "S", "parents": [],
                     "rows": [[[[1, 0.6], [0, 0.4]]]]},
                    {"name": "x2", "sort": "S", "parents": ["x1"],
                     "rows": [
                         [0, [[1, 0.1], [0, 0.9]]],
                         [1, [[1, 0.8], [0, 0.2]]],
                     ]},
                    {"name": "x3", "sort": "S", "parents": ["x2"],
                     "rows": [
                         [0, [[1, 0.5], [0, 0.5]]],
                         [1, [[1, 0.25], [0, 0.75]]],
                     ]},
                ]
            },
        }
        sig = parse_signature(json.dumps(sig_doc))
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        network, sig2, interp2 = load_network(doc, sig, interp)
        f = parse_formula("eq(x3, 1) -> eq(x1, 1)", sig2, free=network.free)
        built = wmc_build(network, f)
        value = evaluate_sentence(built, dist_framework(), interp2).value
        oracle = wmc_bruteforce(network, interp2, f)
        assert abs(value - oracle) <= 1e-9

    def test_bruteforce_compiles_the_query_once(self, demo_network, monkeypatch):
        network, sig2, interp2 = demo_network
        calls = []
        genuine = semantics.compile_formula

        def counting(*args, **kwargs):
            calls.append(args[0])
            return genuine(*args, **kwargs)

        monkeypatch.setattr(semantics, "compile_formula", counting)
        f = parse_formula("eq(x1, 1) | eq(x2, 0)", sig2, free=network.free)
        expected = 0.3 + 0.7 * (1.0 - 0.5)
        assert abs(wmc_bruteforce(network, interp2, f) - expected) <= 1e-12
        assert calls == [f]

    @pytest.mark.parametrize("kind, payload", [
        pytest.param(NONEMPTY_SET, lambda pairs: [v for v, _ in pairs], id="set-rows"),
        pytest.param(IDENTITY, lambda pairs: [max(pairs, key=lambda vp: vp[1])[0]], id="point-rows"),
    ])
    def test_bruteforce_rejects_rows_of_another_kind(self, demo_doc, demo_text, kind, payload):
        sig = parse_signature(demo_text("wmc.sig.json"))
        doc = demo_doc("wmc.interp.json")
        for var in doc["network"]["vars"]:
            var["rows"] = [row[:-1] + [payload(row[-1])] for row in var["rows"]]
        network, sig2, interp2 = load_network(doc, sig, load_interpretation(doc, sig, kind))
        f = parse_formula("eq(x1, 1)", sig2, free=network.free)
        with pytest.raises(KindMismatchError, match=repr(kind)):
            wmc_bruteforce(network, interp2, f)

    def test_random_networks_match_bruteforce(self):
        rng = random.Random(2025)
        for _ in range(25):
            sig_doc, doc, text = random_network_system(rng)
            sig = parse_signature(json.dumps(sig_doc))
            interp = load_interpretation(doc, sig, DISTRIBUTION)
            network, sig2, interp2 = load_network(doc, sig, interp)
            f = parse_formula(text, sig2, free=network.free)
            built = wmc_build(network, f)
            value = evaluate_sentence(built, dist_framework(), interp2).value
            oracle = wmc_bruteforce(network, interp2, f)
            assert abs(value - oracle) <= 1e-9, text


class TestDiracNetwork:
    def test_deterministic_network_counts_the_forced_valuation(self):
        sig_doc = {"sorts": ["S"], "preds": {"eq": {"args": ["S", "S"]}}}
        doc = {
            "sorts": {"S": {"kind": "enum", "values": [0, 1]}},
            "preds": {"eq": {"kind": "builtin", "name": "eq"}},
            "network": {"vars": [
                {"name": "x1", "sort": "S", "parents": [], "rows": [[[[1, 1.0]]]]},
                {"name": "x2", "sort": "S", "parents": ["x1"],
                 "rows": [[0, [[0, 1.0]]], [1, [[0, 1.0]]]]},
            ]},
        }
        sig = parse_signature(json.dumps(sig_doc))
        interp = load_interpretation(doc, sig, DISTRIBUTION)
        network, sig2, interp2 = load_network(doc, sig, interp)
        # forced valuation: x1 = 1, x2 = 0
        holds = parse_formula("eq(x1, 1) & eq(x2, 0)", sig2, free=network.free)
        fails = parse_formula("eq(x2, 1)", sig2, free=network.free)
        for formula, expected in ((holds, 1.0), (fails, 0.0)):
            built = wmc_build(network, formula)
            assert evaluate_sentence(built, dist_framework(), interp2).value == expected
            assert wmc_bruteforce(network, interp2, formula) == expected
