"""Quantifiers reduce through the algebra alone.

``TruthAlgebra.forall``/``exists`` reduce a block of rows at once, under
every monad; the evaluator hands them the family's weights once and one
row of values per row it evaluates.  Values enter the carrier checked
(atoms, ``embed``, ``pin``), so bad outcomes inside a quantifier still
end in ``CarrierMismatch``.
"""

import json
import math
import random
from functools import reduce

import pytest

from monadlogic import (
    DISTRIBUTION,
    IDENTITY,
    NONEMPTY_SET,
    SAMPLER,
    evaluate_sentence,
    lift_algebra,
    load_interpretation,
    make_algebra,
    make_framework,
    parse_algebra_string,
    parse_formula,
    parse_signature,
)
from monadlogic.cli import main
from monadlogic.errors import CarrierMismatchError, MissingSymbolError
from monadlogic.selftest import _algebra_zoo, _random_carrier_value


# every algebra of the self-tests, and the boolean one lifted over each exact kind
REDUCTIONS = [(alg.name, alg) for alg in _algebra_zoo()] + [
    (f"lifted_{kind}", lift_algebra(make_algebra("boolean"), kind))
    for kind in (IDENTITY, NONEMPTY_SET, DISTRIBUTION)
]


def random_value(rng, alg):
    """A carrier value, with the edges the reductions branch on mixed in."""
    roll = rng.random()
    if alg.carrier == "prob" and roll < 0.1:
        return rng.choice((0.0, 1.0))
    if alg.carrier == "xreal" and roll < 0.1:
        return rng.choice((math.inf, -math.inf, 0.0))
    return _random_carrier_value(rng, alg)


@pytest.mark.parametrize("name, alg", REDUCTIONS, ids=[name for name, _ in REDUCTIONS])
def test_block_reduction_is_the_reduction_of_each_row(name, alg):
    rng = random.Random(f"block:{name}")
    for _ in range(60):
        size = rng.randint(1, 6)
        weights = [rng.choice((1.0, rng.random() + 0.01)) for _ in range(size)]
        rows = [tuple(random_value(rng, alg) for _ in range(size))
                for _ in range(rng.randint(1, 12))]
        for kind in ("forall", "exists"):
            reduce_block = getattr(alg, kind)
            block = reduce_block(weights, iter(rows))
            alone = [reduce_block(weights, [row])[0] for row in rows]
            assert repr(block) == repr(alone), (kind, weights, rows)


@pytest.mark.parametrize("name", ["boolean", "priest"])
def test_lattice_reduction_is_the_left_fold_of_the_connective(name):
    # the identity the sampler's drawing quantifiers rely on: the boolean
    # table reduces a row of draws exactly as folding it with and/or does
    alg = make_algebra(name)
    rng = random.Random(f"fold:{name}")
    for _ in range(200):
        size = rng.randint(1, 6)
        weights = [rng.random() + 0.01 for _ in range(size)]
        rows = [tuple(_random_carrier_value(rng, alg) for _ in range(size)) for _ in range(8)]
        for kind, op in (("forall", alg.conj), ("exists", alg.disj)):
            folded = [reduce(op, row) for row in rows]
            assert repr(getattr(alg, kind)(weights, rows)) == repr(folded)


# the evaluator


SIG = {"sorts": ["S"], "preds": {"p": {"args": ["S"]}}, "mpreds": {"m": {"args": ["S"]}}}


def interp_doc(outcome=True, weights=None):
    """A two-value sort, a table predicate ``p`` and a computational
    predicate ``m`` whose row for 0 has ``outcome`` at probability 1/2."""
    sort = {"kind": "enum", "values": [0, 1]}
    if weights is not None:
        sort["weights"] = weights
    return {
        "sorts": {"S": sort},
        "preds": {"p": {"kind": "table", "rows": [[0, True], [1, False]]}},
        "mpreds": {"m": {"kind": "ctable",
                         "rows": [[0, [[outcome, 0.5], [True, 0.5]]], [1, [[True, 1.0]]]]}},
    }


class TestSamplerUnitWeights:
    """A drawing quantifier estimates the product algebra only with unit
    weights; a draw-free one reduces with the boolean table alone."""

    def write(self, tmp_path):
        sig, interp = tmp_path / "sig.json", tmp_path / "interp.json"
        sig.write_text(json.dumps(SIG))
        interp.write_text(json.dumps(interp_doc(weights="mean")))
        return ["eval", "--sig", str(sig), "--interp", str(interp), "--framework", "sampler",
                "--algebra", "product", "--samples", "50", "--seed", "3", "--machine"]

    def test_drawing_quantifier_over_mean_weights_is_rejected(self, capsys, tmp_path):
        code = main([*self.write(tmp_path), "--formula", "forall x:S. m(x)"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: CarrierMismatch: sampler quantifiers support unit weights only\n"

    @pytest.mark.parametrize("formula, line", [
        ("forall x:S. p(x)", "estimate=0 stderr=0 samples=50 seed=3\n"),
        ("exists x:S. p(x)", "estimate=1 stderr=0 samples=50 seed=3\n"),
    ])
    def test_draw_free_quantifier_over_mean_weights_evaluates(self, capsys, tmp_path, formula, line):
        code = main([*self.write(tmp_path), "--formula", formula])
        assert code == 0 and capsys.readouterr().out == line

    def test_compile_time_errors_come_first(self):
        # an unknown symbol in the body is reported before the weights
        sig = parse_signature(json.dumps(SIG))
        interp = load_interpretation(interp_doc(weights="mean"), sig, SAMPLER)
        fw = make_framework(SAMPLER, make_algebra("product"))
        del interp.preds["p"]
        f = parse_formula("forall x:S. m(x) & p(x)", sig)
        with pytest.raises(MissingSymbolError):
            evaluate_sentence(f, fw, interp, budget=10, seed=1)


class TestBadOutcomesInsideQuantifiers:
    # numbers other than NaN are robustness values, so not outside stl's carrier
    @pytest.mark.parametrize("algebra, outcome", [
        ("product", math.nan), ("product", "a"), ("product", 2), ("product", 0.5),
        ("stl:r=2", math.nan), ("stl:r=2", "a"),
    ], ids=["product-nan", "product-string", "product-two", "product-half",
            "stl-nan", "stl-string"])
    @pytest.mark.parametrize("text", ["forall x:S. m(x)", "exists x:S. m(x)",
                                      "forall x:S. m(x) & p(x)"])
    def test_outcome_outside_the_carrier_is_rejected(self, algebra, outcome, text):
        sig = parse_signature(json.dumps(SIG))
        interp = load_interpretation(json.loads(json.dumps(interp_doc(outcome))), sig,
                                     DISTRIBUTION)
        fw = make_framework(DISTRIBUTION, parse_algebra_string(algebra))
        with pytest.raises(CarrierMismatchError):
            evaluate_sentence(parse_formula(text, sig), fw, interp)

    def test_nan_robustness_outcome_is_named(self):
        # NaN is no robustness value; the infinities are not to blame
        sig = parse_signature(json.dumps(SIG))
        interp = load_interpretation(json.loads(json.dumps(interp_doc(math.nan))), sig,
                                     DISTRIBUTION)
        fw = make_framework(DISTRIBUTION, parse_algebra_string("stl:r=2"))
        f = parse_formula("forall x:S. m(x)", sig)
        with pytest.raises(CarrierMismatchError, match=r"^nan is not a robustness value \(stl_r\)$"):
            evaluate_sentence(f, fw, interp)

    def test_nan_outcome_through_the_cli(self, capsys, tmp_path):
        sig, interp = tmp_path / "sig.json", tmp_path / "interp.json"
        sig.write_text(json.dumps(SIG))
        interp.write_text(json.dumps(interp_doc(math.nan)))  # writes the token NaN
        code = main(["eval", "--sig", str(sig), "--interp", str(interp), "--framework", "dist",
                     "--algebra", "stl:r=2", "--formula", "forall x:S. m(x)"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: CarrierMismatch: nan is not a robustness value (stl_r)\n"
        )
