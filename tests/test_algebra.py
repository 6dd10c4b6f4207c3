"""Truth algebra tables, aggregators, and lifting."""

import math
import random

import pytest

from monadlogic import (
    DISTRIBUTION,
    IDENTITY,
    NONEMPTY_SET,
    SAMPLER,
    LP3,
    RandomKey,
    WeightedFamily,
    aggregate,
    apply_connective,
    lift_algebra,
    make_algebra,
    parse_algebra_string,
    unit,
)
from monadlogic.errors import (
    ArityMismatchError,
    CarrierMismatchError,
    EmptyFamilyError,
    ExactOnlyError,
    NegativeWeightError,
    ParamOutOfRangeError,
    UnknownAlgebraError,
)

ALL_NAMES = ("boolean", "priest", "product", "sproduct", "ltn_p", "ltn_q", "stl_r")


def zoo():
    return [
        make_algebra("boolean"),
        make_algebra("priest"),
        make_algebra("product"),
        make_algebra("sproduct"),
        make_algebra("ltn_p", {"p": 2.0}),
        make_algebra("ltn_q", {"q": 0.75}),
        make_algebra("stl_r", {"r": 10.0}),
    ]


def rand_value(rng, alg):
    if alg.carrier == "bool":
        return rng.random() < 0.5
    if alg.carrier == "lp3":
        return rng.choice((LP3.F, LP3.B, LP3.T))
    if alg.carrier == "prob":
        return rng.random()
    return rng.uniform(-5.0, 5.0)


class TestTables:
    def test_product_residual_implication(self):
        product = make_algebra("product")
        assert product.implies(0.5, 0.25) == 0.5  # y/x branch
        assert product.implies(0.25, 0.5) == 1.0
        assert product.implies(0.0, 0.0) == 1.0  # zero falls in the x <= y branch

    def test_sproduct_strong_implication(self):
        assert make_algebra("sproduct").implies(0.5, 0.25) == 0.625

    def test_product_residual_negation(self):
        product = make_algebra("product")
        assert product.neg(0.0) == 1.0
        assert product.neg(0.3) == 0.0
        # coincides with implication to zero
        for x in (0.0, 0.2, 1.0):
            assert product.neg(x) == product.implies(x, 0.0)

    def test_priest_negation_fixes_both(self):
        priest = make_algebra("priest")
        assert priest.neg(LP3.B) is LP3.B
        assert priest.neg(LP3.T) is LP3.F and priest.neg(LP3.F) is LP3.T

    def test_priest_negation_piecewise_equals_involutive(self):
        # complement rule and 1-involution coincide on the 3-element carrier
        priest = make_algebra("priest")
        piecewise = {LP3.B: LP3.B, LP3.T: LP3.F, LP3.F: LP3.T}
        for x in LP3:
            assert priest.neg(x) == piecewise[x]

    def test_priest_lattice_connectives(self):
        priest = make_algebra("priest")
        assert priest.conj(LP3.B, LP3.T) is LP3.B
        assert priest.disj(LP3.B, LP3.F) is LP3.B
        assert priest.implies(LP3.B, LP3.F) is LP3.B  # max(neg B, F)
        # every result is a member of the carrier, on the whole table
        for x in LP3:
            assert type(priest.neg(x)) is LP3
            for y in LP3:
                assert priest.conj(x, y) is LP3(min(int(x), int(y)))
                assert priest.disj(x, y) is LP3(max(int(x), int(y)))
                assert priest.implies(x, y) is LP3(max(2 - int(x), int(y)))

    def test_boolean_table(self):
        boolean = make_algebra("boolean")
        assert boolean.conj(True, False) is False
        assert boolean.implies(True, False) is False
        assert boolean.implies(False, False) is True

    def test_apply_connective_examples(self):
        assert apply_connective(make_algebra("boolean"), "conj", [True, False]) is False
        assert apply_connective(make_algebra("product"), "conj", [0.5, 0.4]) == 0.2
        assert apply_connective(make_algebra("priest"), "conj", [LP3.B, LP3.T]) is LP3.B

    def test_apply_connective_checks(self):
        with pytest.raises(ArityMismatchError):
            apply_connective(make_algebra("boolean"), "conj", [True])
        with pytest.raises(ArityMismatchError):
            apply_connective(make_algebra("boolean"), "xor", [True, False])
        with pytest.raises(CarrierMismatchError):
            apply_connective(make_algebra("product"), "conj", [0.5, 1.5])
        with pytest.raises(CarrierMismatchError):
            apply_connective(make_algebra("boolean"), "conj", [1, 0])


class TestParams:
    def test_ltn_p_range(self):
        with pytest.raises(ParamOutOfRangeError):
            make_algebra("ltn_p", {"p": 0.5})

    def test_ltn_q_range(self):
        for q in (0.4, 1.1):
            with pytest.raises(ParamOutOfRangeError):
                make_algebra("ltn_q", {"q": q})

    def test_stl_r_range(self):
        with pytest.raises(ParamOutOfRangeError):
            make_algebra("stl_r", {"r": 0.0})

    @pytest.mark.parametrize(
        "name,params",
        [
            ("ltn_p", {"p": math.nan}),
            ("ltn_p", {"p": math.inf}),
            ("ltn_q", {"q": math.nan}),
            ("stl_r", {"r": math.inf}),
            ("stl_r", {"r": math.nan}),
        ],
    )
    def test_parameters_must_be_finite(self, name, params):
        with pytest.raises(ParamOutOfRangeError):
            make_algebra(name, params)

    @pytest.mark.parametrize("text", ["ltn:p=nan", "ltn:p=inf", "ltnq:q=nan", "stl:r=inf"])
    def test_selection_strings_must_be_finite(self, text):
        with pytest.raises(ParamOutOfRangeError):
            parse_algebra_string(text)

    def test_unknown(self):
        with pytest.raises(UnknownAlgebraError):
            make_algebra("godel")

    def test_selection_strings(self):
        assert parse_algebra_string("boolean").name == "boolean"
        assert parse_algebra_string("ltn:p=2.5").params == {"p": 2.5}
        assert parse_algebra_string("ltnq:q=0.8").params == {"q": 0.8}
        assert parse_algebra_string("stl:r=50").params == {"r": 50.0}
        for bad in ("ltn", "ltn:q=2", "stl:r=abc", "fuzzy:p=1"):
            with pytest.raises(UnknownAlgebraError):
                parse_algebra_string(bad)


class TestAggregate:
    def test_product_forall_unit_weights(self):
        fam = WeightedFamily.exact(((1.0, 0.5), (1.0, 0.5)))
        assert aggregate(make_algebra("product"), "forall", fam) == 0.25

    def test_product_forall_mean_weights_geometric(self):
        fam = WeightedFamily.exact(((0.5, 0.5), (0.5, 0.5)))
        assert abs(aggregate(make_algebra("product"), "forall", fam) - 0.5) <= 1e-12

    def test_product_exists_probabilistic_sum(self):
        fam = WeightedFamily.exact(((1.0, 0.5), (1.0, 0.5)))
        assert abs(aggregate(make_algebra("product"), "exists", fam) - 0.75) <= 1e-12

    def test_ltn_p_forall_example(self):
        # independent hand computation: 1 - sqrt((0 + 1)/2)
        fam = WeightedFamily.exact(((0.5, 1.0), (0.5, 0.0)))
        got = aggregate(make_algebra("ltn_p", {"p": 2.0}), "forall", fam)
        assert abs(got - (1.0 - math.sqrt(0.5))) <= 1e-12

    def test_lattice_aggregators(self):
        boolean = make_algebra("boolean")
        fam = WeightedFamily.exact(((1.0, True), (1.0, False)))
        assert aggregate(boolean, "forall", fam) is False
        assert aggregate(boolean, "exists", fam) is True
        priest = make_algebra("priest")
        fam3 = WeightedFamily.exact(((1.0, LP3.T), (1.0, LP3.B)))
        assert aggregate(priest, "forall", fam3) is LP3.B
        assert aggregate(priest, "exists", fam3) is LP3.T

    def test_zero_weight_entries_ignored(self):
        fam = WeightedFamily.exact(((1.0, 0.5), (0.0, 0.0)))
        assert aggregate(make_algebra("product"), "forall", fam) == 0.5

    def test_zero_absorption(self):
        fam = WeightedFamily.exact(((1.0, 0.9), (1.0, 0.0), (1.0, 0.8)))
        assert aggregate(make_algebra("product"), "forall", fam) == 0.0

    def test_exact_only_for_lattices(self):
        fam = WeightedFamily.sampled((True, False))
        with pytest.raises(ExactOnlyError):
            aggregate(make_algebra("boolean"), "forall", fam)

    def test_stl_exact_only(self):
        with pytest.raises(ExactOnlyError):
            aggregate(make_algebra("stl_r", {"r": 2.0}), "forall", WeightedFamily.sampled((1.0,)))

    def test_family_validation(self):
        with pytest.raises(EmptyFamilyError):
            WeightedFamily.exact(())
        with pytest.raises(EmptyFamilyError):
            WeightedFamily.exact(((0.0, 0.5),))
        with pytest.raises(NegativeWeightError):
            WeightedFamily.exact(((-1.0, 0.5),))
        with pytest.raises(EmptyFamilyError):
            WeightedFamily.sampled(())

    def test_ltn_q_constant_fixed_point(self):
        for q in (0.5, 0.75, 1.0):
            alg = make_algebra("ltn_q", {"q": q})
            for c in (0.2, 0.5, 0.9):
                fam = WeightedFamily.exact(((1.0, c),) * 4)
                assert abs(aggregate(alg, "forall", fam) - c) <= 1e-12


class TestMonoidLaws:
    @pytest.mark.parametrize("name", ["boolean", "priest", "product", "sproduct", "ltn_p", "ltn_q"])
    def test_associativity_and_units(self, name):
        params = {"ltn_p": {"p": 3.0}, "ltn_q": {"q": 0.6}}.get(name)
        alg = make_algebra(name, params)
        rng = random.Random(101)
        for _ in range(1000):
            x, y, z = (rand_value(rng, alg) for _ in range(3))
            exact = alg.carrier in ("bool", "lp3")

            def close(a, b):
                return a == b if exact else abs(a - b) <= 1e-12

            assert close(alg.conj(alg.conj(x, y), z), alg.conj(x, alg.conj(y, z)))
            assert close(alg.disj(alg.disj(x, y), z), alg.disj(x, alg.disj(y, z)))
            assert close(alg.conj(alg.top, x), x)
            assert close(alg.conj(x, alg.top), x)
            assert close(alg.disj(alg.bot, x), x)
            assert close(alg.disj(x, alg.bot), x)

    def test_stl_flagged_approximate(self):
        assert make_algebra("stl_r", {"r": 1.0}).approximate
        assert not make_algebra("product").approximate


class TestClassicalLimit:
    def test_all_tables_restrict_to_boolean(self):
        boolean = make_algebra("boolean")
        for alg in zoo():
            encode = {False: alg.bot, True: alg.top}
            decode = {alg.bot: False, alg.top: True}
            for a in (False, True):
                assert decode[alg.neg(encode[a])] == (not a)
                for b in (False, True):
                    for op in ("conj", "disj", "implies"):
                        got = getattr(alg, op)(encode[a], encode[b])
                        assert decode[got] == getattr(boolean, op)(a, b), (alg.name, op, a, b)


class TestDuality:
    @pytest.mark.parametrize("name", ["product", "sproduct", "ltn_p", "ltn_q"])
    def test_exists_is_dual_of_forall(self, name):
        params = {"ltn_p": {"p": 4.0}, "ltn_q": {"q": 0.8}}.get(name)
        alg = make_algebra(name, params)
        rng = random.Random(55)
        for _ in range(200):
            pairs = tuple((rng.random() + 0.01, rng.random()) for _ in range(rng.randint(1, 6)))
            fam = WeightedFamily.exact(pairs)
            dual = WeightedFamily.exact(tuple((w, 1.0 - v) for w, v in pairs))
            lhs = aggregate(alg, "exists", fam)
            rhs = 1.0 - aggregate(alg, "forall", dual)
            assert abs(lhs - rhs) <= 1e-12


class TestMonotonicity:
    def test_pointwise_increase_never_decreases(self):
        # the smooth robustness operators are exempt: they only approximate
        # the lattice aggregators and are provably not order-preserving
        rng = random.Random(77)
        for alg in zoo():
            if alg.approximate:
                continue
            for _ in range(300):
                n = rng.randint(1, 6)
                values = [rand_value(rng, alg) for _ in range(n)]
                if alg.carrier == "prob":
                    bumped = [min(1.0, v + rng.random() * (1.0 - v)) for v in values]
                elif alg.carrier == "lp3":
                    bumped = [LP3(min(2, int(v) + rng.randint(0, 2))) for v in values]
                else:
                    bumped = [v or rng.random() < 0.5 for v in values]
                base = WeightedFamily.exact(tuple((1.0, v) for v in values))
                more = WeightedFamily.exact(tuple((1.0, v) for v in bumped))
                for kind in ("forall", "exists"):
                    lo = aggregate(alg, kind, base)
                    hi = aggregate(alg, kind, more)
                    if alg.carrier in ("bool", "lp3"):
                        assert hi >= lo
                    else:
                        assert hi >= lo - 1e-12

    def test_smooth_max_is_not_order_preserving(self):
        # concrete witness for the exemption above: every input increases
        # yet the smooth maximum decreases, because the raised value gains
        # softmax weight below the maximum
        alg = make_algebra("stl_r", {"r": 10.0})
        base = (3.9472628045600704, 6.444421340631759, -2.5655250340454465)
        bumped = (4.976695459762497, 6.489543774143325, -2.4611493943411227)
        assert all(b > a for a, b in zip(base, bumped))
        lo = aggregate(alg, "exists", WeightedFamily.exact([(1.0, v) for v in base]))
        hi = aggregate(alg, "exists", WeightedFamily.exact([(1.0, v) for v in bumped]))
        assert hi < lo


class TestSmoothMinMax:
    def test_forall_approx_min_tightens_with_r(self):
        fams = [
            (-3.0, -1.0, 2.0, 4.5, 7.0),
            (1.0, 2.0, 3.0, 4.0, 5.0),
            (-5.0, -4.0, -3.0, -2.0, -1.0),
        ]
        for values in fams:
            fam = WeightedFamily.exact(tuple((1.0, v) for v in values))
            errors = []
            for r in (1.0, 10.0, 100.0):
                got = aggregate(make_algebra("stl_r", {"r": r}), "forall", fam)
                errors.append(abs(got - min(values)))
            assert errors[0] > errors[1] > errors[2]

    def test_exists_is_negated_forall_of_negation(self):
        alg = make_algebra("stl_r", {"r": 5.0})
        values = (-2.0, 1.0, 4.0)
        fam = WeightedFamily.exact(tuple((1.0, v) for v in values))
        neg_fam = WeightedFamily.exact(tuple((1.0, -v) for v in values))
        assert abs(
            aggregate(alg, "exists", fam) + aggregate(alg, "forall", neg_fam)
        ) <= 1e-12

    def test_zero_minimum_case(self):
        alg = make_algebra("stl_r", {"r": 3.0})
        fam = WeightedFamily.exact(((1.0, 0.0), (1.0, 2.0)))
        assert aggregate(alg, "forall", fam) == 0.0

    def test_infinite_constants(self):
        alg = make_algebra("stl_r", {"r": 3.0})
        assert alg.conj(math.inf, -math.inf) == -math.inf
        assert alg.disj(math.inf, -math.inf) == math.inf
        assert alg.neg(math.inf) == -math.inf

    @pytest.mark.parametrize("op", ["conj", "disj", "implies"])
    @pytest.mark.parametrize("other", [1.0, -2.0, math.inf, -math.inf])
    def test_nan_operands_rejected(self, op, other):
        # the minimum scan would skip a NaN and return a truth value
        alg = make_algebra("stl_r", {"r": 2.0})
        for args in ((math.nan, other), (other, math.nan)):
            with pytest.raises(CarrierMismatchError):
                getattr(alg, op)(*args)


class TestLift:
    def test_identity_lift_is_boolean(self):
        lifted = lift_algebra(make_algebra("boolean"), IDENTITY)
        for a in (False, True):
            for b in (False, True):
                assert lifted.conj(a, b) == (a and b)
                assert lifted.implies(a, b) == ((not a) or b)

    def test_set_lift_matches_enumeration(self):
        # conj(B, T): image of `and` over {0,1} x {1} is {0,1}
        lifted = lift_algebra(make_algebra("boolean"), NONEMPTY_SET)
        assert lifted.conj(LP3.B, LP3.T) is LP3.B
        priest = make_algebra("priest")
        for x in LP3:
            assert lifted.neg(x) == priest.neg(x)
            for y in LP3:
                for op in ("conj", "disj", "implies"):
                    enumerated = frozenset(
                        getattr(make_algebra("boolean"), op)(a, b)
                        for a in x.members
                        for b in y.members
                    )
                    assert getattr(lifted, op)(x, y) == LP3.from_members(enumerated)
                    assert getattr(lifted, op)(x, y) == getattr(priest, op)(x, y)

    def test_distribution_lift_closed_forms(self):
        lifted = lift_algebra(make_algebra("boolean"), DISTRIBUTION)
        rng = random.Random(13)
        for _ in range(1000):
            p, q = rng.random(), rng.random()
            assert abs(lifted.conj(p, q) - p * q) <= 1e-12
            assert abs(lifted.disj(p, q) - (p + q - p * q)) <= 1e-12
            assert abs(lifted.neg(p) - (1 - p)) <= 1e-12
            assert abs(lifted.implies(p, q) - (1 - p + p * q)) <= 1e-12

    def test_sampler_lift_expectations(self):
        lifted = lift_algebra(make_algebra("boolean"), SAMPLER)
        a = unit(SAMPLER, True)
        b = unit(SAMPLER, False)
        assert lifted.conj(a, b).const is False
        assert lifted.disj(a, b).const is True
        coin = __import__("monadlogic").Sampler(lambda key: key.uniform() < 0.5)
        out = lifted.conj(coin, unit(SAMPLER, True))
        draws = [out.sample(RandomKey(0).child(i)) for i in range(20000)]
        assert abs(sum(draws) / len(draws) - 0.5) <= 0.02

    def test_lift_requires_boolean_base(self):
        with pytest.raises(CarrierMismatchError):
            lift_algebra(make_algebra("product"), DISTRIBUTION)
