"""Computation monads and the splittable randomness source."""

import math
import random

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
    bind,
    effects,
    realize,
    unit,
)
from monadlogic.algebra import LP3
from monadlogic.effects import Lanes
from monadlogic.errors import BudgetMissingError, KindMismatchError
from monadlogic.selftest import dist_close, random_computation, random_kleisli


class TestRandomKey:
    def test_derivation_is_pure(self):
        a = RandomKey(42).child(3).child(7)
        b = RandomKey(42, path=(3, 7))
        assert a.uniform() == b.uniform()
        assert a.path == (3, 7)

    def test_children_differ(self):
        key = RandomKey(1)
        draws = {key.child(i).uniform() for i in range(1000)}
        assert len(draws) == 1000

    def test_seeds_differ(self):
        assert RandomKey(1).uniform() != RandomKey(2).uniform()

    def test_uniform_in_open_interval(self):
        key = RandomKey(9)
        for i in range(1000):
            u = key.child(i).uniform()
            assert 0.0 < u < 1.0

    def test_normal_moments(self):
        key = RandomKey(5)
        n = 50000
        draws = [key.child(i).normal(2.0, 3.0) for i in range(n)]
        mean = sum(draws) / n
        var = sum((d - mean) ** 2 for d in draws) / n
        assert abs(mean - 2.0) <= 4 * 3.0 / math.sqrt(n)
        assert abs(var - 9.0) <= 0.3


class TestUnit:
    def test_identity(self):
        assert unit(IDENTITY, 5) == Pure(5)

    def test_nonempty_set(self):
        assert unit(NONEMPTY_SET, "a") == NESet(("a",))

    def test_distribution_is_dirac(self):
        assert unit(DISTRIBUTION, 1).pairs == ((1, 1.0),)

    def test_sampler_constant(self):
        c = unit(SAMPLER, 7)
        assert c.sample(RandomKey(0)) == 7 and c.is_const


class TestDistCanonicalization:
    def test_merge_duplicates(self):
        d = Dist(((1, 0.25), (1, 0.25), (0, 0.5)))
        assert d.pairs == ((0, 0.5), (1, 0.5))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            Dist(((0, -0.1), (1, 1.1)))

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            Dist(((0, 0.4), (1, 0.4)))

    def test_tiny_entries_dropped_and_renormalized(self):
        d = Dist(((0, 1e-16), (1, 1.0 - 1e-16)))
        assert d.support == (1,)
        assert abs(d.prob(1) - 1.0) <= 1e-12

    def test_structural_equality(self):
        assert Dist(((0, 0.5), (1, 0.5))) == Dist(((1, 0.5), (0, 0.5)))

    def test_support_order_is_the_type_ranked_value_order(self):
        # bools, then ints, then floats, then strings, each by value: the
        # order the support had when every value was sorted by its type rank
        def rank(v):
            return [bool, int, float, str].index(type(v))

        rng = random.Random(5)
        pools = [[True, False], list(range(-3, 9)), [-1.5, 0.25, 2.0, 7.75], ["a", "b", "zz"]]
        for _ in range(2000):
            mixed = rng.random() < 0.5
            pool = [v for p in pools for v in p] if mixed else rng.choice(pools)
            support = rng.sample(pool, rng.randint(1, min(6, len(pool))))
            weights = [rng.random() + 0.01 for _ in support]
            total = sum(weights)
            d = Dist([(v, w / total) for v, w in zip(support, weights)])
            assert d.pairs == tuple(sorted(d.pairs, key=lambda vp: (rank(vp[0]), vp[0])))


class TestBind:
    def test_identity_applies(self):
        assert bind(Pure(5), lambda a: Pure(a + 1)) == Pure(6)

    def test_set_union(self):
        k = {1: NESet((10,)), 2: NESet((10, 20))}
        assert bind(NESet((1, 2)), lambda a: k[a]) == NESet((10, 20))

    def test_fair_coin_marginal(self):
        # hand sum: P(0) = 0.5*1 + 0.5*0.5 = 0.75, P(1) = 0.25
        coin = Dist(((0, 0.5), (1, 0.5)))
        k = {0: Dist(((0, 1.0),)), 1: Dist(((0, 0.5), (1, 0.5)))}
        out = bind(coin, lambda a: k[a])
        assert dist_close(out, Dist(((0, 0.75), (1, 0.25))))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            bind(Dist(((0, 1.0),)), lambda a: NESet((a,)))

    def test_normalization_preserved(self):
        rng = random.Random(7)
        for _ in range(200):
            c = random_computation(rng, DISTRIBUTION)
            k = random_kleisli(rng, DISTRIBUTION)
            out = bind(c, k)
            assert abs(sum(p for _, p in out.pairs) - 1.0) <= 1e-9

    def test_sampler_outer_and_continuation_keys(self):
        # the outer draw uses child 0, the continuation child 1
        outer = Sampler(lambda key: key.uniform() < 0.5)
        k = lambda a: Sampler(lambda key: (a, key.uniform()))
        key = RandomKey(3)
        a = outer.sample(key.child(0))
        expected = (a, key.child(1).uniform())
        assert bind(outer, k).sample(key) == expected

    def test_sampler_unit_folds(self):
        k = lambda a: Sampler(lambda key: a + key.uniform())
        key = RandomKey(11)
        assert bind(unit(SAMPLER, 2), k).sample(key) == k(2).sample(key)


class TestMonadLawsExact:
    @pytest.mark.parametrize("kind", [IDENTITY, NONEMPTY_SET, DISTRIBUTION])
    def test_laws_hold(self, kind):
        rng = random.Random(hash(kind) & 0xFFFF)
        for _ in range(200):
            x = rng.choice((0, 1, 2))
            c = random_computation(rng, kind)
            k = random_kleisli(rng, kind)
            g = random_kleisli(rng, kind)

            def same(a, b):
                return dist_close(a, b) if kind == DISTRIBUTION else a == b

            assert same(bind(unit(kind, x), k), k(x))
            assert same(bind(c, lambda a: unit(kind, a)), c)
            assert same(
                bind(bind(c, k), g), bind(c, lambda a: bind(k(a), g))
            )


class TestKleisliStep:
    """The evaluator's batch bind and the scalar one agree: folding the
    body's truth values over ``expand`` gives the truth of the bind of the
    embedded body, exactly."""

    TRUTH = {
        IDENTITY: lambda rng: rng.random() < 0.5,
        NONEMPTY_SET: lambda rng: rng.choice((LP3.F, LP3.B, LP3.T)),
        DISTRIBUTION: lambda rng: rng.random(),
    }

    @pytest.mark.parametrize("kind", [IDENTITY, NONEMPTY_SET, DISTRIBUTION])
    def test_fold_of_expand_is_truth_of_bind(self, kind):
        m = effects.monad(kind)
        rng = random.Random(f"kleisli:{kind}")
        for _ in range(3000):
            c = random_computation(rng, kind)
            v = {a: self.TRUTH[kind](rng) for a in (0, 1, 2)}
            rows, outcomes = m.expand([c], None)
            folded = m.fold(rows, [v[a] for a in outcomes], effects.snap01)[0]
            assert folded == m.truth(m.bind(c, lambda a: m.embed(v[a]))), (c, v)


class TestKleisliStepSampled:
    """The statistical form of the same law for the sampler, whose outcomes
    are drawn: the realized truth of the bind of the embedded body lies
    within 5 standard errors of the exact expectation under ``dist``."""

    def test_realized_truth_of_bind_estimates_the_exact_value(self):
        exact, sampler = effects.monad(DISTRIBUTION), effects.monad(SAMPLER)
        rng = random.Random("kleisli:sampler")
        for i in range(300):
            d = random_computation(rng, DISTRIBUTION)
            # truth probabilities away from 0 and 1, so no estimate has a
            # standard error of 0
            v = {a: rng.uniform(0.1, 0.9) for a in (0, 1, 2)}
            want = exact.truth(exact.bind(d, lambda a: exact.embed(v[a])))
            c = sampler.bind(sampler.row(d), lambda a: sampler.embed(sampler.coin(v[a])))
            got = realize(sampler.truth(c), budget=400, key=RandomKey(i))
            assert abs(got.value - want) <= 5 * got.stderr, (d, v, got)


class TestRealize:
    def test_distribution_read_off(self):
        assert realize(Dist(((True, 0.25), (False, 0.75)))).value == 0.25

    def test_nonempty_set_both(self):
        assert realize(NESet((False, True))).value is LP3.B
        assert realize(NESet((True,))).value is LP3.T
        assert realize(NESet((0,))).value is LP3.F

    def test_pure(self):
        assert realize(Pure(True)).value is True

    def test_constant_sampler(self):
        out = realize(unit(SAMPLER, True), budget=100, key=RandomKey(1))
        assert out.value == 1.0 and out.stderr == 0.0

    @pytest.mark.parametrize("budget, key", [(None, RandomKey(1)), (0, RandomKey(1)), (5, None)])
    def test_constant_sampler_needs_a_budget_and_key(self, budget, key):
        # a constant draws nothing, yet its report counts samples
        with pytest.raises(BudgetMissingError):
            realize(unit(SAMPLER, True), budget=budget, key=key)

    def test_sampler_estimate_and_stderr(self):
        c = Sampler(lambda key: key.uniform() < 0.3)
        out = realize(c, budget=10000, key=RandomKey(42))
        assert out.samples == 10000 and out.seed == 42
        assert abs(out.stderr - math.sqrt(out.value * (1 - out.value) / 10000)) <= 1e-15
        assert abs(out.value - 0.3) <= 4 * out.stderr

    def test_budget_required(self):
        c = Sampler(lambda key: key.uniform() < 0.5)
        with pytest.raises(BudgetMissingError):
            realize(c)

    def test_bit_identical_across_runs(self):
        c = Sampler(lambda key: key.uniform() < 0.5)
        a = realize(c, budget=5000, key=RandomKey(9))
        b = realize(c, budget=5000, key=RandomKey(9))
        assert a.value == b.value

    def test_schedule_independence(self):
        # each sample is a pure function of (seed, index): drawing them
        # individually, in any order, reproduces the batch
        c = Sampler(lambda key: key.uniform() < 0.5)
        key = RandomKey(13)
        n = 2000
        individual = [c.sample(key.child(i)) for i in reversed(range(n))]
        batch_hits = realize(c, budget=n, key=key).value * n
        assert round(batch_hits) == sum(reversed(individual))


MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
SALT = 0xD1B54A32D192ED03


def batch_of(n, seed=11):
    """``n`` states: 0, 1 and 2**64 - 1, then states ``s`` that
    ``s + (index + 1) * increment`` carries past 2**64 for indices 0-3,
    then seeded random ones."""
    rng = random.Random(seed)
    edges = [0, 1, MASK]
    for k in range(1, 5):
        for inc in (GAMMA, SALT):
            edges += [-k * inc & MASK, (-k * inc + 1) & MASK, (-k * inc - 1) & MASK]
    return (edges + [rng.getrandbits(64) for _ in range(n)])[:n]


def item_chain(state, m):
    """The quantifier item keys of one state, walked with ``RandomKey.child``."""
    walk = [RandomKey.from_state(state)]
    for _ in range(m - 1):
        walk.append(walk[-1].child(0))
    return [walk[m - 1].state] + [walk[m - 1 - j].child(1).state for j in range(1, m)]


class TestBatchKeys:
    """The packed batch key arithmetic against the scalar ``RandomKey``."""

    @pytest.mark.parametrize("n", [0, 1, 2, 1023, 1024, 1025, 8100])
    def test_children_and_uniforms(self, n):
        states = batch_of(n)
        lanes = Lanes.of(states)
        keys = [RandomKey.from_state(s) for s in states]
        for index in range(4):
            assert list(effects.child_states(lanes, index)) == [k.child(index).state for k in keys]
            assert list(effects.uniforms(lanes, index)) == [k.uniform(index) for k in keys]

    @pytest.mark.parametrize("n", [0, 1, 2, 1025])
    def test_normals(self, n):
        states = batch_of(n)
        want = [RandomKey.from_state(s).normal(0.25, 1.5) for s in states]
        assert list(effects.normals(Lanes.of(states), 0.25, 1.5)) == want

    @pytest.mark.parametrize("gap", [1, 2, GAMMA, effects.CHUNK * GAMMA - 1])
    def test_draw_states_near_the_top(self, gap):
        key = RandomKey.from_state(-gap & MASK)
        for start, stop in [(0, 0), (0, 1), (0, effects.CHUNK), (effects.CHUNK, 2 * effects.CHUNK + 3)]:
            assert list(effects.draw_states(key, start, stop)) == [key.child(i).state for i in range(start, stop)]

    @pytest.mark.parametrize("m", [1, 2, 3, 90])
    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_item_states(self, m, n):
        states = batch_of(n)
        want = [x for s in states for x in item_chain(s, m)]
        assert list(effects.item_states(Lanes.of(states), m)) == want


class TestLanes:
    """A packed batch of key states read back, sliced and gathered."""

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 8100])
    def test_round_trip(self, n):
        states = batch_of(n)
        lanes = Lanes.of(states)
        assert len(lanes) == n
        assert lanes.tolist() == states and list(lanes) == states

    @pytest.mark.parametrize("start, stop", [(0, 5), (1020, 1025), (7, 7), (9, 3), (300, 700),
                                             (0, 1025), (1024, 1025), (-5, None)])
    def test_slices(self, start, stop):
        states = batch_of(1025)
        part = Lanes.of(states)[start:stop]
        assert part.tolist() == states[start:stop] and len(part) == len(states[start:stop])
        # a slice is a batch of its own size
        packed = Lanes.of(states[start:stop])
        assert effects.child_states(part, 1).tolist() == effects.child_states(packed, 1).tolist()

    def test_take_repeated_and_out_of_order(self):
        states = batch_of(40)
        lanes = Lanes.of(states)
        indices = [39, 0, 5, 5, 17, 0, 39, 2]
        assert lanes.take(indices).tolist() == [states[i] for i in indices]
        assert lanes.take([]).tolist() == []
        groups = [[3, 1], [], [0, 0, 39]]
        assert [p.tolist() for p in lanes.split(groups)] == [lanes.take(g).tolist() for g in groups]

    def test_both_children_from_one_batch(self):
        # a bind or connective derives child 0 and child 1 from one lane int,
        # handing on its lane-repeated words; the batch itself is unchanged
        states = batch_of(1025)
        lanes = Lanes.of(states)
        left, right = effects.child_states(lanes, 0), effects.child_states(lanes, 1)
        assert lanes.tolist() == states
        assert left.repeats is lanes.repeats and right.repeats is lanes.repeats
        assert left.tolist() == effects.child_states(Lanes.of(states), 0).tolist()
        assert right.tolist() == effects.child_states(Lanes.of(states), 1).tolist()
        assert right.tolist() == [RandomKey.from_state(s).child(1).state for s in states]


def unxorshift(y, k):
    """The x with ``x ^ (x >> k) == y``."""
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def unmix(z):
    """The state whose splitmix64 finalizer gives ``z``."""
    z = unxorshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK
    z = unxorshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK
    return unxorshift(z, 30)


class TestUniformRange:
    """Mixed values near 2**64 round to 1.0 unless clamped."""

    @pytest.mark.parametrize("mixed", [MASK, MASK - 1, (1 << 64) - 1024])
    def test_top_mixed_values_stay_below_one(self, mixed):
        state = (unmix(mixed) - SALT) & MASK  # uniform(0) mixes state + SALT
        assert effects._mix((state + SALT) & MASK) == mixed
        u = RandomKey.from_state(state).uniform(0)
        assert 0.0 < u < 1.0 and u == 1.0 - 2.0**-53
        batch = Lanes.of([1, state, 2])
        assert effects.uniforms(batch, 0) == [RandomKey.from_state(s).uniform(0) for s in (1, state, 2)]
        assert 0.0 < effects.uniforms(batch, 0)[1] < 1.0
        assert effects.monad(SAMPLER).coin(1.0).draw(Lanes.of([state])) == [1]

    def test_values_below_the_clamp_keep_their_uniform(self):
        mixed = (1 << 64) - 1025
        state = (unmix(mixed) - SALT) & MASK
        assert RandomKey.from_state(state).uniform(0) == (float(mixed) + 1.0) / 2.0**64
