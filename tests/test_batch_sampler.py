"""The batched sampler against a per-draw reference, and pinned outputs."""

import dataclasses
import json
import random
import tracemalloc
from collections import Counter

import pytest

from monadlogic import (
    SAMPLER,
    CTable,
    Dist,
    RandomKey,
    Sampler,
    effects,
    evaluate_sentence,
    load_interpretation,
    make_algebra,
    make_framework,
    parse_formula,
    parse_signature,
    syntax,
)
from monadlogic.cli import main

from helpers import (
    finite_system,
    interpret,
    node_types,
    random_sampler_formula,
    reference_estimate,
)


def sampler():
    return make_framework(SAMPLER, make_algebra("product"))


def assert_matches_reference(f, interp, budget, seed):
    report = evaluate_sentence(f, sampler(), interp, budget=budget, seed=seed)
    assert (report.value, report.stderr) == reference_estimate(f, interp, budget, seed), (
        f, budget, seed)
    return report.value


class TestAgainstPerDrawReference:
    def test_random_finite_system_formulas(self):
        rng = random.Random(404)
        shapes = Counter()
        uncertain = 0
        for _ in range(200):
            values = ()
            while len(values) < 2:  # a one-value sort draws nothing
                _, values, rows, _ = finite_system(rng)
            interp = interpret(values, rows, SAMPLER)
            f = random_sampler_formula(rng, depth=rng.randint(2, 5))
            shapes.update(node_types(f))
            for _ in range(3):
                value = assert_matches_reference(
                    f, interp, rng.randint(1, 80), rng.randrange(2**31))
                uncertain += 0.0 < value < 1.0
        # binds, every connective and nested quantifiers all take part, and
        # enough estimates are not constant for the key tree to show
        for name in ("Bind", "And", "Or", "Implies", "Not", "Forall", "Exists", "Atom",
                     "nested quantifier", "bind below a connective"):
            assert shapes[name] >= 20, shapes
        assert uncertain >= 40, uncertain

    def test_budgets_across_chunk_boundaries(self):
        rng = random.Random(405)
        _, values, rows, _ = finite_system(rng)
        interp = interpret(values, rows, SAMPLER)
        f = parse_formula(
            "forall x:S. [y := m(x)] (q(y) -> ([z := m(y)] r(z) | q(x)))",
            syntax.Signature(
                sorts=frozenset(("S",)), mfuncs={"m": (("S",), "S")},
                preds={"q": ("S",), "r": ("S",)},
            ),
        )
        for budget in (effects.CHUNK - 1, effects.CHUNK, effects.CHUNK + 1, 2 * effects.CHUNK + 7):
            assert_matches_reference(f, interp, budget, budget)

    def test_computational_atoms(self):
        rng = random.Random(406)
        for _ in range(40):
            _, values, rows, _ = finite_system(rng)
            base = interpret(values, rows, SAMPLER)
            # one row per value of S, numeric 0/1 outcomes on the even ones
            mq = {}
            for v in values:
                p = rng.uniform(0.1, 0.9)
                mq[(v,)] = Dist(((True, p), (False, 1.0 - p)) if v % 2 else ((1, p), (0, 1.0 - p)))
            mp = {(): Dist(((True, 0.3), (False, 0.7)))}
            interp = dataclasses.replace(base, mpreds={"mq": CTable(mq), "mp": CTable(mp)})
            f = random_sampler_formula(rng, depth=3, mpreds=("mq", "mp"))
            assert_matches_reference(f, interp, rng.randint(1, 60), rng.randrange(2**31))

    @pytest.mark.parametrize("text", [
        "forall x:Num. [t := normal(x, 1)] gt(t, -4)",
        "exists x:Num. ([h := bernoulli(0.2)] eq(h, 1)) & gt(x, -1)",
        "forall w:World. exists x:Num. [t := normal(mu(w), sigma(w))] lt(t, x)",
        "exists x:Num. forall y:Num. gt(x, y) | lt(x, 0.5)",
    ])
    def test_interval_quantifiers(self, demo_text, text):
        sig = parse_signature(demo_text("weather.sig.json"))
        interp = load_interpretation(json.loads(demo_text("weather.interp.json")), sig, SAMPLER)
        f = parse_formula(text, sig)
        for budget, seed in ((1, 1), (9, 2), (40, 3)):
            assert_matches_reference(f, interp, budget, seed)


def cli_line(capsys, demo_dir, formula_args, samples, seed):
    code = main([
        "eval", "--sig", str(demo_dir / "weather.sig.json"),
        "--interp", str(demo_dir / "weather.interp.json"),
        "--framework", "sampler", "--algebra", "product", *formula_args,
        "--samples", str(samples), "--seed", str(seed), "--machine",
    ])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPinnedOutputs:
    """Lines printed by the per-draw sampler this batch path replaced."""

    def test_readme_weather_demo(self, capsys, demo_dir):
        code, out, _ = cli_line(
            capsys, demo_dir, ["--formula-file", str(demo_dir / "weather.formula")], 200000, 42)
        assert code == 0
        assert out == ("estimate=0.25007000000000001 stderr=0.0009683361892958458 "
                       "samples=200000 seed=42\n")

    def test_interval_quantifier_over_450_points(self, capsys, demo_dir):
        code, out, _ = cli_line(
            capsys, demo_dir, ["--formula", "forall x:Num. [t := normal(x, 1)] gt(t, -4)"], 450, 1)
        assert code == 0
        assert out == ("estimate=0.35555555555555557 stderr=0.022565253647004173 "
                       "samples=450 seed=1\n")

    def test_outer_computation_errors_come_before_the_budget_check(self, capsys, demo_dir):
        # applying the denotation builds the outer computation before any draw
        code, out, err = cli_line(
            capsys, demo_dir, ["--formula", "[h := bernoulli(2)] eq(h, 1)"], 0, 1)
        assert code == 1 and out == ""
        assert err.startswith("error: ParamOutOfRange: ")


class TestBatches:
    def test_realize_draws_fixed_size_chunks(self):
        sizes = []

        def draw(states):
            sizes.append(len(states))
            return [True] * len(states)

        out = effects.realize(Sampler(draw=draw), budget=2 * effects.CHUNK + 3, key=RandomKey(1))
        assert sizes == [effects.CHUNK, effects.CHUNK, 3] and out.value == 1.0

    def test_batch_states_follow_the_key_tree(self):
        key = RandomKey(8).child(2)
        states = effects.draw_states(key, 3, 6)
        assert states == [key.child(i).state for i in range(3, 6)]
        assert effects.child_states(states, 1) == [key.child(i).child(1).state for i in range(3, 6)]
        assert effects.uniforms(states, 2) == [key.child(i).uniform(2) for i in range(3, 6)]


class TestMemory:
    def test_continuous_bind_arguments_keep_memory_bounded(self, demo_text):
        # the inner computation is new on every draw; keeping them all
        # would grow memory with the budget
        sig = parse_signature(demo_text("weather.sig.json"))
        interp = load_interpretation(json.loads(demo_text("weather.interp.json")), sig, SAMPLER)
        f = parse_formula("[t := normal(0, 1)] [u := normal(t, 1)] gt(u, t)", sig)
        peaks = []
        for budget in (6000, 24000):
            tracemalloc.start()
            try:
                evaluate_sentence(f, sampler(), interp, budget=budget, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks
