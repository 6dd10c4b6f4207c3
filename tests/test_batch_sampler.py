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
    """Lines recorded from earlier samplers: the README weather demo and the
    450-point quantifier from the per-draw one the batch path replaced, the
    eight-step chain from the nested bind nodes the run clause replaced,
    the rest from the batch path before its key states stayed packed."""

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


    def test_mnist_demo(self, capsys, demo_dir):
        code = main([
            "eval", "--sig", str(demo_dir / "mnist.sig.json"),
            "--interp", str(demo_dir / "mnist.interp.json"),
            "--framework", "sampler", "--algebra", "product",
            "--formula", "[n1 := classify(im1)][n2 := classify(im2)] eq(add(n1, n2), 1)",
            "--samples", "20000", "--seed", "7", "--machine",
        ])
        assert (code, capsys.readouterr().out) == (
            0, "estimate=0.49675000000000002 stderr=0.0035354592169900647 samples=20000 seed=7\n")

    def test_hidden_markov_chain(self, capsys, tmp_path):
        # step and emit build one computation per hidden state, so each
        # batch is split over several samplers
        code, out = doc_line(capsys, tmp_path, CHAIN_SIG, CHAIN_INTERP,
                             "[h1 := init()][h2 := step(h1)][h3 := step(h2)][o := emit(h3)] eqo(o, 1)",
                             30000, 5)
        assert (code, out) == (
            0, "estimate=0.47053333333333336 stderr=0.0028817339430486149 samples=30000 seed=5\n")

    def test_eight_step_hidden_markov_chain(self, capsys, tmp_path):
        # one run of nine binds, drawn level by level along child 0 and
        # child 1; 20000 draws are 19 full chunks and a part
        hops = "".join(f"[h{t} := step(h{t - 1})]" for t in range(2, 9))
        code, out = doc_line(capsys, tmp_path, CHAIN_SIG, CHAIN_INTERP,
                             f"[h1 := init()]{hops}[o := emit(h8)] eqo(o, 1)", 20000, 8)
        assert (code, out) == (
            0, "estimate=0.51644999999999996 stderr=0.003533619939240778 samples=20000 seed=8\n")

    def test_bernoulli_normal_and_uniform_real(self, capsys, tmp_path):
        code, out = doc_line(capsys, tmp_path, MIX_SIG, MIX_INTERP,
                             "[h := bernoulli(0.3)][t := normal(h, 1)][u := uniform_real(-1, 2)] "
                             "(eq(h, 1) & lt(t, u)) | (eq(h, 0) & gt(t, u))",
                             20000, 3)
        assert (code, out) == (
            0, "estimate=0.36235000000000001 stderr=0.0033989151026467255 samples=20000 seed=3\n")


CHAIN_SIG = {
    "sorts": ["H", "O"],
    "mfuncs": {"init": {"args": [], "result": "H"}, "step": {"args": ["H"], "result": "H"},
               "emit": {"args": ["H"], "result": "O"}},
    "preds": {"eqo": {"args": ["O", "O"]}},
}
CHAIN_INTERP = {
    "sorts": {"H": {"kind": "enum", "values": [0, 1, 2]}, "O": {"kind": "enum", "values": [0, 1]}},
    "mfuncs": {
        "init": {"kind": "ctable", "rows": [[[[0, 0.5], [1, 0.3], [2, 0.2]]]]},
        "step": {"kind": "ctable", "rows": [[0, [[0, 0.6], [1, 0.3], [2, 0.1]]],
                                            [1, [[0, 0.2], [1, 0.5], [2, 0.3]]],
                                            [2, [[0, 0.1], [1, 0.2], [2, 0.7]]]]},
        "emit": {"kind": "ctable", "rows": [[0, [[0, 0.9], [1, 0.1]]],
                                            [1, [[0, 0.5], [1, 0.5]]],
                                            [2, [[0, 0.2], [1, 0.8]]]]},
    },
    "preds": {"eqo": {"kind": "builtin", "name": "eq"}},
}
MIX_SIG = {
    "sorts": ["Num"],
    "mfuncs": {"bernoulli": {"args": ["Num"], "result": "Num"},
               "normal": {"args": ["Num", "Num"], "result": "Num"},
               "uniform_real": {"args": ["Num", "Num"], "result": "Num"}},
    "preds": {p: {"args": ["Num", "Num"]} for p in ("eq", "lt", "gt")},
}
MIX_INTERP = {
    "sorts": {"Num": {"kind": "real_interval", "lo": None, "hi": None}},
    "mfuncs": {n: {"kind": "builtin", "name": n} for n in ("bernoulli", "normal", "uniform_real")},
    "preds": {p: {"kind": "builtin", "name": p} for p in ("eq", "lt", "gt")},
}


def doc_line(capsys, tmp_path, sig, interp, formula, samples, seed):
    """Exit code and stdout of a sampler ``eval --machine`` on documents."""
    (tmp_path / "sig.json").write_text(json.dumps(sig))
    (tmp_path / "interp.json").write_text(json.dumps(interp))
    code = main([
        "eval", "--sig", str(tmp_path / "sig.json"), "--interp", str(tmp_path / "interp.json"),
        "--framework", "sampler", "--algebra", "product", "--formula", formula,
        "--samples", str(samples), "--seed", str(seed), "--machine",
    ])
    return code, capsys.readouterr().out


class TestBatches:
    def test_realize_draws_fixed_size_chunks(self):
        sizes = []

        def draw(states):
            sizes.append(len(states))
            return [True] * len(states)

        out = effects.realize(Sampler(draw=draw), budget=2 * effects.CHUNK + 3, key=RandomKey(1))
        assert sizes == [effects.CHUNK, effects.CHUNK, 3] and out.value == 1.0

    def test_full_chunks_share_their_repeated_words(self):
        # the words a full chunk repeats across its lanes are built once per call
        batches = []

        def draw(states):
            batches.append(states)
            return [True] * len(states)

        def uniforms(states):
            return effects.uniforms(effects.child_states(states, 1))

        key = RandomKey(5)
        effects.realize(Sampler(draw=draw), budget=2 * effects.CHUNK + 3, key=key)
        first, second, last = batches
        assert first.repeats is second.repeats and last.repeats is not first.repeats
        for start, batch in zip(range(0, 3 * effects.CHUNK, effects.CHUNK), batches):
            fresh = effects.draw_states(key, start, start + len(batch))
            assert batch.tolist() == fresh.tolist() and uniforms(batch) == uniforms(fresh)

    def test_batch_states_follow_the_key_tree(self):
        key = RandomKey(8).child(2)
        states = effects.draw_states(key, 3, 6)
        assert list(states) == [key.child(i).state for i in range(3, 6)]
        assert list(effects.child_states(states, 1)) == [key.child(i).child(1).state for i in range(3, 6)]
        assert list(effects.uniforms(states, 2)) == [key.child(i).uniform(2) for i in range(3, 6)]


class TestMemory:
    def peaks(self, demo_text, text):
        sig = parse_signature(demo_text("weather.sig.json"))
        interp = load_interpretation(json.loads(demo_text("weather.interp.json")), sig, SAMPLER)
        f = parse_formula(text, sig)
        peaks = []
        for budget in (6000, 24000):
            tracemalloc.start()
            try:
                evaluate_sentence(f, sampler(), interp, budget=budget, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_continuous_bind_arguments_keep_memory_bounded(self, demo_text):
        # the inner computation is new on every draw; keeping them all
        # would grow memory with the budget
        peaks = self.peaks(demo_text, "[t := normal(0, 1)] [u := normal(t, 1)] gt(u, t)")
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_draw_free_tables_keep_memory_bounded(self, demo_text):
        # the bind body and its quantifier keep a value per draw of t
        peaks = self.peaks(demo_text, "[t := normal(0, 1)] forall w:World. lt(hd(w), t)")
        assert peaks[1] < 1.5 * peaks[0], peaks
