"""Command-line front-end: subcommands, output contracts, exit codes."""

import json
import os
import random
import subprocess
import sys

import pytest

from monadlogic import (
    DISTRIBUTION,
    NONEMPTY_SET,
    Dist,
    EnumDomain,
    Interpretation,
    evaluate_sentence,
    load_interpretation,
    make_algebra,
    make_framework,
    parse_signature,
)
from monadlogic import effects, syntax
from monadlogic.errors import FormulaSyntaxError, NestingTooDeepError, SchemaError
from monadlogic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eval_args(demo_dir, name, framework, algebra, formula, *extra):
    argv = [
        "eval",
        "--sig", str(demo_dir / f"{name}.sig.json"),
        "--interp", str(demo_dir / f"{name}.interp.json"),
        "--framework", framework,
        "--algebra", algebra,
    ]
    if formula is not None:
        argv += ["--formula", formula]
    return (*argv, *extra)


class TestEval:
    def test_top_classical(self, capsys, demo_dir, tmp_path):
        sig = tmp_path / "sig.json"
        interp = tmp_path / "interp.json"
        sig.write_text('{"sorts": ["S"]}')
        interp.write_text('{"sorts": {"S": {"kind": "enum", "values": [0]}}}')
        code, out, _ = run(
            capsys, "eval", "--sig", str(sig), "--interp", str(interp),
            "--framework", "classical", "--algebra", "boolean", "--formula", "top",
        )
        assert code == 0 and out == "value=true\n"

    def test_mnist_dist_value(self, capsys, demo_dir):
        code, out, _ = run(
            capsys,
            *eval_args(demo_dir, "mnist", "dist", "product",
                       "[n1 := classify(im1)][n2 := classify(im2)] eq(add(n1, n2), 1)",
                       "--machine"),
        )
        assert code == 0 and out == "value=0.5\n"

    def test_weather_sampler_estimate(self, capsys, demo_dir):
        code, out, _ = run(
            capsys,
            *eval_args(demo_dir, "weather", "sampler", "product", None),
            "--formula-file", str(demo_dir / "weather.formula"),
            "--samples", "20000", "--seed", "42", "--machine",
        )
        assert code == 0
        keys = [pair.split("=")[0] for pair in out.strip().split(" ")]
        assert keys == ["estimate", "stderr", "samples", "seed"]  # fixed order
        fields = dict(pair.split("=") for pair in out.strip().split(" "))
        assert fields["samples"] == "20000" and fields["seed"] == "42"
        estimate, stderr = float(fields["estimate"]), float(fields["stderr"])
        assert abs(estimate - 0.25) <= 4 * max(stderr, 1e-9)

    def test_sampler_output_reproducible(self, capsys, demo_dir):
        argv = (
            *eval_args(demo_dir, "weather", "sampler", "product", None),
            "--formula-file", str(demo_dir / "weather.formula"),
            "--samples", "5000", "--seed", "9", "--machine",
        )
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0 and out_a == out_b

    def test_machine_mode_single_line(self, capsys, demo_dir):
        code, out, _ = run(
            capsys,
            *eval_args(demo_dir, "traffic", "dist", "product", None),
            "--formula-file", str(demo_dir / "traffic.formula"), "--machine",
        )
        assert code == 0 and out.count("\n") == 1
        assert out.startswith("value=")
        assert float(out.split("=")[1]) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_finite_only_diagnostic(self, capsys, demo_dir):
        code, out, err = run(
            capsys, *eval_args(demo_dir, "weather", "dist", "product", "top"),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: FiniteOnly")

    def test_incompatible_pairing(self, capsys, demo_dir):
        code, _, err = run(
            capsys, *eval_args(demo_dir, "mnist", "classical", "product", "top"),
        )
        assert code == 1 and "CarrierMismatch" in err

    def test_samples_require_sampler(self, capsys, demo_dir):
        code, _, err = run(
            capsys,
            *eval_args(demo_dir, "mnist", "dist", "product", "top", "--samples", "10", "--seed", "1"),
        )
        assert code == 1 and "Usage" in err

    def test_sampler_requires_samples(self, capsys, demo_dir):
        code, _, err = run(
            capsys,
            *eval_args(demo_dir, "weather", "sampler", "product", "top"),
        )
        assert code == 1 and "BudgetMissing" in err

    def test_zero_budget_rejected_when_nothing_draws(self, capsys, demo_dir):
        code, out, err = run(
            capsys,
            *eval_args(demo_dir, "weather", "sampler", "product", "forall w:World. eq(hd(w), hd(w))",
                       "--samples", "0", "--seed", "1", "--machine"),
        )
        assert (code, out) == (1, "") and err.startswith("error: BudgetMissing: ")

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_rejected(self, capsys, demo_dir, seed):
        # a masked seed would draw the stream of another seed
        code, out, err = run(
            capsys,
            *eval_args(demo_dir, "weather", "sampler", "product", "forall w:World. eq(hd(w), hd(w))",
                       "--samples", "10", "--seed", seed, "--machine"),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ParamOutOfRange: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_seeds_at_the_64_bit_edges_accepted(self, capsys, demo_dir, seed):
        code, out, _ = run(
            capsys,
            *eval_args(demo_dir, "weather", "sampler", "product", "forall w:World. eq(hd(w), hd(w))",
                       "--samples", "10", "--seed", seed, "--machine"),
        )
        assert code == 0 and out.endswith(f" seed={seed}\n")

    def test_open_formula_rejected(self, capsys, demo_dir):
        code, _, err = run(
            capsys, *eval_args(demo_dir, "mnist", "dist", "product", "eq(n, 1)"),
        )
        assert code == 1 and ("UnknownSymbol" in err or "SyntaxError" in err)

    def test_lp_after_transform(self, capsys, demo_dir, tmp_path):
        out_path = tmp_path / "argmaxed.json"
        code, _, _ = run(
            capsys, "transform",
            "--sig", str(demo_dir / "traffic.sig.json"),
            "--interp", str(demo_dir / "traffic.interp.json"),
            "--out", str(out_path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "eval",
            "--sig", str(demo_dir / "traffic.sig.json"),
            "--interp", str(out_path),
            "--framework", "lp", "--algebra", "priest",
            "--formula-file", str(demo_dir / "traffic.formula"),
        )
        assert code == 0 and out == "value=B\n"

    def test_missing_file(self, capsys, demo_dir):
        code, _, err = run(
            capsys, *eval_args(demo_dir, "nosuch", "dist", "product", "top"),
        )
        assert code == 1 and err.startswith("error: IO")

    def test_empty_interpretation_path_is_an_io_error(self, capsys, demo_dir):
        argv = list(eval_args(demo_dir, "mnist", "dist", "product", "[n := classify(im1)] eq(n, 1)"))
        argv[argv.index("--interp") + 1] = ""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: IO") and err.count("\n") == 1

    def test_usage_error_exit_one(self, capsys):
        assert main(["eval"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "classical -> boolean" in out and "sampler" in out


class TestTransform:
    def test_writes_set_rows(self, capsys, demo_dir, tmp_path):
        out_path = tmp_path / "lp.json"
        code, out, _ = run(
            capsys, "transform",
            "--sig", str(demo_dir / "traffic.sig.json"),
            "--interp", str(demo_dir / "traffic.interp.json"),
            "--out", str(out_path), "--machine",
        )
        assert code == 0 and out == f"out={out_path}\n"
        doc = json.loads(out_path.read_text())
        light_rows = {tuple(r[:-1]): r[-1] for r in doc["mfuncs"]["light"]["rows"]}
        assert sorted(light_rows[("c1",)]) == ["amber", "green", "red"]
        sig = parse_signature((demo_dir / "traffic.sig.json").read_text())
        again = load_interpretation(doc, sig, NONEMPTY_SET)
        assert again.mfuncs["light"].rows[("c1",)] == frozenset(("red", "amber", "green"))

    def test_continuous_interpretation_rejected(self, capsys, demo_dir, tmp_path):
        code, _, err = run(
            capsys, "transform",
            "--sig", str(demo_dir / "weather.sig.json"),
            "--interp", str(demo_dir / "weather.interp.json"),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1 and "FiniteOnly" in err

    def test_unknown_transform_name(self, capsys, demo_dir, tmp_path):
        code, _, err = run(
            capsys, "transform", "--name", "support",
            "--sig", str(demo_dir / "traffic.sig.json"),
            "--interp", str(demo_dir / "traffic.interp.json"),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1 and "Usage" in err


class TestWmcCommand:
    def test_independent_example(self, capsys, demo_dir):
        code, out, _ = run(
            capsys, "wmc",
            "--sig", str(demo_dir / "wmc.sig.json"),
            "--interp", str(demo_dir / "wmc.interp.json"),
            "--formula", "eq(x1, 1) & eq(x2, 1)", "--machine",
        )
        assert code == 0
        assert out.startswith("wmc=")
        assert float(out.strip().split("=")[1]) == pytest.approx(0.15, abs=1e-12)

    def test_top_counts_to_one(self, capsys, demo_dir):
        code, out, _ = run(
            capsys, "wmc",
            "--sig", str(demo_dir / "wmc.sig.json"),
            "--interp", str(demo_dir / "wmc.interp.json"),
            "--formula", "top",
        )
        assert code == 0 and abs(float(out.strip().split("=")[1]) - 1.0) <= 1e-12

    def test_oracle_lines_agree(self, capsys, demo_dir):
        code, out, _ = run(
            capsys, "wmc",
            "--sig", str(demo_dir / "wmc.sig.json"),
            "--interp", str(demo_dir / "wmc.interp.json"),
            "--formula", "eq(x1, 1) | eq(x2, 1)", "--oracle",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        wmc = float(lines[0].split("=")[1])
        oracle = float(lines[1].split("=")[1])
        assert abs(wmc - oracle) <= 1e-9

    def test_oracle_machine_single_line(self, capsys, demo_dir):
        code, out, _ = run(
            capsys, "wmc",
            "--sig", str(demo_dir / "wmc.sig.json"),
            "--interp", str(demo_dir / "wmc.interp.json"),
            "--formula", "!eq(x1, 1)", "--oracle", "--machine",
        )
        assert code == 0 and out.count("\n") == 1
        fields = dict(pair.split("=") for pair in out.strip().split(" "))
        assert set(fields) == {"wmc", "oracle"}
        assert abs(float(fields["wmc"]) - 0.7) <= 1e-9


class TestSelftest:
    def test_laws_pass(self, capsys):
        code, out, _ = run(capsys, "selftest", "laws")
        assert code == 0
        assert out.count(": ok") >= 4

    def test_all_prints_suite_names(self, capsys):
        # the suites are seeded, so a suite that checks fewer instances
        # than it did changes its line
        code, out, _ = run(capsys, "selftest", "all")
        assert code == 0
        assert out == (
            "monad-laws: ok (1809 passed, 0 failed)\n"
            "dist-normalization: ok (300 passed, 0 failed)\n"
            "monoid-laws: ok (10800 passed, 0 failed)\n"
            "classical-limit: ok (98 passed, 0 failed)\n"
            "lifted-closed-forms: ok (4030 passed, 0 failed)\n"
            "quantifier-consistency: ok (600 passed, 0 failed)\n"
            "aggregator-monotonicity: ok (600 passed, 0 failed)\n"
            "propositional-oracle: ok (3200 passed, 0 failed)\n"
            "selftest: ok (8/8 suites passed)\n"
        )

    def test_broken_bind_fails(self, capsys, monkeypatch):
        genuine = effects.bind

        def broken(c, k):
            out = genuine(c, k)
            if isinstance(out, Dist) and len(out.pairs) > 1:
                (v0, p0), (v1, p1), *rest = out.pairs
                return Dist([(v0, p1), (v1, p0), *rest])
            return out

        monkeypatch.setattr(effects, "bind", broken)
        code, out, _ = run(capsys, "selftest", "laws")
        assert code == 2 and "FAIL" in out


def test_console_entry_point(demo_dir):
    # the child imports the package from this checkout's sources
    src = str(demo_dir.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "monadlogic.cli", "eval",
         "--sig", str(demo_dir / "mnist.sig.json"),
         "--interp", str(demo_dir / "mnist.interp.json"),
         "--framework", "dist", "--algebra", "product",
         "--formula", "[n1 := classify(im1)][n2 := classify(im2)] eq(add(n1, n2), 1)",
         "--machine"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stdout == "value=0.5\n"


def test_eval_leaves_the_law_suites_unimported(demo_dir):
    src = str(demo_dir.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    argv = ["eval", "--sig", str(demo_dir / "mnist.sig.json"),
            "--interp", str(demo_dir / "mnist.interp.json"),
            "--framework", "dist", "--algebra", "product", "--formula", "top"]
    code = (f"import sys; from monadlogic.cli import main; main({argv!r}); "
            "print('monadlogic.selftest' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "value=1.0\nFalse\n"


def test_wmc_formula_file(capsys, demo_dir, tmp_path):
    formula_path = tmp_path / "query.formula"
    formula_path.write_text("eq(x1, 1) & eq(x2, 1)\n")
    code = main([
        "wmc",
        "--sig", str(demo_dir / "wmc.sig.json"),
        "--interp", str(demo_dir / "wmc.interp.json"),
        "--formula-file", str(formula_path), "--machine",
    ])
    out = capsys.readouterr().out
    assert code == 0 and abs(float(out.strip().split("=")[1]) - 0.15) <= 1e-12


def test_malformed_interpretation_is_a_diagnostic(capsys, demo_dir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main([
        "eval", "--sig", str(demo_dir / "mnist.sig.json"), "--interp", str(bad),
        "--framework", "dist", "--algebra", "product", "--formula", "top",
    ])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: Schema")


class TestBadDocumentBytes:
    """Documents nested past the JSON decoder's recursion limit, or not
    UTF-8, end in one coded error line rather than a traceback."""

    DEEP = "[" * 200000 + "]" * 200000

    def write(self, tmp_path, name, content):
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        return str(path)

    def argvs(self, sig, interp, formula_file=None):
        formula = ["--formula-file", formula_file] if formula_file else ["--formula", "top"]
        return [
            ["eval", "--sig", sig, "--interp", interp, "--framework", "dist",
             "--algebra", "product", *formula],
            ["wmc", "--sig", sig, "--interp", interp, *formula],
        ]

    def assert_error(self, capsys, argv, code_name):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {code_name}: ") and err.count("\n") == 1, err

    def test_deep_signature(self, capsys, demo_dir, tmp_path):
        sig = self.write(tmp_path, "sig.json", self.DEEP)
        interp = str(demo_dir / "wmc.interp.json")
        for argv in self.argvs(sig, interp):
            self.assert_error(capsys, argv, "SyntaxError")
        out = str(tmp_path / "out.json")
        self.assert_error(capsys, ["transform", "--sig", sig, "--interp", interp, "--out", out],
                          "SyntaxError")

    def test_deep_interpretation(self, capsys, demo_dir, tmp_path):
        sig = str(demo_dir / "wmc.sig.json")
        interp = self.write(tmp_path, "interp.json", self.DEEP)
        for argv in self.argvs(sig, interp):
            self.assert_error(capsys, argv, "Schema")
        out = str(tmp_path / "out.json")
        self.assert_error(capsys, ["transform", "--sig", sig, "--interp", interp, "--out", out],
                          "Schema")

    def test_non_utf8_documents(self, capsys, demo_dir, tmp_path):
        bad = self.write(tmp_path, "bad.json", b'{"sorts": ["\xff\xfe"]}')
        sig, interp = str(demo_dir / "wmc.sig.json"), str(demo_dir / "wmc.interp.json")
        for argv in self.argvs(bad, interp):
            self.assert_error(capsys, argv, "SyntaxError")
        for argv in self.argvs(sig, bad):
            self.assert_error(capsys, argv, "Schema")
        for argv in self.argvs(sig, interp, formula_file=bad):
            self.assert_error(capsys, argv, "SyntaxError")

    def test_library_entry_points(self, demo_dir):
        with pytest.raises(FormulaSyntaxError, match="malformed signature document"):
            parse_signature(self.DEEP)
        sig = parse_signature((demo_dir / "wmc.sig.json").read_text())
        with pytest.raises(SchemaError, match="malformed interpretation document"):
            load_interpretation(self.DEEP, sig, DISTRIBUTION)


class TestNestingTooDeep:
    """Nesting past the recursion limit ends in one coded error line."""

    def assert_nesting_error(self, code, out, err):
        assert code == 1 and out == ""
        assert err.startswith("error: NestingTooDeep: ") and err.count("\n") == 1

    def test_deeply_negated_formula(self, capsys, demo_dir):
        formula = "!" * 5000 + "top"
        self.assert_nesting_error(
            *run(capsys, *eval_args(demo_dir, "mnist", "dist", "product", formula))
        )

    def test_450_variable_wmc_chain_still_evaluates(self, capsys, tmp_path):
        # the line printed when each bind of the chain nested Python frames
        code, out, err = run(capsys, *chain_wmc_args(tmp_path, 450))
        assert (code, out, err) == (0, "wmc=0.40000000000000036\n", "")

    def test_deeply_nested_formulas_built_in_the_library(self):
        # the parser stops deep text first; a built formula reaches the evaluator
        interp = Interpretation(kind=DISTRIBUTION, sorts={"S": EnumDomain((0, 1))})
        fw = make_framework(DISTRIBUTION, make_algebra("product"))
        conj, quant = syntax.Top(), syntax.Top()
        for i in range(5000):
            conj = syntax.And(conj, syntax.Top())
            quant = syntax.Forall(f"x{i}", "S", quant)
        for f in (conj, quant):
            with pytest.raises(NestingTooDeepError):
                evaluate_sentence(f, fw, interp)


class TestLongWmcChains:
    """A run of binds compiles and evaluates in a loop, so a chain of any
    length evaluates; each variable of the chain converges on 0.4."""

    def test_1000_variable_chain(self, capsys, tmp_path):
        code, out, err = run(capsys, *chain_wmc_args(tmp_path, 1000))
        assert (code, out, err) == (0, "wmc=0.40000000000000036\n", "")

    def test_10000_variable_chain(self, capsys, tmp_path):
        code, out, err = run(capsys, *chain_wmc_args(tmp_path, 10000))
        assert code == 0 and err == "" and out.startswith("wmc=")
        assert abs(float(out[len("wmc="):]) - 0.4) <= 1e-12, out


class TestNonFiniteParameters:
    """NaN and infinite parameters of continuous draws end in one coded
    error line, never in truth values."""

    def eval_line(self, capsys, tmp_path, interp_text, formula):
        sig = tmp_path / "num.sig.json"
        interp = tmp_path / "num.interp.json"
        sig.write_text(json.dumps({
            "sorts": ["Num"],
            "mfuncs": {
                "normal": {"args": ["Num", "Num"], "result": "Num"},
                "uniform_real": {"args": ["Num", "Num"], "result": "Num"},
            },
            "preds": {p: {"args": ["Num", "Num"]} for p in ("eq", "lt", "gt")},
        }))
        interp.write_text(interp_text)
        return run(
            capsys, "eval", "--sig", str(sig), "--interp", str(interp),
            "--framework", "sampler", "--algebra", "product", "--formula", formula,
            "--samples", "1000", "--seed", "1", "--machine",
        )

    @staticmethod
    def interp_text(density='{"kind": "normal", "mu": 0, "sigma": 1}'):
        builtins = ", ".join(f'"{n}": {{"kind": "builtin", "name": "{n}"}}'
                             for n in ("normal", "uniform_real"))
        preds = ", ".join(f'"{p}": {{"kind": "builtin", "name": "{p}"}}' for p in ("eq", "lt", "gt"))
        return (
            '{"sorts": {"Num": {"kind": "real_interval", "lo": null, "hi": null, '
            f'"density": {density}}}}}, "mfuncs": {{{builtins}}}, "preds": {{{preds}}}}}'
        )

    def assert_error(self, result, code_name):
        code, out, err = result
        assert code == 1 and out == ""
        assert err.startswith(f"error: {code_name}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("formula", [
        "[t := uniform_real(-1e400, 1e400)] lt(t, 0) | gt(t, 0) | eq(t, 0)",
        "[t := normal(1e400, 1e400)] eq(t, t)",
        "[t := normal(0, 1e400)] eq(t, t)",
        "[t := normal(" + "9" * 400 + ", 1)] eq(t, t)",
    ])
    def test_builtin_parameters(self, capsys, tmp_path, formula):
        result = self.eval_line(capsys, tmp_path, self.interp_text(), formula)
        self.assert_error(result, "ParamOutOfRange")

    @pytest.mark.parametrize("density", [
        '{"kind": "normal", "mu": 0, "sigma": NaN}',
        '{"kind": "normal", "mu": Infinity, "sigma": 1}',
        '{"kind": "normal", "mu": -Infinity, "sigma": 1}',
    ])
    def test_density_parameters(self, capsys, tmp_path, density):
        result = self.eval_line(
            capsys, tmp_path, self.interp_text(density), "exists x:Num. eq(x, x)")
        self.assert_error(result, "Schema")

    def test_uniform_density_bounds_a_finite_distance_apart(self, capsys, tmp_path):
        # both bounds are finite floats, but hi - lo overflows, so every
        # point would be inf, outside the interval
        text = self.interp_text('{"kind": "uniform"}').replace(
            '"lo": null, "hi": null', '"lo": -1e308, "hi": 1e308')
        result = self.eval_line(capsys, tmp_path, text, "exists x:Num. lt(x, 0.5)")
        self.assert_error(result, "Schema")


def chain_wmc_args(tmp_path, n):
    """``wmc`` arguments for a binary chain x1 -> ... -> xn queried at xn."""
    entries = [{"name": "x1", "sort": "B", "parents": [],
                "rows": [[[[1, 0.5], [0, 0.5]]]]}]
    for i in range(2, n + 1):
        entries.append({
            "name": f"x{i}", "sort": "B", "parents": [f"x{i - 1}"],
            "rows": [[0, [[1, 0.2], [0, 0.8]]], [1, [[1, 0.7], [0, 0.3]]]],
        })
    sig = tmp_path / "chain.sig.json"
    interp = tmp_path / "chain.interp.json"
    sig.write_text(json.dumps({"sorts": ["B"], "preds": {"eq": {"args": ["B", "B"]}}}))
    interp.write_text(json.dumps({
        "sorts": {"B": {"kind": "enum", "values": [0, 1]}},
        "preds": {"eq": {"kind": "builtin", "name": "eq"}},
        "network": {"vars": entries},
    }))
    return ("wmc", "--sig", str(sig), "--interp", str(interp),
            "--formula", f"eq(x{n}, 1)", "--machine")


class TestSamplerFold:
    """A sampler quantifier folds its items in a loop, not one Python
    frame per item, so no number of interval points nests too deeply."""

    @pytest.mark.parametrize("points, formula", [
        (500, "forall x:Num. [t := normal(x, 1)] gt(t, -4)"),
        (2000, "exists x:Num. [h := bernoulli(0.001)] eq(h, 1)"),
    ], ids=["500-points", "2000-points"])
    def test_many_interval_points_give_an_estimate(self, capsys, demo_dir, points, formula):
        code, out, err = run(
            capsys,
            *eval_args(demo_dir, "weather", "sampler", "product", formula),
            "--samples", str(points), "--seed", "1", "--machine",
        )
        assert code == 0 and err == ""
        estimate, stderr, samples, seed = out.split()
        assert 0.0 < float(estimate.removeprefix("estimate=")) < 1.0
        assert float(stderr.removeprefix("stderr=")) > 0.0
        assert (samples, seed) == (f"samples={points}", "seed=1")


def mutants(text, count, seed):
    """``count`` seeded copies of ``text``, each with one or two
    characters inserted, deleted or replaced."""
    rng = random.Random(seed)
    alphabet = "01x. ():=,[]&|!->~"
    out = []
    for _ in range(count):
        chars = list(text)
        for _ in range(rng.randint(1, 2)):
            at = rng.randrange(len(chars) + 1)
            edit = rng.choice(("insert", "delete", "replace") if at < len(chars) else ("insert",))
            if edit == "insert":
                chars.insert(at, rng.choice(alphabet))
            elif edit == "delete":
                del chars[at]
            else:
                chars[at] = rng.choice(alphabet)
        out.append("".join(chars))
    return out


class TestFuzz:
    """Mutated demo formulas: every run exits 0, 1 or 2 without a traceback."""

    def check(self, capsys, argv):
        try:
            code, _, err = run(capsys, *argv)
        except Exception as exc:  # name the input that escaped main
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in (0, 1, 2) and "Traceback" not in err, argv

    @pytest.mark.parametrize("name, framework, extra", [
        ("weather", "sampler", ("--samples", "20", "--seed", "3")),
        ("traffic", "dist", ()),
        ("traffic", "sampler", ("--samples", "20", "--seed", "3")),
    ], ids=["weather-sampler", "traffic-dist", "traffic-sampler"])
    def test_eval(self, capsys, demo_dir, name, framework, extra):
        text = (demo_dir / f"{name}.formula").read_text().strip()
        for formula in mutants(text, 150, f"{name}:{framework}"):
            self.check(capsys, eval_args(demo_dir, name, framework, "product", formula, *extra))

    def test_wmc_oracle(self, capsys, demo_dir):
        for formula in mutants("eq(x1, 1) & eq(x2, 1)", 150, "wmc"):
            self.check(capsys, (
                "wmc", "--sig", str(demo_dir / "wmc.sig.json"),
                "--interp", str(demo_dir / "wmc.interp.json"),
                "--formula", formula, "--oracle",
            ))


# a replacement of each JSON type, drawn for a node of another type
REPLACEMENTS = {
    "number": (0, 1, -1, 2.5, 1e300),
    "string": ("", "x", "eq", "enum", "builtin"),
    "list": ([], [0], ["eq"], [[0, 1.0]], [1, 2]),
    "object": ({}, {"kind": "enum"}, {"x": 1}),
    "null": (None,),
    "bool": (True, False),
}


def json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if value is None:
        return "null"
    return {str: "string", list: "list", dict: "object"}[type(value)]


def json_paths(doc, path=()):
    """The path of every node below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


def document_mutants(doc, count, seed):
    """``count`` seeded copies of ``doc``, each with one node replaced by a
    value of another JSON type."""
    rng = random.Random(seed)
    paths = list(json_paths(doc))
    out = []
    for _ in range(count):
        path = rng.choice(paths)
        copy = json.loads(json.dumps(doc))
        parent = copy
        for key in path[:-1]:
            parent = parent[key]
        kind = rng.choice([t for t in REPLACEMENTS if t != json_type(parent[path[-1]])])
        parent[path[-1]] = rng.choice(REPLACEMENTS[kind])
        out.append(copy)
    return out


class TestDocumentFuzz:
    """Demo interpretations with one node of another JSON type: every run
    exits 0 or 1 without a traceback."""

    @pytest.mark.parametrize("name, argv", [
        ("weather", ("eval", "--framework", "sampler", "--algebra", "product",
                     "--formula-file", "weather.formula", "--samples", "20", "--seed", "3")),
        ("traffic", ("eval", "--framework", "dist", "--algebra", "product",
                     "--formula-file", "traffic.formula")),
        ("mnist", ("eval", "--framework", "dist", "--algebra", "product",
                   "--formula", "[n1 := classify(im1)][n2 := classify(im2)] eq(add(n1, n2), 1)")),
        ("wmc", ("wmc", "--formula", "eq(x1, 1) & eq(x2, 1)", "--oracle")),
    ], ids=["weather", "traffic", "mnist", "wmc"])
    def test_interpretation(self, capsys, demo_dir, tmp_path, name, argv):
        argv = [str(demo_dir / a) if a.endswith(".formula") else a for a in argv]
        doc = json.loads((demo_dir / f"{name}.interp.json").read_text())
        path = tmp_path / f"{name}.interp.json"
        for mutant in document_mutants(doc, 75, f"doc:{name}"):
            path.write_text(json.dumps(mutant))
            full = [*argv, "--sig", str(demo_dir / f"{name}.sig.json"), "--interp", str(path)]
            try:
                code, _, err = run(capsys, *full)
            except Exception as exc:  # name the document that escaped main
                pytest.fail(f"{json.dumps(mutant)} raised {exc!r}")
            assert code in (0, 1) and "Traceback" not in err, (json.dumps(mutant), err)
