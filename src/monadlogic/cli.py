"""Batch command-line front-end.

Subcommands: ``eval`` (evaluate a closed formula), ``transform`` (argmax a
distributional interpretation into a non-deterministic one), ``wmc``
(weighted model counting over a network section), and ``selftest`` (run
the law suites).  Machine mode emits exactly one space-separated
``key=value`` line per invocation, floats with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import effects, model, semantics, transforms
from .algebra import LP3, parse_algebra_string
from .errors import BudgetMissingError, EngineError, FormulaSyntaxError, SchemaError, UsageError
from .syntax import parse_formula, parse_signature

_FRAMEWORKS = {
    "classical": effects.IDENTITY,
    "lp": effects.NONEMPTY_SET,
    "dist": effects.DISTRIBUTION,
    "sampler": effects.SAMPLER,
}

_MATRIX = """\
framework/algebra compatibility:
  classical -> boolean
  lp        -> priest
  dist      -> product | sproduct | ltn:p=<float> | ltnq:q=<float> | stl:r=<float>
  sampler   -> product (lifted boolean connectives; estimates match the
               product algebra and need --samples and --seed)
"""


def _read(path: str, error=SchemaError) -> str:
    """A document's text; bytes that are not UTF-8 raise ``error``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text: {exc}") from None


def _read_json(path: str):
    try:
        return json.loads(_read(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"malformed document {path}: {exc}") from exc


def _fmt_float(x: float, machine: bool) -> str:
    return format(x, ".17g") if machine else repr(x)


def _fmt_value(value, machine: bool) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, LP3):
        return value.name
    return _fmt_float(float(value), machine)


def _load_system(args):
    sig = parse_signature(_read(args.sig, FormulaSyntaxError))
    return sig, model.load_interpretation(_read_json(args.interp), sig, _FRAMEWORKS[args.framework])


def _formula_text(args) -> str:
    if args.formula is not None:
        return args.formula
    if args.formula_file is not None:
        return _read(args.formula_file, FormulaSyntaxError)
    raise UsageError("one of --formula or --formula-file is required")


def cmd_eval(args) -> int:
    # validate the framework/algebra pairing before touching any files
    monad_kind = _FRAMEWORKS[args.framework]
    algebra = parse_algebra_string(args.algebra)
    framework = semantics.make_framework(monad_kind, algebra)
    sig, interp = _load_system(args)
    sampling = effects.monad(monad_kind).draws
    if sampling and (args.samples is None or args.seed is None):
        raise BudgetMissingError("the sampler framework requires --samples and --seed")
    if not sampling and (args.samples is not None or args.seed is not None):
        raise UsageError("--samples/--seed apply to the sampler framework only")
    formula = parse_formula(_formula_text(args), sig)
    report = semantics.evaluate_sentence(
        formula, framework, interp, budget=args.samples, seed=args.seed
    )
    if sampling:
        print(
            f"estimate={_fmt_float(report.value, args.machine)} "
            f"stderr={_fmt_float(report.stderr, args.machine)} "
            f"samples={report.samples} seed={report.seed}"
        )
    else:
        print(f"value={_fmt_value(report.value, args.machine)}")
    return 0


def cmd_transform(args) -> int:
    if args.name != "argmax":
        raise UsageError(f"unknown transformation {args.name!r}")
    sig = parse_signature(_read(args.sig, FormulaSyntaxError))
    interp = model.load_interpretation(_read_json(args.interp), sig, effects.DISTRIBUTION)
    out = transforms.argmax_interpretation(interp)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(model.dump_interpretation(out), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"out={args.out}" if args.machine else f"wrote {args.out}")
    return 0


def cmd_wmc(args) -> int:
    sig = parse_signature(_read(args.sig, FormulaSyntaxError))
    doc = _read_json(args.interp)
    interp = model.load_interpretation(doc, sig, effects.DISTRIBUTION)
    network, sig2, interp2 = transforms.load_network(doc, sig, interp)
    formula = parse_formula(_formula_text(args), sig2, free=network.free)
    built = transforms.wmc_build(network, formula)
    framework = semantics.make_framework(
        effects.DISTRIBUTION, parse_algebra_string("product")
    )
    report = semantics.evaluate_sentence(built, framework, interp2)
    wmc_text = f"wmc={_fmt_float(report.value, args.machine)}"
    if not args.oracle:
        print(wmc_text)
        return 0
    oracle = transforms.wmc_bruteforce(network, interp2, formula)
    oracle_text = f"oracle={_fmt_float(oracle, args.machine)}"
    if args.machine:
        print(f"{wmc_text} {oracle_text}")
    else:
        print(wmc_text)
        print(oracle_text)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest  # only this command needs the law suites
    lines, ok = run_selftest(args.scope)
    for line in lines:
        print(line)
    failed = sum(1 for line in lines if "FAIL" in line)
    print(f"selftest: {'ok' if ok else 'FAIL'} ({len(lines) - failed}/{len(lines)} suites passed)")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monadlogic",
        description="Evaluate first-order formulas with computational binds "
        "under pluggable computation monads and truth algebras.",
        epilog=_MATRIX,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_framework=True):
        p.add_argument("--sig", required=True, help="signature document (JSON)")
        p.add_argument("--interp", required=True, help="interpretation document (JSON)")
        if with_framework:
            p.add_argument(
                "--framework", required=True, choices=sorted(_FRAMEWORKS), help="monad kind"
            )
            p.add_argument("--algebra", required=True, help="truth algebra selection string")
        p.add_argument("--formula", help="formula text")
        p.add_argument("--formula-file", help="file containing the formula")
        p.add_argument("--machine", action="store_true", help="machine-readable output")

    p_eval = sub.add_parser("eval", help="evaluate a closed formula")
    common(p_eval)
    p_eval.add_argument("--samples", type=int, help="sample budget N (sampler framework)")
    p_eval.add_argument("--seed", type=int, help="random seed (sampler framework)")
    p_eval.set_defaults(run=cmd_eval)

    p_tr = sub.add_parser("transform", help="transform an interpretation between frameworks")
    p_tr.add_argument("--sig", required=True)
    p_tr.add_argument("--interp", required=True)
    p_tr.add_argument("--name", default="argmax", help="transformation name")
    p_tr.add_argument("--out", required=True, help="output interpretation path")
    p_tr.add_argument("--machine", action="store_true")
    p_tr.set_defaults(run=cmd_transform)

    p_wmc = sub.add_parser("wmc", help="weighted model counting over a network section")
    common(p_wmc, with_framework=False)
    p_wmc.add_argument("--oracle", action="store_true", help="also print the brute-force sum")
    p_wmc.set_defaults(run=cmd_wmc)

    p_self = sub.add_parser("selftest", help="run the law self-test suites")
    p_self.add_argument("scope", nargs="?", default="all", choices=("laws", "all"))
    p_self.set_defaults(run=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.run(args)
    except EngineError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
