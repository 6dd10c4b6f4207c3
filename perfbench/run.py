#!/usr/bin/env python3
"""Benchmark of monadlogic: exact quantifiers, WMC bind chains and Monte
Carlo draws, timed end to end and, in a traced run, layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact_quant --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``query_ms``,
``query_p90_ms``, ``cli_ms``, ``peak_rss_mb``); with ``--trace 1`` they are
the per-layer ones, and the spans are written to
``perfbench/out/trace-<workload>.json``.  ``--smoke`` shrinks every input
so that a run takes seconds.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

from tracing import Tracer  # noqa: E402
from workloads import DEMO_ANSWERS, WORKLOADS  # noqa: E402

CLI_SHARE = 0.4  # of the measured time, spent on CLI child processes
MIN_QUERIES = 100  # leaves ten samples above the 90th percentile
MIN_CLI = 10
CHILD_TIMEOUT = 60
CLI_PROBES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import monadlogic.cli; "
    "print((time.perf_counter() - t) * 1e3)"
)


class Tally:
    """Operations attempted and failed, and problems found in outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what):
        self.failed += 1
        print(f"failed: {what}", file=sys.stderr)


def import_program():
    """Import monadlogic from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import monadlogic
    from monadlogic import algebra, effects, model, semantics, syntax, transforms

    if os.path.dirname(os.path.dirname(os.path.abspath(monadlogic.__file__))) != SRC:
        raise RuntimeError(f"monadlogic was imported from {monadlogic.__file__}, not {SRC}")
    return types.SimpleNamespace(algebra=algebra, effects=effects, model=model,
                                 semantics=semantics, syntax=syntax, transforms=transforms)


def run_round(queries, tally, timings=None, call=None):
    """Run every query once; returns {query id: value} and the round's time."""
    values = {}
    total = 0.0
    for qid, fn in queries:
        tally.attempted += 1
        start = perf_counter()
        try:
            value = call(qid, fn) if call else fn()
        except Exception:  # one failed query is counted; the run goes on
            tally.fail(f"{qid}\n{traceback.format_exc()}")
            continue
        elapsed = perf_counter() - start
        total += elapsed
        if timings is not None:
            timings.append((qid, elapsed))
        values[qid] = value
    return values, total


def same_as(baseline, values, tally, what):
    for qid, value in values.items():
        if value != baseline.get(qid):
            tally.problems.append(f"{qid}: {what} gave {value!r}, first round {baseline.get(qid)!r}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, tally):
    """One monadlogic process; returns (seconds, stdout) or None if it failed."""
    tally.attempted += 1
    start = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        tally.fail(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    return elapsed, proc.stdout.strip()


def cli_argv(argv):
    return ["-m", "monadlogic.cli", *argv]


def warm_up(workload, queries, tally):
    """The first round, checked against the benchmark's references."""
    baseline, _ = run_round(queries, tally)
    tally.problems += workload.check(baseline)
    for name, want in DEMO_ANSWERS.items():
        got = workload.demo[name]
        if got != want and not (isinstance(want, float) and abs(got - want) <= 1e-12):
            tally.problems.append(f"reference for the {name} demo is {got!r}, README says {want!r}")
    return baseline


def timed_run(workload, seconds, tally):
    start = perf_counter()
    ml = import_program()
    workload.setup(ml)
    setup_s = perf_counter() - start

    queries = workload.queries(ml)
    baseline = warm_up(workload, queries, tally)
    for argv in workload.cli_prepare():
        run_child(cli_argv(argv), tally)
    commands = workload.cli_commands()
    first = {}

    def cli_round():
        for i, (argv, check) in enumerate(commands):
            done = run_child(cli_argv(argv), tally)
            if done is None:
                continue
            elapsed, out = done
            cli_times.append(elapsed)
            if first.setdefault(i, out) != out:
                tally.problems.append(f"{argv[0]} printed {out!r}, first run {first[i]!r}")
            tally.problems += check(out)

    # query rounds and CLI rounds alternate over the whole run, so that a
    # burst of load from outside touches both kinds of sample alike
    timings, cli_times = [], []
    rounds = cli_rounds = 0
    cli_spent = 0.0
    start = perf_counter()
    while (perf_counter() - start < seconds or rounds * len(queries) < MIN_QUERIES
           or cli_rounds * len(commands) < MIN_CLI):
        values, _ = run_round(queries, tally, timings)
        rounds += 1
        same_as(baseline, values, tally, "a later round")
        while cli_spent < CLI_SHARE * (perf_counter() - start) or not cli_rounds:
            cli_start = perf_counter()
            cli_round()
            cli_rounds += 1
            cli_spent += perf_counter() - cli_start

    ms = [t * 1e3 for _, t in timings]
    metrics = {
        "setup_s": (setup_s, "s"),
        "query_ms": (statistics.median(ms), "ms"),
        "query_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "cli_ms": (statistics.median(cli_times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_query = {}
    for qid, t in timings:
        per_query.setdefault(qid, []).append(t * 1e3)
    details = {
        "query_samples": len(ms),
        "cli_ms_each": [t * 1e3 for t in cli_times],
        "query_median_ms": {qid: statistics.median(ts) for qid, ts in per_query.items()},
    }
    return metrics, details


def traced_run(workload, seconds, tally):
    ml = import_program()
    tracer = Tracer(ml)
    tracer.install()
    workload.setup(ml)
    tracer.uninstall()

    queries = workload.queries(ml)
    baseline = warm_up(workload, queries, tally)
    overheads = []
    start = perf_counter()
    while perf_counter() - start < seconds or not overheads:
        # spans and counters of the first traced round are kept; later
        # rounds trace into a spare tracer and only add overhead samples
        t = tracer if not overheads else Tracer(ml)
        _, untraced = run_round(queries, tally)
        traced_queries = workload.queries(ml, wrap=t.wrap_framework)
        t.install()
        try:
            values, traced = run_round(traced_queries, tally, call=t.call)
        finally:
            t.uninstall()
        same_as(baseline, values, tally, "the traced run")
        overheads.append((traced - untraced) * 1e3)

    argv = workload.cli_commands()[0][0]
    imports = []
    for _ in range(CLI_PROBES):
        done = run_child(["-c", IMPORT_PROBE], tally)
        if done is not None:
            imports.append(float(done[1]))
    from monadlogic import cli

    mains = []
    for _ in range(CLI_PROBES):
        tally.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()) as out:
            start = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - start
        if code != 0:
            tally.fail(f"cli.main({argv!r}) returned {code}: {out.getvalue()!r}")
            continue
        mains.append(elapsed * 1e3)

    metrics = {k: (v["value"], v["unit"]) for k, v in tracer.metrics().items()}
    metrics["cli.import_ms"] = (statistics.median(imports), "ms")
    metrics["cli.main_ms"] = (statistics.median(mains), "ms")
    metrics["trace.overhead_ms"] = (statistics.median(overheads), "ms")
    path = os.path.join(OUT, f"trace-{workload.name}.json")
    tracer.write(path, {"workload": workload.name, "seed": workload.seed,
                        "metrics": {k: v for k, (v, _) in metrics.items()}})
    return metrics, {"trace_file": os.path.relpath(path, ROOT), "traced_rounds": len(overheads)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for a quick check")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "monadlogic", "__init__.py")):
        print(f"error: no monadlogic sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # the demo commands name their files relative to the root
    outdir = os.path.join(OUT, args.workload)
    os.makedirs(outdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, outdir, ROOT)
    tally = Tally()
    run = traced_run if args.trace else timed_run
    metrics, details = run(workload, args.seconds, tally)

    for problem in tally.problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "cpus": os.cpu_count(), "python": platform.python_version(),
              "problems": tally.problems[:100], **details}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
