#!/usr/bin/env python3
"""Re-measure the single-call figures quoted in ROADMAP.md.

    python3 perfbench/anchors.py

Prints microseconds per weather draw, microseconds per mnist evaluation,
and the time of one weighted model count on binary chains of n = 14 and
16 variables, by the bind chain and by ``wmc_bruteforce``.  Each figure
is the median of five timings in one process after one warm-up.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from monadlogic import (  # noqa: E402
    DISTRIBUTION,
    SAMPLER,
    evaluate_sentence,
    load_interpretation,
    load_network,
    make_framework,
    parse_algebra_string,
    parse_formula,
    parse_signature,
    wmc_bruteforce,
    wmc_build,
)

REPEATS = 5


def median_time(fn):
    fn()
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def demo(name):
    with open(os.path.join(ROOT, "demo", name), encoding="utf-8") as handle:
        return handle.read()


def chain_system(n, rng):
    doc = {
        "sorts": {"B": {"kind": "enum", "values": [0, 1]}},
        "preds": {"eq": {"kind": "builtin", "name": "eq"}},
        "network": {"vars": []},
    }
    for i in range(1, n + 1):
        parent_rows = [[]] if i == 1 else [[0], [1]]
        rows = []
        for pa in parent_rows:
            p = round(rng.uniform(0.1, 0.9), 6)
            rows.append([*pa, [[1, p], [0, round(1.0 - p, 6)]]])
        doc["network"]["vars"].append(
            {"name": f"x{i}", "sort": "B", "parents": [f"x{i - 1}"] if i > 1 else [], "rows": rows})
    sig = parse_signature(json.dumps({"sorts": ["B"], "preds": {"eq": {"args": ["B", "B"]}}}))
    interp = load_interpretation(doc, sig, DISTRIBUTION)
    network, sig2, interp2 = load_network(doc, sig, interp)
    query = parse_formula(f"eq(x1, 1) & eq(x{n}, 0)", sig2, free=network.free)
    return network, interp2, query


def main():
    rng = random.Random(0)
    rows = []

    sig = parse_signature(demo("weather.sig.json"))
    interp = load_interpretation(demo("weather.interp.json"), sig, SAMPLER)
    formula = parse_formula(demo("weather.formula"), sig)
    fw = make_framework(SAMPLER, parse_algebra_string("product"))
    draws = 50000
    t = median_time(lambda: evaluate_sentence(formula, fw, interp, budget=draws, seed=42))
    rows.append(("weather sampler, per draw", f"{t / draws * 1e6:.2f} us"))

    sig = parse_signature(demo("mnist.sig.json"))
    interp = load_interpretation(demo("mnist.interp.json"), sig, DISTRIBUTION)
    formula = parse_formula("[n1 := classify(im1)][n2 := classify(im2)] eq(add(n1, n2), 1)", sig)
    fw = make_framework(DISTRIBUTION, parse_algebra_string("product"))
    evals = 20000

    def mnist():
        for _ in range(evals):
            evaluate_sentence(formula, fw, interp)

    t = median_time(mnist)
    rows.append(("mnist dist, per evaluation", f"{t / evals * 1e6:.2f} us"))

    for n in (14, 16):
        network, interp, query = chain_system(n, rng)
        binds = median_time(lambda: evaluate_sentence(wmc_build(network, query), fw, interp))
        brute = median_time(lambda: wmc_bruteforce(network, interp, query))
        rows.append((f"WMC chain n={n}, bind chain", f"{binds * 1e3:.1f} ms"))
        rows.append((f"WMC chain n={n}, wmc_bruteforce", f"{brute * 1e3:.1f} ms"))

    print(f"# {os.cpu_count()} cores, Python {platform.python_version()}")
    for name, value in rows:
        print(f"{name:34s} {value}")


if __name__ == "__main__":
    main()
