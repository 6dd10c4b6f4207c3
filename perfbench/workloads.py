"""The benchmark's three workloads: generated inputs, queries and checks.

Each workload draws its documents from the workload seed, writes them as
JSON files, and computes the expected answers with ``reference`` before
the program is imported.  ``setup`` then reads and loads the files
through the program's public API (this is what ``setup_s`` times),
``queries`` returns the timed operations, and ``check`` compares one
round of answers with the references.

Query costs depend on the sizes below, not on the seed: the seed picks
table values, probabilities and which variables a query names, while the
shape of every sentence, network and Monte Carlo budget stays fixed.
"""

from __future__ import annotations

import json
import math
import os
import random

import reference as ref

# (full, smoke) sizes
SIZES = {
    "exact_quant": {"entities": (48, 5)},
    "exact_wmc": {"chain": (15, 6), "fanin": (9, 5)},
    "sampler_mc": {
        "images": (20000, 40),
        "weather_draws": (3000, 300),
        "mnist_draws": (3000, 300),
        "chain_draws": (800, 100),
        "chain_length": (8, 4),
        "interval_points": (90, 30),
    },
}

DEMO_MNIST = "[n1 := classify(im1)][n2 := classify(im2)] eq(add(n1, n2), 1)"
DEMO_WMC = "eq(x1, 1) & eq(x2, 1)"
DEMO_WEATHER = (
    "forall w:World. [h := bernoulli(hd(w))][t := normal(mu(w), sigma(w))] "
    "((eq(h, 1) & lt(t, 0)) | (eq(h, 0) & gt(t, 15)))"
)
WEATHER_CLI_DRAWS = 2000
FANIN = 5  # most parents of a variable in the ternary network; the first three are roots


def V(name):
    return ("var", name)


def A(pred, *args):
    return ("atom", pred, args)


def M(mpred, *args):
    return ("matom", mpred, args)


def lit(value):
    return ("lit", value)


def app(func, *args):
    return ("app", func, args)


def bind(var, mfunc, args, body):
    return ("bind", var, mfunc, tuple(args), body)


def forall(var, sort, body):
    return ("forall", var, sort, body)


def exists(var, sort, body):
    return ("exists", var, sort, body)


def AND(a, b):
    return ("and", a, b)


def OR(a, b):
    return ("or", a, b)


def IMP(a, b):
    return ("imp", a, b)


def NOT(a):
    return ("not", a)


def dual(f):
    """``exists v. F`` -> ``forall v. !F`` (its de Morgan dual)."""
    _, var, sort, body = f
    return forall(var, sort, NOT(body))


def _write(outdir, name, doc):
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _probs(rng, k, floor=0.15, gap=0.02):
    """A random distribution over k outcomes, every entry above 0, whose
    largest entry beats the second by at least ``gap`` (no argmax ties)."""
    while True:
        raw = [floor + rng.random() for _ in range(k)]
        total = sum(raw)
        ps = [x / total for x in raw]
        top = sorted(ps, reverse=True)
        if top[0] - top[1] >= gap:
            return ps


def _coin(rng, tie):
    """P(true) of a probabilistic atom; ``tie`` gives an argmax tie."""
    if tie:
        return 0.5
    while True:
        p = round(0.1 + 0.8 * rng.random(), 6)
        if abs(p - 0.5) >= 0.05:
            return p


def _dist_rows(table):
    """Native rows {args: [(v, p)]} -> document rows [[*args, [[v, p], ...]]]."""
    return [[*args, [[v, p] for v, p in row]] for args, row in table.items()]


def _table_rows(table):
    return [[*args, value] for args, value in table.items()]


def sig_doc(sorts, funcs=(), mfuncs=(), preds=(), mpreds=()):
    return {
        "sorts": list(sorts),
        "funcs": {n: {"args": list(a), "result": r} for n, a, r in funcs},
        "mfuncs": {n: {"args": list(a), "result": r} for n, a, r in mfuncs},
        "preds": {n: {"args": list(a)} for n, a in preds},
        "mpreds": {n: {"args": list(a)} for n, a in mpreds},
    }


def kb_from_doc(doc):
    """Read an interpretation document into the reference's native KB."""

    def weights(spec):
        values = spec["values"]
        w = spec.get("weights")
        if w is None:
            return [(1.0, v) for v in values]
        if w == "mean":
            return [(1.0 / len(values), v) for v in values]
        return [(float(w[str(v)]), v) for v in values]

    def impl(spec):
        if spec["kind"] == "builtin":
            return spec["name"]
        return {tuple(row[:-1]): row[-1] for row in spec["rows"]}

    def cimpl(spec):
        return {tuple(row[:-1]): [tuple(vp) for vp in row[-1]] for row in spec["rows"]}

    return {
        "sorts": {n: weights(s) for n, s in doc["sorts"].items() if s["kind"] == "enum"},
        "funcs": {n: impl(s) for n, s in doc.get("funcs", {}).items()},
        "preds": {n: impl(s) for n, s in doc.get("preds", {}).items()},
        "mfuncs": {n: cimpl(s) for n, s in doc.get("mfuncs", {}).items()},
        "mpreds": {n: cimpl(s) for n, s in doc.get("mpreds", {}).items()},
    }


def network_from_doc(doc):
    values = {n: s["values"] for n, s in doc["sorts"].items()}
    return [
        (v["name"], values[v["sort"]], tuple(v["parents"]),
         {tuple(r[:-1]): [tuple(vp) for vp in r[-1]] for r in v["rows"]})
        for v in doc["network"]["vars"]
    ]


def demo_references(root):
    """Reference answers of the README demo commands, from the demo files."""
    demo = os.path.join(root, "demo")

    def doc(name):
        return json.loads(_read(os.path.join(demo, name)))

    mnist = bind("n1", "classify", [app("im1")],
                 bind("n2", "classify", [app("im2")],
                      A("eq", app("add", V("n1"), V("n2")), lit(1))))
    traffic = forall("x", "Crossing",
                     bind("l", "light", [V("x")],
                          bind("d", "drive", [V("x"), V("l")],
                               OR(AND(A("eqa", V("d"), app("go")), NOT(A("eqc", V("l"), app("red")))),
                                  AND(NOT(A("eqa", V("d"), app("go"))), A("eqc", V("l"), app("red")))))))
    wmc = AND(A("eq", V("x1"), lit(1)), A("eq", V("x2"), lit(1)))
    weather = doc("weather.interp.json")["funcs"]
    hd, mu, sigma = (weather[k]["rows"][0][1] for k in ("hd", "mu", "sigma"))
    return {
        "mnist": ref.evaluate(mnist, kb_from_doc(doc("mnist.interp.json")), ref.Prob("residual")),
        "traffic": ref.PRIEST_NAMES[ref.evaluate(traffic, kb_from_doc(doc("traffic.interp.json")), ref.Priest())],
        "wmc": ref.network_probability(network_from_doc(doc("wmc.interp.json")), wmc),
        "weather": ref.weather_probability(hd, mu, sigma),
    }


# the README answers the reference evaluators must reproduce on the demos
DEMO_ANSWERS = {"mnist": 0.5, "traffic": "B", "wmc": 0.15, "weather": 0.25}


def _parse_line(text):
    """The fields of a ``--machine`` output line."""
    return dict(item.split("=", 1) for item in text.split())


def _near(a, b, tol=1e-9):
    return abs(a - b) <= tol


class Workload:
    """Common plumbing; subclasses fill in generation, set-up and checks."""

    name = ""

    def __init__(self, seed, smoke, outdir, root):
        self.seed = seed
        self.size = {k: v[1 if smoke else 0] for k, v in SIZES[self.name].items()}
        self.rng = random.Random(f"{self.name}:{seed}")
        self.outdir = outdir
        self.root = root
        self.demo = demo_references(root)
        self.generate()

    def cli_commands(self):
        """(argv, check) pairs; ``check`` maps the child's stdout to a list
        of problems."""
        return []

    def cli_prepare(self):
        """Child commands run once, untimed, before the timed ones."""
        return []


# exact_quant


class ExactQuant(Workload):
    """Quantified sentences over a ULLER-style KB under the exact semantics."""

    name = "exact_quant"

    ALGEBRAS = (
        # label, monad kind, algebra selection, loaded interpretation
        ("classical", "identity", "boolean", "pm_identity"),
        ("pm_product", "distribution", "product", "pm"),
        ("priest", "nonempty_set", "priest", "argmax"),
        ("product", "distribution", "product", "prob"),
        ("sproduct", "distribution", "sproduct", "prob"),
        ("ltn1", "distribution", "ltn:p=1", "prob"),
        ("ltn2", "distribution", "ltn:p=2", "prob"),
        ("ltn4", "distribution", "ltn:p=4", "prob"),
        ("ltnq", "distribution", "ltnq:q=0.75", "prob"),
        ("stl", "distribution", "stl:r=2", "stl"),
    )

    def generate(self):
        rng, n = self.rng, self.size["entities"]
        ents = [f"e{i}" for i in range(n)]
        labels = [0, 1, 2]
        # guarantees that keep every probability reference strictly inside
        # (0, 1): p and q are true on e0 and false on e1, f fixes both,
        # r is irreflexive and holds on each successor, rel holds for label
        # 0 and fails for label 1, and every classifier row is positive
        p = {(e,): rng.random() < 0.5 for e in ents}
        q = {(e,): rng.random() < 0.5 for e in ents}
        p[("e0",)] = q[("e0",)] = True
        p[("e1",)] = q[("e1",)] = False
        f = {(e,): rng.choice(ents) for e in ents}
        f[("e0",)], f[("e1",)] = "e0", "e1"
        r = {(a, b): rng.random() < 0.4 for a in ents for b in ents}
        for i, a in enumerate(ents):
            r[(a, a)] = False
            r[(a, ents[(i + 1) % n])] = True
        good = {(0,): True, (1,): False, (2,): True}
        rel = {}
        for e in ents:
            rel[(e, 0)], rel[(e, 1)], rel[(e, 2)] = True, False, rng.random() < 0.5
        cls = {}
        for i, e in enumerate(ents):
            if i % 4 == 3:  # an argmax tie between two labels
                ps = [0.4, 0.4, 0.2]
                rng.shuffle(ps)
            else:
                ps = _probs(rng, 3)
            cls[(e,)] = list(zip(labels, ps))
        trans = {(l,): list(zip(labels, _probs(rng, 3))) for l in labels}
        m = {(e,): _coin(rng, i % 5 == 4) for i, e in enumerate(ents)}
        s = {(a, b): _coin(rng, (i * n + j) % 5 == 4)
             for i, a in enumerate(ents) for j, b in enumerate(ents)}

        def coin_rows(table):
            return {k: [(True, c), (False, round(1.0 - c, 6))] for k, c in table.items()}

        def robustness_rows(table):
            return {k: [(round(0.2 + 1.8 * rng.random(), 6), c),
                        (round(-0.2 - 1.8 * rng.random(), 6), round(1.0 - c, 6))]
                    for k, c in table.items()}

        def point_mass(table):
            out = {}
            for k, row in table.items():
                best = max(pr for _, pr in row)
                out[k] = [(next(v for v, pr in row if pr == best), 1.0)]
            return out

        base = {
            "sorts": {"E": [(1.0 / n, e) for e in ents], "L": [(1.0, l) for l in labels]},
            "funcs": {"f": f},
            "preds": {"p": p, "q": q, "r": r, "good": good, "rel": rel, "same": "eq"},
        }
        prob = {**base, "mfuncs": {"cls": cls, "trans": trans},
                "mpreds": {"m": coin_rows(m), "s": coin_rows(s)}}
        pm = {**base, "mfuncs": {"cls": point_mass(cls), "trans": point_mass(trans)},
              "mpreds": {"m": point_mass(prob["mpreds"]["m"]), "s": point_mass(prob["mpreds"]["s"])}}
        stl = {**base, "mfuncs": prob["mfuncs"],
               "mpreds": {"m": robustness_rows(m), "s": robustness_rows(s)}}
        self.kbs = {"prob": prob, "pm": pm, "stl": stl}

        sig = sig_doc(
            ["E", "L"],
            funcs=[("f", ["E"], "E")],
            mfuncs=[("cls", ["E"], "L"), ("trans", ["L"], "L")],
            preds=[("p", ["E"]), ("q", ["E"]), ("r", ["E", "E"]), ("good", ["L"]),
                   ("rel", ["E", "L"]), ("same", ["L", "L"])],
            mpreds=[("m", ["E"]), ("s", ["E", "E"])],
        )

        def interp_doc(kb):
            return {
                "sorts": {"E": {"kind": "enum", "values": ents, "weights": "mean"},
                          "L": {"kind": "enum", "values": labels}},
                "funcs": {"f": {"kind": "table", "rows": _table_rows(f)}},
                "preds": {
                    **{k: {"kind": "table", "rows": _table_rows(kb["preds"][k])}
                       for k in ("p", "q", "r", "good", "rel")},
                    "same": {"kind": "builtin", "name": "eq"},
                },
                "mfuncs": {k: {"kind": "ctable", "rows": _dist_rows(v)} for k, v in kb["mfuncs"].items()},
                "mpreds": {k: {"kind": "ctable", "rows": _dist_rows(v)} for k, v in kb["mpreds"].items()},
            }

        self.paths = {"sig": _write(self.outdir, "quant.sig.json", sig)}
        for kb in ("prob", "pm", "stl"):
            self.paths[kb] = _write(self.outdir, f"quant.{kb}.json", interp_doc(self.kbs[kb]))

        self.sentences = self._sentences()
        self.plan = []  # (qid, sentence id, algebra label)
        for label, _, _, _ in self.ALGEBRAS:
            for sid, (formula, kind) in self.sentences.items():
                if self._applies(label, kind):
                    self.plan.append((f"{sid}/{label}", sid, label))
        self.expected = self._references()

    def _sentences(self):
        """Sentence id -> (formula, kind).  Kinds: "main" (no mpred atom),
        "matom" (mpred atoms), "flat" (existential over a quantifier-free
        body), "stl" (numeric mpred atoms only), each with a dual form
        "<kind>_dual" for sentences rooted in an existential."""
        x, y = V("x"), V("y")
        good_of = lambda e: bind("l", "cls", [e], A("good", V("l")))
        same_cls = bind("l", "cls", [x], bind("k", "cls", [y], A("same", V("l"), V("k"))))
        rel_of = lambda a, b: bind("l", "cls", [a], A("rel", b, V("l")))

        def trans_chain(e, depth):
            names = ["k", "j", "i"][:depth]
            body = A("good", V(names[-1]))
            prev = ["l"] + names
            for name, src in reversed(list(zip(names, prev))):
                body = bind(name, "trans", [V(src)], body)
            return bind("l", "cls", [e], body)

        out = {
            "a": (forall("x", "E", exists("y", "E", AND(same_cls, NOT(A("r", x, y))))), "main"),
            "b": (exists("x", "E", forall("y", "E", IMP(A("r", x, y), good_of(y)))), "main"),
            "c": (forall("x", "E", forall("y", "E", IMP(AND(A("p", x), A("p", y)), same_cls))), "main"),
            "d": (exists("x", "E", exists("y", "E", AND(trans_chain(x, 1), rel_of(x, y)))), "main"),
            "e": (forall("x", "E", AND(OR(A("p", x), good_of(x)),
                                       exists("y", "E", AND(rel_of(y, x), NOT(A("q", app("f", y))))))), "main"),
            "f": (exists("x", "E", trans_chain(x, 3)), "flat"),
            "g": (exists("x", "E", OR(AND(A("q", x), good_of(x)), trans_chain(x, 3))), "flat"),
            "h": (forall("x", "E", exists("y", "E", OR(AND(A("r", x, y), M("s", x, y)), M("m", y)))), "matom"),
            "i": (exists("x", "E", forall("y", "E", IMP(A("p", y), AND(M("m", x), M("s", x, y))))), "matom"),
            "u": (forall("x", "E", exists("y", "E", OR(M("s", x, y), M("m", y)))), "stl"),
            "v": (exists("x", "E", forall("y", "E", IMP(M("m", x), M("s", x, y)))), "stl"),
            "w": (exists("x", "E", exists("y", "E", AND(M("s", x, y), NOT(M("m", y))))), "stl"),
        }
        for sid, (formula, kind) in list(out.items()):
            if formula[0] == "exists":
                out[sid + "!"] = (dual(formula), kind + "_dual")
        return out

    @staticmethod
    def _applies(label, kind):
        base = kind.replace("_dual", "")
        if label == "stl":
            return base == "stl"
        if base == "stl":
            return False
        if label in ("classical", "pm_product"):
            return base != "matom"  # no classical reading of mpred atoms
        if label == "product":
            return not kind.endswith("_dual")  # residual negation pins duals to 0
        if label == "ltn4":
            return kind == "flat"
        return True

    def _references(self):
        logics = {
            "classical": ("pm", ref.Classical()),
            "priest": ("prob", ref.Priest()),
            "product": ("prob", ref.Prob("residual")),
            "sproduct": ("prob", ref.Prob("strong")),
            "ltn1": ("prob", ref.Prob("strong", 1.0)),
            "ltn2": ("prob", ref.Prob("strong", 2.0)),
            "ltn4": ("prob", ref.Prob("strong", 4.0)),
        }
        out = {}
        for qid, sid, label in self.plan:
            if label in logics:
                kb, logic = logics[label]
                out[qid] = ref.evaluate(self.sentences[sid][0], self.kbs[kb], logic)
        return out

    def setup(self, ml):
        sig = ml.syntax.parse_signature(_read(self.paths["sig"]))
        prob = ml.model.load_interpretation(_read(self.paths["prob"]), sig, ml.effects.DISTRIBUTION)
        pm_text = _read(self.paths["pm"])
        self.interps = {
            "prob": prob,
            "argmax": ml.transforms.argmax_interpretation(prob),
            "pm_identity": ml.model.load_interpretation(pm_text, sig, ml.effects.IDENTITY),
            "pm": ml.model.load_interpretation(pm_text, sig, ml.effects.DISTRIBUTION),
            "stl": ml.model.load_interpretation(_read(self.paths["stl"]), sig, ml.effects.DISTRIBUTION),
        }
        self.formulas = {sid: ml.syntax.parse_formula(ref.render(f), sig)
                         for sid, (f, _) in self.sentences.items()}
        self.frameworks = {
            label: ml.semantics.make_framework(kind, ml.algebra.parse_algebra_string(alg))
            for label, kind, alg, _ in self.ALGEBRAS
        }

    def queries(self, ml, wrap=lambda fw: fw):
        interp_of = {label: self.interps[kb] for label, _, _, kb in self.ALGEBRAS}
        out = []
        for qid, sid, label in self.plan:
            f, fw, interp = self.formulas[sid], wrap(self.frameworks[label]), interp_of[label]
            out.append((qid, lambda f=f, fw=fw, interp=interp:
                        ml.semantics.evaluate_sentence(f, fw, interp).value))
        return out

    def check(self, values):
        problems = []
        for qid, sid, label in self.plan:
            v = values.get(qid)
            if v is None:
                continue  # a failed query, counted by the runner
            if label == "classical":
                if v is not self.expected[qid]:
                    problems.append(f"{qid}: {v!r} != reference {self.expected[qid]!r}")
            elif label == "priest":
                if getattr(v, "name", None) != ref.PRIEST_NAMES[self.expected[qid]]:
                    problems.append(f"{qid}: {v!r} != reference {ref.PRIEST_NAMES[self.expected[qid]]}")
            elif label == "stl":
                if not math.isfinite(v):
                    problems.append(f"{qid}: robustness {v!r} is not finite")
            else:
                if not 0.0 <= v <= 1.0:
                    problems.append(f"{qid}: {v!r} outside [0, 1]")
                if label == "pm_product":
                    classical = values.get(f"{sid}/classical")
                    if classical is not None and not _near(v, 1.0 if classical else 0.0, 1e-12):
                        problems.append(f"{qid}: {v!r} differs from the classical value {classical!r}")
                elif qid in self.expected:
                    want = self.expected[qid]
                    if not 0.0 < want < 1.0:
                        problems.append(f"{qid}: reference {want!r} is not strictly inside (0, 1)")
                    if not _near(v, want):
                        problems.append(f"{qid}: {v!r} != reference {want!r}")
        # de Morgan duality, and monotonicity of LTN existentials in p
        for sid, (_, kind) in self.sentences.items():
            if not kind.endswith("_dual"):
                continue
            ex = sid[:-1]
            for label in ("sproduct", "ltn1", "ltn2", "ltnq", "stl"):
                a, b = values.get(f"{ex}/{label}"), values.get(f"{sid}/{label}")
                if a is None or b is None:
                    continue
                want = -b if label == "stl" else 1.0 - b
                if not abs(a - want) <= 1e-9 * max(1.0, abs(a)):
                    problems.append(f"{ex}/{label}: exists {a!r} is not the dual of forall-not {b!r}")
        for sid, (_, kind) in self.sentences.items():
            if kind == "flat":
                seq = [values.get(f"{sid}/{label}") for label in ("ltn1", "ltn2", "ltn4")]
                if None not in seq and not all(lo <= hi + 1e-12 for lo, hi in zip(seq, seq[1:])):
                    problems.append(f"{sid}: ltn existential decreases as p grows: {seq!r}")
        return problems

    def cli_prepare(self):
        return [["transform", "--sig", "demo/traffic.sig.json", "--interp",
                 "demo/traffic.interp.json", "--out", self._traffic_lp()]]

    def _traffic_lp(self):
        return os.path.relpath(os.path.join(self.outdir, "traffic.lp.json"), self.root)

    def cli_commands(self):
        mnist, traffic = self.demo["mnist"], self.demo["traffic"]

        def check_mnist(out):
            v = float(_parse_line(out)["value"])
            return [] if _near(v, mnist, 1e-12) else [f"mnist demo printed {out!r}, reference {mnist!r}"]

        def check_traffic(out):
            v = _parse_line(out)["value"]
            return [] if v == traffic else [f"traffic demo printed {out!r}, reference {traffic!r}"]

        return [
            (["eval", "--sig", "demo/mnist.sig.json", "--interp", "demo/mnist.interp.json",
              "--framework", "dist", "--algebra", "product", "--formula", DEMO_MNIST, "--machine"],
             check_mnist),
            (["eval", "--sig", "demo/traffic.sig.json", "--interp", self._traffic_lp(),
              "--framework", "lp", "--algebra", "priest", "--formula-file", "demo/traffic.formula",
              "--machine"], check_traffic),
        ]


# exact_wmc


class ExactWmc(Workload):
    """Weighted model counting by bind chains on generated networks."""

    name = "exact_wmc"

    def generate(self):
        rng = self.rng
        n = self.size["chain"]
        chain = []
        for i in range(1, n + 1):
            parents = (f"x{i - 1}",) if i > 1 else ()
            rows = {pa: list(zip((1, 0), _probs(rng, 2, gap=0.0)))
                    for pa in ([()] if i == 1 else [(0,), (1,)])}
            chain.append((f"x{i}", [0, 1], parents, rows))
        k = self.size["fanin"]
        names = [chr(ord("a") + i) for i in range(k)]
        tern = [0, 1, 2]
        fanin = []
        for i, name in enumerate(names):
            parents = tuple(names[max(0, i - FANIN):i]) if i >= 3 else ()
            rows = {pa: list(zip(tern, _probs(rng, 3, floor=0.1, gap=0.0)))
                    for pa in ref.assignments([tern] * len(parents))}
            fanin.append((name, tern, parents, rows))
        self.networks = {"chain": ("B", "eq", chain), "fanin": ("T", "eqt", fanin)}

        def pick(lo, hi, avoid=()):
            return rng.choice([i for i in range(lo, hi) if i not in avoid])

        i = pick(2, n)
        j = pick(2, n, avoid=(i,))
        last = names[-1]
        c = rng.choice(names[3:-1])
        marg = lambda pred, var, value: A(pred, V(var), lit(value))
        queries = {
            "chain": [marg("eq", f"x{n}", 1), marg("eq", f"x{i}", rng.randint(0, 1)),
                      AND(marg("eq", "x1", 1), marg("eq", f"x{n}", 0)),
                      AND(marg("eq", f"x{i}", 1), marg("eq", f"x{j}", 1))],
            "fanin": [marg("eqt", last, rng.randint(0, 2)),
                      AND(marg("eqt", c, rng.randint(0, 2)), marg("eqt", last, rng.randint(0, 2)))],
        }
        self.plan = []  # (qid, network, query, complement qid or None)
        for net, qs in queries.items():
            for idx, query in enumerate(qs):
                self.plan.append((f"{net}{idx}", net, query, f"{net}{idx}!"))
                self.plan.append((f"{net}{idx}!", net, NOT(query), None))
        self.expected = {qid: ref.network_probability(self.networks[net][2], query)
                         for qid, net, query, _ in self.plan}
        self.paths = {}
        for net, (sort, pred, variables) in self.networks.items():
            values = variables[0][1]
            self.paths[net] = (
                _write(self.outdir, f"wmc.{net}.sig.json", sig_doc([sort], preds=[(pred, [sort, sort])])),
                _write(self.outdir, f"wmc.{net}.interp.json", {
                    "sorts": {sort: {"kind": "enum", "values": values}},
                    "preds": {pred: {"kind": "builtin", "name": "eq"}},
                    "network": {"vars": [
                        {"name": name, "sort": sort, "parents": list(parents),
                         "rows": _dist_rows(rows)}
                        for name, _, parents, rows in variables]},
                }),
            )

    def setup(self, ml):
        self.loaded = {}
        for net, (sig_path, interp_path) in self.paths.items():
            sig = ml.syntax.parse_signature(_read(sig_path))
            doc = json.loads(_read(interp_path))
            interp = ml.model.load_interpretation(doc, sig, ml.effects.DISTRIBUTION)
            self.loaded[net] = ml.transforms.load_network(doc, sig, interp)
        self.formulas = {}
        for qid, net, query, _ in self.plan:
            network, sig2, _ = self.loaded[net]
            self.formulas[qid] = ml.syntax.parse_formula(ref.render(query), sig2, free=network.free)
        self.framework = ml.semantics.make_framework(
            ml.effects.DISTRIBUTION, ml.algebra.parse_algebra_string("product"))

    def queries(self, ml, wrap=lambda fw: fw):
        fw = wrap(self.framework)
        out = []
        for qid, net, _, _ in self.plan:
            network, _, interp = self.loaded[net]
            f = self.formulas[qid]
            out.append((qid, lambda f=f, network=network, interp=interp: ml.semantics.evaluate_sentence(
                ml.transforms.wmc_build(network, f), fw, interp).value))
        return out

    def check(self, values):
        problems = []
        for qid, _, _, complement in self.plan:
            v, want = values.get(qid), self.expected[qid]
            if not 0.0 < want < 1.0:
                problems.append(f"{qid}: reference {want!r} is not strictly inside (0, 1)")
            if v is None:
                continue
            if not _near(v, want):
                problems.append(f"{qid}: {v!r} != elimination {want!r}")
            if complement in values and not _near(v + values[complement], 1.0):
                problems.append(f"{qid}: P(q) + P(!q) = {v + values[complement]!r}")
        return problems

    def cli_commands(self):
        want = self.demo["wmc"]

        def check(out):
            fields = _parse_line(out)
            if all(_near(float(fields[k]), want) for k in ("wmc", "oracle")):
                return []
            return [f"wmc demo printed {out!r}, reference {want!r}"]

        return [(["wmc", "--sig", "demo/wmc.sig.json", "--interp", "demo/wmc.interp.json",
                  "--formula", DEMO_WMC, "--oracle", "--machine"], check)]


# sampler_mc


def within_stderr(estimate, stderr, closed_form, k=5.0):
    return stderr > 0.0 and abs(estimate - closed_form) <= k * stderr


class SamplerMc(Workload):
    """Seeded Monte Carlo estimates under the sampler framework."""

    name = "sampler_mc"

    def generate(self):
        rng, size = self.rng, self.size
        docs = {}
        self.plan = []  # (qid, system, formula text, budget, sampler seed, closed form)

        def seeds(k):
            return [rng.randrange(2**31) for _ in range(k)]

        # the weather demo formula on a generated world
        hd, mu, sigma = round(rng.uniform(0.3, 0.7), 6), round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(0.8, 1.5), 6)
        docs["weather"] = (
            sig_doc(["World", "Num"],
                    funcs=[("hd", ["World"], "Num"), ("mu", ["World"], "Num"), ("sigma", ["World"], "Num")],
                    mfuncs=[("bernoulli", ["Num"], "Num"), ("normal", ["Num", "Num"], "Num")],
                    preds=[("eq", ["Num", "Num"]), ("lt", ["Num", "Num"]), ("gt", ["Num", "Num"])]),
            {"sorts": {"World": {"kind": "enum", "values": ["w0"]},
                       "Num": {"kind": "real_interval", "lo": None, "hi": None,
                               "density": {"kind": "normal", "mu": 0, "sigma": 1}}},
             "funcs": {k: {"kind": "table", "rows": [["w0", v]]}
                       for k, v in (("hd", hd), ("mu", mu), ("sigma", sigma))},
             "mfuncs": {"bernoulli": {"kind": "builtin", "name": "bernoulli"},
                        "normal": {"kind": "builtin", "name": "normal"}},
             "preds": {k: {"kind": "builtin", "name": k} for k in ("eq", "lt", "gt")}},
        )
        for i, s in enumerate(seeds(2)):
            self.plan.append((f"weather{i}", "weather", DEMO_WEATHER, size["weather_draws"], s,
                              ref.weather_probability(hd, mu, sigma)))

        # MNIST addition over a large classifier table
        images = [f"img{i}" for i in range(size["images"])]
        digits = list(range(10))
        classify = {(img,): list(zip(digits, (round(p, 9) for p in _probs(rng, 10, floor=0.05, gap=0.0))))
                    for img in images}
        for row in classify.values():  # rounded rows must still sum to 1
            row[-1] = (row[-1][0], round(1.0 - sum(p for _, p in row[:-1]), 9))
        pairs = [(rng.choice(images), rng.choice(images), rng.randint(6, 12)) for _ in range(4)]
        docs["mnist"] = (
            sig_doc(["Image", "Digit"],
                    funcs=[*((f"{ab}{k}", [], "Image") for k in range(4) for ab in "ab"),
                           ("add", ["Digit", "Digit"], "Digit")],
                    mfuncs=[("classify", ["Image"], "Digit")],
                    preds=[("eq", ["Digit", "Digit"])]),
            {"sorts": {"Image": {"kind": "enum", "values": images},
                       "Digit": {"kind": "enum", "values": digits}},
             "funcs": {**{f"a{k}": {"kind": "table", "rows": [[a]]} for k, (a, _, _) in enumerate(pairs)},
                       **{f"b{k}": {"kind": "table", "rows": [[b]]} for k, (_, b, _) in enumerate(pairs)},
                       "add": {"kind": "builtin", "name": "add"}},
             "mfuncs": {"classify": {"kind": "ctable", "rows": _dist_rows(classify)}},
             "preds": {"eq": {"kind": "builtin", "name": "eq"}}},
        )
        for k, ((a, b, target), s) in enumerate(zip(pairs, seeds(4))):
            text = f"[n1 := classify(a{k})][n2 := classify(b{k})] eq(add(n1, n2), {target})"
            self.plan.append((f"mnist{k}", "mnist", text, size["mnist_draws"], s,
                              ref.digit_sum_probability(classify[(a,)], classify[(b,)], target)))

        # a hidden-Markov-style chain of categorical binds
        states, length = [0, 1, 2], size["chain_length"]
        init = list(zip(states, _probs(rng, 3, gap=0.0)))
        step = {h: list(zip(states, _probs(rng, 3, gap=0.0))) for h in states}
        emit = {h: list(zip((0, 1), _probs(rng, 2, gap=0.0))) for h in states}
        docs["chain"] = (
            sig_doc(["H", "O"], mfuncs=[("init", [], "H"), ("step", ["H"], "H"), ("emit", ["H"], "O")],
                    preds=[("eqo", ["O", "O"])]),
            {"sorts": {"H": {"kind": "enum", "values": states}, "O": {"kind": "enum", "values": [0, 1]}},
             "mfuncs": {"init": {"kind": "ctable", "rows": _dist_rows({(): init})},
                        "step": {"kind": "ctable", "rows": _dist_rows({(h,): r for h, r in step.items()})},
                        "emit": {"kind": "ctable", "rows": _dist_rows({(h,): r for h, r in emit.items()})}},
             "preds": {"eqo": {"kind": "builtin", "name": "eq"}}},
        )
        hops = "".join(f"[h{t} := step(h{t - 1})]" for t in range(2, length + 1))
        for observed, s in zip((1, 0), seeds(2)):
            text = f"[h1 := init()]{hops}[o := emit(h{length})] eqo(o, {observed})"
            self.plan.append((f"chain{observed}", "chain", text, size["chain_draws"], s,
                              ref.chain_forward(init, step, emit, length, observed)))

        # an existential over a real interval with a body that ignores the point
        k = size["interval_points"]
        docs["interval"] = (
            sig_doc(["R", "Num"], mfuncs=[("bernoulli", ["Num"], "Num")], preds=[("eq", ["Num", "Num"])]),
            {"sorts": {"R": {"kind": "real_interval", "lo": 0, "hi": 1, "density": {"kind": "uniform"}},
                       "Num": {"kind": "real_interval", "lo": None, "hi": None}},
             "mfuncs": {"bernoulli": {"kind": "builtin", "name": "bernoulli"}},
             "preds": {"eq": {"kind": "builtin", "name": "eq"}}},
        )
        for i, s in enumerate(seeds(2)):
            # 1 - (1 - p)^k between 0.3 and 0.7
            p = round(rng.uniform(1.0 - 0.7 ** (1.0 / k), 1.0 - 0.3 ** (1.0 / k)), 6)
            self.plan.append((f"interval{i}", "interval", f"exists x:R. [h := bernoulli({p!r})] eq(h, 1)",
                              k, s, ref.any_of_bernoullis(p, k)))

        self.paths = {name: (_write(self.outdir, f"mc.{name}.sig.json", sig),
                             _write(self.outdir, f"mc.{name}.interp.json", interp))
                      for name, (sig, interp) in docs.items()}

    def setup(self, ml):
        self.systems = {}
        for name, (sig_path, interp_path) in self.paths.items():
            sig = ml.syntax.parse_signature(_read(sig_path))
            self.systems[name] = (sig, ml.model.load_interpretation(_read(interp_path), sig, ml.effects.SAMPLER))
        self.formulas = {qid: ml.syntax.parse_formula(text, self.systems[system][0])
                         for qid, system, text, _, _, _ in self.plan}
        self.framework = ml.semantics.make_framework(
            ml.effects.SAMPLER, ml.algebra.parse_algebra_string("product"))

    def queries(self, ml, wrap=lambda fw: fw):
        fw = wrap(self.framework)
        out = []
        for qid, system, _, budget, seed, _ in self.plan:
            f, interp = self.formulas[qid], self.systems[system][1]

            def run(f=f, interp=interp, budget=budget, seed=seed):
                report = ml.semantics.evaluate_sentence(f, fw, interp, budget=budget, seed=seed)
                return report.value, report.stderr

            out.append((qid, run))
        return out

    def check(self, values):
        problems = []
        for qid, _, _, _, _, closed in self.plan:
            if not 0.0 < closed < 1.0:
                problems.append(f"{qid}: closed form {closed!r} is not strictly inside (0, 1)")
            if qid not in values:
                continue
            est, stderr = values[qid]
            if not within_stderr(est, stderr, closed):
                problems.append(f"{qid}: estimate {est!r} (stderr {stderr!r}) is not within "
                                f"5 stderr of {closed!r}")
        return problems

    def cli_commands(self):
        want = self.demo["weather"]

        def check(out):
            fields = _parse_line(out)
            if within_stderr(float(fields["estimate"]), float(fields["stderr"]), want):
                return []
            return [f"weather demo printed {out!r}, closed form {want!r}"]

        return [(["eval", "--sig", "demo/weather.sig.json", "--interp", "demo/weather.interp.json",
                  "--framework", "sampler", "--algebra", "product", "--formula-file",
                  "demo/weather.formula", "--samples", str(WEATHER_CLI_DRAWS), "--seed", "42",
                  "--machine"], check)]


WORKLOADS = {w.name: w for w in (ExactQuant, ExactWmc, SamplerMc)}
