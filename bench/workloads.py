"""The four workloads: seeded inputs, one timed pass, and the check of every answer.

An item is one analyze call, one enumerated class through analyze, one CSV
row, or one oracle check. A pass runs every item of the workload once; the
runner repeats passes. Item latency covers only calls into unilap; the
benchmark's own work (relabelling, checking, bookkeeping) falls outside it.
Every check uses checks.py, which shares no code with unilap, plus golden
outputs stored in golden/.
"""

import csv
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
from spans import NULL

DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# invariants of a graph that any correct analyze() must reproduce exactly
INVARIANTS = ("n", "girth", "diameter", "count01", "mult1", "main_bound")


class Item:
    __slots__ = ("id", "kind", "params", "graph")

    def __init__(self, id, kind, params, graph=None):
        self.id, self.kind, self.params, self.graph = id, kind, params, graph


class Budget:
    """Admits items until a deadline or an item count is reached."""

    def __init__(self, deadline=None, limit=None):
        self.deadline, self.limit, self.used = deadline, limit, 0

    def take(self):
        if self.limit is not None and self.used >= self.limit:
            return False
        if self.deadline is not None and perf_counter() >= self.deadline:
            return False
        self.used += 1
        return True


def raised(exc):
    return {"raised": f"{type(exc).__name__}: {exc}"}


def is_raised(out):
    return isinstance(out, dict) and "raised" in out


def load_golden(name):
    path = GOLDEN_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


# ---------------------------------------------------------------------------
# seeded graph generators (the benchmark's own, so inputs do not move when
# unilap's generators change)


def random_tree_edges(rng, n):
    return [(rng.randrange(i), i) for i in range(1, n)]


def random_unicyclic_edges(rng, n):
    edges = random_tree_edges(rng, n)
    present = set(edges)
    while True:
        a, b = sorted(rng.sample(range(n), 2))
        if (a, b) not in present:
            return edges + [(a, b)]


def random_connected_edges(rng, n, extra):
    edges = random_tree_edges(rng, n)
    present = {tuple(sorted(e)) for e in edges}
    extra = min(extra, n * (n - 1) // 2 - (n - 1))
    while extra:
        a, b = sorted(rng.sample(range(n), 2))
        if (a, b) not in present:
            present.add((a, b))
            extra -= 1
    return sorted(present)


def random_compass(rng, n):
    """Valid (n, r, r', t) with the diametral condition r' + min(t, s) >= r // 2."""
    while True:
        r = rng.randrange(3, n // 2 + 1)
        rp = rng.randrange(1, r // 2 + 1)
        t = rng.randrange(1, n - r)
        if rp + min(t, n - r - t) >= r // 2:
            return n, r, rp, t


def compass_params(n):
    """Every valid compass (n, r, r', t), lexicographic in (r, r', t)."""
    return [(n, r, rp, t) for r in range(3, n - 1) for rp in range(1, r // 2 + 1)
            for t in range(1, n - r) if rp + min(t, n - r - t) >= r // 2]


def family_graph(u, params):
    fam, n = params["family"], params["n"]
    if fam == "lollipop":
        return u.make_lollipop(n, params["r"])
    if fam == "compass":
        return u.make_compass(u.CompassParams(n, params["r"], params["r_prime"], params["t"]))
    if fam == "cycle":
        return u.make_cycle(n)
    if fam == "path":
        return u.make_path(n)
    raise ValueError(f"no generator for {fam!r}")


# ---------------------------------------------------------------------------
# item kinds: what one item calls, and how its answer is checked


def summarize_report(rep):
    return {
        "n": rep.n, "girth": rep.girth, "diameter": rep.diameter, "count01": rep.count01,
        "mult1": rep.mult1, "gamma": rep.gamma, "main_bound": rep.main_bound,
        "refined_bound": rep.refined_bound, "verdicts": dict(rep.verdicts),
    }


def run_item(u, item, tr):
    """The calls into unilap that make up one list item; returns its JSON-able answer."""
    g, p = item.graph, item.params
    if item.kind == "analyze":
        with tr.span("bounds.analyze"):
            return summarize_report(u.analyze(g))
    if item.kind == "interval":
        a, b, c = (Fraction(p[k]) for k in "abc")
        out = []
        for lo, hi in ((a, b), (b, c), (a, c)):
            with tr.span("spectra.count_interval"):
                out.append(u.count_interval(g, lo, hi).count)
        return out
    if item.kind == "interlacing":
        with tr.span("spectra.check_interlacing"):
            return u.check_interlacing(g, tuple(p["edge"]))
    if item.kind == "charpoly":
        fam, n = p["family"], p["n"]
        with tr.span("charpoly.recurrence"):
            if fam == "lollipop":
                rec = u.phi_lollipop(n, p["r"])
            else:
                rec = u.phi_cycle(n) if fam == "cycle" else u.phi_path(n)
        with tr.span("charpoly.det_oracle"):
            det = u.charpoly_det(g)
        return [list(rec.coeffs), list(det.coeffs)]
    if item.kind == "witness":
        with tr.span("witnesses.certify"):
            if p["family"] == "lollipop":
                w = u.lollipop_one_witness(p["n"], p["r"])
            else:
                w = u.compass_one_witness(u.CompassParams(p["n"], p["r"], p["r_prime"], p["t"]))
        with tr.span("spectra.multiplicity"):
            mult = u.multiplicity(g, 1)
        return [None if w is None else list(w.entries), mult]
    raise ValueError(f"unknown item kind {item.kind!r}")


def check_report(item, out):
    """Independent checks of one analyze() answer."""
    g, p = item.graph, item.params
    n, edges = g.n, g.edges()
    adj = checks.adjacency(n, edges)
    d, r = checks.diameter(n, adj), checks.cycle_length(n, adj)
    problems = []
    if (out["n"], out["girth"], out["diameter"]) != (n, r, d):
        problems.append(f"n/girth/diameter {out['n']}/{out['girth']}/{out['diameter']} != {n}/{r}/{d}")
    count01, mult1, gamma = out["count01"], out["mult1"], out["gamma"]
    problems += checks.count01_problems(checks.eigenvalues(n, edges), count01, mult1)
    bound = checks.main_bound(d, r)
    if out["main_bound"] != bound or count01 < bound or out["verdicts"].get("main_bound") is not True:
        problems.append(f"main bound {out['main_bound']} (expected {bound}) not met by {count01}")
    if gamma is not None and (count01 > gamma or out["verdicts"].get("hedetniemi") is not True):
        problems.append(f"hedetniemi verdict wrong: count01={count01} gamma={gamma}")
    if any(v is not True for v in out["verdicts"].values()):
        problems.append(f"verdict false: {out['verdicts']}")
    if n <= 10:
        gamma_ref = checks.domination_number(n, adj)
        if gamma != gamma_ref:
            problems.append(f"gamma {gamma} != exhaustive-search gamma {gamma_ref}")
    if r == n:
        if (count01, mult1) != (checks.cycle_count01(n), 2 if n % 6 == 0 else 0):
            problems.append(f"cycle closed form broken: count01={count01} mult1={mult1}")
    fam = p.get("family")
    if fam == "lollipop":
        want = checks.lollipop_count01(n, p["r"])
        if d != n - checks.ceil_div(p["r"], 2) or (want is not None and count01 != want):
            problems.append(f"lollipop closed form broken: d={d} count01={count01} want={want}")
        want_mult = checks.lollipop_mult1(n, p["r"])
        if want_mult is not None and mult1 != want_mult:
            problems.append(f"lollipop mult1={mult1}, closed form says {want_mult}")
    elif fam == "compass" and d != p["r_prime"] + n - p["r"]:
        problems.append(f"compass diameter {d} != r' + t + s")
    return problems


def check_oracle(item, out):
    g, p = item.graph, item.params
    n, edges = g.n, g.edges()
    if item.kind == "interval":
        ab, bc, ac = out
        problems = [] if ab + bc == ac else [f"additivity: {ab} + {bc} != {ac}"]
        a, b, c = (Fraction(p[k]) for k in "abc")
        fam = p["family"]
        eigs = checks.eigenvalues(n, edges)
        for got, lo, hi in ((ab, a, b), (bc, b, c), (ac, a, c)):
            if fam == "path":
                ref = checks.path_count(n, lo, hi)
            elif fam == "cycle":
                ref = checks.cycle_count(n, lo, hi)
            else:
                ref = checks.float_count(eigs, lo, hi)
            if ref is not None and got != ref:
                problems.append(f"count[{lo},{hi})={got}, reference says {ref}")
        return problems
    if item.kind == "interlacing":
        edge = tuple(p["edge"])
        if out is not True or not checks.interlacing_holds(n, edges, edge):
            return [f"interlacing reported {out}"]
        return []
    if item.kind == "charpoly":
        rec, det = out
        problems = [] if rec == det else ["recurrence and determinant oracle disagree"]
        return problems + checks.charpoly_problems(n, edges, rec)
    if item.kind == "witness":
        entries, mult = out
        problems = []
        if entries is None or not checks.is_eigenvector_one(n, edges, entries):
            problems.append("no certified eigenvector for eigenvalue 1")
        want = checks.lollipop_mult1(n, p["r"]) if p["family"] == "lollipop" else None
        if mult < 1 or (want is not None and mult != want):
            problems.append(f"multiplicity(1)={mult}, expected {want or '>= 1'}")
        return problems
    raise ValueError(f"unknown item kind {item.kind!r}")


def check_item(item, out):
    """Independent checks of one answer; golden outputs are compared by the workload."""
    if is_raised(out):
        return [out["raised"]]
    if item.kind == "analyze":
        return check_report(item, out)
    if item.kind == "sweep-row":
        return check_row(item.params["family"], out)
    return check_oracle(item, out)


def golden_view(kind, out):
    """The part of an answer that golden outputs pin down."""
    if kind == "analyze":
        return {k: out[k] for k in INVARIANTS}
    if kind == "witness":
        return [out[0] is not None, out[1]]
    return out


def corrupt(out):
    """A wrong answer of the same shape, for the self-test."""
    if isinstance(out, dict):
        return dict(out, count01=out["count01"] + 1)
    if isinstance(out, list):
        return [out[0] + 1] + out[1:]
    fields = out.rstrip("\n").split(",")
    fields[CSV_COLUMNS.index("count01")] = str(int(fields[CSV_COLUMNS.index("count01")]) + 1)
    return ",".join(fields) + "\n"


def invariant_row(out):
    """An analyze() answer as the list the exhaustive golden multiset holds."""
    return [out[k] for k in INVARIANTS] + [out["gamma"]]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A workload: its inputs, one pass over them, and the check of each answer.

    Subclasses set name and tail_pct and define generate(); those that call
    rec.end_group() also define check_group().
    """

    name = ""
    seed_golden = True  # golden outputs hold for the default seed at full scale only

    def golden_for(self, seed, scale):
        if self.seed_golden and (seed != DEFAULT_SEED or scale != "full"):
            return {}
        return load_golden(self.name)

    def run_pass(self, u, items, seed, pass_no, tr, budget, rec):
        for item in items:
            if not budget.take():
                return
            t = perf_counter()  # outside the span, so a traced latency includes the tracer's work
            with tr.span("item", item.id):
                try:
                    out = run_item(u, item, tr)
                except Exception as exc:  # a raising item is a failed item; the run goes on
                    out = raised(exc)
            rec.add(item, perf_counter() - t, out)

    def finish(self, u, inputs, rec):
        """Work that runs once, after the last timed pass and outside item latency."""

    def check(self, item, out, golden):
        problems = check_item(item, out)
        want = golden.get(item.id)
        if want is not None and not is_raised(out) and golden_view(item.kind, out) != want:
            problems.append(f"differs from golden {want}")
        return problems


class AnalyzeLarge(Workload):
    """bounds.analyze on lollipops, compasses and random unicyclic graphs with n = 120,
    then once on a lollipop with n = 480 whose n² memory dominates peak_rss_mb."""

    name = "analyze-large"
    tail_pct = 75
    # one n for all graphs keeps the items alike in cost, so the median and
    # tail move smoothly with the program rather than jumping between sizes
    size = {"full": 120, "tiny": 14}
    per_family = 15  # 45 items: their p75 leaves 11 beyond
    # analyze at n = 480 takes about 3 s and lifts the process's peak RSS from
    # about 37 MB to about 62 MB; at n = 120 the n² build adds under 1 MB
    memory_size = {"full": 480, "tiny": 20}

    def generate(self, u, seed, scale):
        rng = random.Random(seed)
        n = self.size[scale]
        items = []
        for k in range(self.per_family):
            lp = {"family": "lollipop", "n": n, "r": rng.randrange(3, n // 2 + 1)}
            cp = dict(zip(("n", "r", "r_prime", "t"), random_compass(rng, n)), family="compass")
            rp = {"family": "random", "n": n}
            items.append(Item(f"lollipop-{k}", "analyze", lp, family_graph(u, lp)))
            items.append(Item(f"compass-{k}", "analyze", cp, family_graph(u, cp)))
            items.append(Item(f"random-{k}", "analyze", rp, u.Graph.from_edges(n, random_unicyclic_edges(rng, n))))
        m = self.memory_size[scale]
        mp = {"family": "lollipop", "n": m, "r": rng.randrange(max(3, m // 8), m // 2 + 1)}
        items.append(Item("memory-lollipop", "analyze", mp, family_graph(u, mp)))  # last: see finish()
        return items

    def run_pass(self, u, items, seed, pass_no, tr, budget, rec):
        super().run_pass(u, items[:-1], seed, pass_no, tr, budget, rec)

    def finish(self, u, items, rec):
        """analyze once on the memory graph, so that peak_rss_mb tracks the n² build."""
        item = items[-1]
        t = perf_counter()
        try:
            out = run_item(u, item, NULL)
        except Exception as exc:  # a raising item is a failed item
            out = raised(exc)
        rec.add(item, perf_counter() - t, out, timed=False)


class Exhaustive(Workload):
    """Every class from enumerate_unicyclic(n), 3 <= n <= 10, through bounds.analyze."""

    name = "exhaustive"
    tail_pct = 99
    seed_golden = False
    max_n = {"full": 10, "tiny": 6}

    def generate(self, u, seed, scale):
        # the enumeration is timed, so it runs in the pass; the seed picks each class's relabelling
        return {"max_n": self.max_n[scale]}

    def run_pass(self, u, inputs, seed, pass_no, tr, budget, rec):
        for n in range(3, inputs["max_n"] + 1):
            rng = random.Random(seed * 1009 + n)
            gen = u.enumerate_unicyclic(n)
            i, last = 0, None
            while True:
                if not budget.take():
                    return
                item = Item(f"n{n}-c{i}", "analyze", {"family": "enumerated", "n": n, "index": i})
                # the latency runs from before the span opens to after it closes, less
                # the relabelling (t1 to t2), so a traced latency includes the tracer's work
                t0 = perf_counter()
                with tr.span("item", item.id):
                    t_next = perf_counter()
                    try:
                        g = next(gen)
                    except StopIteration:
                        budget.used -= 1
                        break
                    except Exception as exc:  # enumeration itself failed: this n ends here
                        rec.add(item, perf_counter() - t0, raised(exc))
                        break
                    t1 = perf_counter()
                    perm = list(range(n))
                    rng.shuffle(perm)
                    item.params["perm"] = perm
                    item.graph = u.Graph.from_edges(n, [(perm[a], perm[b]) for a, b in g.edges()])
                    t2 = perf_counter()
                    try:
                        out = summarize_report(u.analyze(item.graph))
                    except Exception as exc:  # a raising item is a failed item; the run goes on
                        out = raised(exc)
                    t3 = perf_counter()
                    tr.record("enumeration.next", t_next, t1)
                    tr.record("bounds.analyze", t2, t3)
                rec.add(item, (t1 - t0) + (perf_counter() - t2), out)
                i, last = i + 1, item
            rec.end_group(n, last or item)

    def check_group(self, n, outs, golden):
        """Class count against A001429 and the multiset of invariants against golden."""
        problems = []
        if len(outs) != checks.A001429[n]:
            problems.append(f"n={n}: {len(outs)} classes, A001429 says {checks.A001429[n]}")
        want = golden.get(str(n))
        got = sorted(invariant_row(o) for o in outs if not is_raised(o))
        if want is not None and got != want:
            problems.append(f"n={n}: invariant multiset differs from golden")
        return problems


class FamilySweep(Workload):
    """harness.sweep over lollipops (n <= 32) and compasses (n <= 16), streamed through write_csv."""

    name = "family-sweep"
    tail_pct = 99
    seed_golden = False
    ranges = {"full": ((4, 32), (5, 16)), "tiny": ((4, 8), (5, 8))}

    def generate(self, u, seed, scale):
        (l_lo, l_hi), (c_lo, c_hi) = self.ranges[scale]
        return [("lollipop", n) for n in range(l_lo, l_hi + 1)] + [("compass", n) for n in range(c_lo, c_hi + 1)]

    def run_pass(self, u, chunks, seed, pass_no, tr, budget, rec):
        # the inputs are the family definitions; the seed orders the chunks
        order = list(chunks)
        random.Random(seed * 7919 + pass_no).shuffle(order)
        for family, n in order:
            lat, parts, done = [], [], []
            cid = f"{family}-n{n}"

            def rows():
                it = iter(u.sweep(family, n, n))
                while budget.take():
                    t = perf_counter()
                    row = next(it, None)
                    if row is None:
                        budget.used -= 1
                        done.append(True)
                        return
                    t_row = perf_counter()
                    yield row
                    t_csv = perf_counter()
                    item = f"{cid}-{len(lat)}"
                    tr.record("harness.sweep", t, t_row, item)
                    tr.record("harness.write_csv", t_row, t_csv, item)
                    lat.append(perf_counter() - t)  # after the records: a traced row pays for them

            try:
                u.write_csv(rows(), SimpleNamespace(write=parts.append))
                error = None
            except Exception as exc:  # a raising row is a failed item; the run goes on
                error = raised(exc)
            for i, dt in enumerate(lat):
                rec.add(self.item(family, n, i), dt, parts[i + 1])
            if error is not None:
                rec.add(self.item(family, n, len(lat)), 0.0, error)
            elif done:
                rec.end_group(cid, self.item(family, n, len(lat) - 1), header=parts[0])
            else:
                return

    @staticmethod
    def item(family, n, i):
        return Item(f"{family}-n{n}-{i}", "sweep-row", {"family": family, "n": n, "row": i})

    def check(self, item, out, golden):
        problems = check_item(item, out)
        p = item.params
        want = golden.get(f"{p['family']}-n{p['n']}")
        if want is not None and not is_raised(out):
            lines = want.splitlines(keepends=True)
            if p["row"] + 1 >= len(lines) or lines[p["row"] + 1] != out:
                problems.append("CSV bytes differ from golden")
        return problems

    def check_group(self, cid, outs, golden, header):
        """The chunk's header and row count against golden."""
        want = golden.get(cid)
        if want is None:
            return []
        lines = want.splitlines(keepends=True)
        problems = []
        if header != lines[0]:
            problems.append(f"{cid}: CSV header differs from golden")
        if len(outs) != len(lines) - 1:
            problems.append(f"{cid}: {len(outs)} rows, golden has {len(lines) - 1}")
        return problems


CSV_COLUMNS = ("family", "n", "r", "r_prime", "t", "d", "girth", "main_bound", "refined_bound",
               "count01", "mult1", "gamma", "bound_ok", "hedetniemi_ok")


def parse_row(line):
    row = dict(zip(CSV_COLUMNS, next(csv.reader([line]))))
    return row, {k: int(v) for k, v in row.items() if v.lstrip("-").isdigit()}


def row_params(family, line):
    """Generator parameters of the graph a sweep CSV row describes."""
    _, num = parse_row(line)
    keys = ("n", "r") if family == "lollipop" else ("n", "r", "r_prime", "t")
    return dict({k: num[k] for k in keys}, family=family)


def check_row(family, line):
    """Independent checks of one sweep CSV row."""
    row, num = parse_row(line)
    n, r, count01, mult1 = num["n"], num["r"], num["count01"], num["mult1"]
    problems = []
    if row["family"] != family or row["bound_ok"] != "true":
        problems.append(f"family/bound_ok wrong in {line!r}")
    if count01 < num["main_bound"] or num["main_bound"] != checks.main_bound(num["d"], r):
        problems.append(f"main bound {num['main_bound']} wrong or not met in {line!r}")
    if "refined_bound" in num and count01 < num["refined_bound"]:
        problems.append(f"refined bound not met in {line!r}")
    if "gamma" in num and (count01 > num["gamma"] or row["hedetniemi_ok"] != "true"):
        problems.append(f"hedetniemi wrong in {line!r}")
    if family == "lollipop":
        want, want_mult = checks.lollipop_count01(n, r), checks.lollipop_mult1(n, r)
        if num["d"] != n - checks.ceil_div(r, 2) or (want is not None and count01 != want) \
                or (want_mult is not None and mult1 != want_mult):
            problems.append(f"lollipop closed form broken in {line!r}")
    elif num["d"] != num["r_prime"] + n - r:
        problems.append(f"compass diameter wrong in {line!r}")
    return problems


TRIPLES = (("1/2", "1", "3"), ("1/3", "7/5", "5/2"), ("2/7", "3/4", "11/3"))


class Oracles(Workload):
    """Rational-shift counts, Jacobi interlacing, charpoly recurrences, witness certificates."""

    name = "oracles"
    tail_pct = 75
    # sizes at which every kind of item costs about the same, so the median
    # and tail do not jump between kinds
    sizes = {
        "full": {"interval": (38, 40, 42), "interlacing": (18, 19, 20, 21), "charpoly": (13, 14, 15),
                 "witness": (80, 88, 96)},
        "tiny": {"interval": (12,), "interlacing": (8,), "charpoly": (8,), "witness": (12,)},
    }

    def generate(self, u, seed, scale):
        rng = random.Random(seed)
        sz = self.sizes[scale]
        items = []

        def add(kind, params, graph):
            items.append(Item(f"{kind}-{len(items)}", kind, params, graph))

        for n in sz["interval"]:
            cp = dict(zip(("n", "r", "r_prime", "t"), random_compass(rng, n)), family="compass")
            for params in ({"family": "random", "n": n}, {"family": "lollipop", "n": n, "r": rng.randrange(3, n)},
                           cp, {"family": "path", "n": n}, {"family": "cycle", "n": n}):
                params.update(zip("abc", TRIPLES[len(items) % len(TRIPLES)]))
                g = (u.Graph.from_edges(n, random_unicyclic_edges(rng, n)) if params["family"] == "random"
                     else family_graph(u, params))
                add("interval", params, g)
        for k in range(3):
            for n in sz["interlacing"]:
                edges = random_connected_edges(rng, n, rng.randrange(0, 4))
                add("interlacing", {"n": n, "edge": list(rng.choice(edges))}, u.Graph.from_edges(n, edges))
        for n in sz["charpoly"]:
            for params in ({"family": "lollipop", "n": n, "r": rng.randrange(3, n)},
                           {"family": "lollipop", "n": n + 1, "r": rng.randrange(3, n + 1)},
                           {"family": "cycle", "n": n}, {"family": "path", "n": n}):
                add("charpoly", params, family_graph(u, params))
        for n in sz["witness"]:
            rs = [r for r in range(3, n) if checks.lollipop_mult1(n, r) is not None]
            for r in rng.sample(rs, 2):
                params = {"family": "lollipop", "n": n, "r": r}
                add("witness", params, family_graph(u, params))
            for r in rng.sample(range(6, n - 1, 6), min(2, len(range(6, n - 1, 6)))):
                t = rng.randrange(1, n - r)
                params = {"family": "compass", "n": n, "r": r, "r_prime": r // 2, "t": t}
                add("witness", params, family_graph(u, params))
        return items


WORKLOADS = {w.name: w for w in (AnalyzeLarge(), Exhaustive(), FamilySweep(), Oracles())}
