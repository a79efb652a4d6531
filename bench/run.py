"""unilap benchmark: one workload per process, every answer checked.

    python3 bench/run.py --workload analyze-large --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; unilap is imported from its src/.
With --trace 0 the run repeats whole passes over the workload's items for
about --seconds and reports the end-to-end metrics. With --trace 1 it
compares untraced and traced passes over the same items, then probes each
layer, and reports the per-layer metrics. A table goes to stdout first; the
last line is one JSON object. Results, replayable failure records and spans
go to .bench_out/ in the checkout. NOTES.md explains the choices.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one process, one thread: numpy must not add BLAS threads

_t = time.perf_counter()
import numpy  # noqa: E402,F401  (timed: setup_s leaves it out, see setup())

NUMPY_IMPORT_S = time.perf_counter() - _t

import layers  # noqa: E402
from spans import NULL, Tracer  # noqa: E402
from workloads import WORKLOADS, Budget, Item, check_item, corrupt, family_graph, is_raised, raised, \
    row_params, run_item  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
REF_EVERY_S = 0.25  # how often the reference workload runs between items
REF_NOMINAL_S = 0.0045  # the reference's time on this machine when it is quiet
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * pct // 100) - 1))
    return sorted_values[int(k)]


def tail(values, pct):
    """The workload's tail percentile of an ascending list, lowered along the ladder until
    10 values lie beyond it."""
    for p in sorted((q for q in TAIL_LADDER if q <= pct), reverse=True):
        beyond = sum(1 for v in values if v > percentile(values, p))
        if beyond >= 10:
            return percentile(values, p), p, beyond
    return values[-1], 100, 0


def reference():
    """Seconds for a fixed piece of the benchmark's own work, shaped like unilap's.

    Exact elimination of a shifted cycle Laplacian over Fraction plus
    all-pairs BFS on a cycle. Other tenants of the machine slow this and
    unilap alike, by up to about 2.5x for seconds at a time; timings scaled by
    REF_NOMINAL_S over the nearby reference times cancel most of that.
    """
    t = time.perf_counter()
    n = 24
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = Fraction(7, 5)
        a[i][(i + 1) % n] = a[(i + 1) % n][i] = Fraction(-1)
    for c in range(n):
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    n = 90
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in ((x - 1) % n, (x + 1) % n):
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
    return time.perf_counter() - t


class Recorder:
    """Counts attempts and failures, checks each item's first answer, keeps replay records."""

    def __init__(self, u, workload, golden, seed, corrupt=False):
        self.u, self.workload, self.golden, self.seed = u, workload, golden, seed
        self.corrupt = corrupt
        self.first = {}  # item id -> (answer, problems) from its first run
        self.lat = []  # latencies of the current pass
        self.by_item = {}  # item id -> [(pass, latency)]
        self.refs = {}  # pass -> reference timings taken during it
        self.last_ref = 0.0
        self.attempted = 0
        self.failed = set()  # (pass, item id)
        self.records = {}  # item id -> replay record
        self.group = []
        self.pass_no = 0
        self.begin_pass(0)

    def begin_pass(self, pass_no):
        """A pass may stop mid-group (traced runs stop on a deadline); start its groups afresh."""
        self.pass_no, self.group, self.lat = pass_no, [], []
        self.refs[pass_no] = [reference()]
        self.last_ref = time.perf_counter()

    def speed(self, pass_no):
        """REF_NOMINAL_S over the median reference time during the pass."""
        return REF_NOMINAL_S / statistics.median(self.refs[pass_no])

    def add(self, item, seconds, out, timed=True):
        """Check one answer; an untimed item counts as attempted but not in the latencies."""
        self.attempted += 1
        if timed:
            self.lat.append(seconds)
            self.by_item.setdefault(item.id, []).append((self.pass_no, seconds))
        seen = self.first.get(item.id)
        if seen is None:
            if self.corrupt:
                out, self.corrupt = corrupt(out), False
            problems = self.workload.check(item, out, self.golden)
            self.first[item.id] = (out, problems)
        else:
            problems = seen[1] or ([] if out == seen[0] else ["answer differs from its first run"])
        self.group.append(out)
        if problems:
            self.fail(item, problems, out)
        if time.perf_counter() - self.last_ref > REF_EVERY_S:
            self.refs[self.pass_no].append(reference())
            self.last_ref = time.perf_counter()

    def end_group(self, key, last_item, **extra):
        problems = self.workload.check_group(key, self.group, self.golden, **extra)
        self.group = []
        if problems:
            self.fail(last_item, problems, None)

    def fail(self, item, problems, out):
        self.failed.add((self.pass_no, item.id))
        if item.id in self.records:
            return
        g = item.graph
        if g is None and isinstance(out, str):  # a CSV row: rebuild its graph from the row
            g = family_graph(self.u, row_params(item.params["family"], out))
        self.records[item.id] = {
            "workload": self.workload.name, "seed": self.seed, "item": item.id, "kind": item.kind,
            "params": item.params, "n": None if g is None else g.n,
            "edges": None if g is None else g.edges(), "answer": out, "problems": problems,
        }


def import_unilap():
    for name in [m for m in sys.modules if m == "unilap" or m.startswith("unilap.")]:
        del sys.modules[name]
    return importlib.import_module("unilap")


def setup(workload, seed, scale):
    """Import and input generation, repeated; returns unilap, the inputs and the set-up times.

    Each repeat drops unilap's modules from sys.modules, imports it again and
    generates the inputs. numpy's import happens once per process and cannot
    be repeated, so it is left out and reported beside the metrics. Returns
    the median raw time and the median of times scaled like item latencies.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        ref = reference()
        t = time.perf_counter()
        u = import_unilap()
        inputs = workload.generate(u, seed, scale)
        raw.append(time.perf_counter() - t)
        scaled.append(raw[-1] * REF_NOMINAL_S / ref)
    return u, inputs, statistics.median(raw), statistics.median(scaled)


def run_workload(name, seed, seconds, trace, scale="full", corrupt=False):
    workload = WORKLOADS[name]
    u, inputs, setup_raw_s, setup_s = setup(workload, seed, scale)
    if not Path(u.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"unilap was imported from {u.__file__}, not from {ROOT / 'src'}")
    rec = Recorder(u, workload, workload.golden_for(seed, scale), seed, corrupt)
    result = {"workload": name, "seed": seed, "trace": trace, "scale": scale,
              "numpy_import_s": NUMPY_IMPORT_S, "setup_raw_s": setup_raw_s,
              "setup_wall_s": time.perf_counter() - PROCESS_START}
    gc.collect()
    start = time.perf_counter()
    if not trace:
        passes = 0
        while True:  # whole passes while the next one is predicted to fit
            t = time.perf_counter()
            rec.begin_pass(passes)
            workload.run_pass(u, inputs, seed, passes, NULL, Budget(), rec)
            passes += 1
            gc.collect()
            now = time.perf_counter()
            if now - start + (now - t) > seconds:
                break
        # each item's latency is the median over passes of its latency scaled
        # by the machine's speed during the pass: see reference() and NOTES.md
        speed = [rec.speed(p) for p in range(passes)]
        item_ms = sorted(statistics.median(dt * speed[p] for p, dt in v) * 1e3 for v in rec.by_item.values())
        raw_ms = sorted(statistics.median(dt for _, dt in v) * 1e3 for v in rec.by_item.values())
        tail_ms, tail_pct, beyond = tail(item_ms, workload.tail_pct)
        workload.finish(u, inputs, rec)
        metrics = {
            "setup_s": setup_s,
            "items_per_s": len(item_ms) / sum(item_ms) * 1e3,
            "item_p50_ms": statistics.median(item_ms),
            "item_tail_ms": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        result.update(passes=passes, items=len(item_ms), samples=rec.attempted,
                      tail_percentile=tail_pct, tail_beyond=beyond, speed_by_pass=speed,
                      raw={"items_per_s": len(raw_ms) / sum(raw_ms) * 1e3,
                           "item_p50_ms": statistics.median(raw_ms),
                           "item_tail_ms": tail(raw_ms, workload.tail_pct)[0]})
    else:
        # a warm-up pass fixes the items; the same items then run three times
        # traced and three times untraced, in the order T U U T T U so that a
        # drift in the machine's speed falls on both alike
        warm = Budget(deadline=start + 0.06 * seconds)
        rec.begin_pass(0)
        workload.run_pass(u, inputs, seed, 0, NULL, warm, rec)
        item_tracer = Tracer()
        traced, untraced = [], []
        for i in range(6):
            tracer = item_tracer if i % 2 == (i // 2) % 2 else NULL
            rec.begin_pass(i + 1)
            workload.run_pass(u, inputs, seed, 0, tracer, Budget(limit=warm.used), rec)
            (traced if tracer is item_tracer else untraced).extend(dt * rec.speed(i + 1) for dt in rec.lat)
        gc.collect()
        probe_tracer = Tracer()
        plan = layers.plan(u, workload, inputs, seed, scale)
        metrics, rounds = layers.run(u, plan, probe_tracer, time.perf_counter() + 0.45 * seconds)
        untraced_ms = statistics.median(untraced) * 1e3
        metrics["trace.overhead_frac"] = statistics.median(traced) * 1e3 / untraced_ms - 1
        metrics["trace.untraced_item_p50_ms"] = untraced_ms
        units = layers.METRICS
        result.update(overhead_items=len(traced), probe_rounds=rounds)
        OUT_DIR.mkdir(exist_ok=True)
        item_tracer.dump(OUT_DIR / f"spans-{name}-items.json")
        probe_tracer.dump(OUT_DIR / f"spans-{name}-probes.json")
    result.update(
        measured_s=time.perf_counter() - start,
        attempted=rec.attempted,
        failed=len(rec.failed),
        failed_frac=len(rec.failed) / max(1, rec.attempted),
        metrics={k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
        failures=list(rec.records.values()),
    )
    return result


def write_outputs(result):
    """Result and failure records beside each other in .bench_out/; returns the failure file."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    failures = result["failures"]
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1))
    path = OUT_DIR / f"failures-{stem}.jsonl"
    if failures:
        path.write_text("".join(json.dumps(r) + "\n" for r in failures))
    elif path.exists():
        path.unlink()
    return path if failures else None


def print_table(result, failure_file):
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"attempted={result['attempted']} measured_s={result['measured_s']:.1f}")
    for key, m in result["metrics"].items():
        note = ""
        if key == "item_tail_ms":
            note = (f"  (p{result['tail_percentile']} of {result['items']} items, {result['tail_beyond']} beyond;"
                    f" median of {result['passes']} passes)")
        print(f"  {key:30s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':30s} {result['failed_frac']:14.6g} 1  ({result['failed']}/{result['attempted']})")
    if failure_file:
        print(f"  failure records: {failure_file}")


def replay(path):
    """Re-run each failure record's item and its independent checks."""
    u = import_unilap()
    bad = 0
    for line in Path(path).read_text().splitlines():
        r = json.loads(line)
        p = r["params"]
        if r["kind"] == "sweep-row":
            rows = []
            u.write_csv(u.sweep(p["family"], p["n"], p["n"]), SimpleNamespace(write=rows.append))
            item = Item(r["item"], r["kind"], p)
            out = rows[p["row"] + 1] if p["row"] + 1 < len(rows) else {"raised": "row missing"}
        else:
            item = Item(r["item"], r["kind"], p, u.Graph.from_edges(r["n"], [tuple(e) for e in r["edges"]]))
            try:
                out = run_item(u, item, NULL)
            except Exception as exc:  # report the failure like the run did
                out = raised(exc)
        problems = check_item(item, out)
        bad += bool(problems)
        print(json.dumps({"item": r["item"], "answer": out if not is_raised(out) else out["raised"],
                          "problems": problems}))
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("analyze-large", "exhaustive", "family-sweep", "oracles"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", metavar="FAILURES_JSONL", help="re-run and re-check recorded failures")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unilap" / "__init__.py").is_file():
        print(f"error: no unilap sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.replay:
        return replay(args.replay)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    failure_file = write_outputs(result)
    print_table(result, failure_file)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
