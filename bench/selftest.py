"""Self-test of the benchmark, on tiny inputs (about half a minute).

    python3 bench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, traced and untraced; that an answer corrupted on purpose is
counted in failed_frac and leaves a replayable record; and that the
benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and bench/.
"""

import json
import math
import shutil
import subprocess
import sys

import layers
import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
problems = []


def expect(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        problems.append(message)


def expect_metrics(result, specs, label):
    got = result["metrics"]
    for spec in specs:
        m = got.get(spec["name"])
        expect(m is not None and m["unit"] == spec["unit"] and math.isfinite(m["value"]),
               f"{label}: {spec['name']} emitted in {spec['unit']}")
    expect(set(got) == {s["name"] for s in specs}, f"{label}: no metric beyond BENCHMARK.json")


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    expect(dict(run.END_TO_END) == {s["name"]: s["unit"] for s in SPEC["end_to_end"]},
           "run.py and BENCHMARK.json agree on end-to-end metrics")
    expect(layers.METRICS == {s["name"]: s["unit"] for s in SPEC["per_layer"]},
           "layers.py and BENCHMARK.json agree on per-layer metrics")
    expect([w["name"] for w in SPEC["workloads"]] == list(WORKLOADS), "workload names agree")

    for name in WORKLOADS:
        plain = run.run_workload(name, 0, 1, 0, scale="tiny")
        expect(plain["attempted"] > 0 and plain["failed"] == 0, f"{name}: tiny run answers all correct")
        expect_metrics(plain, SPEC["end_to_end"], name)
        traced = run.run_workload(name, 0, 1, 1, scale="tiny")
        expect(traced["failed"] == 0, f"{name}: traced tiny run answers all correct")
        expect_metrics(traced, SPEC["per_layer"], f"{name} traced")

        bad = run.run_workload(name, 0, 1, 0, scale="tiny", corrupt=True)
        expect(bad["failed"] > 0 and bad["failed_frac"] > 0, f"{name}: corrupted answer counted in failed_frac")
        records = bad["failures"]
        expect(bool(records) and all(r["edges"] and r["n"] and r["seed"] == 0 for r in records),
               f"{name}: failure records carry seed, n and edge list")
        path = run.OUT_DIR / f"selftest-{name}.jsonl"
        run.OUT_DIR.mkdir(exist_ok=True)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        # the corruption happened in the benchmark, so unilap's own answer replays clean
        expect(run.replay(path) == 0, f"{name}: failure record replays and the fresh answer checks out")

    empty = run.OUT_DIR / "selftest-empty"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, empty / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", empty)
    proc = subprocess.run(SPEC["command"] + ["--workload", "exhaustive", "--seed", "0", "--seconds", "1",
                                             "--trace", "0"], cwd=empty, capture_output=True, text=True,
                          timeout=180)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "refuses to run without the sources, printing no result")
    shutil.rmtree(empty)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
