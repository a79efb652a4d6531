"""Record the benchmark's baseline: every metric on every workload over several seeds.

    python3 bench/baseline.py --seeds 1-10 --trace-seeds 1-3 --out bench/baseline.json

Runs bench/run.py once per (workload, seed), one run at a time, untraced for
--seeds and traced for --trace-seeds. It writes the machine, Python and
numpy versions, nproc, and each metric's median and quartiles, with the
spread (interquartile range over median) of each end-to-end metric next to
its bound. The exit code is 1 if a run fails a check or an end-to-end
spread exceeds a third of its bound. setup_s is exempt from that test: its
spread comes mostly from differences between processes, which repeats
within a run cannot remove (NOTES.md), and it has the largest bound
instead. Its spread is still recorded and printed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1-3")
    parser.add_argument("--workloads", help="comma-separated subset; default all")
    parser.add_argument("--out", help="where to write the baseline JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    import numpy

    report = {
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    ok = True
    for name in names:
        entry = report["workloads"][name] = {}
        for trace, seeds in ((0, seed_range(args.seeds) if args.seeds else []),
                             (1, seed_range(args.trace_seeds) if args.trace_seeds else [])):
            values = {}
            for seed in seeds:
                result = run_once(spec, name, seed, trace)
                if not result["correct"]:
                    print(f"{name} seed {seed} trace {trace}: {result['failed']} failed", file=sys.stderr)
                    ok = False
                for key, m in result["metrics"].items():
                    values.setdefault(key, []).append(m["value"])
                print(f"{name} seed={seed} trace={trace} " +
                      " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
            for key, v in values.items():
                entry[key] = summarize(v)
                if key in bounds:
                    s = entry[key]
                    s["spread"] = (s["q3"] - s["q1"]) / s["median"]
                    s["bound"] = bounds[key]
                    if key != "setup_s" and s["spread"] > bounds[key] / 3:
                        print(f"{name} {key}: spread {s['spread']:.4f} above a third of "
                              f"its bound {bounds[key]}", file=sys.stderr)
                        ok = False
    for name, entry in report["workloads"].items():
        for key, s in entry.items():
            if "bound" in s:
                exempt = "  (exempt from the third-of-bound test)" if key == "setup_s" else ""
                print(f"{name:14s} {key:14s} median={s['median']:.5g} spread={s['spread']:.4f} "
                      f"bound={s['bound']}{exempt}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
