"""Regenerate bench/golden/ from the checkout's unilap, for the default seed.

    python3 bench/make_golden.py

Runs one pass of every workload with golden checks off. It writes nothing
if any answer fails its independent checks, so a golden file only ever
records answers that the oracles in checks.py accepted.
"""

import io
import json
import sys

import run
from spans import NULL
from workloads import DEFAULT_SEED, GOLDEN_DIR, WORKLOADS, Budget, golden_view, invariant_row


def golden(u, workload):
    inputs = workload.generate(u, DEFAULT_SEED, "full")
    rec = run.Recorder(u, workload, {}, DEFAULT_SEED)
    workload.run_pass(u, inputs, DEFAULT_SEED, 0, NULL, Budget(), rec)
    workload.finish(u, inputs, rec)
    if rec.failed:
        for r in rec.records.values():
            print(f"{workload.name}: {r['item']}: {r['problems']}", file=sys.stderr)
        return None
    if workload.name == "family-sweep":
        out = {}
        for family, n in inputs:
            buf = io.StringIO()
            u.write_csv(u.sweep(family, n, n), buf)
            out[f"{family}-n{n}"] = buf.getvalue()
        return out
    answers = {item_id: answer for item_id, (answer, _) in rec.first.items()}
    if workload.name == "exhaustive":
        out = {}
        for item_id, answer in answers.items():
            out.setdefault(str(answer["n"]), []).append(invariant_row(answer))
        return {n: sorted(rows) for n, rows in out.items()}
    kinds = {item.id: item.kind for item in inputs}
    return {item_id: golden_view(kinds[item_id], answer) for item_id, answer in answers.items()}


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    u = run.import_unilap()
    results = {name: golden(u, w) for name, w in WORKLOADS.items()}
    if any(v is None for v in results.values()):
        return 1
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, data in results.items():
        lines = (f"{json.dumps(k)}: {json.dumps(data[k])}" for k in sorted(data))
        (GOLDEN_DIR / f"{name}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {GOLDEN_DIR / name}.json ({len(data)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
