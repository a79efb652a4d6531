"""Command-line interface.

Subcommands:
  gen      write a family graph as an edge-list file
  analyze  report exact counts, bounds, and verdicts for one graph
  verify   run a named verification suite; exit code 0 iff no failures
  scan     stream a parameter sweep as CSV
"""

import argparse
import json
import sys

from .bounds import analyze
from .errors import InvalidParameterError
from .graphs import (
    CompassParams,
    make_compass,
    make_cycle,
    make_lollipop,
    make_path,
    read_edge_list,
    write_edge_list,
)
from .harness import CSV_COLUMNS, SUITES, SWEEP_FAMILIES, SweepRow, run_suite, sweep, write_csv


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "path":
        g = make_path(args.n)
    elif args.family == "cycle":
        g = make_cycle(args.n)
    elif args.family == "lollipop":
        if args.r is None:
            raise InvalidParameterError("lollipop needs --r")
        g = make_lollipop(args.n, args.r)
    else:
        if args.r is None or args.rp is None or args.t is None:
            raise InvalidParameterError("compass needs --r, --rp and --t")
        g = make_compass(CompassParams(args.n, args.r, args.rp, args.t))
    if args.output == "-":
        write_edge_list(g, sys.stdout)
    else:
        with open(args.output, "w", encoding="ascii") as fh:
            write_edge_list(g, fh)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    with open(args.file, encoding="ascii") as fh:
        g = read_edge_list(fh)
    report = analyze(g)
    core = report.core
    r_prime, t = core.params[2:] if core.kind == "compass" else (None, None)
    row = SweepRow(
        core.kind, report.n, report.girth, r_prime, t, report.diameter, report.main_bound,
        report.refined_bound, report.count01, report.mult1, report.gamma,
    )
    if args.json:
        payload = {col: getattr(row, col) for col in CSV_COLUMNS}
        payload["alpha"] = report.alpha
        payload["k"] = report.k
        payload["verdicts"] = report.verdicts
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(c) for c in CSV_COLUMNS)
        for col, value in zip(CSV_COLUMNS, row.to_csv_fields()):
            print(f"{col:<{width}}  {value if value != '' else '-'}")
        print(f"{'k':<{width}}  {report.k}")
        for name, verdict in report.verdicts.items():
            print(f"{name:<{width}}  {'ok' if verdict else 'FAILED'}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, max_n=args.max_n, seed=args.seed)
    status = "ok" if report.ok else "FAILED"
    print(
        f"suite={report.suite} checked={report.checked} "
        f"failures={len(report.failures)} time={report.seconds:.2f}s {status}"
    )
    for failure in report.failures[:50]:
        print(f"  failure: {failure}")
    if len(report.failures) > 50:
        print(f"  ... and {len(report.failures) - 50} more")
    return 0 if report.ok else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    lo, _, hi = args.n_range.partition("..")
    try:
        n_lo, n_hi = int(lo), int(hi)
    except ValueError:
        raise InvalidParameterError(f"bad --n-range {args.n_range!r}, want A..B") from None
    rows = sweep(args.family, n_lo, n_hi)
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            write_csv(rows, fh)
    else:
        write_csv(rows, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unilap",
        description="Exact Laplacian eigenvalue counting for unicyclic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a family graph as an edge list")
    gen.add_argument("--family", required=True, choices=["path", "cycle", "lollipop", "compass"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--r", type=int, help="girth (lollipop, compass)")
    gen.add_argument("--rp", type=int, help="cycle offset r' (compass)")
    gen.add_argument("--t", type=int, help="first tail length (compass)")
    gen.add_argument("-o", "--output", default="-", help="output file, '-' for stdout")
    gen.set_defaults(fn=_cmd_gen)

    ana = sub.add_parser("analyze", help="analyze one edge-list file")
    ana.add_argument("file")
    ana.add_argument("--json", action="store_true")
    ana.set_defaults(fn=_cmd_analyze)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    ver.add_argument("--max-n", type=int, default=None)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(fn=_cmd_verify)

    scan = sub.add_parser("scan", help="sweep a family and emit CSV")
    scan.add_argument("--family", required=True, choices=SWEEP_FAMILIES)
    scan.add_argument("--n-range", required=True, help="inclusive range A..B")
    scan.add_argument("--out", default=None, help="CSV output file (default stdout)")
    scan.set_defaults(fn=_cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidParameterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
