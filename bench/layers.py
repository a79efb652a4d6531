"""Per-layer probes for the traced run.

Each probe calls one public function of one unilap module from here, inside
a span, on inputs taken from the workload being traced. Where the workload
has no input a layer accepts (no graph with n <= 32 for domination or the
Jacobi solver, no polynomial or witness parameters), a small fixed set of
seeded inputs stands in; NOTES.md lists which. Every metric is a median
per call unless its name says otherwise.
"""

import random
import statistics
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

from workloads import compass_params, family_graph, random_unicyclic_edges

SMALL_N = 32  # largest n given to branch-and-bound gamma and the Jacobi solver
RATIONAL_SHIFT = Fraction(7, 5)

METRICS = {
    "graphs.decompose_ms": "ms",
    "graphs.diameter_ms": "ms",
    "graphs.core_ms": "ms",
    "linalg.matrix_build_ms": "ms",
    "linalg.inertia_ms": "ms",
    "linalg.inertia_rational_ms": "ms",
    "spectra.count_interval_ms": "ms",
    "spectra.multiplicity_ms": "ms",
    "spectra.spectrum_float_ms": "ms",
    "spectra.interlacing_ms": "ms",
    "bounds.domination_ms": "ms",
    "bounds.analyze_ms": "ms",
    "bounds.analyze_stage_ratio": "ratio",
    "bounds.analyze_stage_base_ms": "ms",
    "enumeration.classes_per_s": "1/s",
    "enumeration.yield_ratio": "ratio",
    "enumeration.assignments": "count",
    "charpoly.recurrence_ms": "ms",
    "charpoly.det_oracle_ms": "ms",
    "witnesses.certify_ms": "ms",
    "harness.csv_row_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.untraced_item_p50_ms": "ms",
}

STAGES = ("graphs.decompose", "graphs.diameter", "spectra.count_interval",
          "spectra.multiplicity", "bounds.domination", "graphs.core")


def plan(u, workload, inputs, seed, scale):
    """The probe inputs for one workload."""
    tiny = scale == "tiny"
    rng = random.Random(seed)
    fallback_small = [u.Graph.from_edges(n, random_unicyclic_edges(rng, n))
                      for n in ((8, 10) if tiny else (16, 20, 24, 28))]
    fallback_charpoly = [{"family": "lollipop", "n": 10, "r": 4}, {"family": "lollipop", "n": 12, "r": 7},
                         {"family": "cycle", "n": 12}, {"family": "path", "n": 12}]
    fallback_witness = [{"family": "lollipop", "n": 30, "r": 6}, {"family": "lollipop", "n": 36, "r": 7},
                        {"family": "lollipop", "n": 31, "r": 9},
                        {"family": "compass", "n": 30, "r": 12, "r_prime": 6, "t": 5}]
    csv_range = ("lollipop", 4, 8 if tiny else 14)
    max_enum = 6 if tiny else 10

    if workload.name == "analyze-large":
        graphs = [it.graph for it in inputs[:3]]  # one of each family
        small = fallback_small
    elif workload.name == "exhaustive":
        graphs = [g for n in (max_enum - 1, max_enum) for g in list(u.enumerate_unicyclic(n))[::24]]
        small = graphs
    elif workload.name == "family-sweep":
        l_hi = max(n for fam, n in inputs if fam == "lollipop")
        c_hi = max(n for fam, n in inputs if fam == "compass")
        graphs = [u.make_lollipop(l_hi, r) for r in range(3, l_hi, 5)]
        graphs += [u.make_compass(u.CompassParams(*p)) for p in compass_params(c_hi)[::20]]
        small = graphs
        csv_range = ("compass", c_hi, c_hi)
    else:
        graphs = [it.graph for it in inputs if it.kind == "interval" and it.params["family"] != "path"]
        small = [it.graph for it in inputs if it.kind == "interlacing"]
    charpoly = [it.params for it in inputs if it.kind == "charpoly"] if workload.name == "oracles" else fallback_charpoly
    witness = [it.params for it in inputs if it.kind == "witness"] if workload.name == "oracles" else fallback_witness
    return SimpleNamespace(
        graphs=graphs,
        small=[g for g in small if g.n <= SMALL_N] or fallback_small,
        charpoly=[(p, family_graph(u, p)) for p in charpoly],
        witness=witness,
        csv_rows=list(u.sweep(*csv_range)),
        max_enum=max_enum,
    )


def assignments(max_n, u):
    """Tree assignments an enumeration of n <= max_n visits: sequences of r rooted
    trees (3 <= r <= n) whose sizes sum to n, counted with the public rooted_trees."""
    total = 0
    for n in range(3, max_n + 1):
        trees = [0] + [len(u.rooted_trees(s)) for s in range(1, n + 1)]
        ways = [1] + [0] * n  # ways[k]: sequences of the current length with total size k
        for r in range(1, n + 1):
            ways = [sum(ways[k - s] * trees[s] for s in range(1, k + 1)) for k in range(n + 1)]
            if r >= 3:
                total += ways[n]
    return total


def _probe_round(u, plan, tr, item):
    for i, g in enumerate(plan.graphs):
        with tr.span("probe", f"{item}-graph{i}"):
            with tr.span("graphs.decompose"):
                u.unicyclic_decompose(g)
            with tr.span("graphs.diameter"):
                u.diameter_and_path(g)
            with tr.span("spectra.count_interval"):
                u.count_interval(g, 0, 1)
            with tr.span("spectra.multiplicity"):
                u.multiplicity(g, 1)
            if g.n <= SMALL_N:
                with tr.span("bounds.domination"):
                    u.domination_number(g)
            with tr.span("graphs.core"):
                u.reduce_to_core(g)
            with tr.span("bounds.analyze"):
                u.analyze(g)
            with tr.span("linalg.matrix_build"):
                m = u.laplacian(g).minus_scaled_identity(1)
            with tr.span("linalg.inertia"):
                u.inertia(m)
            m = u.laplacian(g).minus_scaled_identity(RATIONAL_SHIFT)
            with tr.span("linalg.inertia_rational"):
                u.inertia(m)
    for i, g in enumerate(plan.small):
        with tr.span("probe", f"{item}-small{i}"):
            with tr.span("bounds.domination"):
                u.domination_number(g)
            with tr.span("spectra.spectrum_float"):
                u.spectrum_float(g)
            with tr.span("spectra.interlacing"):
                u.check_interlacing(g, g.edges()[0])
    for i, (p, g) in enumerate(plan.charpoly):
        with tr.span("probe", f"{item}-charpoly{i}"):
            with tr.span("charpoly.recurrence"):
                if p["family"] == "lollipop":
                    u.phi_lollipop(p["n"], p["r"])
                else:
                    (u.phi_cycle if p["family"] == "cycle" else u.phi_path)(p["n"])
            with tr.span("charpoly.det_oracle"):
                u.charpoly_det(g)
    for i, p in enumerate(plan.witness):
        with tr.span("probe", f"{item}-witness{i}"):
            with tr.span("witnesses.certify"):
                if p["family"] == "lollipop":
                    u.lollipop_one_witness(p["n"], p["r"])
                else:
                    u.compass_one_witness(u.CompassParams(p["n"], p["r"], p["r_prime"], p["t"]))
    with tr.span("probe", f"{item}-csv"):
        for _ in range(5):
            with tr.span("harness.write_csv"):
                u.write_csv(iter(plan.csv_rows), SimpleNamespace(write=lambda s: None))
    with tr.span("probe", f"{item}-enumeration"):
        with tr.span("enumeration.enumerate"):
            classes = sum(1 for n in range(3, plan.max_enum + 1) for _ in u.enumerate_unicyclic(n))
    return classes


def run(u, plan, tr, deadline):
    """Probe rounds until the deadline (at least one); returns the per-layer metrics."""
    rounds = 0
    while True:
        classes = _probe_round(u, plan, tr, f"round{rounds}")
        rounds += 1
        if perf_counter() >= deadline:
            break

    def med(name):
        return statistics.median(tr.self_ms(name))

    # analyze against the sum of its stages, graph by graph
    ratios, bases = [], []
    stage = {}
    for name, start, end, parent, item in tr.spans:
        if name in STAGES or name == "bounds.analyze":
            stage.setdefault(parent, {})[name] = (end - start) * 1e3
    for parts in stage.values():
        if "bounds.analyze" in parts and "graphs.core" in parts:
            base = sum(parts.get(s, 0.0) for s in STAGES)
            ratios.append(parts["bounds.analyze"] / base)
            bases.append(base)
    enum_ms = tr.self_ms("enumeration.enumerate")
    assigned = assignments(plan.max_enum, u)
    return {
        "graphs.decompose_ms": med("graphs.decompose"),
        "graphs.diameter_ms": med("graphs.diameter"),
        "graphs.core_ms": med("graphs.core"),
        "linalg.matrix_build_ms": med("linalg.matrix_build"),
        "linalg.inertia_ms": med("linalg.inertia"),
        "linalg.inertia_rational_ms": med("linalg.inertia_rational"),
        "spectra.count_interval_ms": med("spectra.count_interval"),
        "spectra.multiplicity_ms": med("spectra.multiplicity"),
        "spectra.spectrum_float_ms": med("spectra.spectrum_float"),
        "spectra.interlacing_ms": med("spectra.interlacing"),
        "bounds.domination_ms": med("bounds.domination"),
        "bounds.analyze_ms": med("bounds.analyze"),
        "bounds.analyze_stage_ratio": statistics.median(ratios),
        "bounds.analyze_stage_base_ms": statistics.median(bases),
        "enumeration.classes_per_s": statistics.median(classes / (t / 1e3) for t in enum_ms),
        "enumeration.yield_ratio": classes / assigned,
        "enumeration.assignments": assigned,
        "charpoly.recurrence_ms": med("charpoly.recurrence"),
        "charpoly.det_oracle_ms": med("charpoly.det_oracle"),
        "witnesses.certify_ms": med("witnesses.certify"),
        "harness.csv_row_ms": med("harness.write_csv") / len(plan.csv_rows),
    }, rounds
