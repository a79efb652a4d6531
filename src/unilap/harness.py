"""Verification suites, parameter sweeps, and CSV emission.

Every suite walks a family or random corpus, re-checks the advertised
identity or inequality with exact arithmetic, and reports offending
parameter tuples instead of raising. Random corpora are driven by an
explicit seed (default 0) so reruns are reproducible; sweeps emit rows in
lexicographic parameter order so identical invocations produce identical
bytes.
"""

import csv
import random
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields
from typing import TextIO

from .bounds import (
    analyze,
    ceil_div,
    compass_bounds,
    lollipop_exact_count,
    main_lower_bound,
    refined_lollipop_bound,
)
from .charpoly import _identity_checks, edge_join_identity_holds, eval_at, phi_lollipop
from .enumeration import enumerate_unicyclic
from .errors import InternalConsistencyError, InvalidParameterError
from .graphs import (
    CompassParams,
    Graph,
    _connected_strip,
    _far_ends,
    _fold_at_one,
    join_with_edge,
    make_compass,
    make_cycle,
    make_lollipop,
    make_path,
    pendant_vertices,
)
from .spectra import check_interlacing, count_interval, multiplicity
from .witnesses import compass_one_witness, cycle_one_vectors, lollipop_one_witness, path_one_vector

# value of the lollipop characteristic polynomial at 1, keyed on r mod 6,
# valid whenever the diameter is divisible by 3
PHI_AT_ONE_BY_R_MOD6 = {1: 1, 2: 2, 3: -4, 4: -1, 5: 1}

# random bridge joins that the charpoly suite checks after the identities
CHARPOLY_RANDOM_JOINS = 20


@dataclass
class VerifyReport:
    suite: str
    checked: int
    failures: list
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# random corpora


def random_tree(rng: random.Random, n: int) -> Graph:
    """Random recursive tree: vertex i > 0 attaches to a uniform earlier vertex."""
    return Graph.from_edges(n, [(rng.randrange(i), i) for i in range(1, n)])


def random_unicyclic(rng: random.Random, n: int) -> Graph:
    """A random recursive tree plus one uniform non-edge; needs n >= 3."""
    if n < 3:
        raise InvalidParameterError(f"a unicyclic graph needs n >= 3, got {n}")
    g = random_tree(rng, n)
    while True:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            return g.with_edge_added(u, v)


def random_connected_graph(rng: random.Random, n: int, extra_edges: int) -> Graph:
    g = random_tree(rng, n)
    max_extra = n * (n - 1) // 2 - (n - 1)
    for _ in range(min(extra_edges, max_extra)):
        while True:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not g.has_edge(u, v):
                g = g.with_edge_added(u, v)
                break
    return g


# ---------------------------------------------------------------------------
# family suites


def _timed(fn: Callable[[], tuple[int, list]], name: str) -> VerifyReport:
    start = time.perf_counter()
    checked, failures = fn()
    return VerifyReport(name, checked, failures, time.perf_counter() - start)


def suite_paths(max_n: int = 120, seed: int = 0) -> VerifyReport:
    """count[0,1) = ceil(n/3) and multiplicity(1) = 1 exactly when 3 | n."""

    def run():
        failures = []
        for n in range(1, max_n + 1):
            g = make_path(n)
            got = count_interval(g, 0, 1).count
            if got != ceil_div(n, 3):
                failures.append(("count", n, got))
            if (multiplicity(g, 1) == 1) != (n % 3 == 0):
                failures.append(("mult1", n))
        return max_n, failures

    return _timed(run, "paths")


def suite_cycles(max_n: int = 120, seed: int = 0) -> VerifyReport:
    """count[0,1) = 2*ceil(n/6) - 1 and multiplicity(1) = 2 exactly when 6 | n."""

    def run():
        failures = []
        sizes = range(3, max_n + 1)
        for n in sizes:
            g = make_cycle(n)
            got = count_interval(g, 0, 1).count
            if got != 2 * ceil_div(n, 6) - 1:
                failures.append(("count", n, got))
            if (multiplicity(g, 1) == 2) != (n % 6 == 0):
                failures.append(("mult1", n))
            d = n // 2
            if got < main_lower_bound(d, n):
                failures.append(("bound", n))
        return len(sizes), failures

    return _timed(run, "cycles")


def suite_lollipops(max_n: int = 40, seed: int = 0) -> VerifyReport:
    """Bound, refined bound, exact-count case, and the phi(.;1) table."""

    def run():
        failures = []
        checked = 0
        for n in range(3, max_n + 1):
            for r in range(3, n + 1):
                checked += 1
                g = make_lollipop(n, r)
                d = n - ceil_div(r, 2)
                count = count_interval(g, 0, 1).count
                if count < main_lower_bound(d, r):
                    failures.append(("bound", n, r))
                if count < refined_lollipop_bound(d, r):
                    failures.append(("refined", n, r))
                if r < n:
                    exact = lollipop_exact_count(n, r)
                    if exact is not None and count != exact:
                        failures.append(("exact", n, r, count, exact))
                    if d % 3 == 0 and r % 6 != 0:
                        value = eval_at(phi_lollipop(n, r), 1)
                        if value != PHI_AT_ONE_BY_R_MOD6[r % 6]:
                            failures.append(("phi_at_one", n, r, value))
        return checked, failures

    return _timed(run, "lollipops")


def compass_params_for_n(n: int) -> Iterator[CompassParams]:
    """All valid parameter tuples for one n, lexicographic in (r, r', t); the
    ranges meet every condition of CompassParams.validate but the last."""
    for r in range(3, n - 1):
        for r_prime in range(1, r // 2 + 1):
            for t in range(1, n - r):
                if r_prime + min(t, n - r - t) >= r // 2:
                    yield CompassParams(n, r, r_prime, t)


def valid_compass_params(max_n: int) -> Iterator[CompassParams]:
    """All valid parameter tuples with n <= max_n, lexicographic order."""
    for n in range(5, max_n + 1):
        yield from compass_params_for_n(n)


def suite_compasses(max_n: int = 26, seed: int = 0) -> VerifyReport:
    """Base bound everywhere; strengthened bound on its hypothesis set."""

    def run():
        failures = []
        checked = 0
        for p in valid_compass_params(max_n):
            checked += 1
            g = make_compass(p)
            count = count_interval(g, 0, 1).count
            base, strengthened = compass_bounds(p)
            if count < base:
                failures.append(("base", p.n, p.r, p.r_prime, p.t))
            if strengthened is not None and count < strengthened:
                failures.append(("strengthened", p.n, p.r, p.r_prime, p.t))
        return checked, failures

    return _timed(run, "compasses")


def suite_witnesses(max_n: int = 60, seed: int = 0) -> VerifyReport:
    """Every closed-form eigenvector verifies; multiplicity claims hold."""

    def run():
        failures = []
        checked = 0
        for n in range(3, max_n + 1, 3):
            checked += 1
            try:
                path_one_vector(n)
            except InternalConsistencyError:
                failures.append(("path", n))
        for n in range(6, max_n + 1, 6):
            checked += 1
            try:
                cycle_one_vectors(n)
            except InternalConsistencyError:
                failures.append(("cycle", n))
        for n in range(4, max_n + 1):
            for r in range(3, n):
                checked += 1
                try:
                    w = lollipop_one_witness(n, r)
                except InternalConsistencyError:
                    failures.append(("lollipop", n, r))
                    continue
                expected = None
                if r % 6 == 0:
                    expected = 2 if n % 3 == 0 else 1
                elif r % 6 == 1 and n % 3 == 0:
                    expected = 1
                elif r % 6 == 3 and n % 3 == 1:
                    expected = 1
                if expected is not None:
                    if w is None:
                        failures.append(("lollipop-missing", n, r))
                    elif multiplicity(make_lollipop(n, r), 1) != expected:
                        failures.append(("lollipop-mult", n, r, expected))
                elif w is not None and multiplicity(make_lollipop(n, r), 1) < 1:
                    failures.append(("lollipop-spurious", n, r))
        for r in range(6, max_n - 1, 6):
            for n in range(r + 2, max_n + 1):
                for t in range(1, n - r):
                    p = CompassParams(n, r, r // 2, t)
                    checked += 1
                    try:
                        w = compass_one_witness(p)
                    except InternalConsistencyError:
                        failures.append(("compass", n, r, t))
                        continue
                    if w is None:
                        failures.append(("compass-missing", n, r, t))
                    elif multiplicity(make_compass(p), 1) < 1:
                        failures.append(("compass-mult", n, r, t))
        return checked, failures

    return _timed(run, "witnesses")


def suite_charpoly(max_n: int = 12, seed: int = 0) -> VerifyReport:
    """Polynomial identities against the determinant oracle, plus random joins."""

    def run():
        failures, checked = [], 0
        for name, params, holds in _identity_checks(max_n):
            checked += 1
            if not holds:
                failures.append((name, params))
        rng = random.Random(seed)
        for _ in range(CHARPOLY_RANDOM_JOINS):
            checked += 1
            g1 = random_connected_graph(rng, rng.randrange(2, 7), rng.randrange(0, 3))
            g2 = random_connected_graph(rng, rng.randrange(2, 7), rng.randrange(0, 3))
            u, v = rng.randrange(g1.n), rng.randrange(g2.n)
            if not edge_join_identity_holds(g1, u, g2, v):
                failures.append(("edge_join_random", g1.edges(), u, g2.edges(), v))
        return checked, failures

    return _timed(run, "charpoly")


def suite_exhaustive(max_n: int = 10, seed: int = 0) -> VerifyReport:
    """Every verdict of analyze on every unicyclic graph with n <= max_n."""
    # each call checks its n before any class is built, so a max_n past
    # the enumeration cap is rejected before anything is analyzed
    classes = {n: enumerate_unicyclic(n) for n in range(3, max_n + 1)}

    def run():
        failures = []
        checked = 0
        for n, graphs in classes.items():
            for g in graphs:
                checked += 1
                for name, ok in analyze(g).verdicts.items():
                    if not ok:
                        failures.append((name, n, g.edges()))
        return checked, failures

    return _timed(run, "exhaustive")


# ---------------------------------------------------------------------------
# randomized inequality checks


def check_interlacing_random(count: int = 200, max_n: int = 30, seed: int = 0) -> VerifyReport:
    """Edge-deletion interlacing chain on random (graph, edge) pairs."""

    def run():
        rng = random.Random(seed)
        failures = []
        for i in range(count):
            n = rng.randrange(3, max_n + 1)
            g = random_connected_graph(rng, n, rng.randrange(0, 4))
            edge = rng.choice(g.edges())
            if not check_interlacing(g, edge):
                failures.append((i, n, edge))
        return count, failures

    return _timed(run, "interlacing")


def check_pendant_monotone(count: int = 100, max_n: int = 24, seed: int = 0) -> VerifyReport:
    """Deleting a pendant vertex never increases count[0,1)."""

    def run():
        rng = random.Random(seed)
        failures = []
        done = 0
        while done < count:
            n = rng.randrange(4, max_n + 1)
            g = random_unicyclic(rng, n) if done % 2 else random_tree(rng, n)
            pendants = pendant_vertices(g)
            if not pendants:
                continue
            v = rng.choice(pendants)
            before = count_interval(g, 0, 1).count
            after = count_interval(g.without_vertex(v), 0, 1).count
            if before < after:
                failures.append((done, n, v))
            done += 1
        return count, failures

    return _timed(run, "pendant_monotone")


def check_attachment_invariance(count: int = 100, max_n: int = 12, seed: int = 0) -> VerifyReport:
    """Joining a path of length divisible by 3 preserves multiplicity of 1."""

    def run():
        rng = random.Random(seed)
        failures = []
        for i in range(count):
            n = rng.randrange(2, max_n + 1)
            g = random_connected_graph(rng, n, rng.randrange(0, 3))
            m = 3 if i % 2 else 6
            at = rng.randrange(n)
            h = join_with_edge(g, at, make_path(m), 0)
            if multiplicity(h, 1) != multiplicity(g, 1):
                failures.append((i, n, m, at))
        return count, failures

    return _timed(run, "attachment_invariance")


def check_tree_chain(count: int = 200, max_n: int = 20, seed: int = 0) -> VerifyReport:
    """ceil((d+1)/3) <= count[0,1) <= gamma on random trees."""

    def run():
        rng = random.Random(seed)
        failures = []
        for i in range(count):
            n = rng.randrange(2, max_n + 1)
            g = random_tree(rng, n)
            # one fold of the leaf strip at 1 gives the count, gamma and the
            # heights the diameter reads
            forest = _connected_strip(g)
            c, _, gamma, *heights = _fold_at_one(g, *forest)
            d = _far_ends(g, forest, *heights)[0]
            if not ceil_div(d + 1, 3) <= c <= gamma:
                failures.append((i, n))
        return count, failures

    return _timed(run, "tree_chain")


def suite_inequalities(max_n: int = 30, seed: int = 0) -> VerifyReport:
    parts = [
        check_interlacing_random(max_n=max_n, seed=seed),
        check_pendant_monotone(seed=seed),
        check_attachment_invariance(seed=seed),
        check_tree_chain(seed=seed),
    ]
    return VerifyReport(
        "inequalities",
        sum(p.checked for p in parts),
        [(p.suite,) + tuple(f if isinstance(f, tuple) else (f,)) for p in parts for f in p.failures],
        sum(p.seconds for p in parts),
    )


SUITES: dict[str, Callable[..., VerifyReport]] = {
    "paths": suite_paths,
    "cycles": suite_cycles,
    "lollipops": suite_lollipops,
    "compasses": suite_compasses,
    "witnesses": suite_witnesses,
    "charpoly": suite_charpoly,
    "exhaustive": suite_exhaustive,
    "inequalities": suite_inequalities,
}
# the smallest max_n at which each suite checks anything: below it a run would pass on nothing
_LEAST_MAX_N = {"paths": 1, "cycles": 3, "lollipops": 3, "compasses": 5, "witnesses": 3,
                "charpoly": 4, "exhaustive": 3, "inequalities": 3}

def run_suite(name: str, max_n: int | None = None, seed: int = 0) -> VerifyReport:
    """Run suite name at max_n, or at the suite's own default when max_n is None."""
    if name not in SUITES:
        raise InvalidParameterError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        )
    if max_n is None:
        return SUITES[name](seed=seed)
    if max_n < (least := _LEAST_MAX_N[name]):
        raise InvalidParameterError(f"{name} suite needs max_n >= {least}, got {max_n}")
    return SUITES[name](max_n=max_n, seed=seed)


# ---------------------------------------------------------------------------
# sweeps

@dataclass
class SweepRow:
    family: str
    n: int
    r: int | None
    r_prime: int | None
    t: int | None
    d: int
    girth: int | None
    main_bound: int | None
    refined_bound: int | None
    count01: int
    mult1: int
    gamma: int
    bound_ok: bool | None
    hedetniemi_ok: bool

    def to_csv_fields(self) -> list[str]:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "true" if x else "false"
            return str(x)

        return [fmt(getattr(self, col)) for col in CSV_COLUMNS]


CSV_COLUMNS = [f.name for f in fields(SweepRow)]


def _measure(
    family: str,
    g: Graph,
    *,
    r: int | None,
    r_prime: int | None,
    t: int | None,
    d: int,
    main_bound: int | None,
    refined_bound: int | None,
) -> SweepRow:
    # g is a path or a connected unicyclic graph: one fold of its leaf strip
    # at 1 gives the count, gamma and the heights the O(n) diameter reads
    forest = _connected_strip(g)
    count01, mult1, gamma, *heights = _fold_at_one(g, *forest)
    measured = _far_ends(g, forest, *heights)[0]
    if measured != d:
        raise InternalConsistencyError(
            f"{family} n={g.n}: formula gives d={d}, graph has d={measured}"
        )
    return _row(family, g.n, r, r_prime, t, d, main_bound, refined_bound, count01, mult1, gamma)


def _row(
    family: str,
    n: int,
    r: int | None,
    r_prime: int | None,
    t: int | None,
    d: int,
    main_bound: int | None,
    refined_bound: int | None,
    count01: int,
    mult1: int,
    gamma: int,
) -> SweepRow:
    """The one builder of SweepRow, for sweeps and the CLI alike.

    It derives girth, bound_ok and hedetniemi_ok from the measured fields.
    """
    return SweepRow(
        family=family, n=n, r=r, r_prime=r_prime, t=t, d=d, girth=r,
        main_bound=main_bound, refined_bound=refined_bound,
        count01=count01, mult1=mult1, gamma=gamma,
        bound_ok=None if main_bound is None else count01 >= main_bound,
        hedetniemi_ok=count01 <= gamma,
    )


SWEEP_FAMILIES = ("path", "cycle", "lollipop", "compass")


def sweep(family: str, n_lo: int, n_hi: int) -> Iterator[SweepRow]:
    """One row per family instance with n_lo <= n <= n_hi, lexicographic order.

    The family and the range are checked here, at call time, so a bad
    request fails before a caller writes anything; every row is built lazily.
    """
    if family not in SWEEP_FAMILIES:
        raise InvalidParameterError(f"unknown sweep family {family!r}")
    if n_lo > n_hi:
        raise InvalidParameterError(f"empty range {n_lo}..{n_hi}")
    return _sweep_rows(family, n_lo, n_hi)


# the least n at which each family has a member
_SWEEP_MIN_N = {"path": 1, "cycle": 3, "lollipop": 4, "compass": 5}


def _sweep_rows(family: str, n_lo: int, n_hi: int) -> Iterator[SweepRow]:
    for n in range(max(n_lo, _SWEEP_MIN_N[family]), n_hi + 1):
        if family == "path":
            yield _measure(
                "path", make_path(n), r=None, r_prime=None, t=None, d=n - 1,
                main_bound=None, refined_bound=None,
            )
        elif family == "cycle":
            yield _measure(
                "cycle", make_cycle(n), r=n, r_prime=None, t=None, d=n // 2,
                main_bound=main_lower_bound(n // 2, n), refined_bound=None,
            )
        elif family == "lollipop":
            for r in range(3, n):
                d = n - ceil_div(r, 2)
                yield _measure(
                    "lollipop", make_lollipop(n, r), r=r, r_prime=None, t=None, d=d,
                    main_bound=main_lower_bound(d, r),
                    refined_bound=refined_lollipop_bound(d, r),
                )
        else:  # compass
            for p in compass_params_for_n(n):
                base, strengthened = compass_bounds(p)
                yield _measure(
                    "compass", make_compass(p), r=p.r, r_prime=p.r_prime, t=p.t,
                    d=p.d, main_bound=base, refined_bound=strengthened,
                )


def write_csv(rows: Iterator[SweepRow], dest: TextIO) -> int:
    """Write header plus rows; returns the number of data rows."""
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    count = 0
    for row in rows:
        writer.writerow(row.to_csv_fields())
        count += 1
    return count
