"""analyze's far ends and one walk round the cycle against the routes they replaced.

cycle_walks holds the earlier code: gamma closed by three walks up the
cycle, each cycle vertex's reach from two deque windows, the eccentricity
of every vertex, a distance from u to every vertex, and the core
classified from sets over the kept vertices. The fold, the diameter's
ends, the diametral path, the core and every BoundReport field (the
core's kind, params, core_vertices and diametral_path read) must match on
every class with n <= 11, a relabelling of every class with n <= 9, 3000
random graphs with n <= 150, every lollipop with n < 40, every valid
compass with n <= 24, spiders, suns, even cycles and random trees.
Brute force checks the same on every class with n <= 9 and a relabelling
of each: all-pairs BFS for the diameter, the least pair and the least
shortest sequence by search. graphs._cycle_reach is checked against brute
force too.
"""

import dataclasses
import itertools
import random
from collections import deque

import pytest

import cycle_walks
import separate_folds
from conftest import exhaustive_gamma, numpy_eigs, spider
from unilap import graphs
from unilap.bounds import analyze, main_lower_bound
from unilap.enumeration import enumerate_unicyclic
from unilap.graphs import (
    Graph,
    diameter_and_path,
    make_compass,
    make_cycle,
    make_lollipop,
    make_path,
    reduce_to_core,
)
from unilap.harness import random_tree, random_unicyclic, valid_compass_params


def _brute_reach(h: list[int]) -> list[int]:
    r = len(h)
    if r == 1:
        return [0]
    return [
        max(h[j] + min(abs(i - j), r - abs(i - j)) for j in range(r) if j != i) for i in range(r)
    ]


def _windows(h: list[int]) -> list[int]:
    """The reach as the deque windows gave it, one each way round."""
    cw = cycle_walks._farthest_clockwise(h)
    ccw = cycle_walks._farthest_clockwise(h[::-1])[::-1]
    return [max(a, b) for a, b in zip(cw, ccw)] or [0]


class TestCycleReach:
    def test_every_small_height_vector(self):
        """Every vector of heights 0..3 round cycles of 1 to 7 vertices, with
        the index whose own height beats every other tent, and the ties."""
        dominant = ties = 0
        for r in range(1, 8):
            for h in map(list, itertools.product(range(4), repeat=r)):
                far = graphs._cycle_reach(h)
                assert far == _brute_reach(h), h
                if r > 1:
                    assert far == _windows(h), h
                    dominant += sum(x < y for x, y in zip(far, h))
                    ties += sum(x == y for x, y in zip(far, h))
        assert dominant > 0 and ties > 0

    @pytest.mark.parametrize(
        "h",
        [[9, 0, 0, 0, 0, 0, 0], [0, 0, 0, 9, 0, 0], [3, 2, 0, 0, 0], [0, 4, 3, 2, 1, 0, 1, 2, 3]],
        ids=["dominant-odd", "dominant-even", "tie", "tied-slopes"],
    )
    def test_dominant_and_tied_heights(self, h):
        assert graphs._cycle_reach(h) == _brute_reach(h) == _windows(h)

    def test_seeded_vectors_up_to_300(self):
        rng = random.Random(20)
        for _ in range(150):
            r = rng.randrange(3, 301)
            h = [rng.randrange(rng.choice([1, 3, 10, r])) for _ in range(r)]
            if rng.random() < 0.3:
                h[rng.randrange(r)] += rng.randrange(r)  # often the dominant index
            assert graphs._cycle_reach(h) == _brute_reach(h) == _windows(h), h


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def _assert_same_walks(g: Graph) -> None:
    """The fold, the ends and the diametral path of a tree or a unicyclic g."""
    forest = graphs._connected_strip(g)
    stripped, parent, cycles = forest
    folded = graphs._fold_at_one(g, *forest)
    assert folded[:5] == cycle_walks._fold_at_one(g, *forest), g.edges()
    d, u, v, i, j = graphs._far_ends(g, forest, *folded[3:])
    cycle = cycles[0] if cycles else stripped[-1:]
    got = d, graphs._diametral_path(parent, cycle, u, v, i, j)
    assert got == cycle_walks._unicyclic_diameter_and_path(*forest, *folded[3:5]), g.edges()
    assert (cycle[i], cycle[j]) == (_root(parent, u), _root(parent, v)), g.edges()


def _report_fields(rep) -> tuple:
    """Every BoundReport field, with the core's lazy ones read."""
    core = rep.core
    fields = tuple(getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "core")
    return fields + (core.kind, core.params, core.core_vertices, core.diametral_path)


def _assert_same_report(g: Graph) -> None:
    _assert_same_walks(g)
    assert _report_fields(analyze(g)) == _report_fields(cycle_walks.analyze(g)), g.edges()


class TestAgainstTheEarlierWalks:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_every_class(self, n):
        rng = random.Random(n)
        for g in enumerate_unicyclic(n):
            _assert_same_report(g)
            if n <= 9:
                _assert_same_report(_relabelled(g, rng))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs_up_to_150(self, seed):
        rng = random.Random(seed)
        for _ in range(1000):
            _assert_same_report(random_unicyclic(rng, rng.randrange(3, 151)))

    def test_every_lollipop_and_cycle_below_40(self):
        for n in range(3, 40):
            for r in range(3, n + 1):
                _assert_same_report(make_lollipop(n, r))

    def test_every_valid_compass_up_to_24(self):
        count = 0
        for p in valid_compass_params(24):
            _assert_same_report(make_compass(p))
            count += 1
        assert count == 3930

    def test_spiders_whose_path_misses_the_cycle(self):
        rng = random.Random(4)
        for r in range(3, 9):
            for stem in range(1, 5):
                legs = [stem + r // 2 + 2, stem + r // 2 + 1, 1]
                g = spider(r, stem, legs)
                assert analyze(g).core.kind == "other"
                _assert_same_report(g)
                _assert_same_report(_relabelled(g, rng))

    def test_trees(self):
        rng = random.Random(5)
        for n in range(1, 12):
            _assert_same_walks(make_path(n))
        for _ in range(300):
            _assert_same_walks(random_tree(rng, rng.randrange(1, 120)))


class TestLargeCycles:
    """The paths the smoke test in CI checks at r = 100000, at smaller r."""

    @pytest.mark.parametrize("r", [4, 10, 1000])
    def test_sun_every_leaf_at_the_diameter(self, r):
        """A cycle with one leaf r + i on every vertex i: every leaf has the
        largest eccentricity, and the path runs from r's leaf round to the
        antipode's."""
        edges = [(i, (i + 1) % r) for i in range(r)] + [(i, r + i) for i in range(r)]
        sun = Graph.from_edges(2 * r, edges)
        h = r // 2
        assert diameter_and_path(sun) == (h + 2, (r, *range(h + 1), r + h))
        core = reduce_to_core(sun)
        assert (core.kind, core.params) == ("compass", (r + 2, r, h, 1))

    @pytest.mark.parametrize("r", [4, 10, 2000])
    def test_even_cycle_takes_the_arc_through_one(self, r):
        assert diameter_and_path(make_cycle(r)) == (r // 2, tuple(range(r // 2 + 1)))


def _all_pairs(g: Graph) -> list[list[int]]:
    rows = []
    for src in range(g.n):
        dist = [-1] * g.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for w in g.adj[x]:
                if dist[w] < 0:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        rows.append(dist)
    return rows


def _brute_core_vertices(g: Graph, dist: list[list[int]], path: tuple[int, ...]) -> tuple:
    """The cycle (what repeated leaf deletion leaves), the path, and the
    shortest walk from the path to the cycle when the path misses it."""
    alive = set(range(g.n))
    while leaves := [x for x in alive if sum(w in alive for w in g.adj[x]) < 2]:
        alive -= set(leaves)
    to_cycle = [min(row[c] for c in alive) for row in dist]
    near = min(path, key=lambda x: to_cycle[x])
    connector = {x for x in range(g.n) if dist[near][x] + to_cycle[x] == to_cycle[near]}
    return tuple(sorted(alive | set(path) | connector)), len(alive)


def _assert_brute_force(g: Graph) -> None:
    """Ends, path, core and the measured report fields against search."""
    dist = _all_pairs(g)
    d = max(map(max, dist))
    u, v = min((a, b) for a in range(g.n) for b in range(a + 1, g.n) if dist[a][b] == d)

    def shortest(x: int):
        if x == v:
            yield (v,)
        for w in g.adj[x]:
            if dist[w][v] == dist[x][v] - 1:
                for rest in shortest(w):
                    yield (x, *rest)

    path = min(shortest(u))
    assert diameter_and_path(g) == (d, path), g.edges()
    forest = graphs._connected_strip(g)
    assert graphs._far_ends(g, forest, *graphs._fold_at_one(g, *forest)[3:])[:3] == (d, u, v)
    rep = analyze(g)
    core_vertices, r = _brute_core_vertices(g, dist, path)
    kind, params = separate_folds.classify_rebuilt(g, forest, path)[:2]
    for core in (rep.core, reduce_to_core(g)):
        assert (core.diametral_path, core.core_vertices) == (path, core_vertices), g.edges()
        assert (core.kind, core.params) == (kind, params), g.edges()
    eigs = numpy_eigs(g)
    count01, mult1 = int(sum(eigs < 1 - 1e-9)), int(sum(abs(eigs - 1) < 1e-9))
    want = (g.n, r, d, count01, mult1, exhaustive_gamma(g), main_lower_bound(d, r))
    got = (rep.n, rep.girth, rep.diameter, rep.count01, rep.mult1, rep.gamma, rep.main_bound)
    assert got == want, g.edges()


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_every_class_and_a_relabelling(self, n):
        rng = random.Random(100 + n)
        for g in enumerate_unicyclic(n):
            _assert_brute_force(g)
            _assert_brute_force(_relabelled(g, rng))

    def test_suns_spiders_and_even_cycles(self):
        rng = random.Random(6)
        corpus = [make_cycle(r) for r in (4, 6, 8)] + [spider(3, 1, [3, 3]), spider(4, 1, [3, 3])]
        for r in (3, 4):  # suns: a leaf r + i on every cycle vertex i
            edges = [(i, (i + 1) % r) for i in range(r)] + [(i, r + i) for i in range(r)]
            corpus.append(Graph.from_edges(2 * r, edges))
        for g in corpus:
            _assert_brute_force(g)
            _assert_brute_force(_relabelled(g, rng))
