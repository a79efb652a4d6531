"""analyze's far ends and its one walk round the cycle against brute force.

graphs._cycle_reach is checked against the reach taken vertex by vertex
round the cycle. The diameter's ends, the diametral path, the core and
the measured BoundReport fields are checked on every class with n <= 9,
a relabelling of each, suns, spiders and even cycles: all-pairs BFS for
the diameter, the least pair and the least shortest sequence by search,
leaf deletion and distances for the core's vertices, the rebuilt core's
degrees (structure_oracle) for its kind, numpy for count01 and mult1 and
subset search for gamma.
"""

import itertools
import random
from collections import deque

import pytest

import structure_oracle
from conftest import exhaustive_gamma, numpy_eigs, spider
from unilap import graphs
from unilap.bounds import analyze, main_lower_bound
from unilap.enumeration import enumerate_unicyclic
from unilap.graphs import Graph, diameter_and_path, make_cycle, reduce_to_core


def _brute_reach(h: list[int]) -> list[int]:
    r = len(h)
    if r == 1:
        return [0]
    return [
        max(h[j] + min(abs(i - j), r - abs(i - j)) for j in range(r) if j != i) for i in range(r)
    ]


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
                    dominant += sum(x < y for x, y in zip(far, h))
                    ties += sum(x == y for x, y in zip(far, h))
        assert dominant > 0 and ties > 0

    @pytest.mark.parametrize(
        "h",
        [[9, 0, 0, 0, 0, 0, 0], [0, 0, 0, 9, 0, 0], [3, 2, 0, 0, 0], [0, 4, 3, 2, 1, 0, 1, 2, 3]],
        ids=["dominant-odd", "dominant-even", "tie", "tied-slopes"],
    )
    def test_dominant_and_tied_heights(self, h):
        assert graphs._cycle_reach(h) == _brute_reach(h)

    def test_seeded_vectors_up_to_300(self):
        rng = random.Random(20)
        for _ in range(150):
            r = rng.randrange(3, 301)
            h = [rng.randrange(rng.choice([1, 3, 10, r])) for _ in range(r)]
            if rng.random() < 0.3:
                h[rng.randrange(r)] += rng.randrange(r)  # often the dominant index
            assert graphs._cycle_reach(h) == _brute_reach(h), h


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


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
    parent, (cycle,) = forest[1:]
    got, fold = graphs._fold_at_one(g, forest)[3:]
    got_u, got_v, i, j = graphs._far_ends(g, forest, got, fold)
    assert (got, got_u, got_v) == (d, u, v), g.edges()
    assert (cycle[i], cycle[j]) == (_root(parent, u), _root(parent, v)), g.edges()
    rep = analyze(g)
    core_vertices, r = _brute_core_vertices(g, dist, path)
    kind, params = structure_oracle.classify_rebuilt(g, forest, path)[:2]
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
