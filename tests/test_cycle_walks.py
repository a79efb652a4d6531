"""analyze's one walk round the cycle against the walks it replaced.

cycle_walks holds the earlier code: gamma closed by three walks up the
cycle, each cycle vertex's reach from two deque windows, a distance from u
to every vertex, and the core classified from sets over the kept vertices.
The fold, the diametral path, the core and every BoundReport field (the
core's kind, params, core_vertices and diametral_path included) must match
on every class with n <= 11, a relabelling of every class with n <= 9, 3000
random graphs with n <= 150, every lollipop with n < 40 and every valid
compass with n <= 24. graphs._cycle_reach is checked against brute force.
"""

import itertools
import random

import pytest

import cycle_walks
from conftest import spider
from unilap import graphs
from unilap.bounds import analyze
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


def _assert_same_walks(g: Graph) -> None:
    """The fold and the diametral path of a tree or a unicyclic g."""
    forest = graphs._connected_strip(g)
    folded = graphs._fold_at_one(g, *forest)
    assert folded == cycle_walks._fold_at_one(g, *forest), g.edges()
    got = graphs._unicyclic_diameter_and_path(*forest, *folded[3:])
    assert got == cycle_walks._unicyclic_diameter_and_path(*forest, *folded[3:]), g.edges()


def _assert_same_report(g: Graph) -> None:
    _assert_same_walks(g)
    forest = graphs._unicyclic_strip(g)
    _, path = diameter_and_path(g)
    assert graphs._reduce_to_core(g, forest, path) == cycle_walks._reduce_to_core(
        g, forest, path
    ), g.edges()
    assert analyze(g) == cycle_walks.analyze(g), g.edges()


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
