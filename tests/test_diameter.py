"""The linear-time diameter against the all-pairs diameter it replaced.

allpairs_diameter holds the earlier n^2-distance diameter_and_path; a tree
or a unicyclic graph now reads the diameter's ends off the pendant-tree
heights and deepest labels and the cycle's reach (a tree's cycle is its
root alone), and every other graph runs one BFS per source keeping O(n)
memory. Both must choose the same diameter and the same diametral path
everywhere, and the family closed forms must hold at sizes the all-pairs
table could not reach.
"""

import random
import tracemalloc

import pytest

import structure_oracle
from allpairs_diameter import diameter_and_path as allpairs_diameter_and_path
from conftest import spider, tree_from_code
from unilap import bounds, graphs, spectra
from unilap.enumeration import enumerate_unicyclic, rooted_trees
from unilap.errors import NotConnectedError
from unilap.graphs import (
    CompassParams,
    Graph,
    diameter_and_path,
    disjoint_union,
    make_compass,
    make_cycle,
    make_lollipop,
    make_path,
    reduce_to_core,
    unicyclic_decompose,
)
from unilap.harness import random_connected_graph, random_tree, random_unicyclic


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def _assert_same_diameter(g: Graph) -> None:
    assert diameter_and_path(g) == allpairs_diameter_and_path(g), g.edges()


class TestDifferential:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_every_unicyclic_class_and_a_relabelling(self, n):
        rng = random.Random(n)
        for g in enumerate_unicyclic(n):
            _assert_same_diameter(g)
            _assert_same_diameter(_relabelled(g, rng))

    def test_corpus(self, corpus):
        for g in corpus:
            _assert_same_diameter(g)

    @pytest.mark.parametrize(
        "make",
        [
            random_unicyclic,
            random_tree,
            lambda rng, n: random_connected_graph(rng, n, rng.randrange(4)),
        ],
        ids=["unicyclic", "tree", "connected"],
    )
    def test_random_graphs(self, make):
        rng = random.Random(2024)
        for _ in range(500):
            _assert_same_diameter(make(rng, rng.randrange(3, 61)))

    def test_disconnected_is_rejected_like_the_oracle(self):
        g = graphs.disjoint_union(make_cycle(3), make_cycle(4))  # m == n, two components
        for f in (diameter_and_path, allpairs_diameter_and_path):
            with pytest.raises(NotConnectedError):
                f(g)


def _star(n: int, centre: int) -> Graph:
    return Graph.from_edges(n, [(centre, v) for v in range(n) if v != centre])


class TestTreeDifferential:
    """Trees take the unicyclic route as a one-vertex cycle at the root the
    strip ends on, and must pick the all-pairs diameter's path and ties."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_paths_and_their_relabellings(self, n):
        rng = random.Random(n)
        g = make_path(n)
        assert diameter_and_path(g) == (n - 1, tuple(range(n)))
        for h in [g] + [_relabelled(g, rng) for _ in range(10)]:
            _assert_same_diameter(h)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stars_centred_anywhere(self, n):
        for centre in range(n):
            _assert_same_diameter(_star(n, centre))

    def test_random_trees_and_relabellings(self):
        rng = random.Random(2025)
        for _ in range(400):
            g = random_tree(rng, rng.randrange(1, 80))
            _assert_same_diameter(g)
            _assert_same_diameter(_relabelled(g, rng))

    def test_every_rooted_tree_shape(self):
        """Every tree on up to 8 vertices, as the rooted trees of enumeration
        with the root at 0, and each under a relabelling."""
        rng = random.Random(3)
        for n in range(1, 9):
            for code in rooted_trees(n):
                g = tree_from_code(code)
                _assert_same_diameter(g)
                _assert_same_diameter(_relabelled(g, rng))


def _even_cycle_with_tails(k: int, j: int, length: int) -> Graph:
    """C_2k on 0..2k-1 with a pendant path of `length` vertices at 0 and at j."""
    r = 2 * k
    edges = [(i, i + 1) for i in range(r - 1)] + [(0, r - 1)]
    n = r
    for root in (0, j):
        edges += [(root, n)] + [(n + i, n + i + 1) for i in range(length - 1)]
        n += length
    return Graph.from_edges(n, edges)


def _climb(dec: graphs.UnicyclicDecomposition, x: int) -> list[int]:
    out = [x]
    while dec.parent[out[-1]] != out[-1]:
        out.append(dec.parent[out[-1]])
    return out


class TestForestPathBranches:
    """Each branch of the forest-read diametral path against all pairs.

    The path either joins u and v inside one pendant tree, or climbs, runs
    the shorter arc and descends; on an even cycle both arcs can be
    shortest and the labels decide, so those cases run under relabellings.
    """

    @pytest.mark.parametrize("k", range(2, 7))
    def test_even_cycle_antipodal_tails_tie(self, k):
        rng = random.Random(k)
        for length in (1, 2, 3):
            g = _even_cycle_with_tails(k, k, length)
            sides = set()
            perms = [list(range(g.n))] + [rng.sample(range(g.n), g.n) for _ in range(20)]
            for perm in perms:
                h = Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
                d, path = diameter_and_path(h)
                assert (d, path) == allpairs_diameter_and_path(h), h.edges()
                assert d == 2 * length + k
                # the arcs from 0 to k run through 1 and through 2k - 1
                sides.add(perm[1] in path)
            assert sides == {True, False}

    @pytest.mark.parametrize("k", range(2, 7))
    def test_even_cycle_tails_not_antipodal(self, k):
        rng = random.Random(100 + k)
        for j in range(1, k):
            for length in (1, 2, k):
                g = _even_cycle_with_tails(k, j, length)
                for h in [g] + [_relabelled(g, rng) for _ in range(20)]:
                    assert diameter_and_path(h) == allpairs_diameter_and_path(h), h.edges()

    def test_bare_triangle(self):
        g = make_cycle(3)
        assert diameter_and_path(g) == allpairs_diameter_and_path(g) == (1, (0, 1))

    @pytest.mark.parametrize("r", range(3, 9))
    def test_spiders_with_both_ends_in_one_tree(self, r):
        """Two legs longer than any reach round the cycle: u and v share a
        root, and the relabellings put u on the longer leg and on the
        shorter one, with the climbs meeting off the cycle and on it."""
        rng = random.Random(r)
        for stem in range(0, 4):
            reach = stem + r // 2
            g = spider(r, stem, [reach + 2, reach + 1])
            deeper = set()
            for h in [g] + [_relabelled(g, rng) for _ in range(20)]:
                d, path = diameter_and_path(h)
                assert (d, path) == allpairs_diameter_and_path(h), h.edges()
                dec = unicyclic_decompose(h)
                up, down = _climb(dec, path[0]), _climb(dec, path[-1])
                assert up[-1] == down[-1]
                deeper.add(len(up) > len(down))
            assert deeper == {True, False}

    @pytest.mark.parametrize("r", range(3, 9))
    def test_brooms_with_one_end_on_the_cycle(self, r):
        """A handle and bristles: every diametral pair is a bristle and a
        cycle vertex opposite the handle, and the relabellings put u on the
        cycle (a climb of one vertex) and v there."""
        rng = random.Random(10 + r)
        for handle in range(1, 4):
            g = spider(r, handle, [1, 1, 1])
            on_cycle = set()
            for h in [g] + [_relabelled(g, rng) for _ in range(20)]:
                d, path = diameter_and_path(h)
                assert (d, path) == allpairs_diameter_and_path(h), h.edges()
                assert d == handle + 1 + r // 2
                dec = unicyclic_decompose(h)
                on_cycle.add(dec.parent[path[0]] == path[0])
            assert on_cycle == {True, False}

    def test_neither_end_is_an_ancestor_of_the_other(self):
        """A cycle neighbour of an ancestor's root would lie one step farther
        than d, so the tree path always meets strictly above both ends."""
        rng = random.Random(12)
        corpus = [g for n in range(3, 10) for g in enumerate_unicyclic(n)]
        corpus += [random_unicyclic(rng, rng.randrange(3, 80)) for _ in range(200)]
        for g in corpus:
            dec = unicyclic_decompose(g)
            _, path = diameter_and_path(g)
            u, v = path[0], path[-1]
            assert u not in _climb(dec, v) and v not in _climb(dec, u), g.edges()


class TestClosedFormsAtScale:
    @pytest.mark.parametrize("n", [960, 5000])
    def test_cycle(self, n):
        d, path = diameter_and_path(make_cycle(n))
        assert d == n // 2
        assert path == tuple(range(n // 2 + 1))
        core = reduce_to_core(make_cycle(n))
        assert (core.kind, core.params) == ("cycle", (n,))

    @pytest.mark.parametrize("n", [960, 5000])
    def test_lollipop(self, n):
        for r in (3, 4, n // 3, n // 3 + 1, n - 1):
            g = make_lollipop(n, r)
            d, path = diameter_and_path(g)
            assert d == n - -(-r // 2)
            assert len(path) == d + 1
            core = reduce_to_core(g)
            assert (core.kind, core.params) == ("lollipop", (n, r))

    @pytest.mark.parametrize("n", [960, 5000])
    def test_compass(self, n):
        r = n // 4
        for p in (
            CompassParams(n, r, r // 2, n // 5),
            CompassParams(n, r + 1, (r + 1) // 2, 1),
            CompassParams(n, r, 1, n // 2),
        ):
            p.validate()
            g = make_compass(p)
            d, path = diameter_and_path(g)
            assert d == p.r_prime + p.t + p.s
            assert len(path) == d + 1
            core = reduce_to_core(g)
            params = (n, p.r, p.r_prime, min(p.t, p.s))
            assert (core.kind, core.params) == ("compass", params)


class TestLinearMemory:
    """A diameter never holds an n x n distance table: 8 n^2 bytes of list
    slots alone. The bound allows a tenth of that."""

    @pytest.mark.parametrize(
        "g", [make_path(600), make_lollipop(2000, 700)], ids=["tree", "unicyclic"]
    )
    def test_peak_memory_is_linear(self, g):
        tracemalloc.start()
        try:
            diameter_and_path(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.n * g.n // 10, peak


class TestCoreDecomposition:
    def test_derived_core_decomposition_classifies_like_a_fresh_one(self):
        """The core's cycle is relabelled from g's, not found again; a fresh
        strip of the core, with the diametral path in the core's labels,
        classifies it the same way."""
        rng = random.Random(9)
        graphs_ = [g for n in range(3, 10) for g in enumerate_unicyclic(n)]
        graphs_ += [random_unicyclic(rng, rng.randrange(5, 40)) for _ in range(100)]
        for g in graphs_:
            core = reduce_to_core(g)
            _, _, (cycle,) = graphs._unicyclic_strip(core.core)
            path = tuple(core.core_vertices.index(v) for v in core.diametral_path)
            fresh = structure_oracle.classify_by_degrees(core.core, cycle, path)
            assert (core.kind, core.params) == fresh, g.edges()


def _count_calls(monkeypatch, names):
    """Wrap each named graphs function wherever graphs, bounds or spectra
    binds it, recording the first argument of every call."""
    calls = []
    for name in names:
        original = getattr(graphs, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args[0])
            return _original(*args, **kwargs)

        for module in (graphs, bounds, spectra):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


class TestStructureOncePerAnalyze:
    @pytest.mark.parametrize(
        "g",
        [
            make_compass(CompassParams(14, 8, 4, 3)),
            make_lollipop(20, 7),
            random_unicyclic(random.Random(3), 30),
        ],
        ids=["compass", "lollipop", "random"],
    )
    def test_decompose_and_diameter_run_once(self, monkeypatch, g):
        """One leaf strip and one read of the diameter's ends, no path and
        no decomposition."""

        def forbidden(*args, **kwargs):
            raise AssertionError("analyze built a UnicyclicDecomposition")

        strips = _count_calls(monkeypatch, ["_cycle_forest"])
        ends = _count_calls(monkeypatch, ["_far_ends"])
        paths = _count_calls(monkeypatch, ["diameter_and_path", "_diametral_path"])
        monkeypatch.setattr(graphs, "UnicyclicDecomposition", forbidden)
        bounds.analyze(g)
        assert strips == [g]
        assert len(ends) == 1 and paths == []


class TestOnlyTheFoldTheAnswerReads:
    """Each entry point runs only the part of the fold at 1 that its answer
    reads: the diameter and the core read the heights alone, gamma reads
    the domination states alone, and analyze reaches round its cycle once."""

    UNICYCLIC = [
        make_cycle(3),
        make_lollipop(20, 7),
        make_compass(CompassParams(14, 8, 4, 3)),
        spider(5, 2, [6, 5]),
        random_unicyclic(random.Random(5), 30),
    ]
    IDS = ["triangle", "lollipop", "compass", "spider", "random"]

    @pytest.mark.parametrize("g", UNICYCLIC, ids=IDS)
    def test_diameter_and_core_close_no_cycle(self, monkeypatch, g):
        closes = _count_calls(monkeypatch, ["_close"])
        diameter_and_path(g)
        reduce_to_core(g)
        diameter_and_path(random_tree(random.Random(g.n), g.n))
        assert closes == []

    @pytest.mark.parametrize("g", UNICYCLIC, ids=IDS)
    def test_domination_closes_no_pivot(self, monkeypatch, g):
        closes = _count_calls(monkeypatch, ["_close_cycle"])
        bounds.domination_number(g)
        bounds.domination_number(disjoint_union(g, make_path(7)))
        assert closes == []

    @pytest.mark.parametrize("g", UNICYCLIC, ids=IDS)
    def test_analyze_reaches_round_the_cycle_once(self, monkeypatch, g):
        reaches = _count_calls(monkeypatch, ["_cycle_reach"])
        bounds.analyze(g)
        assert len(reaches) == 1


class TestSingleConnectivityPass:
    """On a unicyclic input the leaf strip is the one connectivity pass: no
    search runs anywhere on the structure or analyze path."""

    @pytest.mark.parametrize(
        "g",
        [
            make_cycle(9),
            make_lollipop(20, 7),
            make_compass(CompassParams(14, 8, 4, 3)),
            spider(5, 2, [6, 5]),
            random_unicyclic(random.Random(4), 30),
        ],
        ids=["cycle", "lollipop", "compass", "spider", "random"],
    )
    def test_no_connectivity_search(self, monkeypatch, g):
        def forbidden(*args):
            raise AssertionError("searched a unicyclic graph")

        monkeypatch.setattr(Graph, "is_connected", forbidden)
        monkeypatch.setattr(graphs, "bfs_distances", forbidden)
        monkeypatch.setattr(graphs, "_walk_to", forbidden)
        unicyclic_decompose(g)
        diameter_and_path(g)
        reduce_to_core(g)
        bounds.analyze(g)

    @pytest.mark.parametrize(
        "g",
        [
            make_path(1),
            make_path(2),
            make_path(30),
            _star(12, 5),
            random_tree(random.Random(4), 40),
        ],
        ids=["one-vertex", "edge", "path", "star", "random"],
    )
    def test_no_search_on_a_tree(self, monkeypatch, g):
        """A tree takes the unicyclic route, rooted at its last stripped
        vertex, so its diameter and gamma need no search either."""

        def forbidden(*args):
            raise AssertionError("searched a tree")

        monkeypatch.setattr(Graph, "is_connected", forbidden)
        monkeypatch.setattr(graphs, "bfs_distances", forbidden)
        monkeypatch.setattr(graphs, "_walk_to", forbidden)
        diameter_and_path(g)
        bounds.domination_number(g)

    def test_disconnected_with_as_many_edges_as_vertices(self):
        g = disjoint_union(make_cycle(3), make_cycle(4))
        assert g.m == g.n
        with pytest.raises(NotConnectedError):
            diameter_and_path(g)
