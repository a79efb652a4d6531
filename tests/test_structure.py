"""The shared cycle-rooted forest against the structure code it replaced.

One leaf strip (stripped, parent, cycle) is read by the diameter's ends,
the diametral path, the connector to the cycle and the core's
classification; unicyclic_decompose builds its public view from the same
strip. structure_oracle holds the earlier code, which built that rooting
three times over, took every eccentricity from BFS-rooted heights and two
deque windows, and found the path by two BFS; both must give the same
cycle, trees, diametral path and core classification on every input.
"""

import itertools
import random

import pytest

import structure_oracle as oracle
from conftest import forests_upto, one_cycle_unions, spider
from unilap import graphs
from unilap.bounds import analyze
from unilap.enumeration import enumerate_unicyclic
from unilap.errors import NotConnectedError, NotUnicyclicError
from unilap.graphs import (
    Graph,
    diameter_and_path,
    disjoint_union,
    make_cycle,
    make_lollipop,
    make_path,
    reduce_to_core,
    unicyclic_decompose,
)
from unilap.harness import random_unicyclic


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def _path_misses_cycle(g: Graph) -> bool:
    return set(unicyclic_decompose(g).cycle).isdisjoint(diameter_and_path(g)[1])


def _assert_same_structure(g: Graph) -> None:
    dec = unicyclic_decompose(g)
    cycle, trees = oracle.decompose(g)
    assert dec.cycle == cycle, g.edges()
    assert dec.trees == trees, g.edges()
    _, parent, (strip_cycle,) = graphs._unicyclic_strip(g)
    assert tuple(strip_cycle) == cycle and parent == dec.parent, g.edges()
    got, want = reduce_to_core(g), oracle.reduce_to_core(g)
    assert (got.kind, got.params) == (want.kind, want.params), g.edges()
    assert got.core.edges() == want.core.edges(), g.edges()
    assert got.core_vertices == want.core_vertices, g.edges()
    assert got.diametral_path == want.diametral_path, g.edges()


def _assert_forest(g: Graph, dec: graphs.UnicyclicDecomposition) -> None:
    """order and parent root every pendant tree at its cycle vertex."""
    r = dec.girth
    assert sorted(dec.order) == list(range(g.n))
    assert tuple(dec.order[:r]) == dec.cycle
    position = {v: i for i, v in enumerate(dec.order)}
    for v in range(g.n):
        p = dec.parent[v]
        assert (p == v) == (v in dec.cycle)
        if p != v:
            assert p in g.adj[v] and position[p] < position[v]
    # each parent is one step nearer the cycle
    rows = [graphs.bfs_distances(g, c) for c in dec.cycle]
    to_cycle = [min(row[v] for row in rows) for v in range(g.n)]
    assert all(to_cycle[dec.parent[v]] == to_cycle[v] - 1 for v in dec.order[r:])


def _spiders() -> list[Graph]:
    """Graphs whose every diametral path lies in one pendant tree."""
    out = []
    for r in range(3, 9):
        for stem in range(1, 5):
            for legs in ([stem + r // 2 + 1] * 2, [stem + r // 2 + 2, stem + r // 2 + 1, 1]):
                out.append(spider(r, stem, legs))
    return out


class TestForestDifferential:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_unicyclic_class_and_a_relabelling(self, n):
        rng = random.Random(n)
        for g in enumerate_unicyclic(n):
            _assert_same_structure(g)
            _assert_same_structure(_relabelled(g, rng))

    def test_random_unicyclic_up_to_200(self):
        rng = random.Random(8)
        misses = 0
        for _ in range(500):
            g = random_unicyclic(rng, rng.randrange(3, 201))
            _assert_same_structure(g)
            misses += _path_misses_cycle(g)
        assert misses > 0

    def test_diametral_path_missing_the_cycle(self):
        rng = random.Random(1)
        for g in _spiders():
            assert _path_misses_cycle(g)
            _assert_same_structure(g)
            _assert_same_structure(_relabelled(g, rng))
            assert reduce_to_core(g).kind == "other"

    @pytest.mark.parametrize(
        "g, error",
        [
            (make_path(4), NotUnicyclicError),
            (disjoint_union(make_cycle(3), make_cycle(4)), NotConnectedError),
            (disjoint_union(make_path(2), make_cycle(3)), NotConnectedError),
        ],
        ids=["tree", "two-cycles", "disconnected-and-not-unicyclic"],
    )
    def test_same_errors_in_the_same_order(self, g, error):
        for decompose in (unicyclic_decompose, oracle.decompose):
            with pytest.raises(error):
                decompose(g)


def _bowtie() -> Graph:
    """Two triangles sharing vertex 0."""
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def _theta() -> Graph:
    """K4 minus the edge (2, 3)."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


class TestConnectivityFromTheStrip:
    """With |E| = n, the leaf strip alone tells a disconnected g: a component
    with two cycles leaves a vertex of degree above 2, and another cycle or
    a tree leaves vertices the walk round the first cycle does not cover."""

    @pytest.mark.parametrize(
        "g",
        [
            disjoint_union(make_cycle(3), make_cycle(4)),
            disjoint_union(_bowtie(), make_path(1)),
            disjoint_union(make_path(1), _theta()),
            disjoint_union(make_path(2), _theta()),
            disjoint_union(make_cycle(3), disjoint_union(make_cycle(3), make_cycle(3))),
            disjoint_union(make_cycle(5), make_lollipop(6, 3)),
            disjoint_union(make_path(2), make_cycle(3)),
        ],
        ids=[
            "two-cycles",
            "bowtie-and-a-vertex",
            "a-vertex-and-theta",
            "an-edge-and-theta",
            "three-triangles",
            "cycle-and-lollipop",
            "edge-and-triangle",
        ],
    )
    def test_disconnected_raises_not_connected(self, g):
        assert not g.is_connected()
        for f in (unicyclic_decompose, diameter_and_path, analyze, oracle.decompose):
            with pytest.raises(NotConnectedError):
                f(g)


class TestForest:
    def test_decomposition_roots_every_tree(self):
        rng = random.Random(5)
        corpus = [g for n in range(3, 9) for g in enumerate_unicyclic(n)] + _spiders()
        corpus += [random_unicyclic(rng, rng.randrange(3, 60)) for _ in range(100)]
        for g in corpus:
            _assert_forest(g, unicyclic_decompose(g))

    def test_core_decomposition_is_a_full_forest(self):
        """The core's cycle, relabelled from g's, is the cycle of a fresh
        strip of the core, and the diametral path in the core's labels is a
        diametral path of the core; classified from the core's own degrees
        with that cycle and path, it is what reduce_to_core says."""
        rng = random.Random(6)
        corpus = [make_lollipop(12, 5), make_cycle(7)] + _spiders()
        corpus += [random_unicyclic(rng, rng.randrange(3, 60)) for _ in range(100)]
        for g in corpus:
            got = reduce_to_core(g)
            core = got.core
            index = {v: i for i, v in enumerate(got.core_vertices)}
            _, _, (cycle,) = graphs._unicyclic_strip(g)
            _, _, (fresh,) = graphs._unicyclic_strip(core)
            assert [index[c] for c in cycle] == fresh, g.edges()
            path = tuple(index[v] for v in got.diametral_path)
            assert all(b in core.adj[a] for a, b in zip(path, path[1:])), g.edges()
            assert diameter_and_path(core)[0] == len(path) - 1, g.edges()
            kind = oracle.classify_by_degrees(core, fresh, path)
            assert kind == (got.kind, got.params), g.edges()
            _assert_forest(core, unicyclic_decompose(core))

    def test_whole_graph_core_is_the_graph(self):
        """A core kept on all of V is g itself, not a rebuilt copy."""
        rng = random.Random(7)
        corpus = [make_cycle(n) for n in range(3, 12)]
        corpus += [make_lollipop(n, r) for n in range(4, 12) for r in range(3, n)]
        corpus += [random_unicyclic(rng, rng.randrange(3, 60)) for _ in range(100)]
        whole = 0
        for g in corpus:
            core = reduce_to_core(g)
            assert (core.core is g) == (core.core_vertices == tuple(range(g.n)))
            whole += core.core is g
        assert whole >= 45  # every cycle and lollipop


def _components(g: Graph) -> list[set[int]]:
    """The vertex sets of g's components, by BFS from each unseen vertex."""
    comps, seen = [], set()
    for s in range(g.n):
        if s not in seen:
            comp = {v for v, dist in enumerate(graphs.bfs_distances(g, s)) if dist >= 0}
            seen |= comp
            comps.append(comp)
    return comps


class TestTreeRootsAreOneVertexCycles:
    """_cycle_forest hands each tree component's root back as a one-vertex
    cycle, never as a stripped vertex, so every reader of the strip meets
    one root form."""

    def test_every_forest_and_union(self):
        count = 0
        for g in itertools.chain(forests_upto(7), one_cycle_unions(8)):
            stripped, parent, cycles = graphs._cycle_forest(g)
            on_cycles = [v for cycle in cycles for v in cycle]
            assert sorted(stripped + on_cycles) == list(range(g.n)), g.edges()
            assert set(stripped) == {x for x in range(g.n) if parent[x] != x}, g.edges()
            for comp in _components(g):
                edges = sum(len(g.adj[v]) for v in comp) // 2
                (cycle,) = [cycle for cycle in cycles if cycle[0] in comp]
                assert (len(cycle) == 1) == (edges == len(comp) - 1), g.edges()
            count += 1
        assert count == 199 + 115
