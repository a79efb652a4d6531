"""The one fold at 1 against the heap kernel, every vertex's climb and the structure oracle.

graphs._fold_at_one carries the pivot of L - I, the domination states and
the pendant-tree heights and deepest labels through one pass over the leaf
strip (_pendant_pass), closes the cycle once for the pivots
(linalg._close_cycle) and once for gamma (_cycle_gamma), neither of which
reads a graph (TestGraphFreeClose closes every class with n <= 12 from
per-rank slot states alone), then reads d and the diameter's ends off the
heights (_far_ends). count01 and mult1 are checked against
linalg.sparse_inertia on the rows of L - I, which eliminates by a heap
over rows and shares no step with the strip; the heights and deepest
labels against every vertex's climb, and d and the ends against _far_ends
fed those climbs (test_cycle_walks checks them against all-pairs search);
gamma against subset search and branch and bound in test_bounds. The
core reduction classifies from the diameter's ends and builds the
diametral path, the core vertices and the core only when each is read;
structure_oracle rebuilds the core from parent edges and classifies it
from its degrees.
"""

import random
from functools import cached_property
from operator import add

import pytest

import structure_oracle
from conftest import spider
from unilap import enumeration, graphs, linalg, spectra
from unilap.bounds import analyze
from unilap.enumeration import enumerate_unicyclic
from unilap.graphs import (
    CompassParams,
    Graph,
    diameter_and_path,
    make_compass,
    make_cycle,
    make_lollipop,
    make_path,
    reduce_to_core,
)
from unilap.harness import random_tree, random_unicyclic


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def _sun(r: int, rays: int) -> Graph:
    """C_r with a pendant vertex on each of its first `rays` cycle vertices."""
    edges = [(i, (i + 1) % r) for i in range(r)] + [(i, r + i) for i in range(rays)]
    return Graph.from_edges(r + rays, edges)


def _spiders() -> list[Graph]:
    """Graphs whose every diametral path lies in one pendant tree."""
    return [
        spider(r, stem, legs)
        for r in range(3, 9)
        for stem in range(1, 5)
        for legs in ([stem + r // 2 + 1] * 2, [stem + r // 2 + 2, stem + r // 2 + 1, 1])
    ]


def _assert_fold(g: Graph) -> None:
    forest = graphs._connected_strip(g)
    neg, zero, _, d, (down, ends) = graphs._fold_at_one(g, forest)
    at_one = linalg.sparse_inertia(spectra._shifted_rows(g, 1))
    assert (neg, zero) == (at_one.negatives, at_one.zeros), g.edges()
    climbs = _climbs(forest[1])
    assert graphs._pendant_pass(g, *forest[:2])[8:] == climbs, g.edges()
    assert down == climbs[0], g.edges()
    assert (d, *ends) == graphs._far_ends(g, forest, *climbs), g.edges()


def _climbs(parent: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(down, second, lo) from every vertex's climb: (depth below the
    ancestor, label) is kept at its largest depth and there at its smallest
    label, and second[x] is the runner-up over x's children y of
    1 + down[y] (0 with fewer than two children)."""
    n = len(parent)
    best = [(0, -x) for x in range(n)]
    for y in range(n):
        x, k = y, 0
        while parent[x] != x:
            x, k = parent[x], k + 1
            best[x] = max(best[x], (k, -y))
    down = [k for k, _ in best]
    reach: list[list[int]] = [[0, 0] for _ in range(n)]
    for y, x in enumerate(parent):
        if x != y:
            reach[x].append(down[y] + 1)
    return down, [sorted(heights)[-2] for heights in reach], [-label for _, label in best]


class TestFoldAgainstTheHeapKernelAndClimbs:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_unicyclic_class_and_a_relabelling(self, n):
        rng = random.Random(n)
        for g in enumerate_unicyclic(n):
            _assert_fold(g)
            _assert_fold(_relabelled(g, rng))

    @pytest.mark.parametrize("make", [random_tree, random_unicyclic], ids=["tree", "unicyclic"])
    def test_random_graphs(self, make):
        rng = random.Random(18)
        for _ in range(300):
            _assert_fold(make(rng, rng.randrange(3, 201)))

    def test_small_trees(self):
        for n in range(1, 13):
            _assert_fold(make_path(n))
            _assert_fold(Graph.from_edges(n, [(0, v) for v in range(1, n)]))

    def test_suns_cut_the_cycle(self):
        """A ray pairs with its cycle vertex at 1, which cuts the cycle: with
        every vertex cut the arcs are empty, with some cut they fold as paths."""
        for r in range(3, 25):
            for rays in range(1, r + 1):
                _assert_fold(_sun(r, rays))
        sun = _sun(30, 30)  # each ray and its cycle vertex: one negative, one positive
        assert graphs._fold_at_one(sun, graphs._connected_strip(sun))[:2] == (30, 0)

    def test_cycles_whose_closing_minor_vanishes(self):
        """1 is a double eigenvalue of C_r exactly when 6 | r, so the intact
        cycle closes through the zero branches of _cycle_inertia."""
        for r in range(3, 61):
            g = make_cycle(r)
            _assert_fold(g)
            _, zero, gamma = graphs._fold_at_one(g, graphs._connected_strip(g))[:3]
            assert zero == (2 if r % 6 == 0 else 0), r
            assert gamma == -(-r // 3), r

    def test_families(self):
        for n in range(4, 30):
            for r in range(3, n):
                _assert_fold(make_lollipop(n, r))
        _assert_fold(make_compass(CompassParams(30, 12, 6, 5)))
        for g in _spiders():
            _assert_fold(g)


def _assert_core(g: Graph) -> None:
    """The lazy core against the core rebuilt from parent edges and
    classified from its degrees; test_structure checks the same cores, the
    path among them, against the BFS-built ones of structure_oracle."""
    got = reduce_to_core(g)
    core = got.core
    assert got.core is core  # built once
    assert (core is g) == (len(got.core_vertices) == g.n)
    forest = graphs._connected_strip(g)
    rebuilt = structure_oracle.classify_rebuilt(g, forest, got.diametral_path)
    assert rebuilt[:2] == (got.kind, got.params) and rebuilt[3] == got.core_vertices, g.edges()
    assert rebuilt[2].edges() == core.edges(), g.edges()


class TestLazyCore:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_every_unicyclic_class(self, n):
        for g in enumerate_unicyclic(n):
            _assert_core(g)

    def test_spiders_and_random_graphs(self):
        rng = random.Random(19)
        corpus = _spiders() + [random_unicyclic(rng, rng.randrange(3, 120)) for _ in range(200)]
        for g in corpus:
            _assert_core(g)


class TestAnalyzeBuildsNoGraph:
    @pytest.mark.parametrize(
        "g",
        [spider(5, 2, [6, 5, 1]), spider(8, 1, [7, 6, 1])]
        + [random_unicyclic(random.Random(s), 40) for s in range(5)],
    )
    def test_core_built_only_when_read(self, monkeypatch, g):
        """A core short of V is classified in g's labels: analyze calls
        neither Graph constructor, and reading .core builds one Graph."""
        built = []
        for name in ("from_edges", "_trusted"):
            original = getattr(Graph, name)

            def counted(*args, _name=name, _original=original):
                built.append(_name)
                return _original(*args)

            monkeypatch.setattr(Graph, name, staticmethod(counted))
        rep = analyze(g)
        assert len(rep.core.core_vertices) < g.n
        assert built == []
        core = rep.core.core
        assert built == ["_trusted"] and core.n == len(rep.core.core_vertices)


class TestLazyPathAndCoreVertices:
    @pytest.mark.parametrize(
        "g",
        [make_cycle(8), make_lollipop(20, 7), spider(5, 2, [6, 5, 1])]
        + [random_unicyclic(random.Random(s), 40) for s in range(3)],
    )
    def test_built_only_when_read(self, monkeypatch, g):
        """analyze classifies the core from the diameter's ends: it builds
        no path tuple and no core vertex tuple, and each is built once, when
        first read."""
        built = []
        for name in ("diametral_path", "core_vertices"):
            build = vars(graphs.CoreClassification)[name].func

            def counted(core, _name=name, _build=build):
                built.append(_name)
                return _build(core)

            prop = cached_property(counted)
            prop.__set_name__(graphs.CoreClassification, name)
            monkeypatch.setattr(graphs.CoreClassification, name, prop)
        core = analyze(g).core
        assert built == []
        path = core.diametral_path
        assert built == ["diametral_path"] and core.diametral_path is path
        assert path == diameter_and_path(g)[1]
        assert core.core_vertices is core.core_vertices
        assert built == ["diametral_path", "core_vertices"]


def _rank_slot(rows: tuple) -> tuple:
    """The slot state of one rank, from one _pendant_pass over its tree hung
    at its root on a triangle, so that the root's pivot counts its two cycle
    edges: (neg, zero, num, den, paired, a, b, c, height, diameter). A set
    size at or above the triangle graph's n + 1 means no such set: None."""
    s = len(rows)
    tree = [(parent, k) for k, (parent, _) in enumerate(rows) if k]
    h = Graph.from_edges(s + 2, [(0, s), (0, s + 1), (s, s + 1)] + tree)
    stripped, parent, _ = graphs._cycle_forest(h)
    neg, zero, num, den, paired, a, b, c, down, second, _ = graphs._pendant_pass(
        h, stripped, parent
    )
    sets = [x if x < s + 3 else None for x in (a[0], b[0], c[0])]
    return neg, zero, num[0], den[0], paired[0], *sets, down[0], max(map(add, down, second))


def _close_class(n: int, slots: list[tuple]) -> tuple[int, int, int, int]:
    """(count01, mult1, gamma, d) of the class whose cycle carries slots in
    order, closed at positions 0..r-1 with no graph."""
    neg, zero, num, den, paired, *sets, heights, diameters = map(list, zip(*slots))
    inf = n + 1
    a, b, c = ([inf if x is None else x for x in col] for col in sets)
    cycle = list(range(len(slots)))
    closed_neg, closed_zero, _ = linalg._close_cycle(cycle, num, den, paired, 1)
    gamma = graphs._cycle_gamma(cycle, a, b, c, inf)
    d = max(max(diameters), max(map(add, heights, graphs._cycle_reach(heights))))
    return sum(neg) + closed_neg, sum(zero) + closed_zero, gamma, d


class TestGraphFreeClose:
    def test_every_class_to_twelve_from_rank_slots(self, monkeypatch):
        """Each rank of the tree alphabet is folded once; each class with
        n <= 12 then closes from its rank sequence's slot states by
        linalg._close_cycle, _cycle_gamma and _cycle_reach alone, with no
        Graph built, and gives analyze's count01, mult1, gamma and
        diameter."""
        alpha = enumeration._alphabet(10)
        slots = {x: _rank_slot(alpha.rows[x]) for x in alpha.capped[10]}

        def forbidden(*args):
            raise AssertionError("a Graph was built while closing from slots")

        closed = []
        with monkeypatch.context() as patch:
            patch.setattr(Graph, "_trusted", staticmethod(forbidden))
            patch.setattr(Graph, "__post_init__", forbidden)
            for n in range(3, 13):
                for r in range(3, n + 1):
                    for seq in enumeration._bracelets(n, r, alpha):
                        closed.append(_close_class(n, [slots[x] for x in seq]))
        want = []
        for n in range(3, 13):
            for g in enumerate_unicyclic(n):
                rep = analyze(g)
                want.append((rep.count01, rep.mult1, rep.gamma, rep.diameter))
        assert len(closed) == len(want) == 7872
        assert closed == want
