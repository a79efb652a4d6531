"""The direct-adjacency generators, edge removal and Laplacian helpers
against the edge-list code they replaced (edge_list_builders.py), and the
range checks on vertex ids that edge edits written through Graph._trusted
rely on."""

import random

import pytest

import edge_list_builders as old
from unilap import graphs
from unilap.enumeration import enumerate_unicyclic
from unilap.errors import EdgeNotPresentError, InvalidParameterError
from unilap.graphs import (
    CompassParams,
    Graph,
    join_with_edge,
    make_compass,
    make_cycle,
    make_lollipop,
    make_path,
)
from unilap.harness import random_connected_graph
from unilap.spectra import check_interlacing, laplacian_apply, spectrum_float


def _valid_compasses(max_n: int):
    for n in range(5, max_n + 1):
        for r in range(3, n - 1):
            for r_prime in range(1, r // 2 + 1):
                for t in range(1, n - r):
                    p = CompassParams(n, r, r_prime, t)
                    if r_prime + min(t, p.s) >= r // 2:
                        yield p


def _assert_same_valid_graph(got: Graph, want: Graph) -> None:
    assert got == want, (got.n, got.edges(), want.edges())
    assert Graph(got.n, got.adj) == got  # the full __post_init__ check


class TestGeneratorsAgainstEdgeLists:
    def test_every_path_and_cycle(self):
        for n in range(1, 61):
            _assert_same_valid_graph(make_path(n), old.make_path(n))
        for n in range(3, 61):
            _assert_same_valid_graph(make_cycle(n), old.make_cycle(n))

    def test_every_lollipop(self):
        for n in range(3, 61):
            for r in range(3, n + 1):
                _assert_same_valid_graph(make_lollipop(n, r), old.make_lollipop(n, r))

    def test_every_valid_compass(self):
        count = 0
        for p in _valid_compasses(40):
            _assert_same_valid_graph(make_compass(p), old.make_compass(p))
            count += 1
        assert count == 30006

    @pytest.mark.parametrize(
        "build, args",
        [
            ("make_path", (0,)),
            ("make_path", (-3,)),
            ("make_cycle", (2,)),
            ("make_cycle", (-1,)),
            ("make_lollipop", (5, 2)),
            ("make_lollipop", (5, 6)),
            ("make_lollipop", (2, 3)),
            ("make_compass", (CompassParams(6, 5, 1, 1),)),   # r > n - 2
            ("make_compass", (CompassParams(8, 4, 0, 2),)),   # r' < 1
            ("make_compass", (CompassParams(8, 4, 3, 2),)),   # r' > r/2
            ("make_compass", (CompassParams(8, 4, 1, 0),)),   # first tail empty
            ("make_compass", (CompassParams(8, 4, 1, 4),)),   # second tail empty
            ("make_compass", (CompassParams(12, 8, 1, 2),)),  # tails too short
        ],
    )
    def test_bad_parameters_raise_the_same_errors(self, build, args):
        with pytest.raises(InvalidParameterError) as want:
            getattr(old, build)(*args)
        with pytest.raises(InvalidParameterError) as got:
            getattr(graphs, build)(*args)
        assert str(got.value) == str(want.value)


class TestEdgeRemovalAgainstEdgeLists:
    def test_every_edge_of_the_corpus_and_small_classes(self, corpus):
        cases = list(corpus)
        for n in range(3, 10):
            cases += enumerate_unicyclic(n)
        assert len(cases) > 380
        for g in cases:
            for u, v in g.edges():
                want = old.with_edge_removed(g, u, v)
                _assert_same_valid_graph(g.with_edge_removed(u, v), want)
                _assert_same_valid_graph(g.with_edge_removed(v, u), want)

    def test_non_edges_raise_as_before(self):
        g = make_lollipop(7, 4)
        for u, v in [(0, 2), (0, 0), (6, 4)]:
            with pytest.raises(EdgeNotPresentError):
                old.with_edge_removed(g, u, v)
            with pytest.raises(EdgeNotPresentError):
                g.with_edge_removed(u, v)


class TestVertexIdsOutOfRange:
    """Ids outside 0..n-1 once wrapped (-1 named vertex n - 1) or leaked an
    IndexError; an edge removal written through _trusted would then leave
    asymmetric adjacency."""

    @pytest.mark.parametrize("u, v", [(-1, 3), (3, -1), (7, 3), (3, 5), (5, 5)])
    def test_edge_queries_and_edits(self, u, v):
        g = make_path(5)
        with pytest.raises(InvalidParameterError):
            g.has_edge(u, v)
        with pytest.raises(InvalidParameterError):
            g.with_edge_removed(u, v)
        with pytest.raises(InvalidParameterError):
            g.with_edge_added(u, v)

    @pytest.mark.parametrize("v", [-1, -5, 5, 6])
    def test_degree(self, v):
        """degree(-1) once read vertex n - 1, and degree(n) leaked IndexError."""
        g = make_lollipop(5, 3)
        with pytest.raises(InvalidParameterError):
            g.degree(v)
        assert [g.degree(x) for x in range(5)] == [2, 2, 3, 2, 1]

    def test_interlacing_rejects_a_wrapped_edge(self):
        with pytest.raises(InvalidParameterError):
            check_interlacing(make_path(5), (-1, 3))

    @pytest.mark.parametrize("u, v", [(0, -1), (-1, 0), (3, 0), (0, 2)])
    def test_join_checks_each_end_against_its_own_graph(self, u, v):
        with pytest.raises(InvalidParameterError):
            join_with_edge(make_path(3), u, make_path(2), v)


class TestLaplacianHelpersAgainstDenseRoutes:
    def test_spectrum_float_is_bit_identical(self, corpus):
        rng = random.Random(5)
        cases = list(corpus) + [
            random_connected_graph(rng, rng.randrange(2, 25), rng.randrange(0, 5))
            for _ in range(10)
        ]
        for g in cases:
            assert spectrum_float(g) == old.spectrum_float(g), g.edges()

    def test_laplacian_apply_on_random_integer_vectors(self, corpus):
        rng = random.Random(11)
        for g in list(corpus) + [make_lollipop(88, 12)]:
            for bits in (3, 40, 200):
                vec = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(g.n)]
                assert laplacian_apply(g, vec) == old.laplacian_apply(g, vec)
                assert laplacian_apply(g, tuple(vec)) == old.laplacian_apply(g, vec)

    @pytest.mark.parametrize("length", [0, 4, 6])
    def test_laplacian_apply_length_error(self, length):
        g = make_path(5)
        with pytest.raises(InvalidParameterError) as want:
            old.laplacian_apply(g, [1] * length)
        with pytest.raises(InvalidParameterError) as got:
            laplacian_apply(g, [1] * length)
        assert str(got.value) == str(want.value)
