import io

import pytest

from unilap.errors import (
    EdgeNotPresentError,
    InvalidParameterError,
    NotConnectedError,
    NotUnicyclicError,
)
from unilap.graphs import (
    CompassParams,
    Graph,
    bfs_distances,
    diameter_and_path,
    disjoint_union,
    girth,
    join_with_edge,
    make_compass,
    make_cycle,
    make_lollipop,
    make_path,
    pendant_vertices,
    read_edge_list,
    reduce_to_core,
    unicyclic_decompose,
    write_edge_list,
)
from unilap.enumeration import enumerate_unicyclic, rooted_trees
from unilap.harness import random_unicyclic, sweep, valid_compass_params
from unilap.spectra import check_interlacing
import random


def ceil_div(a, b):
    return -(-a // b)


class TestGenerators:
    def test_path_basics(self):
        assert make_path(1).m == 0
        assert make_path(3).edges() == [(0, 1), (1, 2)]
        g = make_path(5)
        assert g.m == 4
        assert diameter_and_path(g)[0] == 4

    def test_path_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            make_path(0)

    def test_cycle_basics(self):
        assert make_cycle(3).m == 3
        g = make_cycle(6)
        assert g.m == 6
        assert diameter_and_path(g)[0] == 3
        assert girth(make_cycle(4)) == 4

    def test_cycle_rejects_small(self):
        with pytest.raises(InvalidParameterError):
            make_cycle(2)

    def test_lollipop_basics(self):
        g = make_lollipop(12, 8)
        assert g.n == 12 and g.m == 12
        assert diameter_and_path(g)[0] == 8
        assert girth(g) == 8
        # degenerate tail: the generator returns the plain cycle
        assert make_lollipop(7, 7).edges() == make_cycle(7).edges()
        g = make_lollipop(5, 3)
        assert diameter_and_path(g)[0] == 3
        assert girth(g) == 3

    def test_lollipop_rejects_bad_params(self):
        with pytest.raises(InvalidParameterError):
            make_lollipop(5, 2)
        with pytest.raises(InvalidParameterError):
            make_lollipop(5, 6)

    def test_lollipop_labeling_matches_convention(self):
        g = make_lollipop(6, 4)
        assert g.has_edge(0, 3)  # cycle-closing chord
        assert g.has_edge(3, 4)  # tail starts at the last cycle vertex
        assert g.degree(3) == 3

    def test_lollipop_diameter_law(self):
        for n in range(3, 26):
            for r in range(3, n + 1):
                g = make_lollipop(n, r)
                assert g.m == n
                assert diameter_and_path(g)[0] == n - ceil_div(r, 2)
                assert girth(g) == r

    def test_compass_examples(self):
        g = make_compass(CompassParams(14, 8, 4, 3))
        assert g.n == 14 and g.m == 14
        assert diameter_and_path(g)[0] == 10
        assert diameter_and_path(make_compass(CompassParams(12, 6, 3, 1)))[0] == 9
        p = CompassParams(8, 3, 1, 1)
        assert p.s == 4 and p.d == 6
        assert diameter_and_path(make_compass(p))[0] == 6

    def test_compass_diameter_law(self):
        for n in range(5, 17):
            for r in range(3, n - 1):
                for rp in range(1, r // 2 + 1):
                    for t in range(1, n - r):
                        p = CompassParams(n, r, rp, t)
                        try:
                            p.validate()
                        except InvalidParameterError:
                            continue
                        assert diameter_and_path(make_compass(p))[0] == p.d

    def test_compass_rejects_nondiametral_tails(self):
        # with both tails length 1 on a long cycle, the far cycle vertex is
        # farther from a tail end than the other tail end is
        with pytest.raises(InvalidParameterError):
            make_compass(CompassParams(10, 8, 1, 1))
        with pytest.raises(InvalidParameterError):
            make_compass(CompassParams(6, 5, 0, 1))
        with pytest.raises(InvalidParameterError):
            make_compass(CompassParams(6, 3, 1, 3))

    def test_compass_labeling_matches_convention(self):
        p = CompassParams(14, 8, 4, 3)
        g = make_compass(p)
        # deleting the attachment edge splits off the t-path
        h = g.with_edge_removed(p.t - 1, p.t + p.r_prime - 1)
        comp = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in h.adj[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        assert comp == set(range(p.t))

    @pytest.mark.parametrize(
        "build, args",
        [
            (make_path, (0,)),
            (make_path, (-3,)),
            (make_cycle, (2,)),
            (make_cycle, (-1,)),
            (make_lollipop, (5, 2)),
            (make_lollipop, (5, 6)),
            (make_lollipop, (2, 3)),
            (make_compass, (CompassParams(6, 5, 1, 1),)),   # r > n - 2
            (make_compass, (CompassParams(8, 4, 0, 2),)),   # r' < 1
            (make_compass, (CompassParams(8, 4, 3, 2),)),   # r' > r/2
            (make_compass, (CompassParams(8, 4, 1, 0),)),   # first tail empty
            (make_compass, (CompassParams(8, 4, 1, 4),)),   # second tail empty
            (make_compass, (CompassParams(12, 8, 1, 2),)),  # tails too short
        ],
    )
    def test_bad_parameters_raise(self, build, args):
        with pytest.raises(InvalidParameterError):
            build(*args)

    def test_every_small_member_has_the_documented_edges(self):
        """The generators write sorted adjacency through Graph._trusted, which
        skips the __post_init__ check: every path and cycle with n <= 60,
        lollipop with n <= 40 and valid compass with n <= 24 passes it and
        has the edges of its labelling. A path runs 0..n-1; a lollipop
        adds the chord (0, r-1); a compass moves the path edge (t-1, t) to
        the attachment (t-1, t+r'-1) and closes its cycle by (t, t+r-1)."""

        def check(g, n, edges):
            assert Graph(g.n, g.adj) == g and g.n == n, (n, edges)
            assert set(g.edges()) == edges, (n, edges)

        for n in range(1, 61):
            check(make_path(n), n, {(i, i + 1) for i in range(n - 1)})
        for n in range(3, 61):
            check(make_cycle(n), n, {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)})
        for n in range(3, 41):
            for r in range(3, n + 1):
                check(make_lollipop(n, r), n, {(i, i + 1) for i in range(n - 1)} | {(0, r - 1)})
        count = 0
        for p in valid_compass_params(24):
            t = p.t
            moved = {(t - 1, t + p.r_prime - 1), (t, t + p.r - 1)}
            check(make_compass(p), p.n, {(i, i + 1) for i in range(p.n - 1) if i != t - 1} | moved)
            count += 1
        assert count == 3930


class TestGraphValue:
    def test_from_edges_validates(self):
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        # ends and n must be ints: a float or str once raised a bare
        # TypeError, and a bool was taken for 0 or 1
        for edge in [(0, 1.0), (0.0, 1), ("0", 1), (0, "1"), (False, True)]:
            with pytest.raises(InvalidParameterError):
                Graph.from_edges(2, [edge])
        for n in [2.0, "2", True]:
            with pytest.raises(InvalidParameterError):
                Graph.from_edges(n, [])

    @pytest.mark.parametrize(
        "n,adj",
        [
            (3, ((1,), (), ())),                # asymmetric
            (3, ((1, 2), (0,), ())),            # asymmetric, later vertex
            (3, ((), (2,), (0, 1))),            # asymmetric, earlier vertex
            (3, ((2, 1), (0,), (0,))),          # unsorted
            (2, ((1, 1), (0, 0))),              # repeated neighbour
            (2, ((0,), ())),                    # self-loop
            (2, ((2,), ())),                    # out of range
            (2, ((-1,), ())),                   # negative label
            (3, ((1,), (0,))),                  # too few lists
            (0, ()),                            # no vertex
            (2, ((1.0,), (0.0,))),              # float ids
            (2, (("1",), ("0",))),              # str ids
            (2, ((True,), (False,))),           # bool ids
            (2.0, ((1,), (0,))),                # float n
            (True, ((),)),                      # bool n
        ],
    )
    def test_direct_construction_validates(self, n, adj):
        with pytest.raises(InvalidParameterError):
            Graph(n, adj)

    def test_direct_construction_accepts_valid(self, corpus):
        # from_edges skips the recheck; what it builds must pass it
        for g in corpus:
            assert Graph(g.n, g.adj) == g
        assert Graph(3, ((), (2,), (1,))).m == 1

    def test_direct_construction_copies_lists(self):
        """Lists from the caller are stored as tuples: the graph hashes, and
        editing the lists afterwards leaves it as it was."""
        adj = [[1, 2], [0, 2], [0, 1]]
        g = Graph(3, adj)
        assert g == make_cycle(3) and hash(g) == hash(make_cycle(3))
        adj[0].append(3)
        adj[2].pop()
        assert g == make_cycle(3) and g.adj == ((1, 2), (0, 2), (0, 1))
        assert girth(g) == 3

    def test_symmetry_invariant(self):
        g = make_lollipop(9, 4)
        for u in range(g.n):
            for v in g.adj[u]:
                assert u in g.adj[v]
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    def test_edge_removal_and_addition(self):
        g = make_cycle(4)
        h = g.with_edge_removed(0, 3)
        assert h.edges() == make_path(4).edges()
        assert h.with_edge_added(0, 3).edges() == g.edges()
        with pytest.raises(EdgeNotPresentError):
            g.with_edge_removed(0, 2)

    def test_edge_removal_on_every_edge(self, corpus):
        """with_edge_removed rewrites only the two tuples the edge touches:
        from either end, the result passes the full check and keeps every
        other edge."""
        cases = list(corpus) + [g for n in range(3, 8) for g in enumerate_unicyclic(n)]
        for g in cases:
            for u, v in g.edges():
                want = [e for e in g.edges() if e != (u, v)]
                for a, b in ((u, v), (v, u)):
                    h = g.with_edge_removed(a, b)
                    assert Graph(h.n, h.adj) == h and h.edges() == want, (g.edges(), a, b)

    def test_without_vertex_reindexes(self):
        g = make_path(4).without_vertex(3)
        assert g.edges() == make_path(3).edges()
        g = make_path(4).without_vertex(0)
        assert g.edges() == make_path(3).edges()

    def test_union_and_join(self):
        g = disjoint_union(make_path(2), make_path(2))
        assert g.n == 4 and g.m == 2
        assert not g.is_connected()
        h = join_with_edge(make_path(2), 1, make_path(2), 0)
        assert h.is_connected() and h.edges() == make_path(4).edges()

    def test_pendant_vertices(self):
        assert pendant_vertices(make_path(4)) == [0, 3]
        assert pendant_vertices(make_cycle(5)) == []


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


class TestVertexIdsThatAreNotInts:
    """A float, str or bool id once passed the range checks: degree(True)
    read vertex 1, has_edge(0, 1.0) and has_edge(True, 2) answered True,
    with_edge_removed(True, 2) removed (1, 2), and degree(1.0) leaked a bare
    TypeError."""

    @pytest.mark.parametrize("v", [1.0, "1", True, False])
    def test_degree_and_without_vertex(self, v):
        g = make_path(3)
        with pytest.raises(InvalidParameterError):
            g.degree(v)
        with pytest.raises(InvalidParameterError):
            g.without_vertex(v)

    @pytest.mark.parametrize("u, v", [(0, 1.0), (0.0, 2), (True, 2), (1, False), ("0", 1)])
    def test_edge_queries_and_edits(self, u, v):
        g = make_path(3)
        with pytest.raises(InvalidParameterError):
            g.has_edge(u, v)
        with pytest.raises(InvalidParameterError):
            g.with_edge_removed(u, v)
        with pytest.raises(InvalidParameterError):
            make_cycle(4).with_edge_added(u, v)

    @pytest.mark.parametrize("u, v", [(True, 0), (0, True), (1.0, 0), (0, "1")])
    def test_join(self, u, v):
        with pytest.raises(InvalidParameterError):
            join_with_edge(make_path(3), u, make_path(2), v)


class TestSizesThatAreNotInts:
    """The generators write through Graph._trusted, past Graph's own int
    check, so each checks its sizes itself: make_path(True) once built a
    Graph with n=True, rooted_trees(True) answered ((),), and a float size
    leaked a bare TypeError, from sweep and enumerate_unicyclic only at the
    first row."""

    @pytest.mark.parametrize("n", [3.0, "3", True])
    def test_path(self, n):
        with pytest.raises(InvalidParameterError):
            make_path(n)

    @pytest.mark.parametrize("n", [4.0, "4", True])
    def test_cycle(self, n):
        with pytest.raises(InvalidParameterError):
            make_cycle(n)

    @pytest.mark.parametrize("n, r", [(5.0, 3), (5, 3.0), ("5", 3), (5, "3"), (True, 3), (4, True)])
    def test_lollipop(self, n, r):
        with pytest.raises(InvalidParameterError):
            make_lollipop(n, r)

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("bad", [float, str, bool])
    def test_compass(self, k, bad):
        values = [9, 4, 2, 2]  # s = 3, so t = True leaves a valid compass
        values[k] = bad(values[k])
        with pytest.raises(InvalidParameterError):
            make_compass(CompassParams(*values))

    @pytest.mark.parametrize("size", [3.0, "3", True])
    def test_rooted_trees(self, size):
        with pytest.raises(InvalidParameterError):
            rooted_trees(size)

    @pytest.mark.parametrize("n", [5.0, "5", True])
    def test_enumerate_unicyclic_at_call_time(self, n):
        with pytest.raises(InvalidParameterError):
            enumerate_unicyclic(n)

    @pytest.mark.parametrize("lo, hi", [(1.0, 3), (1, 3.0), ("1", 3), (1, "3"), (True, 3), (1, True)])
    def test_sweep_range_at_call_time(self, lo, hi):
        with pytest.raises(InvalidParameterError):
            sweep("path", lo, hi)


class TestDecomposition:
    def test_lollipop_decomposition(self):
        dec = unicyclic_decompose(make_lollipop(12, 8))
        assert dec.girth == 8
        assert dec.cycle == tuple(range(8))
        assert dec.trees[7] == (8, 9, 10, 11)
        assert all(dec.trees[v] == () for v in range(7))

    def test_cycle_decomposition(self):
        dec = unicyclic_decompose(make_cycle(5))
        assert dec.girth == 5
        assert all(t == () for t in dec.trees.values())

    def test_decompose_rejects_tree(self):
        with pytest.raises(NotUnicyclicError):
            unicyclic_decompose(make_path(4))

    def test_decompose_rejects_disconnected(self):
        with pytest.raises(NotConnectedError):
            unicyclic_decompose(disjoint_union(make_cycle(3), make_cycle(3)))

    def test_roundtrip_parameters(self):
        for n in range(4, 15):
            for r in range(3, n):
                dec = unicyclic_decompose(make_lollipop(n, r))
                assert dec.girth == r
                sizes = sorted(len(t) for t in dec.trees.values())
                assert sizes == [0] * (r - 1) + [n - r]


class TestDiameterPath:
    def test_tie_break_is_lexicographic(self):
        d, path = diameter_and_path(make_cycle(6))
        assert d == 3
        assert path == (0, 1, 2, 3)

    def test_path_is_shortest_path(self, corpus):
        for g in corpus:
            if not g.is_connected():
                continue
            d, path = diameter_and_path(g)
            assert len(path) == d + 1
            for a, b in zip(path, path[1:]):
                assert g.has_edge(a, b)
            assert bfs_distances(g, path[0])[path[-1]] == d

    def test_single_vertex(self):
        assert diameter_and_path(make_path(1)) == (0, (0,))


class TestCoreReduction:
    def test_cycle_core(self):
        core = reduce_to_core(make_cycle(7))
        assert core.kind == "cycle"
        assert core.params == (7,)
        assert core.core.edges() == make_cycle(7).edges()

    def test_lollipop_core_with_extra_pendant(self):
        g = make_lollipop(12, 8)
        g = join_with_edge(g, 9, make_path(1), 0)  # pendant on a tail vertex
        core = reduce_to_core(g)
        assert core.kind == "lollipop"
        assert core.params == (12, 8)

    def test_compass_core(self):
        core = reduce_to_core(make_compass(CompassParams(14, 8, 4, 3)))
        assert core.kind == "compass"
        assert core.params == (14, 8, 4, 3)

    def test_double_tail_is_other(self):
        g = make_cycle(3)
        g = join_with_edge(g, 0, make_path(3), 0)
        g = join_with_edge(g, 0, make_path(3), 0)
        assert reduce_to_core(g).kind == "other"

    def test_core_preserves_girth_and_diameter(self):
        rng = random.Random(11)
        graphs = [random_unicyclic(rng, rng.randrange(5, 16)) for _ in range(40)]
        graphs += [make_lollipop(10, 4), make_compass(CompassParams(11, 5, 2, 3))]
        for g in graphs:
            core = reduce_to_core(g)
            assert girth(core.core) == girth(g)
            d_g, _ = diameter_and_path(g)
            d_core, _ = diameter_and_path(core.core)
            assert d_core == d_g
            assert core.core.m == core.core.n  # still unicyclic

    def test_core_classification_params_rebuild(self):
        # classification recovers generator parameters across a small grid
        for n in range(4, 12):
            for r in range(3, n):
                core = reduce_to_core(make_lollipop(n, r))
                # a short tail can be absorbed by the diametral path inside
                # the cycle, but the reported family must reproduce n and r
                assert core.params[0] == n
                if core.kind == "lollipop":
                    assert core.params == (n, r)


class TestEdgeListIO:
    def test_roundtrip(self):
        g = make_compass(CompassParams(14, 8, 4, 3))
        buf = io.StringIO()
        write_edge_list(g, buf)
        back = read_edge_list(io.StringIO(buf.getvalue()))
        assert back.n == g.n and back.edges() == g.edges()

    def test_comments_ignored(self):
        text = "# a comment\n3 2\n0 1\n# another\n1 2\n"
        g = read_edge_list(io.StringIO(text))
        assert g.edges() == [(0, 1), (1, 2)]

    def test_malformed_inputs(self):
        for text in ["", "3\n", "3 1\n0 1\n1 2\n", "2 1\n1 0\n", "2 1\nx y\n"]:
            with pytest.raises(InvalidParameterError):
                read_edge_list(io.StringIO(text))
        # n > m + 1 cannot be connected, and is rejected before n vertices
        # are allocated: the 13-byte header alone would otherwise ask for 1e9
        for text in ["1000000000 0\n", "3 1\n0 1\n", "5 -1\n"]:
            with pytest.raises(InvalidParameterError, match="cannot be connected"):
                read_edge_list(io.StringIO(text))
        assert read_edge_list(io.StringIO("1 0\n")).n == 1
