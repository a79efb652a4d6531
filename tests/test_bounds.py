import random
from fractions import Fraction

import pytest

from conftest import exhaustive_gamma, tree_from_code
from unilap import bounds
from unilap.bounds import (
    analyze,
    ceil_div,
    compass_bounds,
    domination_number,
    lollipop_exact_count,
    main_lower_bound,
    refined_lollipop_bound,
)
from unilap.enumeration import enumerate_unicyclic, rooted_trees
from unilap.errors import InvalidParameterError, NotUnicyclicError, SizeCapExceededError
from unilap.graphs import (
    CompassParams,
    Graph,
    diameter_and_path,
    disjoint_union,
    make_compass,
    make_cycle,
    make_lollipop,
    make_path,
)
from unilap.harness import (
    check_tree_chain,
    compass_params_for_n,
    random_connected_graph,
    random_tree,
    random_unicyclic,
    sweep,
)
from unilap.linalg import sparse_inertia
from unilap.spectra import _shifted_rows, count_interval, shifted_inertia


class TestCheckedDirection:
    """The diameter/girth inequality bounds count[0,1) from below, not above.

    PAPER.md's abstract calls it an upper bound. A triangle with k pendant P2s
    at one vertex has d = 4 and r = 3 for every k >= 2, yet its count is
    k + 1, so no function of d and r bounds the count from above.
    """

    @pytest.mark.parametrize("k", [2, 4, 16, 64])
    def test_count_unbounded_at_fixed_diameter_and_girth(self, k):
        edges = [(0, 1), (0, 2), (1, 2)]
        for i in range(k):
            edges += [(0, 3 + 2 * i), (3 + 2 * i, 4 + 2 * i)]
        report = analyze(Graph.from_edges(3 + 2 * k, edges))
        assert (report.diameter, report.girth) == (4, 3)
        assert report.count01 == k + 1
        assert report.main_bound == 2 and report.verdicts["main_bound"]


class TestBoundFormulas:
    def test_main_bound_values(self):
        assert main_lower_bound(8, 8) == 4
        assert main_lower_bound(10, 8) == 5
        assert main_lower_bound(3, 3) == 1

    def test_main_bound_rejects(self):
        with pytest.raises(InvalidParameterError):
            main_lower_bound(0, 3)
        with pytest.raises(InvalidParameterError):
            main_lower_bound(3, 2)

    def test_refined_values(self):
        assert refined_lollipop_bound(6, 8) == 4
        assert refined_lollipop_bound(6, 6) == 2
        assert refined_lollipop_bound(3, 3) == 2

    def test_lollipop_exact_count(self):
        assert lollipop_exact_count(5, 3) == 2
        assert count_interval(make_lollipop(5, 3), 0, 1).count == 2
        assert lollipop_exact_count(10, 8) == 4
        assert count_interval(make_lollipop(10, 8), 0, 1).count == 4
        assert lollipop_exact_count(12, 8) is None
        with pytest.raises(InvalidParameterError):
            lollipop_exact_count(5, 5)

    def test_compass_bounds(self):
        assert compass_bounds(CompassParams(14, 8, 4, 3)) == (5, None)
        assert compass_bounds(CompassParams(12, 6, 3, 1)) == (3, 4)
        assert compass_bounds(CompassParams(8, 3, 1, 1)) == (2, None)
        # compass_bounds reads its own labelling's t alone; analyze of this
        # graph tries the other tail too and refines to 4
        assert compass_bounds(CompassParams(12, 6, 3, 2)) == (3, None)

    @pytest.mark.parametrize(
        "params, holds",
        [
            ((12, 6, 3, 1), True),
            ((12, 6, 3, 4), True),
            ((13, 6, 3, 1), False),  # 3 does not divide n
            ((12, 8, 4, 1), False),  # 6 does not divide r
            ((12, 6, 2, 1), False),  # r' != r/2
            ((12, 6, 3, 2), False),  # t != 1 (mod 3)
        ],
    )
    def test_strengthened_hypothesis_fails_on_each_condition(self, params, holds):
        """The one predicate compass_bounds and analyze both decide by, fed
        parameters that miss one condition each."""
        assert bounds._strengthens(*params) is holds


class TestDomination:
    def test_small_known_values(self):
        assert domination_number(make_path(3)) == 1
        assert domination_number(make_cycle(6)) == 2
        assert domination_number(make_path(4)) == 2

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randrange(2, 9)
            g = random_connected_graph(rng, n, rng.randrange(0, 4))
            assert domination_number(g) == exhaustive_gamma(g)

    def test_cap_enforced(self):
        # the tree DP has no cap; only branch and bound refuses n > 32
        assert domination_number(make_path(40)) == 14
        two_cycles = Graph.from_edges(33, make_cycle(33).edges() + [(0, 2)])
        with pytest.raises(SizeCapExceededError):
            domination_number(two_cycles)

    def test_cycle_formula(self):
        for n in range(3, 25):
            assert domination_number(make_cycle(n)) == ceil_div(n, 3)


def branch_and_bound(g: Graph) -> int:
    return bounds._branch_and_bound_gamma(g, diameter_and_path(g)[0])


class TestDominationDP:
    """The tree DP against branch and bound, exhaustive search and closed forms."""

    @pytest.mark.parametrize("n", range(3, 12))
    def test_every_unicyclic_class(self, n):
        for g in enumerate_unicyclic(n):
            assert domination_number(g) == branch_and_bound(g) == exhaustive_gamma(g), g.edges()

    @pytest.mark.parametrize("n", range(1, 12))
    def test_every_tree(self, n):
        # every free tree on n vertices is some rooted tree on n vertices
        for code in rooted_trees(n):
            g = tree_from_code(code)
            assert domination_number(g) == branch_and_bound(g) == exhaustive_gamma(g), g.edges()

    def test_random_trees_and_unicyclic_graphs(self):
        rng = random.Random(31)
        for i in range(500):
            n = rng.randrange(3, 33)
            g = random_tree(rng, n) if i % 2 else random_unicyclic(rng, n)
            gamma = domination_number(g)
            assert gamma == branch_and_bound(g), (i, g.edges())
            if n <= 11:
                assert gamma == exhaustive_gamma(g), (i, g.edges())

    def test_random_unions_of_trees_and_unicyclic_graphs(self):
        """Components of every kind, a single vertex included: the DP closes
        each cycle and each tree's root, and gamma adds up over them."""
        rng = random.Random(23)
        for i in range(200):
            sizes = [rng.randrange(1, 8) for _ in range(rng.randrange(2, 4))]
            parts = [
                random_unicyclic(rng, k) if k > 2 and i % 2 else random_tree(rng, k) for k in sizes
            ]
            g = parts[0]
            for part in parts[1:]:
                g = disjoint_union(g, part)
            gamma = domination_number(g)
            assert gamma == sum(map(domination_number, parts)), g.edges()
            assert gamma == bounds._branch_and_bound_gamma(g, None), g.edges()
            if g.n <= 11:
                assert gamma == exhaustive_gamma(g), g.edges()

    @pytest.mark.parametrize("family,n_hi", [("lollipop", 32), ("compass", 16)])
    def test_sweep_families(self, family, n_hi):
        """The sweep's lollipops and compasses, through sweep and directly."""
        graphs = []
        for n in range(4, n_hi + 1):
            if family == "lollipop":
                graphs += [make_lollipop(n, r) for r in range(3, n)]
            else:
                graphs += [make_compass(p) for p in compass_params_for_n(n)]
        rows = list(sweep(family, 4, n_hi))
        assert len(rows) == len(graphs)
        for row, g in zip(rows, graphs):
            assert row.gamma == domination_number(g) == branch_and_bound(g), g.edges()

    def test_path_and_cycle_closed_forms(self):
        for n in range(1, 201):
            assert domination_number(make_path(n)) == ceil_div(n, 3)
        for n in range(3, 201):
            assert domination_number(make_cycle(n)) == ceil_div(n, 3)
        assert domination_number(make_path(20000)) == 6667
        assert domination_number(make_cycle(20000)) == 6667


class TestBranchAndBoundSplit:
    """Branch and bound runs exactly on graphs with two cycles in one component."""

    def test_never_reached_on_trees_and_unicyclic_graphs(self, monkeypatch):
        def refuse(g, d):
            raise AssertionError(f"branch and bound reached on {g.edges()}")

        monkeypatch.setattr(bounds, "_branch_and_bound_gamma", refuse)
        rng = random.Random(41)
        for i in range(60):
            n = rng.randrange(3, 33)
            g = random_tree(rng, n) if i % 2 else random_unicyclic(rng, n)
            domination_number(g)
        for n in range(3, 8):
            for g in enumerate_unicyclic(n):
                assert analyze(g).gamma is not None
        for family in ("path", "cycle", "lollipop", "compass"):
            assert all(row.gamma is not None for row in sweep(family, 3, 12))
        assert check_tree_chain(count=50).ok

    def test_no_connectivity_search_on_trees_and_unicyclic_graphs(self, monkeypatch):
        """One leaf strip tells a tree or a connected unicyclic graph apart,
        so Graph.is_connected never runs on one."""
        graphs = [tree_from_code(code) for n in range(1, 10) for code in rooted_trees(n)]
        graphs += [g for n in range(3, 10) for g in enumerate_unicyclic(n)]
        graphs += [make_lollipop(20, 7), make_path(20000), make_cycle(20000)]
        expected = [ceil_div(g.n, 3) if g.n > 11 else exhaustive_gamma(g) for g in graphs]

        def forbidden(self):
            raise AssertionError(f"is_connected called on {self.edges()}")

        monkeypatch.setattr(Graph, "is_connected", forbidden)
        got = [domination_number(g) for g in graphs]
        assert got == expected

    @pytest.mark.parametrize(
        "g",
        [
            disjoint_union(make_cycle(3), make_cycle(3)),
            disjoint_union(make_path(2), make_cycle(3)),
            disjoint_union(make_path(3), make_path(4)),
            disjoint_union(make_cycle(4), make_path(1)),
        ],
        ids=["two-triangles", "edge-and-triangle", "two-paths", "square-and-vertex"],
    )
    def test_not_reached_on_disconnected_graphs_with_at_most_one_cycle_each(self, monkeypatch, g):
        """Every component with at most one cycle closes by the linear DP,
        connected or not: a pendant pass over the strip, then one close per
        cycle and per tree root."""
        def refuse(h, d):
            raise AssertionError(f"branch and bound reached on {h.edges()}")

        monkeypatch.setattr(bounds, "_branch_and_bound_gamma", refuse)
        assert domination_number(g) == exhaustive_gamma(g)

    def test_disconnected_graph_above_the_cap(self, monkeypatch):
        """40 vertices, past branch and bound's cap of 32: P_20 needs 7, and
        the lollipop on 20 vertices with a pentagon needs 7."""
        def refuse(h, d):
            raise AssertionError(f"branch and bound reached on {h.edges()}")

        monkeypatch.setattr(bounds, "_branch_and_bound_gamma", refuse)
        g = disjoint_union(make_path(20), make_lollipop(20, 5))
        assert g.n > bounds.GAMMA_CAP_DEFAULT
        assert domination_number(g) == 14
        assert domination_number(make_path(20)) == domination_number(make_lollipop(20, 5)) == 7

    @pytest.mark.parametrize(
        "g",
        [
            # theta: three internally disjoint paths between 0 and 1
            Graph.from_edges(7, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 1)]),
            # bowtie: two triangles sharing vertex 0
            Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
        ]
        + [
            random_connected_graph(random.Random(seed), 5 + seed % 6, 2 + seed % 3)
            for seed in range(12)
        ],
    )
    def test_reached_on_other_graphs(self, monkeypatch, g):
        assert g.m > g.n
        calls = []
        original = bounds._branch_and_bound_gamma

        def counted(h, d):
            calls.append(h)
            return original(h, d)

        monkeypatch.setattr(bounds, "_branch_and_bound_gamma", counted)
        assert domination_number(g) == exhaustive_gamma(g)
        assert calls == [g]


class TestAnalyze:
    def test_lollipop_report(self):
        rep = analyze(make_lollipop(12, 8))
        assert rep.count01 == 4
        assert rep.main_bound == 4
        assert rep.girth == 8 and rep.diameter == 8
        assert rep.core.kind == "lollipop"
        assert rep.all_ok

    def test_compass_report(self):
        rep = analyze(make_compass(CompassParams(14, 8, 4, 3)))
        assert rep.count01 == 5
        assert rep.main_bound == 5
        assert rep.alpha == 0
        assert rep.verdicts["chain"]
        assert rep.all_ok

    def test_cycle_report(self):
        rep = analyze(make_cycle(6))
        assert rep.count01 == 1
        assert rep.main_bound == 1
        assert rep.gamma == 2
        assert rep.core.kind == "cycle"
        # the tree-only chain fails on C_6: (d+1)/3 = 4/3 exceeds count01
        assert Fraction(rep.diameter + 1, 3) > rep.count01

    def test_strengthened_bound_reported_for_either_tail(self):
        # t=2, s=1 orientation: the swapped labeling satisfies the
        # strengthened hypotheses, so analyze must still report it
        rep = analyze(make_compass(CompassParams(12, 6, 3, 2)))
        assert rep.refined_bound == 4
        assert rep.count01 >= 4

    def test_rejects_non_unicyclic(self):
        with pytest.raises(NotUnicyclicError):
            analyze(make_path(5))

    def test_chain_verdict_only_for_large_girth(self):
        rep7 = analyze(make_cycle(7))
        assert "chain" in rep7.verdicts and rep7.verdicts["chain"]
        rep6 = analyze(make_cycle(6))
        assert "chain" not in rep6.verdicts

    def test_gamma_reported_above_32(self):
        rep = analyze(make_cycle(40))
        assert rep.gamma == 14
        assert rep.verdicts["hedetniemi"] and rep.verdicts["chain"]
        assert rep.verdicts["main_bound"]


class TestVerdicts:
    """bounds._verdicts one step either side of each bound. No corpus
    reaches these counts: correct code never measures count01 outside
    [main, gamma], so only an off-by-one count shows a weakened verdict.
    chain's first conjunct, d + 1 <= 3 main, holds at every d once r >= 7,
    so the counts test its other two."""

    @pytest.mark.parametrize("d, r", [(1, 7), (4, 7), (9, 12), (30, 40)])
    def test_each_bound_fails_one_step_past_it(self, d, r):
        main = main_lower_bound(d, r)
        gamma = main + 2

        def verdicts(count01):
            got = bounds._verdicts(count01, gamma, d, r, main, None)
            assert list(got) == ["main_bound", "hedetniemi", "chain"]
            return tuple(got.values())

        assert verdicts(main) == verdicts(gamma) == (True, True, True)
        assert verdicts(main - 1) == (False, True, False)
        assert verdicts(gamma + 1) == (True, False, False)

    def test_refined_bound_comes_second_and_short_cycles_have_no_chain(self):
        got = bounds._verdicts(5, 6, 9, 6, 3, 5)
        assert list(got) == ["main_bound", "refined_bound", "hedetniemi"] and all(got.values())
        assert not bounds._verdicts(4, 6, 9, 6, 3, 5)["refined_bound"]


class TestInequalitySpotChecks:
    def test_cycle_display_bound(self):
        for n in range(3, 61):
            count = 2 * ceil_div(n, 6) - 1
            assert count >= main_lower_bound(n // 2, n)

    def test_tree_chain_on_random_trees(self):
        rng = random.Random(23)
        for _ in range(25):
            g = random_tree(rng, rng.randrange(2, 15))
            from unilap.graphs import diameter_and_path

            d, _ = diameter_and_path(g)
            c = count_interval(g, 0, 1).count
            assert ceil_div(d + 1, 3) <= c <= domination_number(g)


def _with_leaf(g: Graph, v: int) -> Graph:
    """g plus a new vertex g.n hanging from v."""
    adj = list(g.adj) + [(v,)]
    adj[v] += (g.n,)
    return Graph(g.n + 1, tuple(adj))


class TestPendantLeafLemma:
    """reduce_to_core's lemma: a leaf w at v raises count01 = n_-(L - I) by
    0 or 1, and to exactly 1 + n_-(M_v), M_v being L(g) - I without v's row
    and column (the pair (w, v) gives one negative, its Schur complement is
    M_v, and Cauchy interlacing bounds n_-(M_v))."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_a_leaf_at_every_vertex_of_every_class(self, n):
        raised = 0
        for g in enumerate_unicyclic(n):
            before = shifted_inertia(g, 1).negatives
            for v in range(n):
                after = shifted_inertia(_with_leaf(g, v), 1).negatives
                rows = _shifted_rows(g, 1)
                del rows[v]
                for w in g.adj[v]:
                    del rows[w][v]
                assert after == 1 + sparse_inertia(rows).negatives, (g.edges(), v)
                assert after - before in (0, 1), (g.edges(), v)
                raised += after - before
        assert raised > 0 or n == 3  # a leaf on the triangle keeps count01 at 1
