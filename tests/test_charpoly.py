import functools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bareiss_det
import fraction_det
import zx_fold
from conftest import forests_upto, one_cycle_unions, tree_from_code
from unilap import charpoly
from unilap.charpoly import (
    IntPolynomial,
    charpoly_det,
    charpoly_det_matrix,
    edge_join_identity_holds,
    eval_at,
    laplacian_minor,
    phi_aux,
    phi_cycle,
    phi_lollipop,
    phi_path,
    verify_charpoly_identities,
)
from unilap.errors import InternalConsistencyError, InvalidParameterError
from unilap.enumeration import enumerate_unicyclic, rooted_trees
from unilap.graphs import (
    Graph,
    disjoint_union,
    join_with_edge,
    make_cycle,
    make_lollipop,
    make_path,
)
from unilap.harness import random_connected_graph, random_tree, random_unicyclic
from unilap.spectra import count_interval, laplacian_rows


def poly(*coeffs):
    """Ascending-degree helper."""
    return IntPolynomial(coeffs)


class TestIntPolynomial:
    def test_normalization(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0, 0).degree == -1
        assert not IntPolynomial.zero()

    def test_divexact(self):
        assert poly(0, 3, 1).divexact_x() == poly(3, 1)
        assert IntPolynomial.zero().divexact_x() == IntPolynomial.zero()
        with pytest.raises(InternalConsistencyError):
            poly(1, 1).divexact_x()

    def test_eval_is_exact(self):
        p = poly(-1, 0, 2)  # 2x^2 - 1
        assert p.eval(3) == 17
        assert p.eval(Fraction(1, 2)) == Fraction(-1, 2)

    @given(
        st.lists(st.integers(-9, 9), max_size=6),
        st.lists(st.integers(-9, 9), max_size=6),
        st.lists(st.integers(-9, 9), max_size=6),
        st.integers(-4, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_ring_laws_and_eval_homomorphism(self, a, b, c, x0):
        p, q, r = IntPolynomial(a), IntPolynomial(b), IntPolynomial(c)
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q).eval(x0) == p.eval(x0) * q.eval(x0)
        assert (p + q).eval(x0) == p.eval(x0) + q.eval(x0)


class TestPathRecurrence:
    def test_bases(self):
        assert phi_path(0) == IntPolynomial.zero()
        assert phi_path(1) == poly(0, 1)
        assert phi_path(2) == poly(0, -2, 1)

    def test_against_determinant(self):
        for n in range(1, 9):
            assert phi_path(n) == charpoly_det(make_path(n))

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            phi_path(-1)

    def test_threads_extend_the_cache_once_per_degree(self, monkeypatch):
        """Four threads extending an emptied cache at once, with the
        interpreter switching threads as often as it can, must leave
        phi_path(k) at index k for every k."""
        expected = [IntPolynomial.zero(), poly(0, 1)]
        while len(expected) <= 60:
            expected.append(poly(-2, 1) * expected[-1] - expected[-2])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                cache = expected[:2]
                monkeypatch.setattr(charpoly, "_path_cache", cache)
                threads = [threading.Thread(target=phi_path, args=(60,)) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert cache == expected
        finally:
            sys.setswitchinterval(interval)


class TestTrimmedPathMatrices:
    def test_bases(self):
        assert phi_aux("B", 0) == poly(1)
        assert phi_aux("B", 1) == poly(-1, 1)
        assert phi_aux("H", 0) == poly(1)
        assert phi_aux("H", 1) == poly(-2, 1)

    def test_b_matches_minor_of_path(self):
        for n in range(1, 8):
            minor = laplacian_minor(make_path(n + 1), n)
            assert phi_aux("B", n) == charpoly_det_matrix(minor)

    def test_h_matches_double_minor(self):
        for n in range(1, 8):
            rows = laplacian_minor(make_path(n + 2), n + 1)
            rows = [row[1:] for row in rows[1:]]
            assert phi_aux("H", n) == charpoly_det_matrix(rows)

    def test_bad_kind(self):
        with pytest.raises(InvalidParameterError):
            phi_aux("Q", 1)


class TestCyclePolynomial:
    def test_triangle_frozen_value(self):
        # x(x-3)^2 expanded, consistent with spectrum {0, 3, 3}
        assert phi_cycle(3) == poly(0, 9, -6, 1)

    def test_square_roots(self):
        p = phi_cycle(4)
        assert p.degree == 4 and p.coeffs[-1] == 1 and p.coeffs[0] == 0
        for root in (0, 2, 4):
            assert p.eval(root) == 0

    def test_six_has_double_root_at_one(self):
        p = phi_cycle(6)
        assert p.eval(1) == 0
        derivative = IntPolynomial([i * c for i, c in enumerate(p.coeffs)][1:])
        assert derivative.eval(1) == 0
        second = IntPolynomial([i * c for i, c in enumerate(derivative.coeffs)][1:])
        assert second.eval(1) != 0

    def test_against_determinant(self):
        for n in range(3, 9):
            assert phi_cycle(n) == charpoly_det(make_cycle(n))


class TestLollipopPolynomial:
    def test_against_determinant(self):
        for n in range(4, 10):
            for r in range(3, n):
                assert phi_lollipop(n, r) == charpoly_det(make_lollipop(n, r))

    def test_value_at_one(self):
        assert eval_at(phi_lollipop(5, 3), 1) == -4

    def test_root_count_matches_interval_count(self):
        assert count_interval(make_lollipop(12, 8), 0, 1).count == 4
        poly_1208 = phi_lollipop(12, 8)
        assert poly_1208 == charpoly_det(make_lollipop(12, 8))

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidParameterError):
            phi_lollipop(5, 5)


class TestEvalTable:
    def test_path_values_at_one(self):
        assert eval_at(phi_path(3), 1) == 0
        assert eval_at(phi_path(4), 1) == 1
        assert eval_at(phi_path(5), 1) == -1

    def test_path_values_at_one_periodic(self):
        table = {0: 0, 1: 1, 2: -1}
        for n in range(1, 40):
            assert eval_at(phi_path(n), 1) == table[n % 3]

    def test_lollipop_value_table(self):
        table = {1: 1, 2: 2, 3: -4, 4: -1, 5: 1}
        for n in range(4, 31):
            for r in range(3, n):
                d = n - (-(-r // 2))
                if d % 3 == 0 and r % 6 != 0:
                    assert eval_at(phi_lollipop(n, r), 1) == table[r % 6]


class TestIdentitySuite:
    def test_all_identities_pass(self):
        report = verify_charpoly_identities(10)
        assert set(report) == {
            "path_recurrence",
            "end_minor_times_x",
            "interior_minor_shift",
            "cycle_from_paths",
            "lollipop_formula",
            "edge_join_product",
        }
        assert all(not bad for bad in report.values())

    def test_rejects_small_cap(self):
        with pytest.raises(InvalidParameterError):
            verify_charpoly_identities(3)

    def test_edge_join_on_random_pairs(self):
        rng = random.Random(1)
        for _ in range(12):
            g1 = random_connected_graph(rng, rng.randrange(2, 6), rng.randrange(0, 2))
            g2 = random_connected_graph(rng, rng.randrange(2, 6), rng.randrange(0, 2))
            assert edge_join_identity_holds(
                g1, rng.randrange(g1.n), g2, rng.randrange(g2.n)
            )


class TestGlobalShape:
    def test_monic_positive_above_spectrum(self, corpus):
        for g in corpus[:12]:
            p = charpoly_det(g)
            assert p.degree == g.n
            assert p.coeffs[-1] == 1
            assert p.eval(g.n + 1) > 0

    def test_interval_counts_complement(self):
        for maker, lo, hi in [(make_path, 1, 21), (make_cycle, 3, 21)]:
            for n in range(lo, hi):
                g = maker(n)
                below = count_interval(g, 0, 1).count
                above = count_interval(g, 1, g.n + 1).count
                assert below + above == g.n


def _against_both_oracles(rows):
    """charpoly_det_matrix(rows), checked against the Bareiss-sampling route
    it replaced and the Fraction-elimination route before that."""
    got = charpoly_det_matrix(rows)
    assert got == bareiss_det.charpoly_det_matrix(rows), rows
    assert got == fraction_det.charpoly_det_matrix(rows), rows
    return got


def _trimmed_path_rows(k, raised):
    """The k-path Laplacian with the diagonal entries at `raised` raised by one."""
    rows = laplacian_rows(make_path(k))
    for v in raised:
        rows[v][v] += 1
    return rows


def _end_minor_rows(k):
    """The (k+1)-path Laplacian with its last row and column deleted."""
    return [row[:k] for row in laplacian_rows(make_path(k + 1))[:k]]


def _interior_minor_rows(k):
    """The (k+2)-path Laplacian with both end rows and columns deleted."""
    return [row[1 : k + 1] for row in laplacian_rows(make_path(k + 2))[1 : k + 1]]


class TestBareissAgainstFractionOracle:
    """charpoly_det and the Berkowitz recursion of charpoly_det_matrix against
    the two test oracles: the Bareiss-sampling route (tests/bareiss_det.py)
    and the Fraction-elimination route (tests/fraction_det.py)."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_every_unicyclic_class(self, n):
        for g in enumerate_unicyclic(n):
            got = charpoly_det(g)
            assert got == bareiss_det.charpoly_det(g) == fraction_det.charpoly_det(g), g.edges()

    def test_random_connected_graphs(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randrange(1, 15), rng.randrange(0, 4))
            assert charpoly_det(g) == fraction_det.charpoly_det(g), g.edges()

    def test_random_connected_graphs_and_a_minor_of_each(self):
        rng = random.Random(16)
        for _ in range(300):
            g = random_connected_graph(rng, rng.randrange(1, 15), rng.randrange(0, 4))
            _against_both_oracles(laplacian_rows(g))
            _against_both_oracles(laplacian_minor(g, rng.randrange(g.n)))

    def test_random_integer_matrices(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randrange(0, 8)
            _against_both_oracles([[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)])

    def test_every_matrix_of_the_identity_suite(self, monkeypatch):
        """Every minor and every graph polynomial that the identity suite
        takes from the determinant oracle, against the Fraction route: the
        edge-join minors through charpoly_det_matrix, the end and interior
        path minors through the leaf-strip fold."""
        seen, seen_minors, seen_graphs = {}, {}, {}
        original = charpoly.charpoly_det_matrix
        original_minor = charpoly._trimmed_path_charpoly
        original_graph = charpoly.charpoly_det

        def recording(rows):
            seen[tuple(map(tuple, rows))] = result = original(rows)
            return result

        def recording_minor(k, raised):
            seen_minors[k, raised] = result = original_minor(k, raised)
            return result

        def recording_graph(g):
            seen_graphs[g] = result = original_graph(g)
            return result

        monkeypatch.setattr(charpoly, "charpoly_det_matrix", recording)
        monkeypatch.setattr(charpoly, "_trimmed_path_charpoly", recording_minor)
        monkeypatch.setattr(charpoly, "charpoly_det", recording_graph)
        assert all(not bad for bad in verify_charpoly_identities(12).values())
        assert () in seen  # the minor of the one-vertex path
        for rows, poly_ in seen.items():
            assert poly_ == _against_both_oracles(rows), rows
        want = {(k, (k - 1,)) for k in range(1, 12)} | {(k, (0, k - 1)) for k in range(1, 11)}
        assert seen_minors.keys() == want
        for (k, raised), poly_ in seen_minors.items():
            rows = _trimmed_path_rows(k, raised)
            assert rows == (_end_minor_rows(k) if len(raised) == 1 else _interior_minor_rows(k))
            assert poly_ == _against_both_oracles(rows), (k, raised)
        assert {make_path(k) for k in range(1, 14)} <= seen_graphs.keys()
        assert {make_cycle(k) for k in range(3, 13)} <= seen_graphs.keys()
        assert make_lollipop(12, 11) in seen_graphs
        for g, poly_ in seen_graphs.items():
            assert poly_ == fraction_det.charpoly_det(g), g.edges()

    def test_empty_and_one_by_one(self):
        assert _against_both_oracles([]) == poly(1)
        assert _against_both_oracles([[5]]) == poly(-5, 1)
        assert _against_both_oracles([[-3]]) == poly(3, 1)
        assert bareiss_det._det_bareiss([]) == 1 and bareiss_det._det_bareiss([[7]]) == 7

    def test_zero_leading_entry_swaps_rows(self):
        # at x0 = 1 the sample [[0, -2], [-2, 0]] has a zero pivot and det -4
        rows = [[1, 2], [2, 1]]
        assert _against_both_oracles(rows) == poly(-3, -2, 1)
        # the star's centre has degree 3, so the sample at 3 swaps, and 3 is
        # not an eigenvalue, so the swapped determinant is nonzero
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert charpoly_det(star) == poly(0, -4, 9, -6, 1)
        assert charpoly_det(star) == fraction_det.charpoly_det(star)
        det = bareiss_det._det_bareiss([[0, 1, 1, 1], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]])
        assert type(det) is int and det == -12
        assert bareiss_det._det_bareiss([[0, 1], [1, 0]]) == -1
        assert bareiss_det._det_bareiss([[0, 1], [0, 1]]) == 0


def _random_cycle_forest(rng, n):
    """n vertices in components of random sizes, each a random tree or a
    random unicyclic graph, under a random relabelling."""
    parts, left = [], n
    while left:
        k = rng.randrange(1, left + 1)
        cyclic = k >= 3 and rng.random() < 0.6
        parts.append(random_unicyclic(rng, k) if cyclic else random_tree(rng, k))
        left -= k
    g = functools.reduce(disjoint_union, parts)
    label = rng.sample(range(n), n)
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in g.edges()])


def _small_one_cycle_graphs():
    """Every forest and every union of two one-cycle components on at most
    9 vertices, K1 and K2 (unicyclic classes: TestBareissAgainstFractionOracle)."""
    return list(forests_upto(9)) + list(one_cycle_unions(9)) + [make_path(1), make_path(2)]


def _random_one_cycle_graphs():
    rng = random.Random(12)
    return [_random_cycle_forest(rng, rng.randrange(1, 40)) for _ in range(200)]


class TestLeafStripFold:
    """charpoly_det's fold over the leaf strip against the Z[x] fold and the
    Bareiss oracle, and against the Fraction route on the graphs small
    enough for its n + 1 Fraction eliminations."""

    def test_small_graphs_against_bareiss_and_fraction(self):
        for g in _small_one_cycle_graphs():
            got = charpoly_det(g)
            assert got == bareiss_det.charpoly_det(g) == zx_fold.charpoly_det(g), g.edges()
            if g.n <= 7:
                assert got == fraction_det.charpoly_det(g), g.edges()

    def test_random_graphs_against_bareiss_and_fraction(self):
        for g in _random_one_cycle_graphs():
            got = charpoly_det(g)
            assert got == bareiss_det.charpoly_det(g) == zx_fold.charpoly_det(g), g.edges()
            if g.n <= 10:
                assert got == fraction_det.charpoly_det(g), g.edges()

    def test_closed_forms_at_scale(self):
        assert charpoly_det(make_lollipop(150, 50)) == phi_lollipop(150, 50)
        assert charpoly_det(make_cycle(150)) == phi_cycle(150)
        assert charpoly_det(make_path(150)) == phi_path(150)

    @pytest.fixture
    def no_matrix_route(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("charpoly_det_matrix reached")

        monkeypatch.setattr(charpoly, "charpoly_det_matrix", refuse)

    def test_at_most_one_cycle_per_component_never_reaches_charpoly_det_matrix(
        self, no_matrix_route
    ):
        graphs = [g for n in range(3, 10) for g in enumerate_unicyclic(n)]
        for g in graphs + _small_one_cycle_graphs() + _random_one_cycle_graphs():
            assert charpoly_det(g).degree == g.n

    def test_two_cycles_in_one_component_reach_charpoly_det_matrix_once(self, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(rows)
            return charpoly_det_matrix(rows)

        monkeypatch.setattr(charpoly, "charpoly_det_matrix", counting)
        theta = make_cycle(6).with_edge_added(0, 3)
        triangles = join_with_edge(make_cycle(3), 0, make_cycle(3), 0)
        k4 = _complete(4)
        for g in (theta, triangles, k4):
            calls.clear()
            assert charpoly_det(g) == fraction_det.charpoly_det(g), g.edges()
            assert calls == [laplacian_rows(g)]


def _relabelled(rng, g):
    label = rng.sample(range(g.n), g.n)
    return Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges()])


def _star(m):
    return Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


@functools.cache
def _fold_corpus():
    """Every unicyclic class with n <= 9, relabelled; every rooted tree shape
    with n <= 8 (K1 and K2 among them); edgeless graphs and disjoint unions;
    stars K_{1,m} with m <= 60; paths, cycles and lollipops with n <= 60;
    and 200 seeded random trees and unicyclic graphs with n < 150."""
    rng = random.Random(18)
    graphs = [_relabelled(rng, g) for n in range(3, 10) for g in enumerate_unicyclic(n)]
    graphs += [tree_from_code(code) for n in range(1, 9) for code in rooted_trees(n)]
    graphs += [Graph.from_edges(n, []) for n in range(1, 6)]
    graphs += [
        disjoint_union(make_path(1), make_path(1)),
        disjoint_union(make_cycle(5), Graph.from_edges(3, [])),
        disjoint_union(disjoint_union(make_lollipop(7, 4), make_path(2)), make_cycle(3)),
        disjoint_union(_star(6), make_cycle(4)),
    ]
    graphs += [_star(m) for m in range(1, 61)]
    graphs += [make_path(n) for n in range(1, 61)] + [make_cycle(n) for n in range(3, 61)]
    graphs += [make_lollipop(n, r) for n in range(4, 61) for r in range(3, n)]
    for _ in range(100):
        graphs.append(random_tree(rng, rng.randrange(1, 150)))
        graphs.append(random_unicyclic(rng, rng.randrange(3, 150)))
    return graphs


class TestIntegerFold:
    """The leaf-strip fold at x = 2^b, read back from the digits, against
    the Z[x] fold it replaced (tests/zx_fold.py), the Berkowitz recursion
    and the recurrences, plus both steps of the digit-width bound."""

    def test_matches_the_zx_fold(self):
        for g in _fold_corpus():
            assert charpoly_det(g) == zx_fold.charpoly_det(g), g.edges()

    def test_matches_berkowitz_below_n_17(self):
        for g in _fold_corpus():
            if g.n <= 16:
                assert charpoly_det(g) == charpoly_det_matrix(laplacian_rows(g)), g.edges()

    def test_matches_the_recurrences(self):
        for n in range(1, 61):
            assert charpoly_det(make_path(n)) == phi_path(n)
        for n in range(3, 61):
            assert charpoly_det(make_cycle(n)) == phi_cycle(n)
            for r in range(3, n):
                assert charpoly_det(make_lollipop(n, r)) == phi_lollipop(n, r)

    def test_coefficients_alternate_and_sum_to_at_most_the_hadamard_bound(self):
        for g in _fold_corpus():
            p = charpoly_det(g)
            assert all((-1) ** (g.n - k) * c >= 0 for k, c in enumerate(p.coeffs)), g.edges()
            assert abs(p.eval(-1)) == sum(map(abs, p.coeffs))
            assert abs(p.eval(-1)) <= math.prod(len(nbrs) + 1 for nbrs in g.adj), g.edges()

    def test_trimmed_path_minors(self):
        """The identity suite's path minors: diagonals raised at one or both
        ends, against Berkowitz and the B and H recurrences, with the same
        width bound (a minor of a Laplacian is positive semidefinite)."""
        for k in range(1, 30):
            for raised, kind in (((k - 1,), "B"), ((0, k - 1), "H")):
                got = charpoly._trimmed_path_charpoly(k, raised)
                rows = _trimmed_path_rows(k, raised)
                assert got == charpoly_det_matrix(rows) == phi_aux(kind, k), (k, raised)
                assert abs(got.eval(-1)) <= math.prod(row[i] + 1 for i, row in enumerate(rows))

    def test_runs_no_polynomial_arithmetic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("IntPolynomial arithmetic reached")

        for name in ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__"):
            monkeypatch.setattr(IntPolynomial, name, refuse)
        with pytest.raises(AssertionError, match="arithmetic reached"):
            poly(1, 2) * poly(3)
        graphs = [g for n in range(3, 8) for g in enumerate_unicyclic(n)]
        graphs += list(forests_upto(6)) + [make_lollipop(60, 20), random_unicyclic(random.Random(3), 100)]
        for g in graphs:
            assert charpoly_det(g).degree == g.n


class TestIntegerInterpolation:
    """The Bareiss oracle's interpolation step."""

    def test_recovers_integer_polynomials(self):
        assert bareiss_det._interpolate_int([7]) == poly(7)
        assert bareiss_det._interpolate_int([0, 0, 2]) == poly(0, -1, 1)
        assert bareiss_det._interpolate_int([-5, -3, 11, 49]) == poly(-5, 0, 0, 2)

    def test_remainder_raises(self):
        # x(x-1)/2 is an integer at every integer, but its coefficients are not
        with pytest.raises(InternalConsistencyError):
            bareiss_det._interpolate_int([0, 0, 1])


def _complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _theta(n):
    """The n-cycle with the chord (0, n // 2): paths of lengths a = n // 2,
    b = n - a and 1 between two vertices, so ab + a + b spanning trees."""
    return make_cycle(n).with_edge_added(0, n // 2)


class TestKirchhoff:
    """The x coefficient of det(xI - L) of a connected graph is
    (-1)^(n-1) n tau(G), with tau the number of spanning trees
    (matrix-tree theorem), checked on the Berkowitz route directly."""

    @staticmethod
    def _x_coefficient(g):
        return charpoly_det_matrix(laplacian_rows(g)).coeffs[1]

    @pytest.mark.parametrize("n", [4, 5, 8, 13, 20, 31, 60])
    def test_theta_graphs(self, n):
        a, b = n // 2, n - n // 2
        assert self._x_coefficient(_theta(n)) == (-1) ** (n - 1) * n * (a * b + a + b)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_graphs(self, n):
        assert self._x_coefficient(_complete(n)) == (-1) ** (n - 1) * n * n ** (n - 2)
