import itertools
import math
from collections import Counter

import pytest

import bracelet_walk
from conftest import graphs_isomorphic
from necklace_oracle import oracle_unicyclic
from unilap import enumeration
from unilap.enumeration import enumerate_unicyclic, rooted_trees
from unilap.errors import InvalidParameterError
from unilap.graphs import Graph, girth, unicyclic_decompose


def labeled_trees(k):
    """All labeled trees on k vertices via Pruefer sequences."""
    if k == 1:
        yield Graph.from_edges(1, [])
        return
    if k == 2:
        yield Graph.from_edges(2, [(0, 1)])
        return
    for seq in itertools.product(range(k), repeat=k - 2):
        degree = [1] * k
        for v in seq:
            degree[v] += 1
        edges = []
        candidates = sorted(v for v in range(k) if degree[v] == 1)
        seq_list = list(seq)
        for v in seq_list:
            leaf = candidates.pop(0)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[v] -= 1
            if degree[v] == 1:
                # keep candidate list sorted
                import bisect

                bisect.insort(candidates, v)
        u, v = candidates
        edges.append((u, v))
        yield Graph.from_edges(k, edges)


def tree_size(code):
    return 1 + sum(tree_size(child) for child in code)


def rooted_code(g, root, parent=None):
    children = [w for w in g.adj[root] if w != parent]
    return tuple(sorted(rooted_code(g, c, root) for c in children))


class TestRootedTrees:
    def test_counts_against_labeled_oracle(self):
        # distinct canonical rooted codes over all (labeled tree, root) pairs
        for k in range(1, 7):
            codes = {
                rooted_code(t, root)
                for t in labeled_trees(k)
                for root in range(k)
            }
            assert len(rooted_trees(k)) == len(codes)

    def test_sizes_and_uniqueness(self):
        for k in range(1, 9):
            trees = rooted_trees(k)
            assert len(set(trees)) == len(trees)
            assert all(tree_size(code) == k for code in trees)

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            rooted_trees(0)


def labeled_unicyclic_count(n):
    pairs = list(itertools.combinations(range(n), 2))
    count = 0
    for subset in itertools.combinations(pairs, n):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = n
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        if comps == 1:
            count += 1
    return count


def aut_order(g):
    edges = set(g.edges())
    return sum(
        1
        for perm in itertools.permutations(range(g.n))
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges
        )
    )


class TestEnumerateUnicyclic:
    def test_counts_frozen(self):
        # verified against the labeled-enumeration oracle (orbit sums match
        # the labeled counts for every n up to 8, and the closed-form labeled
        # count at n = 9..11)
        expected = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806}
        for n, want in expected.items():
            assert sum(1 for _ in enumerate_unicyclic(n)) == want

    def test_every_output_is_unicyclic(self):
        for n in range(3, 9):
            for g in enumerate_unicyclic(n):
                assert g.n == n and g.m == n
                assert g.is_connected()
                unicyclic_decompose(g)  # raises if malformed

    def test_pairwise_non_isomorphic_small(self):
        for n in range(3, 7):
            graphs = list(enumerate_unicyclic(n))
            for a, b in itertools.combinations(graphs, 2):
                assert not graphs_isomorphic(a, b)

    def test_orbit_sum_matches_labeled_bruteforce(self):
        for n in range(4, 8):
            labeled = labeled_unicyclic_count(n)
            orbit = sum(
                math.factorial(n) // aut_order(g) for g in enumerate_unicyclic(n)
            )
            assert orbit == labeled

    def test_girth_distribution_n6(self):
        by_girth = Counter(
            unicyclic_decompose(g).girth for g in enumerate_unicyclic(6)
        )
        assert sum(by_girth.values()) == 13
        assert by_girth[6] == 1  # the plain cycle
        assert by_girth[3] > by_girth[5]

    def test_range_enforced(self):
        # at call time, before the first class is asked for
        with pytest.raises(InvalidParameterError):
            enumerate_unicyclic(2)
        with pytest.raises(InvalidParameterError):
            enumerate_unicyclic(17)

    def test_deterministic_order(self):
        first = [g.edges() for g in enumerate_unicyclic(7)]
        second = [g.edges() for g in enumerate_unicyclic(7)]
        assert first == second

    def test_counts_past_the_old_cap(self):
        # OEIS A001429, connected unicyclic graphs on n nodes
        for n, want in {12: 5026, 13: 13999, 14: 39260}.items():
            assert sum(1 for _ in enumerate_unicyclic(n)) == want

    def test_order_is_girth_ascending_and_independent_of_the_cache(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_ALPHABET", enumeration._Alphabet([], [], [], [], []))
        first = [g.edges() for g in enumerate_unicyclic(9)]
        enumeration._alphabet(12)  # a larger alphabet re-ranks every code
        assert [g.edges() for g in enumerate_unicyclic(9)] == first
        for n in range(3, 12):
            girths = [girth(g) for g in enumerate_unicyclic(n)]
            assert girths == sorted(girths)

    def test_bracelets_are_least_and_ascending(self):
        # each girth yields least sequences (over rotations and reflections)
        # in strictly increasing lexicographic order, the documented order
        alpha = enumeration._alphabet(8)
        for n in range(3, 11):
            for r in range(3, n + 1):
                seqs = [tuple(a) for a in enumeration._bracelets(n, r, alpha)]
                assert seqs == sorted(set(seqs))
                for s in seqs:
                    assert sum(alpha.size[x] for x in s) == n
                    assert s == min(v[i:] + v[:i] for v in (s, s[::-1]) for i in range(r))


class TestAgainstDedupeOracle:
    """The necklace generator against the assign-then-dedupe enumerator it replaced."""

    @pytest.mark.parametrize("n", range(3, 12))
    def test_same_edge_lists_per_girth(self, n):
        want: dict[int, Counter] = {}
        for r, g in oracle_unicyclic(n):
            want.setdefault(r, Counter())[tuple(g.edges())] += 1
        got: dict[int, Counter] = {}
        for g in enumerate_unicyclic(n):
            got.setdefault(girth(g), Counter())[tuple(g.edges())] += 1
        assert got == want

    def test_outputs_pass_full_validation(self):
        # the build bypasses __post_init__, so run it on every output
        for n in range(3, 12):
            for g in enumerate_unicyclic(n):
                assert Graph(g.n, g.adj) == g


class TestLastSlotFromTheSecond:
    """The last slot starts at a[1]: the walk that started it at a[t - p]
    emits the same least sequences, in the same order, at every girth."""

    @pytest.mark.parametrize("n", range(3, 14))
    def test_same_sequences_per_girth(self, n):
        alpha = enumeration._alphabet(n - 2)
        for r in range(3, n + 1):
            got = [tuple(a) for a in enumeration._bracelets(n, r, alpha)]
            want = [tuple(a) for a in bracelet_walk._bracelets(n, r, alpha)]
            assert got == want, (n, r)
