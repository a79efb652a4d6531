"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: float spectra
come from numpy's LAPACK wrapper (which the exact kernel never touches;
tests of spectrum_float, itself LAPACK, use the Jacobi solver in jacobi.py),
domination numbers from exhaustive subset search, and isomorphism tests from
raw permutation search.
"""

import itertools
import random

import numpy as np
import pytest

from unilap.enumeration import enumerate_unicyclic, rooted_trees
from unilap.graphs import (
    CompassParams,
    Graph,
    disjoint_union,
    make_compass,
    make_cycle,
    make_lollipop,
    make_path,
)
from unilap.harness import random_tree, random_unicyclic
from unilap.spectra import laplacian_rows


def numpy_eigs(g: Graph) -> np.ndarray:
    """Laplacian eigenvalues via numpy, sorted ascending."""
    return np.linalg.eigvalsh(np.array(laplacian_rows(g), dtype=float))


def exhaustive_gamma(g: Graph) -> int:
    """Minimum dominating set size by trying all subsets, smallest first."""
    assert g.n <= 11, "exhaustive oracle is for tiny graphs"
    closed = [{v, *g.adj[v]} for v in range(g.n)]
    for k in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            if set().union(*(closed[v] for v in subset)) == set(range(g.n)):
                return k
    raise AssertionError("unreachable")


def tree_from_code(code: tuple) -> Graph:
    """The rooted tree with canonical code `code` (see enumeration), root 0."""
    edges = []
    labels = itertools.count(1)
    stack = [(0, code)]
    while stack:
        v, children = stack.pop()
        for child in children:
            w = next(labels)
            edges.append((v, w))
            stack.append((w, child))
    return Graph.from_edges(len(edges) + 1, edges)


def forests_upto(max_n):
    """Every forest on 1..max_n vertices, isolated vertices and edgeless
    graphs included: the children of the root of a rooted tree on n + 1
    vertices form a rooted forest on n, and every forest arises this way."""
    for size in range(2, max_n + 2):
        for code in rooted_trees(size):
            yield tree_from_code(code).without_vertex(0)


def one_cycle_unions(max_n):
    """Disjoint unions of two unicyclic classes, and of a forest with a
    unicyclic class, on at most max_n vertices."""
    small = {n: list(enumerate_unicyclic(n)) for n in range(3, max_n - 2)}
    for n1, n2 in itertools.combinations_with_replacement(small, 2):
        if n1 + n2 <= max_n:
            for g1 in small[n1]:
                for g2 in small[n2]:
                    yield disjoint_union(g1, g2)
    forests = list(forests_upto(max_n - 3))
    for n, classes in small.items():
        for f in forests:
            if f.n + n <= max_n:
                for g in classes:
                    yield disjoint_union(f, g)


def spider(r: int, stem: int, legs: list[int]) -> Graph:
    """A cycle 0..r-1, a stem of stem vertices from r-1, legs off the stem's end."""
    edges = [(i, i + 1) for i in range(r - 1)] + [(0, r - 1)]
    edges += [(r - 1 + j, r + j) for j in range(stem)]
    hub, n = r - 1 + stem, r + stem
    for length in legs:
        edges += [(hub, n)] + [(n + j, n + j + 1) for j in range(length - 1)]
        n += length
    return Graph.from_edges(n, edges)


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    target = set(g2.edges())
    for perm in itertools.permutations(range(g1.n)):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in target
            for u, v in g1.edges()
        ):
            return True
    return False


@pytest.fixture(scope="session")
def corpus() -> list[Graph]:
    """Small mixed bag of family and random graphs for property checks."""
    rng = random.Random(7)
    graphs = [make_path(n) for n in (1, 2, 3, 5, 9)]
    graphs += [make_cycle(n) for n in (3, 4, 6, 7, 12)]
    graphs += [make_lollipop(8, 3), make_lollipop(12, 8), make_lollipop(9, 6)]
    graphs += [
        make_compass(CompassParams(8, 3, 1, 1)),
        make_compass(CompassParams(14, 8, 4, 3)),
        make_compass(CompassParams(12, 6, 3, 1)),
    ]
    graphs += [random_tree(rng, rng.randrange(2, 14)) for _ in range(4)]
    graphs += [random_unicyclic(rng, rng.randrange(4, 14)) for _ in range(4)]
    return graphs
