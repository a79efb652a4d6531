"""Shared fixtures and independent oracles for the test suite.

Every oracle here and in the oracle modules beside it shares no code with
the route it checks; tests/mutants.py holds the mutant table that shows
the suite still catches a fault on each route.

- numpy_eigs: float spectra from numpy's LAPACK wrapper, which no exact
  kernel touches; used only away from the boundary (count01, mult1).
- exhaustive_gamma: domination numbers by subset search, independent of
  the tree DP and of branch and bound.
- graphs_isomorphic: raw permutation search, independent of the necklace
  enumeration.
- dense_kernel: the full-scan Fraction elimination over its own dense
  matrix, read from laplacian_rows; independent of sparse_inertia's heap
  and of the leaf-strip fold.
- allpairs_diameter: the n^2-distance diameter and path; independent of
  the diameter's ends read off the fold.
- structure_oracle: the decomposition, eccentricities, path and core by
  BFS and deque windows, and the core rebuilt and classified from its
  degrees; independent of the leaf strip's reads, _cycle_reach and
  _far_ends.
- bareiss_det: determinants by Bareiss sampling and integer
  interpolation; independent of the Berkowitz recursion and the leaf-strip
  fold at x = 2^b.
- necklace_oracle: every tree assignment, then dedupe; independent of the
  necklace walk and the class builder, sharing only rooted_trees.
- jacobi: cyclic Jacobi rotations; independent of LAPACK, for the tests
  of spectrum_float, itself LAPACK.

The closed forms (the path, cycle and lollipop counts and polynomials,
Kirchhoff's coefficient, gamma of paths and cycles) are checked in the
test modules themselves.
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
