"""The edge-list builders and dense Laplacian helpers that unilap replaced.

This is the earlier unilap code, unchanged apart from names: the family
generators and Graph.with_edge_removed built an edge list and handed it to
Graph.from_edges, which makes one set per vertex and sorts it;
laplacian_apply summed a generator expression per vertex; and
spectrum_float passed the nested lists of laplacian_rows to np.array.
unilap now writes the generators' sorted neighbour tuples straight into
Graph._trusted, edits only the two tuples an edge removal touches, and
fills the float Laplacian from index arrays, so these share with it only
Graph.from_edges, CompassParams.validate and laplacian_rows.
"""

from collections.abc import Sequence

import numpy as np

from unilap.errors import EdgeNotPresentError, InvalidParameterError
from unilap.graphs import CompassParams, Graph
from unilap.spectra import laplacian_rows


def make_path(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def make_lollipop(n: int, r: int) -> Graph:
    if not 3 <= r <= n:
        raise InvalidParameterError(f"lollipop needs 3 <= r <= n, got n={n} r={r}")
    if r == n:
        return make_cycle(n)
    edges = [(i, i + 1) for i in range(r - 1)] + [(0, r - 1)]
    edges += [(r - 1 + j, r + j) for j in range(n - r)]
    return Graph.from_edges(n, edges)


def make_compass(p: CompassParams) -> Graph:
    p.validate()
    t, r = p.t, p.r
    edges = [(i, i + 1) for i in range(t - 1)]                       # first tail
    edges += [(t + i, t + i + 1) for i in range(r - 1)] + [(t, t + r - 1)]  # cycle
    edges += [(t - 1, t + p.r_prime - 1)]                            # attachment
    edges += [(t + r - 1 + j, t + r + j) for j in range(p.s)]        # second tail
    return Graph.from_edges(p.n, edges)


def with_edge_removed(g: Graph, u: int, v: int) -> Graph:
    """The old method body, which read a wrapped id (-1 as n - 1) as a vertex."""
    if v not in g.adj[u]:
        raise EdgeNotPresentError(f"edge ({u},{v}) not in graph")
    return Graph.from_edges(g.n, [e for e in g.edges() if e != (min(u, v), max(u, v))])


def laplacian_apply(g: Graph, vec: Sequence[int]) -> list[int]:
    if len(vec) != g.n:
        raise InvalidParameterError("vector length must equal vertex count")
    return [
        g.degree(v) * vec[v] - sum(vec[w] for w in g.adj[v]) for v in range(g.n)
    ]


def spectrum_float(g: Graph) -> list[float]:
    rows = np.array(laplacian_rows(g), dtype=float)
    return sorted(np.linalg.eigvalsh(rows).tolist())
