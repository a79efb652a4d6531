"""Laplacian assembly, exact interval counts, and the floating cross-check.

The half-open count m[a, b) is the package's primitive: eigenvalues of L in
[a, b) number negatives(L - bI) - negatives(L - aI), and both terms come
from the exact congruence kernel, fed sparse rows of L - cI assembled
straight from the adjacency lists. L is positive semidefinite, so the term
at a <= 0 is zero and needs no elimination. laplacian(g) wraps the same
rows at c = 0 in an ExactMatrix. The floating-point spectrum
(LAPACK's symmetric eigvalsh through numpy) exists only as an independent
cross-check, for the interlacing chain; eigenvalue 1 occurs with high
multiplicity in the families studied here, so float counting at that
boundary is never authoritative and never consulted.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    EdgeNotPresentError,
    InvalidIntervalError,
    InvalidParameterError,
)
from .graphs import Graph
from .linalg import ExactMatrix, Inertia, SparseRows, _exact, sparse_inertia


def laplacian_rows(g: Graph) -> list[list[int]]:
    """Degree diagonal minus adjacency, as plain integers."""
    rows = [[0] * g.n for _ in range(g.n)]
    for v in range(g.n):
        rows[v][v] = g.degree(v)
        for w in g.adj[v]:
            rows[v][w] = -1
    return rows


def _shifted_rows(g: Graph, c: int | Fraction) -> SparseRows:
    """Sparse rows of L(g) - cI, built straight from the adjacency lists."""
    c = _exact(c)
    rows = {}
    for v, nbrs in enumerate(g.adj):
        row = dict.fromkeys(nbrs, -1)
        if len(nbrs) != c:
            row[v] = len(nbrs) - c
        rows[v] = row
    return rows


def laplacian(g: Graph) -> ExactMatrix:
    """L(g) as an ExactMatrix, in O(n + m)."""
    return ExactMatrix._of(_shifted_rows(g, 0))


def laplacian_apply(g: Graph, vec: Sequence[int]) -> list[int]:
    """L(g) @ vec in exact integer arithmetic."""
    if len(vec) != g.n:
        raise InvalidParameterError("vector length must equal vertex count")
    return [
        g.degree(v) * vec[v] - sum(vec[w] for w in g.adj[v]) for v in range(g.n)
    ]


@dataclass(frozen=True)
class IntervalCount:
    a: Fraction
    b: Fraction
    count: int


def shifted_inertia(g: Graph, c: int | Fraction) -> Inertia:
    """Inertia of L(g) - cI: eigenvalues of L below, at and above c."""
    return sparse_inertia(_shifted_rows(g, c))


def _count_below(g: Graph, c: Fraction) -> int:
    return shifted_inertia(g, c).negatives if c > 0 else 0


def count_interval(g: Graph, a: int | Fraction, b: int | Fraction) -> IntervalCount:
    """Exact number of Laplacian eigenvalues in the half-open interval [a, b)."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise InvalidIntervalError(f"need a < b, got [{a}, {b})")
    return IntervalCount(a, b, _count_below(g, b) - _count_below(g, a))


def multiplicity(g: Graph, mu: int | Fraction) -> int:
    """Exact multiplicity of mu as a Laplacian eigenvalue."""
    return shifted_inertia(g, mu).zeros


def closed_form_spectrum(family: str, n: int) -> list[float]:
    """Sorted Laplacian spectrum of a path or cycle from the cosine formulas."""
    if family == "path":
        if n < 1:
            raise InvalidParameterError(f"path spectrum needs n >= 1, got {n}")
        values = [2.0 - 2.0 * math.cos(math.pi * k / n) for k in range(n)]
    elif family == "cycle":
        if n < 3:
            raise InvalidParameterError(f"cycle spectrum needs n >= 3, got {n}")
        values = [2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)]
    else:
        raise InvalidParameterError(f"unknown family {family!r}")
    return sorted(values)


def spectrum_float(g: Graph) -> list[float]:
    """All Laplacian eigenvalues, ascending, from LAPACK's symmetric solver."""
    rows = np.array(laplacian_rows(g), dtype=float)
    return sorted(np.linalg.eigvalsh(rows).tolist())


def check_interlacing(g: Graph, e: tuple[int, int], slack: float = 1e-8) -> bool:
    """Whether the edge-deletion interlacing chain holds for every index.

    Checks mu_i(g) <= mu_{i+1}(g - e) <= mu_{i+1}(g) for i = 1..n-1 under
    float comparison with the given slack.
    """
    u, v = min(e), max(e)
    if not g.has_edge(u, v):
        raise EdgeNotPresentError(f"edge ({u},{v}) not in graph")
    spec_g = spectrum_float(g)
    spec_h = spectrum_float(g.with_edge_removed(u, v))
    return all(
        spec_g[i] <= spec_h[i + 1] + slack and spec_h[i + 1] <= spec_g[i + 1] + slack
        for i in range(g.n - 1)
    )
