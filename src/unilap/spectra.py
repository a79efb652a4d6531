"""Laplacian assembly, exact interval counts, and the floating cross-check.

The half-open count m[a, b) is the package's primitive: eigenvalues of L in
[a, b) number negatives(L - bI) - negatives(L - aI), and both terms are
exact inertias of L - cI. For c = p/q, qL - pI has the same inertia and
integer entries. When every component of the graph has at most one cycle,
a fraction-free kernel folds its leaf strip (graphs._cycle_forest, where a
tree's root is a one-vertex cycle) in Python ints: its numbers are minors
of qL - pI, so they have O(n) bits and no gcd ever runs, the cost is
linear in n at an integer shift, and a rational shift adds only the cost
of multiplying O(n)-bit ints. It also beats the heap kernel at c = 1, so
it serves every such graph; analyze, the sweeps and check_tree_chain take
count01 from graphs._fold_at_one instead, the same fold at 1, which also
closes gamma and reads d and the diameter's ends. Both folds take their
pivot step and their cycle closer, which settles each root too, from
linalg (_fold_pivots, _close_cycle); count_interval strips a graph once
and folds it at both ends. Any other graph goes to linalg.sparse_inertia, fed sparse rows of L - cI assembled
straight from the adjacency lists. L is positive semidefinite, so the term
at a <= 0 is zero and needs no elimination. laplacian(g) wraps the sparse
rows at c = 0 in an ExactMatrix. The floating-point spectrum (LAPACK's
symmetric eigvalsh through numpy) exists only as an independent
cross-check, for the interlacing chain (g and g - e in one call);
eigenvalue 1 occurs with high multiplicity in the families studied here,
so float counting at that boundary is never authoritative and never
consulted.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import (
    EdgeNotPresentError,
    InvalidIntervalError,
    InvalidParameterError,
)
from .graphs import Graph, _cycle_forest
from .linalg import (
    ExactMatrix,
    Inertia,
    SparseRows,
    _close_cycle,
    _exact,
    _fold_pivots,
    _fraction,
    sparse_inertia,
)


def laplacian_rows(g: Graph) -> list[list[int]]:
    """Degree diagonal minus adjacency, as plain integers."""
    rows = [[0] * g.n for _ in range(g.n)]
    for v, nbrs in enumerate(g.adj):
        rows[v][v] = len(nbrs)
        for w in nbrs:
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
    """L(g) @ vec in exact integer arithmetic, one edge at a time."""
    if len(vec) != g.n:
        raise InvalidParameterError("vector length must equal vertex count")
    out = [0] * g.n
    for v, nbrs in enumerate(g.adj):
        x = vec[v]
        for w in nbrs:
            if w > v:
                y = vec[w]
                out[v] += x - y
                out[w] += y - x
    return out


@dataclass(frozen=True)
class IntervalCount:
    a: Fraction
    b: Fraction
    count: int


def _forest_inertia(
    g: Graph, stripped: list[int], parent: list[int], cycles: list[list[int]], p: int, q: int
) -> Inertia:
    """Inertia of M = qL(g) - pI (q > 0) in Python ints, from the leaf strip
    (stripped, parent, cycles) of graphs._cycle_forest.

    Three steps: every vertex starts with its diagonal entry as its pivot,
    linalg._fold_pivots folds the strip leaf to root into parent (Jacobs
    and Trevisan, LAA 2011), and linalg._close_cycle settles each cycle,
    cut by its paired vertices or closed whole by _cycle_inertia (Braga,
    Rodrigues and Trevisan extend the method to unicyclic graphs). A
    vertex x carries its pivot as num[x] / den[x]: num[x] is the
    determinant of the block of M on x's subtree and den[x] the product of
    its attached children's nums. Every num and den is a minor of M, so
    each has O(n) bits, and the cost is linear in n at an integer shift.
    """
    num = [q * len(nbrs) - p for nbrs in g.adj]
    den = [1] * g.n
    zero_children = [0] * g.n
    neg, zero, pos = _fold_pivots(stripped, parent, num, den, zero_children, q * q)
    for cycle in cycles:
        cycle_neg, cycle_zero, cycle_pos = _close_cycle(cycle, num, den, zero_children, q)
        neg, zero, pos = neg + cycle_neg, zero + cycle_zero, pos + cycle_pos
    return Inertia(neg, zero, pos)


def _inertia(g: Graph, forest: tuple | None, c: int | Fraction) -> Inertia:
    """Inertia of L(g) - cI, given g's leaf strip from graphs._cycle_forest."""
    if forest is None:
        return sparse_inertia(_shifted_rows(g, c))
    return _forest_inertia(g, *forest, c.numerator, c.denominator)


def shifted_inertia(g: Graph, c: int | Fraction) -> Inertia:
    """Inertia of L(g) - cI: eigenvalues of L below, at and above c.

    When every component of g has at most one cycle, the fraction-free
    kernel folds g's leaf strip; any other graph goes to sparse_inertia.
    """
    return _inertia(g, _cycle_forest(g), _exact(c))


def count_interval(g: Graph, a: int | Fraction, b: int | Fraction) -> IntervalCount:
    """Exact number of Laplacian eigenvalues in the half-open interval [a, b),
    from one leaf strip of g folded at both ends."""
    a, b = _fraction(a), _fraction(b)
    if a >= b:
        raise InvalidIntervalError(f"need a < b, got [{a}, {b})")
    forest = _cycle_forest(g)
    count = _inertia(g, forest, b).negatives if b > 0 else 0
    if a > 0:
        count -= _inertia(g, forest, a).negatives
    return IntervalCount(a, b, count)


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


def _float_laplacian(g: Graph) -> np.ndarray:
    """The dense float Laplacian, filled from index arrays: -1 at (v, w) for
    every neighbour w of v (rows by np.repeat of the degrees, columns the
    adjacency lists chained), then the degrees on the diagonal. It is the
    same matrix as np.array(laplacian_rows(g), dtype=float).
    """
    deg = np.fromiter(map(len, g.adj), dtype=np.intp, count=g.n)
    cols = np.fromiter(chain.from_iterable(g.adj), dtype=np.intp)
    lap = np.zeros((g.n, g.n))
    lap[np.repeat(np.arange(g.n), deg), cols] = -1.0
    np.fill_diagonal(lap, deg)
    return lap


def spectrum_float(g: Graph) -> list[float]:
    """All Laplacian eigenvalues, ascending as LAPACK's symmetric solver returns them."""
    return np.linalg.eigvalsh(_float_laplacian(g)).tolist()


INTERLACING_SLACK = 1e-8  # float tolerance of check_interlacing's comparisons


def _interlaces(spec_g: Sequence[float], spec_h: Sequence[float]) -> bool:
    """Whether mu_i(g) <= mu_{i+1}(h) <= mu_{i+1}(g) for i = 1..n-1, with
    slack INTERLACING_SLACK, given both spectra in ascending order."""
    return all(
        a <= b + INTERLACING_SLACK and b <= c + INTERLACING_SLACK
        for a, b, c in zip(spec_g, spec_h[1:], spec_g[1:])
    )


def check_interlacing(g: Graph, e: tuple[int, int]) -> bool:
    """Whether the edge-deletion interlacing chain holds for every index.

    Checks mu_i(g) <= mu_{i+1}(g - e) <= mu_{i+1}(g) for i = 1..n-1 under
    float comparison with slack INTERLACING_SLACK, e being exactly two
    vertex ids, on both spectra from one eigvalsh call.
    """
    try:
        u, v = e
    except (TypeError, ValueError):
        raise InvalidParameterError(f"an edge is two vertex ids, got {e!r}") from None
    u, v = min(u, v), max(u, v)
    if not g.has_edge(u, v):
        raise EdgeNotPresentError(f"edge ({u},{v}) not in graph")
    pair = np.stack((_float_laplacian(g),) * 2)
    h = pair[1]  # L(g - e); scalar writes cost far less than fancy indexing here
    h[u, v] = h[v, u] = 0.0
    h[u, u] -= 1.0
    h[v, v] -= 1.0
    spec_g, spec_h = np.linalg.eigvalsh(pair).tolist()
    return _interlaces(spec_g, spec_h)
