"""The Z[x] leaf-strip fold that integer evaluation replaced, kept as a test oracle.

This is the earlier unilap.charpoly._forest_charpoly: linalg._fold_pivots'
leaf-to-root elimination run on M - xI over Z[x] with IntPolynomial
arithmetic, for M with diagonal diag and -1 on the edges of the leaf strip
(graphs._cycle_forest). It evaluates at no point and unpacks no digits, so
it shares neither step with the integer fold it checks.
"""

import math

from unilap.charpoly import IntPolynomial
from unilap.graphs import Graph, _cycle_forest


def forest_charpoly(diag: list[int], forest: tuple) -> IntPolynomial:
    """det(xI - M) from the leaf strip (stripped, parent, cycles).

    num[v] starts at diag[v] - x and den[v] at 1, and folding x into its
    parent u sets num[u] to num[u] num[x] - den[x] den[u] and den[u] to
    den[u] num[x]. A tree component's determinant is its root's num; a
    cycle's is the closing value of the continuant of
    linalg._cycle_inertia at q = 1.
    """
    stripped, parent, cycles = forest
    one = IntPolynomial.constant(1)
    num = [IntPolynomial._of_ints([d, -1]) for d in diag]
    den = [one] * len(diag)
    det = one if len(diag) % 2 == 0 else -one  # det(xI - M) = (-1)^n det(M - xI)
    for x in stripped:
        u = parent[x]
        if u == x:
            det *= num[x]
        else:
            num[u] = num[u] * num[x] - den[x] * den[u]
            den[u] *= num[x]
    for cycle in cycles:
        nums = [num[v] for v in cycle]
        dens = [den[v] for v in cycle]
        f_prev, f = one, nums[0]
        w_prev, w = IntPolynomial.zero(), dens[0]
        for k in range(1, len(cycle) - 1):
            e = dens[k] * dens[k - 1]
            f_prev, f = f, nums[k] * f - e * f_prev
            w_prev, w = w, nums[k] * w - e * w_prev
        det *= nums[-1] * f - dens[-1] * (dens[-2] * f_prev + w) - 2 * math.prod(dens)
    return det


def charpoly_det(g: Graph) -> IntPolynomial:
    """det(xI - L(g)) for g whose components each have at most one cycle."""
    return forest_charpoly([len(nbrs) for nbrs in g.adj], _cycle_forest(g))
