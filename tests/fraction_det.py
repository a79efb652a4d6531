"""The Fraction-elimination determinant oracle that Bareiss replaced, kept as a test oracle.

This is the earlier unilap.charpoly route, unchanged: det(xI - M) at the
integer samples 0..n by Gaussian elimination over Fraction, then Newton
divided differences over Fraction. Neither the determinant nor the
interpolation shares code with the integer route it checks.
"""

from collections.abc import Sequence
from fractions import Fraction

from unilap.charpoly import IntPolynomial
from unilap.errors import InternalConsistencyError
from unilap.graphs import Graph
from unilap.spectra import laplacian_rows


def _det_fraction(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def _interpolate_int(points: list[tuple[int, int | Fraction]]) -> IntPolynomial:
    # Newton divided differences, then expansion; the result must be integral.
    xs = [Fraction(x) for x, _ in points]
    coefs = [y for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (xs[i] - xs[i - level])
    poly = [coefs[-1]]
    for k in range(len(points) - 2, -1, -1):
        shifted = [Fraction(0)] + poly
        poly = [s - xs[k] * p for s, p in zip(shifted, poly + [Fraction(0)])]
        poly[0] += coefs[k]
    if any(c.denominator != 1 for c in poly):
        raise InternalConsistencyError("interpolation produced non-integer coefficients")
    return IntPolynomial([int(c) for c in poly])


def charpoly_det_matrix(rows: Sequence[Sequence[int]]) -> IntPolynomial:
    """det(xI - M) for an integer matrix, by sampling and interpolation."""
    n = len(rows)
    points = []
    for x0 in range(n + 1):
        mat = [
            [Fraction((x0 if i == j else 0) - rows[i][j]) for j in range(n)]
            for i in range(n)
        ]
        points.append((x0, _det_fraction(mat)))
    return _interpolate_int(points)


def charpoly_det(g: Graph) -> IntPolynomial:
    """det(xI - L(g)) by the determinant oracle."""
    return charpoly_det_matrix(laplacian_rows(g))
