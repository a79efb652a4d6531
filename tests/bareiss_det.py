"""The Bareiss-sampling determinant oracle that Berkowitz replaced, kept as a test oracle.

This is the earlier unilap.charpoly_det_matrix route: exact
determinants of xI - M at the integer samples 0..n by Bareiss's
fraction-free elimination on Python ints, then interpolation from integer
forward differences with one exact division by n! per coefficient. It
shares no code with either route it checks: the Berkowitz recursion of
charpoly_det_matrix and the leaf-strip fold at x = 2^b of charpoly_det.
"""

from collections.abc import Sequence

from unilap.charpoly import IntPolynomial
from unilap.errors import InternalConsistencyError
from unilap.graphs import Graph
from unilap.spectra import laplacian_rows


def _det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Bareiss: each step replaces the trailing block by 2x2 cross products
    divided by the previous pivot. Every entry is then a minor of the input,
    so each division is exact and every value stays a Python int. A zero
    pivot swaps in a lower row with a nonzero leading entry and flips the
    sign; if there is none, the matrix is singular.
    """
    sign, prev = 1, 1
    while len(rows) > 1:
        if not rows[0][0]:
            swap = next((i for i, row in enumerate(rows) if row[0]), None)
            if swap is None:
                return 0
            rows[0], rows[swap] = rows[swap], rows[0]
            sign = -sign
        top = rows[0]
        pivot = top[0]
        rows = [
            [(pivot * a - row[0] * b) // prev for a, b in zip(row[1:], top[1:])]
            for row in rows[1:]
        ]
        prev = pivot
    return sign * rows[0][0] if rows else 1


def _interpolate_int(values: list[int]) -> IntPolynomial:
    """The integer polynomial of degree at most n taking values[x] at x = 0..n.

    Newton's forward form: p(x) is the sum over k of D^k p(0) times
    x(x-1)...(x-k+1) / k!, with D the forward difference. Scaled by n! each
    term has integer coefficients, so the Horner expansion runs on ints and
    each coefficient is divided by n! once at the end; a remainder means
    the samples do not come from an integer polynomial.
    """
    diffs = []
    row = list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    scale = 1  # n!/k! at step k, n! after the last
    poly = [diffs[-1]]
    for k in range(len(diffs) - 2, -1, -1):
        scale *= k + 1
        shifted = [0] + poly
        for i, c in enumerate(poly):
            shifted[i] -= k * c
        shifted[0] += diffs[k] * scale
        poly = shifted
    coeffs = []
    for c in poly:
        q, rem = divmod(c, scale)
        if rem:
            raise InternalConsistencyError("interpolation produced non-integer coefficients")
        coeffs.append(q)
    return IntPolynomial(coeffs)


def charpoly_det_matrix(rows: Sequence[Sequence[int]]) -> IntPolynomial:
    """det(xI - M) for an integer matrix, by sampling and interpolation."""
    n = len(rows)
    values = []
    for x0 in range(n + 1):
        mat = [
            [(x0 if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)
        ]
        values.append(_det_bareiss(mat))
    return _interpolate_int(values)


def charpoly_det(g: Graph) -> IntPolynomial:
    """det(xI - L(g)) by the Bareiss oracle."""
    return charpoly_det_matrix(laplacian_rows(g))
