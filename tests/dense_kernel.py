"""The dense inertia kernel that sparse_inertia replaced, kept as a test oracle.

This is the earlier unilap.linalg elimination, unchanged, with the dense
ExactMatrix it read from: every entry is a Fraction, the matrix is
converted to dict rows, and every step scans all remaining rows for the
nonzero diagonal with the smallest (support, index). Tests feed it dense
rows (laplacian_rows(g) minus cI, or explicit matrices), so it shares no
input path and no elimination step with the code it checks.
"""

from collections.abc import Iterable, Sequence
from fractions import Fraction

from unilap.errors import NonSymmetricError
from unilap.linalg import Inertia


class ExactMatrix:
    """Dense square matrix over exact rationals."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Sequence[int | Fraction]]):
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(data)
        if any(len(row) != n for row in data):
            raise ValueError("matrix must be square")
        self.n = n
        self.rows = data

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "ExactMatrix":
        return cls([[0] * n for _ in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def minus_scaled_identity(self, c: int | Fraction) -> "ExactMatrix":
        c = Fraction(c)
        return ExactMatrix(
            [
                [x - c if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(self.rows)
            ]
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({[list(map(str, row)) for row in self.rows]})"


_ZERO = Fraction(0)


def _eliminate_pivot(rows: dict[int, dict[int, Fraction]], p: int) -> None:
    row_p = rows.pop(p)
    d = row_p.pop(p)
    nbrs = list(row_p.items())
    for u, _ in nbrs:
        rows[u].pop(p, None)
    for u, apu in nbrs:
        factor = apu / d
        row_u = rows[u]
        for v, apv in nbrs:
            new = row_u.get(v, _ZERO) - factor * apv
            if new:
                row_u[v] = new
            else:
                row_u.pop(v, None)


def _eliminate_block(rows: dict[int, dict[int, Fraction]], p: int, q: int) -> None:
    # 2x2 pivot [[dp, a], [a, dq]]; used only when every remaining diagonal
    # is zero, so its determinant -a^2 is negative and it contributes one
    # eigenvalue of each sign.
    a = rows[p][q]
    dp = rows[p].get(p, _ZERO)
    dq = rows[q].get(q, _ZERO)
    det = dp * dq - a * a
    i00, i01, i11 = dq / det, -a / det, dp / det
    support = (set(rows[p]) | set(rows[q])) - {p, q}
    coef = {u: (rows[u].get(p, _ZERO), rows[u].get(q, _ZERO)) for u in support}
    del rows[p], rows[q]
    for u in support:
        rows[u].pop(p, None)
        rows[u].pop(q, None)
    for u, (xu, yu) in coef.items():
        w0 = i00 * xu + i01 * yu
        w1 = i01 * xu + i11 * yu
        row_u = rows[u]
        for v, (xv, yv) in coef.items():
            new = row_u.get(v, _ZERO) - (xv * w0 + yv * w1)
            if new:
                row_u[v] = new
            else:
                row_u.pop(v, None)


def dense_inertia(m: ExactMatrix) -> Inertia:
    """Signs of the eigenvalues of a symmetric matrix, exactly.

    Nonzero diagonal pivots are consumed smallest-support-first; if only
    zero diagonals remain but some off-diagonal entry is nonzero, a 2x2
    block with negative determinant is processed instead; empty rows are
    kernel dimensions.
    """
    if not m.is_symmetric():
        raise NonSymmetricError("inertia requires a symmetric matrix")
    rows: dict[int, dict[int, Fraction]] = {
        i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(m.rows)
    }
    neg = zero = pos = 0
    while rows:
        pivot = None
        best = None
        for i, row in rows.items():
            if row.get(i):
                size = len(row)
                if best is None or size < best or (size == best and i < pivot):
                    best, pivot = size, i
        if pivot is not None:
            if rows[pivot][pivot] > 0:
                pos += 1
            else:
                neg += 1
            _eliminate_pivot(rows, pivot)
            continue
        pq = None
        for i in sorted(rows):
            if rows[i]:
                pq = (i, min(rows[i]))
                break
        if pq is None:
            zero += len(rows)
            break
        neg += 1
        pos += 1
        _eliminate_block(rows, *pq)
    return Inertia(neg, zero, pos)
