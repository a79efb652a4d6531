"""Exact inertia of symmetric rational matrices by congruence.

Sylvester's law of inertia makes symmetric Gaussian elimination an exact
eigenvalue-sign counter: each congruence step peels off one diagonal pivot
whose sign is the sign of one eigenvalue. The arithmetic is exact, so
there is no rounding and counts at spectrum points (where floating point is
hopeless) are exact. An entry is a Python int while it is integral and a
fractions.Fraction only after a division that does not come out even; a
Fraction result with denominator 1 is stored as an int again. Quotients go
through _div, which divides two ints with divmod and builds a Fraction when
the remainder is nonzero, and the 2x2 block divides by its determinant
taken as a Fraction: / is never applied to two ints, since that gives a
float. At an integer shift most pivots on graph Laplacians are +-1, so
most of the work is int arithmetic.

The kernel, sparse_inertia, works on sparse rows (one dict per index,
holding the nonzero entries) and always eliminates the nonzero diagonal
pivot with the smallest support, ties to the smallest index. A lazy
min-heap keyed on (support, index) finds that pivot: a row is pushed again
only when an elimination touches it, and stale entries are skipped when
popped. On graph Laplacians this order eliminates pendant vertices first,
so a count on a tree or unicyclic graph at an integer shift takes time
linear in n. At a rational shift the Fraction entries carry O(n)-bit
denominators and every sum runs a gcd, which makes the cost superlinear on
a cycle. spectra.shifted_inertia therefore counts graphs whose components
have at most one cycle by a fraction-free fold over the leaf strip of
graphs._cycle_forest (Jacobs and Trevisan; Braga, Rodrigues and Trevisan),
which is faster at every shift. It comes here only for a graph with two
cycles in one component, which that strip reports, and assembles L - cI as
sparse rows straight from the graph. Since L is positive semidefinite, one
count at c = 1 yields both the count below 1 (its negatives) and the
multiplicity of 1 (its zeros).

ExactMatrix is the public matrix type and holds the same sparse rows: its
constructor takes dense rows and drops the zeros, spectra.laplacian builds
one straight from the graph, and inertia(ExactMatrix) checks symmetry and
eliminates a per-row copy, so it costs O(n + m) on a graph Laplacian.

The fold of the leaf strip shares its pivot step and its cycle closer
between spectra._forest_inertia (every shift) and graphs._close (at 1,
closing gamma too); they live here because graphs cannot import spectra.
None of the three reads a graph, only states at indices (vertex ids, or
positions on one cycle). _fold_pivots folds each vertex of an order into
its target, _close_cycle settles a cycle once its pendant trees have
folded in, folding a cut cycle as a path by the same step with each
target read off the path, and _cycle_inertia closes an intact one.
"""

import heapq
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError, NonSymmetricError

SparseRows = dict[int, dict[int, int | Fraction]]


@dataclass(frozen=True)
class Inertia:
    negatives: int
    zeros: int
    positives: int

    @property
    def order(self) -> int:
        return self.negatives + self.zeros + self.positives


def _fraction(x: int | Fraction) -> Fraction:
    """x as a Fraction; NaN and ±inf raise InvalidParameterError."""
    try:
        return Fraction(x)
    except (OverflowError, ValueError):
        raise InvalidParameterError(f"need a finite rational number, got {x!r}") from None


def _exact(x: int | Fraction) -> int | Fraction:
    """x as an int when integral, else a Fraction; NaN and ±inf raise InvalidParameterError."""
    if x.__class__ is not int:
        x = _fraction(x)
        if x.denominator == 1:
            x = x.numerator
    return x


class ExactMatrix:
    """Square matrix over exact rationals, held as the kernel's sparse rows.

    rows maps each index to a dict of its nonzero entries; integral entries
    are ints. The constructor takes dense rows.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Sequence[int | Fraction]]):
        dense = list(rows)
        n = len(dense)
        if any(len(row) != n for row in dense):
            raise ValueError("matrix must be square")
        self.n = n
        self.rows: SparseRows = {
            i: {j: x for j, x in enumerate(map(_exact, row)) if x}
            for i, row in enumerate(dense)
        }

    @classmethod
    def _of(cls, rows: SparseRows) -> "ExactMatrix":
        """Wrap sparse rows, already normalised, without copying them."""
        m = object.__new__(cls)
        m.n = len(rows)
        m.rows = rows
        return m

    def is_symmetric(self) -> bool:
        rows = self.rows
        return all(rows[j].get(i) == x for i, row in rows.items() for j, x in row.items())

    def minus_scaled_identity(self, c: int | Fraction) -> "ExactMatrix":
        c = _exact(c)
        rows = {i: dict(row) for i, row in self.rows.items()}
        for i, row in rows.items():
            x = _exact(row.get(i, 0) - c)
            if x:
                row[i] = x
            else:
                row.pop(i, None)
        return ExactMatrix._of(rows)


def _div(a: int | Fraction, d: int | Fraction) -> int | Fraction:
    """a / d exactly, as an int when the quotient is integral."""
    if a.__class__ is int and d.__class__ is int:
        q, rem = divmod(a, d)
        return Fraction(a, d) if rem else q
    x = a / d
    return x.numerator if x.denominator == 1 else x


def _eliminate_pivot(rows: SparseRows, p: int) -> list[int]:
    """Eliminate the 1x1 pivot p; returns the rows it touched."""
    row_p = rows.pop(p)
    d = row_p.pop(p)
    if len(row_p) == 1:
        # one neighbour left (a pendant vertex): only its diagonal changes
        ((u, a),) = row_p.items()
        row_u = rows[u]
        del row_u[p]
        new = row_u.get(u, 0) - _div(a * a, d)
        if new.__class__ is not int and new.denominator == 1:
            new = new.numerator
        if new:
            row_u[u] = new
        else:
            row_u.pop(u, None)
        return [u]
    nbrs = list(row_p.items())
    for u, _ in nbrs:
        del rows[u][p]
    for u, apu in nbrs:
        factor = _div(apu, d)
        row_u = rows[u]
        for v, apv in nbrs:
            new = row_u.get(v, 0) - factor * apv
            if new.__class__ is not int and new.denominator == 1:
                new = new.numerator
            if new:
                row_u[v] = new
            else:
                row_u.pop(v, None)
    return list(row_p)


def _eliminate_block(rows: SparseRows, p: int, q: int) -> set[int]:
    """Eliminate the 2x2 pivot on p and q; returns the rows it touched."""
    # 2x2 pivot [[dp, a], [a, dq]]; used only when every remaining diagonal
    # is zero, so its determinant -a^2 is negative and it contributes one
    # eigenvalue of each sign.
    a = rows[p][q]
    dp = rows[p].get(p, 0)
    dq = rows[q].get(q, 0)
    det = Fraction(dp * dq - a * a)
    i00, i01, i11 = dq / det, -a / det, dp / det
    support = (set(rows[p]) | set(rows[q])) - {p, q}
    coef = {u: (rows[u].get(p, 0), rows[u].get(q, 0)) for u in support}
    del rows[p], rows[q]
    for u in support:
        rows[u].pop(p, None)
        rows[u].pop(q, None)
    for u, (xu, yu) in coef.items():
        w0 = i00 * xu + i01 * yu
        w1 = i01 * xu + i11 * yu
        row_u = rows[u]
        for v, (xv, yv) in coef.items():
            new = row_u.get(v, 0) - (xv * w0 + yv * w1)
            if new.denominator == 1:
                new = new.numerator
            if new:
                row_u[v] = new
            else:
                row_u.pop(v, None)
    return support


def sparse_inertia(rows: SparseRows) -> Inertia:
    """Signs of the eigenvalues of a symmetric matrix given as sparse rows.

    rows maps each index to a dict of its nonzero entries, ints or
    Fractions (zeros, the diagonal included, are absent); it must be
    symmetric and is consumed.
    Nonzero diagonal pivots are taken smallest (support, index) first; if
    only zero diagonals remain but some off-diagonal entry is nonzero, the
    2x2 block on the smallest index with a nonempty row and that row's
    smallest column is processed instead; empty rows are kernel dimensions.
    """
    heap = [(len(row), i) for i, row in rows.items() if row.get(i)]
    heapq.heapify(heap)
    # an empty row has no neighbour left to touch it, so it stays empty and
    # the smallest index with a nonempty row only moves forward
    order = sorted(rows)
    cursor = 0
    neg = zero = pos = 0
    while rows:
        pivot = None
        while heap:
            size, i = heapq.heappop(heap)
            row = rows.get(i)
            if row is not None and len(row) == size and row.get(i):
                pivot = i
                break
        if pivot is not None:
            if rows[pivot][pivot] > 0:
                pos += 1
            else:
                neg += 1
            touched = _eliminate_pivot(rows, pivot)
        else:
            while cursor < len(order) and not rows.get(order[cursor]):
                cursor += 1
            if cursor == len(order):
                zero += len(rows)
                break
            p = order[cursor]
            neg += 1
            pos += 1
            touched = _eliminate_block(rows, p, min(rows[p]))
        for u in touched:
            row = rows[u]
            if row.get(u):
                heapq.heappush(heap, (len(row), u))
    return Inertia(neg, zero, pos)


def inertia(m: ExactMatrix) -> Inertia:
    """Signs of the eigenvalues of a symmetric matrix, exactly."""
    if not m.is_symmetric():
        raise NonSymmetricError("inertia requires a symmetric matrix")
    return sparse_inertia({i: dict(row) for i, row in m.rows.items()})


def _cycle_inertia(nums: list[int], dens: list[int], q: int) -> tuple[int, int, int]:
    """(negatives, zeros, positives) of the periodic tridiagonal matrix with
    diagonal nums[k] / dens[k] (every dens[k] > 0) and off-diagonal -q,
    r = len(nums) >= 3.

    F_k = f_k * dens[0] * ... * dens[k-1] scales the leading minors f_k, so
    F_{k+1} = nums[k] F_k - q^2 dens[k] dens[k-1] F_{k-1} stays in ints with
    the sign of f_{k+1}, and W_k does the same for the minors of rows
    1..k-1. The negatives are the sign changes of f_0, ..., f_{r-1}, f_r
    with zeros skipped: a zero f_k inside the path has
    f_{k+1} = -q^2 f_{k-1}, so its pair of positions counts once each way.
    f_r is the periodic-tridiagonal determinant: the full continuant minus
    q^2 times the inner one, minus 2 q^r. If f_{r-1} = 0 the trailing 2x2
    Schur block [[0, s], [s, t]] decides: one of each sign when f_r != 0,
    else a zero plus the sign of t, the ratio of the continuant over
    positions r-1, 0, ..., r-3 to f_{r-2}.
    """
    r = len(nums)
    qq = q * q
    f_prev, f = 1, nums[0]  # F_{k-1}, F_k
    w_prev, w = 0, dens[0]  # W_{k-1}, W_k
    positive = True  # the sign of the last nonzero f, from f_0 = 1
    neg = 0
    for k in range(1, r - 1):
        if f and (f > 0) is not positive:
            neg += 1
            positive = not positive
        e = qq * dens[k] * dens[k - 1]
        a = nums[k]
        f_prev, f = f, a * f - e * f_prev
        w_prev, w = w, a * w - e * w_prev
    e = qq * dens[r - 1]
    full = nums[r - 1] * f - e * dens[r - 2] * f_prev - e * w - 2 * q**r * math.prod(dens)
    if f:  # f_{r-1} != 0, so the closing pivot is f_r / f_{r-1}
        if (f > 0) is not positive:
            neg += 1
            positive = not positive
        if not full:
            return neg, 1, r - neg - 1
        if (full > 0) is not positive:
            neg += 1
        return neg, 0, r - neg
    if full:
        return neg + 1, 0, r - neg - 1
    t = nums[r - 1] * f_prev - e * w_prev
    if not t:
        return neg, 2, r - neg - 2
    if (t > 0) is not (f_prev > 0):
        neg += 1
    return neg, 1, r - neg - 1


def _fold_pivots(
    order: Sequence[int],
    to: Sequence[int],
    num: list[int],
    den: list[int],
    zero_children: list[int],
    qq: int,
) -> tuple[int, int, int]:
    """Fold each x of order into to[x], a root when that is x itself, and
    count the pivots (negatives, zeros, positives) it settles.

    x carries its pivot as num[x] / den[x] (every den nonzero) and
    zero_children[x], its count of children with pivot 0; qq is the square
    of the off-diagonal entry. A zero child pairs with its parent, one
    negative and one positive eigenvalue, and every further zero child is a
    zero; the paired parent leaves its own parent alone. Folding a nonzero
    pivot into u is num[u] * num[x] - qq den[x] den[u] over den[u] * num[x],
    with no division (Jacobs and Trevisan, LAA 2011). A zero root is a zero.
    """
    neg = zero = pos = 0
    for x in order:
        u = to[x]
        a = num[x]
        if zero_children[x]:
            neg += 1
            pos += 1
            zero += zero_children[x] - 1
        elif not a:
            if u == x:
                zero += 1
            else:
                zero_children[u] += 1
        else:
            b = den[x]
            if (a > 0) is (b > 0):
                pos += 1
            else:
                neg += 1
            if u != x:
                num[u] = num[u] * a - qq * b * den[u]
                den[u] *= a
    return neg, zero, pos


def _close_cycle(
    cycle: list[int], num: list[int], den: list[int], zero_children: list[int], q: int
) -> tuple[int, int, int]:
    """(negatives, zeros, positives) of the pivots left on cycle once every
    pendant tree has folded into it, with off-diagonal -q round the cycle.

    A paired cycle vertex cuts the cycle (Braga, Rodrigues and Trevisan): from
    just after the first cut round to it, each vertex folds into the next by
    the step of _fold_pivots, inlined with each target read off zip so that
    no table of successors is built, and every cut settles alone. An intact
    cycle closes by _cycle_inertia. A one-vertex cycle, a tree's root,
    settles alone.
    """
    # a loop, not next() over a generator: that cost about 0.4 us per tiny graph
    for cut, v in enumerate(cycle):
        if zero_children[v]:
            break
    else:
        if len(cycle) > 1:
            # a pivot keeps its value when num and den both change sign
            nums = [num[v] if den[v] > 0 else -num[v] for v in cycle]
            return _cycle_inertia(nums, [abs(den[v]) for v in cycle], q)
        cut = 0  # a tree's root
    neg = zero = pos = 0
    qq = q * q
    path = cycle[cut + 1 :] + cycle[: cut + 1]
    for x, u in zip(path, path[1:] + path[-1:]):
        a = num[x]
        if zero_children[x]:
            neg += 1
            pos += 1
            zero += zero_children[x] - 1
        elif not a:
            if u == x:
                zero += 1
            else:
                zero_children[u] += 1
        else:
            b = den[x]
            if (a > 0) is (b > 0):
                pos += 1
            else:
                neg += 1
            if u != x:
                num[u] = num[u] * a - qq * b * den[u]
                den[u] *= a
    return neg, zero, pos
