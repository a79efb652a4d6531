"""Integer characteristic polynomials of family Laplacians.

phi(M; x) = det(xI - M). Conventions used by the recurrences: the empty
path has phi = 0 while the two end-trimmed path matrices start at 1
(phi_aux("B", 0) = phi_aux("H", 0) = 1). All divisions by x performed here
are provably exact; a remainder means a bug in the recurrence bases and
raises InternalConsistencyError rather than returning garbage.

charpoly_det computes det(xI - L) by a wholly independent route and exists
to cross-examine the recurrences; it shares no code with them. When every
component of the graph has at most one cycle, it runs the leaf-to-root
elimination of spectra._forest_inertia over Z[x] on the leaf strip
(graphs._cycle_forest), in O(n^2) coefficient operations. Any other graph,
and every matrix minor, goes to charpoly_det_matrix: the division-free
Samuelson-Berkowitz recursion over the leading principal blocks, on
Python ints, in O(n^4) integer operations.
"""

import math
import threading
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from .errors import InternalConsistencyError, InvalidParameterError
from .graphs import Graph, _cycle_forest, join_with_edge, make_cycle, make_lollipop, make_path
from .spectra import laplacian_rows


class IntPolynomial:
    """Dense integer-coefficient polynomial, coefficients in ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        coeffs = list(coeffs)
        if any(not isinstance(c, int) for c in coeffs):
            raise InvalidParameterError("coefficients must be integers")
        self.coeffs = IntPolynomial._of_ints(coeffs).coeffs

    @staticmethod
    def _of_ints(coeffs: list[int]) -> "IntPolynomial":
        """Internal arithmetic's constructor: trims ints in place, no type check."""
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        p = object.__new__(IntPolynomial)
        p.coeffs = tuple(coeffs)
        return p

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial._of_ints(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._of_ints([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial._of_ints(out)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial._of_ints([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial._of_ints(out)

    __rmul__ = __mul__

    def divexact_x(self) -> "IntPolynomial":
        """Divide by x, raising if the constant term is nonzero."""
        if self.coeffs and self.coeffs[0] != 0:
            raise InternalConsistencyError(
                f"polynomial {self!r} is not divisible by x"
            )
        return IntPolynomial._of_ints(list(self.coeffs[1:]))

    def eval(self, x0: int | Fraction) -> int | Fraction:
        acc: int | Fraction = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPolynomial(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "IntPolynomial(" + " + ".join(terms) + ")"


def eval_at(p: IntPolynomial, x0: int | Fraction) -> int | Fraction:
    """Exact Horner evaluation."""
    return p.eval(x0)


_X = IntPolynomial.x()
_X_MINUS_2 = IntPolynomial((-2, 1))

_path_cache: list[IntPolynomial] = [IntPolynomial.zero(), _X]
_path_lock = threading.Lock()


def phi_path(n: int) -> IntPolynomial:
    """Characteristic polynomial of the n-path Laplacian; phi_path(0) = 0.

    The cache only grows, under a lock, so concurrent callers never append
    one degree twice; a reader outside the lock sees a correct prefix.
    """
    if n < 0:
        raise InvalidParameterError(f"need n >= 0, got {n}")
    if len(_path_cache) <= n:
        with _path_lock:
            while len(_path_cache) <= n:
                _path_cache.append(_X_MINUS_2 * _path_cache[-1] - _path_cache[-2])
    return _path_cache[n]


def phi_aux(kind: str, n: int) -> IntPolynomial:
    """Characteristic polynomial of an end-trimmed path Laplacian.

    kind "B": the (n+1)-path matrix with one end row/column deleted.
    kind "H": the (n+2)-path matrix with both end rows/columns deleted.
    Both satisfy exact relations with the path polynomials, which is how
    they are computed here:  x*phi_B(n) = phi_path(n+1) + phi_path(n)  and
    x*phi_H(n) = phi_path(n+1).
    """
    if n < 0:
        raise InvalidParameterError(f"need n >= 0, got {n}")
    if kind == "B":
        return (phi_path(n + 1) + phi_path(n)).divexact_x()
    if kind == "H":
        return phi_path(n + 1).divexact_x()
    raise InvalidParameterError(f"kind must be 'B' or 'H', got {kind!r}")


def phi_cycle(n: int) -> IntPolynomial:
    """Characteristic polynomial of the n-cycle Laplacian."""
    if n < 3:
        raise InvalidParameterError(f"need n >= 3, got {n}")
    sign = 1 if n % 2 == 0 else -1  # (-1)^(n+1) on the constant correction
    return (phi_path(n + 1) - phi_path(n - 1)).divexact_x() + IntPolynomial.constant(
        -2 * sign
    )


def phi_lollipop(n: int, r: int) -> IntPolynomial:
    """Characteristic polynomial of the lollipop Laplacian via path/cycle parts.

    Comes from splitting off the tail at the degree-3 vertex:
    x*phi = x*phi_C(r)*phi_P(n-r) - phi_C(r)*(phi_P(n-r) + phi_P(n-r-1))
            - phi_P(n-r)*phi_P(r).
    """
    if not 3 <= r < n:
        raise InvalidParameterError(f"need 3 <= r < n, got n={n} r={r}")
    pc = phi_cycle(r)
    pt = phi_path(n - r)
    combined = _X * pc * pt - pc * (pt + phi_path(n - r - 1)) - pt * phi_path(r)
    return combined.divexact_x()


# ---------------------------------------------------------------------------
# determinant oracle (independent of every recurrence above)


def charpoly_det_matrix(rows: Sequence[Sequence[int]]) -> IntPolynomial:
    """det(xI - M) for an integer matrix by the Samuelson-Berkowitz recursion.

    Berkowitz (Inf. Process. Lett. 18, 1984). With A the leading k x k
    block and M's next row (R, a) and column (C, a) bordering it,
    det(xI - A') = det(xI - A) (x - a - sum_j R A^j C / x^(j+1)). The terms
    with j >= k cancel by Cayley-Hamilton, so the new coefficients are a
    Toeplitz product of the old ones with 1, -a, -RC, ..., -R A^(k-1) C.
    Everything is integer multiplication and addition: no division, no
    sampling and no interpolation.
    """
    p = [1]  # det(xI - A), highest degree first
    for k, row in enumerate(rows):
        q, col = [1, -row[k]], [r[k] for r in rows[:k]]
        for _ in range(k):
            q.append(-sum(map(mul, row, col)))
            col = [sum(map(mul, r, col)) for r in rows[:k]]
        p = [sum(q[i - j] * p[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return IntPolynomial._of_ints(p[::-1])


def _forest_charpoly(g: Graph, forest: tuple) -> IntPolynomial:
    """det(xI - L(g)) from g's leaf strip (stripped, parent, cycles) of
    graphs._cycle_forest, in O(n^2) coefficient operations.

    spectra._forest_inertia's fold, run on M = L - xI over Z[x]: num[v]
    starts at deg(v) - x and den[v] at 1, and folding x into its parent u
    sets num[u] to num[u] num[x] - den[x] den[u] and den[u] to den[u] num[x].
    num[x] is then det(M) on x's subtree, plus or minus a monic polynomial
    and so never zero: no pivot pairs and nothing is sampled. A tree
    component's determinant is its root's num. On a cycle the pivots of the
    pendant trees multiply to the product of the cycle's dens, and the
    continuant of spectra._cycle_inertia at q = 1 is that product times the
    determinant of the cycle's Schur complement, so its closing value is
    the component's determinant.
    """
    stripped, parent, cycles = forest
    one = IntPolynomial.constant(1)
    num = [IntPolynomial._of_ints([len(nbrs), -1]) for nbrs in g.adj]
    den = [one] * g.n
    det = one if g.n % 2 == 0 else -one  # det(xI - L) = (-1)^n det(L - xI)
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
    """det(xI - L(g)) by the determinant oracle: the fold over g's leaf strip
    when every component has at most one cycle, else the Berkowitz recursion."""
    forest = _cycle_forest(g)
    if forest is None:
        return charpoly_det_matrix(laplacian_rows(g))
    return _forest_charpoly(g, forest)


def laplacian_minor(g: Graph, v: int) -> list[list[int]]:
    """Laplacian of g with row and column v deleted (degrees unchanged)."""
    rows = laplacian_rows(g)
    return [
        [x for j, x in enumerate(row) if j != v]
        for i, row in enumerate(rows)
        if i != v
    ]


def edge_join_identity_holds(g1: Graph, u: int, g2: Graph, v: int) -> bool:
    """Check the bridge-join factorization of det(xI - L), all via determinants.

    For g = g1 + g2 joined by the edge (u, v):
    phi(g) = phi(g1)*phi(g2) - phi(g1)*phi(minor_v(g2)) - phi(g2)*phi(minor_u(g1)).
    """
    joined = join_with_edge(g1, u, g2, v)
    lhs = charpoly_det(joined)
    p1, p2 = charpoly_det(g1), charpoly_det(g2)
    rhs = (
        p1 * p2
        - p1 * charpoly_det_matrix(laplacian_minor(g2, v))
        - p2 * charpoly_det_matrix(laplacian_minor(g1, u))
    )
    return lhs == rhs


def _end_minor_matrix(n: int) -> list[list[int]]:
    # (n+1)-path Laplacian with the last row/column deleted
    rows = laplacian_rows(make_path(n + 1))
    return [row[:n] for row in rows[:n]]


def _interior_minor_matrix(n: int) -> list[list[int]]:
    # (n+2)-path Laplacian with both end rows/columns deleted
    rows = laplacian_rows(make_path(n + 2))
    return [row[1 : n + 1] for row in rows[1 : n + 1]]


def verify_charpoly_identities(n_max: int) -> dict[str, list]:
    """Exercise every polynomial identity against the determinant oracle.

    Returns a mapping from identity name to the list of failing parameters
    (all empty lists means everything passed).
    """
    if n_max < 4:
        raise InvalidParameterError(f"need n_max >= 4, got {n_max}")
    failures: dict[str, list] = {
        "path_recurrence": [],
        "end_minor_times_x": [],
        "interior_minor_shift": [],
        "cycle_from_paths": [],
        "lollipop_formula": [],
        "edge_join_product": [],
    }
    det_path = {k: charpoly_det(make_path(k)) for k in range(1, n_max + 2)}
    det_path[0] = IntPolynomial.zero()

    for k in range(1, n_max + 1):
        if phi_path(k) != det_path[k]:
            failures["path_recurrence"].append(k)

    for k in range(0, n_max):
        det_b = (
            IntPolynomial.constant(1)
            if k == 0
            else charpoly_det_matrix(_end_minor_matrix(k))
        )
        if _X * det_b != det_path[k + 1] + det_path[k]:
            failures["end_minor_times_x"].append(k)
        if phi_aux("B", k) != det_b:
            failures["end_minor_times_x"].append(("recurrence", k))

    for k in range(1, n_max):
        det_h = (
            IntPolynomial.constant(1)
            if k - 1 == 0
            else charpoly_det_matrix(_interior_minor_matrix(k - 1))
        )
        if det_path[k] != _X * det_h:
            failures["interior_minor_shift"].append(k)
        if phi_aux("H", k - 1) != det_h:
            failures["interior_minor_shift"].append(("recurrence", k))

    for k in range(3, n_max + 1):
        det_c = charpoly_det(make_cycle(k))
        sign = 1 if k % 2 == 0 else -1
        rhs = (det_path[k + 1] - det_path[k - 1]).divexact_x() + IntPolynomial.constant(
            -2 * sign
        )
        if det_c != rhs:
            failures["cycle_from_paths"].append(k)
        if phi_cycle(k) != det_c:
            failures["cycle_from_paths"].append(("recurrence", k))

    for n in range(4, n_max + 1):
        for r in range(3, n):
            if phi_lollipop(n, r) != charpoly_det(make_lollipop(n, r)):
                failures["lollipop_formula"].append((n, r))

    join_cases = [
        (make_path(2), 0, make_path(3), 1),
        (make_path(1), 0, make_path(1), 0),
        (make_cycle(3), 0, make_path(2), 0),
        (make_cycle(4), 2, make_cycle(3), 1),
        (make_path(4), 1, make_cycle(3), 2),
    ]
    for g1, u, g2, v in join_cases:
        if not edge_join_identity_holds(g1, u, g2, v):
            failures["edge_join_product"].append((g1.n, u, g2.n, v))

    return failures
