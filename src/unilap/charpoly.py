"""Integer characteristic polynomials of family Laplacians.

phi(M; x) = det(xI - M). Conventions used by the recurrences: the empty
path has phi = 0 while the two end-trimmed path matrices start at 1
(phi_aux("B", 0) = phi_aux("H", 0) = 1). All divisions by x performed here
are provably exact; a remainder means a bug in the recurrence bases and
raises InternalConsistencyError rather than returning garbage.

charpoly_det computes det(xI - L) by a wholly independent route and exists
to cross-examine the recurrences; it shares no code with them and runs no
IntPolynomial arithmetic. When every component has at most one cycle, it
runs the elimination of linalg._fold_pivots on the leaf strip
(graphs._cycle_forest) over the integers at x = 2^b and reads the
coefficients off the signed base-2^b digits; on paths, cycles and
lollipops that beats the Z[x] fold it replaced at every n measured, and on
bushy graphs up to n = 300 (_forest_charpoly: width proof, cost). The
identity suite's path minors take the same fold. Any other graph, and the
edge-join minors, go to charpoly_det_matrix: the division-free
Samuelson-Berkowitz recursion, on Python ints, in O(n^4) operations.
"""

import math
import threading
from collections.abc import Iterator, Sequence
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


def _forest_charpoly(diag: list[int], forest: tuple) -> IntPolynomial:
    """det(xI - M) for M with diagonal diag and -1 on the edges of the leaf
    strip (stripped, parent, cycles) of graphs._cycle_forest, for M positive
    semidefinite: a Laplacian or a principal submatrix of one.

    The polynomial is read off one integer (Kronecker substitution).
    linalg._fold_pivots' elimination runs on M - XI over the integers at the
    single point X = 2^b: num[v] starts at diag[v] - X and den[v] at 1, and
    folding x into its parent u sets num[u] to num[u] num[x] - den[x] den[u]
    and den[u] to den[u] num[x]. num[x] is then det(M - XI) on x's s-vertex
    subtree, at least (X - tr M)^s > 1 in size, so den[u] == 1 exactly while
    no child has touched u, and num[u] is still diag[u] - X: a product with
    it is a shift and a subtraction, and one with den = 1 is skipped. A tree
    component's determinant is its root's num, a one-vertex cycle's. On a
    cycle the pivots of the pendant trees multiply to the product of the
    cycle's dens, and the continuant of linalg._cycle_inertia at q = 1 is
    that product times the determinant of the cycle's Schur complement, so
    its closing value is the component's determinant. Evaluation is a ring
    map, so the result is p(X) for p = det(xI - M), and p's coefficients
    are its base-2^b digits taken from [-2^(b-1), 2^(b-1)).

    The width b = bitlen(prod(1 + diag)) + 1 is enough. p's roots are M's
    eigenvalues, all >= 0, so its coefficients alternate in sign and
    sum |c_k| = |p(-1)| = det(I + M). I + M is positive definite, so
    Hadamard's inequality bounds det(I + M) by the product of its diagonal,
    prod(1 + diag) < 2^(b-1).

    Cost: each value is padded to b bits a coefficient, an s-vertex subtree
    to about s b bits, so paths, cycles and lollipops take O(n^2 b) bit
    operations. Against the Z[x] fold it replaced (2-vCPU VM, CPython 3.11)
    a lollipop is 7x faster at n = 14, 11x at 60, 3.5x at 300 and 1.5x at
    1000. Where large subtrees merge, Karatsuba pays for the padding: at
    n = 300 a random recursive tree is still 1.5x faster, at n = 1000 it
    takes 1.3x and a random unicyclic graph 1.5x as long.
    """
    stripped, parent, cycles = forest
    n = len(diag)
    b = math.prod(d + 1 for d in diag).bit_length() + 1
    big = 1 << b
    num = [d - big for d in diag]
    den = [1] * n
    det = 1 if n % 2 == 0 else -1  # det(xI - M) = (-1)^n det(M - xI)

    def times_num(v: int, a: int) -> int:
        return a * diag[v] - (a << b) if den[v] == 1 else num[v] * a

    def times_den(v: int, a: int) -> int:
        return a if den[v] == 1 else den[v] * a

    for x in stripped:
        u, a = parent[x], num[x]
        num[u] = times_num(u, a) - times_den(x, den[u])
        den[u] = times_den(u, a)
    for cycle in cycles:
        if len(cycle) == 1:
            det *= num[cycle[0]]
            continue
        first, *middle, last = cycle
        f_prev, f = 1, num[first]
        w_prev, w = 0, den[first]
        prev = first
        for v in middle:
            e = den[v] * den[prev]
            f_prev, f = f, times_num(v, f) - (f_prev if e == 1 else e * f_prev)
            w_prev, w = w, times_num(v, w) - (w_prev if e == 1 else e * w_prev)
            prev = v
        closing = times_num(last, f) - times_den(last, times_den(prev, f_prev) + w)
        det *= closing - 2 * math.prod(den[v] for v in cycle)
    half = big >> 1
    coeffs = []
    for _ in range(n + 1):
        c = det & (big - 1)
        det >>= b
        if c >= half:
            c -= big
            det += 1
        coeffs.append(c)
    if det:
        raise InternalConsistencyError(f"p(2^{b}) has more than {n + 1} digits")
    return IntPolynomial._of_ints(coeffs)


def charpoly_det(g: Graph) -> IntPolynomial:
    """det(xI - L(g)) by the determinant oracle: the integer fold over g's
    leaf strip (O(n^2 b) bit operations on paths, cycles and lollipops) when
    every component has at most one cycle, else the Berkowitz recursion."""
    forest = _cycle_forest(g)
    if forest is None:
        return charpoly_det_matrix(laplacian_rows(g))
    return _forest_charpoly(list(map(len, g.adj)), forest)


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


def _trimmed_path_charpoly(k: int, raised: tuple[int, ...]) -> IntPolynomial:
    """det(xI - M) for M the k-path Laplacian with its diagonal entries at
    `raised` raised by one each: the end minor of the (k+1)-path Laplacian
    for raised = (k - 1,), the interior minor of the (k+2)-path's for
    (0, k - 1). Both are principal submatrices of a Laplacian, so the
    leaf-strip fold's width bound holds for them."""
    path = make_path(k)
    diag = list(map(len, path.adj))
    for v in raised:
        diag[v] += 1
    return _forest_charpoly(diag, _cycle_forest(path))


_IDENTITIES = (
    "path_recurrence",
    "end_minor_times_x",
    "interior_minor_shift",
    "cycle_from_paths",
    "lollipop_formula",
    "edge_join_product",
)


def _identity_checks(n_max: int) -> Iterator[tuple[str, object, bool]]:
    """Every instance of every polynomial identity up to n_max, checked
    against the determinant oracle, as (identity, parameters, holds)."""
    det_path = {k: charpoly_det(make_path(k)) for k in range(1, n_max + 2)}
    det_path[0] = IntPolynomial.zero()

    for k in range(1, n_max + 1):
        yield "path_recurrence", k, phi_path(k) == det_path[k]

    for k in range(0, n_max):
        det_b = IntPolynomial.constant(1) if k == 0 else _trimmed_path_charpoly(k, (k - 1,))
        yield "end_minor_times_x", k, _X * det_b == det_path[k + 1] + det_path[k]
        yield "end_minor_times_x", ("recurrence", k), phi_aux("B", k) == det_b

    for k in range(1, n_max):
        det_h = IntPolynomial.constant(1) if k == 1 else _trimmed_path_charpoly(k - 1, (0, k - 2))
        yield "interior_minor_shift", k, det_path[k] == _X * det_h
        yield "interior_minor_shift", ("recurrence", k), phi_aux("H", k - 1) == det_h

    for k in range(3, n_max + 1):
        det_c = charpoly_det(make_cycle(k))
        sign = 1 if k % 2 == 0 else -1
        rhs = (det_path[k + 1] - det_path[k - 1]).divexact_x() + IntPolynomial.constant(
            -2 * sign
        )
        yield "cycle_from_paths", k, det_c == rhs
        yield "cycle_from_paths", ("recurrence", k), phi_cycle(k) == det_c

    for n in range(4, n_max + 1):
        for r in range(3, n):
            yield "lollipop_formula", (n, r), phi_lollipop(n, r) == charpoly_det(make_lollipop(n, r))

    join_cases = [
        (make_path(2), 0, make_path(3), 1),
        (make_path(1), 0, make_path(1), 0),
        (make_cycle(3), 0, make_path(2), 0),
        (make_cycle(4), 2, make_cycle(3), 1),
        (make_path(4), 1, make_cycle(3), 2),
    ]
    for g1, u, g2, v in join_cases:
        yield "edge_join_product", (g1.n, u, g2.n, v), edge_join_identity_holds(g1, u, g2, v)


def verify_charpoly_identities(n_max: int) -> dict[str, list]:
    """Exercise every polynomial identity against the determinant oracle.

    Returns a mapping from identity name to the list of failing parameters
    (all empty lists means everything passed).
    """
    if n_max < 4:
        raise InvalidParameterError(f"need n_max >= 4, got {n_max}")
    failures: dict[str, list] = {name: [] for name in _IDENTITIES}
    for name, params, holds in _identity_checks(n_max):
        if not holds:
            failures[name].append(params)
    return failures
