"""The exact kernels against the dense kernel they replaced, and each other.

dense_kernel holds the earlier full-scan elimination over its own dense
ExactMatrix, read from laplacian_rows(g) minus cI. The sparse heap kernel,
sparse_inertia, picks pivots from a heap over rows of L - cI assembled from
the adjacency lists; laplacian() and inertia() reach it. shifted_inertia
counts a graph whose components each have at most one cycle by the
fraction-free leaf-to-root kernel instead, and any other graph by
sparse_inertia. All must give the same Inertia everywhere, and the
counts must match the path, cycle and lollipop closed forms at sizes the
dense kernel could not reach in reasonable time. count_interval, which
strips a graph once and folds it at both ends of [a, b), is checked at
every pair of shifts against the dense negatives at its ends.
"""

import collections
import itertools
import math
import sys
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_kernel
from conftest import forests_upto, one_cycle_unions, tree_from_code
from dense_kernel import dense_inertia
from unilap import linalg, spectra
from unilap.bounds import ceil_div, lollipop_exact_count
from unilap.enumeration import enumerate_unicyclic, rooted_trees
from unilap.graphs import (
    Graph,
    disjoint_union,
    make_cycle,
    make_lollipop,
    make_path,
)
from unilap.linalg import ExactMatrix, inertia
from unilap.spectra import (
    IntervalCount,
    count_interval,
    laplacian,
    laplacian_rows,
    shifted_inertia,
)

# 2 zeroes the whole diagonal of a cycle, so the 2x2 block path runs too
SHIFTS = [
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(7, 5),
    Fraction(2),
    Fraction(3),
    Fraction(13, 4),
]


def _heap_inertia(g, c):
    """The sparse heap kernel on L(g) - cI, whatever shifted_inertia picks."""
    return linalg.sparse_inertia(spectra._shifted_rows(g, c))


def _dense_shifted(g, c):
    return dense_kernel.ExactMatrix(laplacian_rows(g)).minus_scaled_identity(c)


def _typed_entries(rows):
    """Every stored entry with its type: a Fraction 2 and an int 2 differ."""
    return {(i, j): (type(x), x) for i, row in rows.items() for j, x in row.items()}


def _assert_counts_between(g, negatives, shifts=SHIFTS):
    """count_interval over [a, b) for every a < b of shifts (ascending), every
    field of it, against the given negatives at both ends."""
    for (i, a), (j, b) in itertools.combinations(enumerate(shifts), 2):
        got = count_interval(g, a, b)
        assert got == IntervalCount(a, b, negatives[j] - negatives[i]), (g.edges(), a, b)
        assert type(got.a) is type(got.b) is Fraction


def _assert_kernels_agree(g):
    lap = laplacian(g)
    negatives = []
    for c in SHIFTS:
        dense = _dense_shifted(g, c)
        expected_rows = {
            i: {j: x.numerator if x.denominator == 1 else x for j, x in enumerate(row) if x}
            for i, row in enumerate(dense.rows)
        }
        shifted = lap.minus_scaled_identity(c)
        assert shifted.n == g.n
        assert _typed_entries(shifted.rows) == _typed_entries(expected_rows), (g.edges(), c)
        expected = dense_inertia(dense)
        assert shifted_inertia(g, c) == expected, (g.edges(), c)
        assert inertia(shifted) == expected, (g.edges(), c)
        negatives.append(expected.negatives)
    _assert_counts_between(g, negatives)


class TestDifferential:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_every_unicyclic_class(self, n):
        for g in enumerate_unicyclic(n):
            _assert_kernels_agree(g)

    def test_corpus(self, corpus):
        for g in corpus:
            _assert_kernels_agree(g)

    def test_count_interval_at_rational_endpoints(self, corpus):
        for g in corpus:
            neg = [dense_inertia(_dense_shifted(g, c)).negatives for c in SHIFTS]
            for i, a in enumerate(SHIFTS):
                for j in range(i + 1, len(SHIFTS)):
                    assert count_interval(g, a, SHIFTS[j]).count == neg[j] - neg[i]


@st.composite
def sparse_symmetric(draw):
    """Small symmetric integer matrices, mostly zero, so that zero diagonals
    and 2x2 blocks are common."""
    n = draw(st.integers(min_value=1, max_value=8))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from([0, 0, 0, 1, -1, 2, -3]))
    return rows


class TestDifferentialMatrices:
    @given(sparse_symmetric())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_kernel(self, rows):
        assert inertia(ExactMatrix(rows)) == dense_inertia(dense_kernel.ExactMatrix(rows))


class TestPublicSparsePath:
    """laplacian(), minus_scaled_identity() and inertia() stay O(n + m) on a graph."""

    def test_memory_far_below_a_dense_table(self):
        n = 600
        g = make_lollipop(n, n // 3)
        tracemalloc.start()
        try:
            got = inertia(laplacian(g).minus_scaled_identity(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == shifted_inertia(g, 1)
        # a tenth of the n^2 Fraction objects a dense matrix of L - I holds
        assert peak < n * n * sys.getsizeof(Fraction(1)) // 10, peak

    def test_large_lollipop_matches_shifted_inertia(self):
        g = make_lollipop(2000, 666)
        assert inertia(laplacian(g).minus_scaled_identity(1)) == shifted_inertia(g, 1)


class TestClosedFormsAtScale:
    @pytest.mark.parametrize("n", [240, 960])
    def test_path(self, n):
        at_one = shifted_inertia(make_path(n), 1)
        assert at_one.negatives == ceil_div(n, 3)
        assert at_one.zeros == (1 if n % 3 == 0 else 0)

    @pytest.mark.parametrize("n", [240, 960])
    def test_cycle(self, n):
        at_one = shifted_inertia(make_cycle(n), 1)
        assert at_one.negatives == 2 * ceil_div(n, 6) - 1
        assert at_one.zeros == (2 if n % 6 == 0 else 0)

    @pytest.mark.parametrize("n", [240, 960])
    def test_lollipop(self, n):
        checked = 0
        for r in range(3, n):
            exact = lollipop_exact_count(n, r)
            if exact is not None:
                checked += 1
                assert count_interval(make_lollipop(n, r), 0, 1).count == exact, r
        assert checked > 0


def _hadamard_bits(g, c):
    """log2 of the Hadamard bound on every minor of q(L - cI), c = p/q.

    Each entry the elimination produces is a Schur-complement entry, the
    ratio of two minors of L - cI; scaled by q they are minors of the integer
    matrix q(L - cI), so their size is bounded by the product of its row
    norms (rows of norm below 1 are zero rows and bound nothing).
    """
    c = Fraction(c)
    p, q = c.numerator, c.denominator
    bits = 0.0
    for v in range(g.n):
        deg = g.degree(v)
        norm_sq = (q * deg - p) ** 2 + deg * q * q
        if norm_sq > 1:
            bits += 0.5 * math.log2(norm_sq)
    return bits, math.log2(q)


class TestBitGrowth:
    """Heap-kernel pivot rows stay within the Hadamard bound, linear in n for these families."""

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(7, 5), Fraction(3, 1)])
    @pytest.mark.parametrize(
        "make",
        [make_path, make_cycle, lambda n: make_lollipop(n, n // 3)],
        ids=["path", "cycle", "lollipop"],
    )
    def test_within_hadamard_bound(self, monkeypatch, make, c):
        widest = {}
        original = linalg._eliminate_pivot

        def recording(rows, p):
            widest["pivots"] += 1
            for x in rows[p].values():
                widest["num"] = max(widest["num"], abs(x.numerator).bit_length())
                widest["den"] = max(widest["den"], x.denominator.bit_length())
            return original(rows, p)

        monkeypatch.setattr(linalg, "_eliminate_pivot", recording)
        for n in (30, 100, 300):
            g = make(n)
            widest.update(pivots=0, num=0, den=0)
            _heap_inertia(g, c)
            assert widest["pivots"] >= n // 2
            bits, q_bits = _hadamard_bits(g, c)
            assert widest["num"] <= math.floor(bits) + 1, (n, widest)
            assert widest["den"] <= math.floor(bits + q_bits) + 1, (n, widest)


def _record_stored_values(monkeypatch):
    """Wrap both elimination steps; collect every entry of each row they touched."""
    seen = {"pivot": 0, "block": 0, "values": []}
    for name, kind in (("_eliminate_pivot", "pivot"), ("_eliminate_block", "block")):
        original = getattr(linalg, name)

        def recording(rows, *pivots, _original=original, _kind=kind):
            touched = _original(rows, *pivots)
            seen[_kind] += 1
            for u in touched:
                seen["values"].extend(rows[u].values())
            return touched

        monkeypatch.setattr(linalg, name, recording)
    return seen


class TestValueRepresentation:
    """Entries are ints while integral and Fractions otherwise, never floats."""

    def test_stored_values_on_every_small_class(self, monkeypatch):
        seen = _record_stored_values(monkeypatch)
        for n in range(3, 9):
            for g in enumerate_unicyclic(n):
                for c in SHIFTS:
                    _heap_inertia(g, c)
        assert seen["pivot"] > 0 and seen["block"] > 0
        kinds = {type(x) for x in seen["values"]}
        assert kinds == {int, Fraction}, kinds
        integral_fractions = [
            x for x in seen["values"] if type(x) is Fraction and x.denominator == 1
        ]
        assert not integral_fractions, integral_fractions[:5]


@st.composite
def symmetric_int_rows(draw):
    """sparse_symmetric, with the whole diagonal zeroed in about half of the
    draws so that the 2x2 block runs on int input."""
    rows = draw(sparse_symmetric())
    if draw(st.booleans()):
        for i, row in enumerate(rows):
            row[i] = 0
    return rows


class TestIntAndFractionInput:
    @given(symmetric_int_rows())
    @settings(max_examples=300, deadline=None)
    def test_same_inertia_either_way(self, rows):
        expected = dense_inertia(dense_kernel.ExactMatrix(rows))
        as_int = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(rows)}
        as_fraction = {i: {j: Fraction(x) for j, x in row.items()} for i, row in as_int.items()}
        assert linalg.sparse_inertia(as_int) == expected
        assert linalg.sparse_inertia(as_fraction) == expected


def _assert_leaf_to_root_agrees(g, shifts=SHIFTS):
    negatives = []
    for c in shifts:
        got = shifted_inertia(g, c)
        dense = dense_inertia(_dense_shifted(g, c))
        assert got == _heap_inertia(g, c), (g.edges(), c)
        assert got == dense, (g.edges(), c)
        negatives.append(dense.negatives)
    _assert_counts_between(g, negatives, shifts)
    return negatives


def _assert_zero_pivot_ends(g, c):
    """The kernels agree at c, a shift with zero pivots, and count_interval
    has c at either end: against the dense count at c and the heap kernel's
    at c -+ 1/2."""
    (at_c,) = _assert_leaf_to_root_agrees(g, [c])
    half = Fraction(1, 2)
    below, above = (_heap_inertia(g, c + d).negatives for d in (-half, half))
    _assert_counts_between(g, [below, at_c, above], [c - half, c, c + half])


class TestLeafToRootDifferential:
    """shifted_inertia's fraction-free kernel against sparse_inertia and the
    dense kernel, on the graphs it serves that are not connected unicyclic
    ones (those are covered by TestDifferential), and on zero pivots."""

    def test_every_forest(self):
        count = 0
        for g in forests_upto(9):
            _assert_leaf_to_root_agrees(g)
            count += 1
        assert count == sum(len(rooted_trees(s)) for s in range(2, 11))

    def test_disjoint_unions(self):
        for g in one_cycle_unions(9):
            _assert_leaf_to_root_agrees(g)

    def test_zero_pivots(self):
        """Shifts at an eigenvalue: c = 1 on P_3k, C_6k and lollipops with 1
        in the spectrum, and c = 2 on every cycle (a zero diagonal, and
        2 is an eigenvalue of C_n exactly when 4 divides n); each also as
        either end of count_interval."""
        for k in range(1, 9):
            assert shifted_inertia(make_path(3 * k), 1).zeros == 1
            assert shifted_inertia(make_cycle(6 * k), 1).zeros == 2
            _assert_zero_pivot_ends(make_path(3 * k), Fraction(1))
            _assert_zero_pivot_ends(make_cycle(6 * k), Fraction(1))
        for n in range(3, 30):
            at_two = shifted_inertia(make_cycle(n), 2)
            assert at_two.zeros == (2 if n % 4 == 0 else 0), n
            _assert_zero_pivot_ends(make_cycle(n), Fraction(2))
        with_one = 0
        for n in range(4, 22):
            for r in range(3, n):
                g = make_lollipop(n, r)
                _assert_zero_pivot_ends(g, Fraction(1))
                with_one += shifted_inertia(g, 1).zeros > 0
        assert with_one > 20


def _sun(r):
    """The r-cycle with a leaf r + i on every cycle vertex i."""
    return Graph.from_edges(
        2 * r, [(i, (i + 1) % r) for i in range(r)] + [(i, r + i) for i in range(r)]
    )


def _two_leaves(r, i, j):
    """The r-cycle with a leaf on cycle vertices i and j."""
    cycle = [(v, (v + 1) % r) for v in range(r)]
    return Graph.from_edges(r + 2, cycle + [(i, r), (j, r + 1)])


class TestArcBranch:
    """A cycle vertex paired with a zero child cuts its cycle, and the arcs
    between cuts fold as paths. At c = 1 every leaf has pivot 0, so each
    cycle vertex that carries a leaf is paired. shifted_inertia must match
    the heap kernel, which eliminates by a heap over the rows of L - I."""

    def test_suns_at_one(self):
        """Every cycle vertex of a sun is paired, so every arc is empty."""
        for r in range(3, 31):
            g = _sun(r)
            got = shifted_inertia(g, 1)
            assert got == _heap_inertia(g, 1), r
            assert got == linalg.Inertia(r, 0, r), r

    def test_two_leaves_at_one(self):
        """Two paired cycle vertices, at every cycle distance and every
        place on the cycle, cut it into two arcs; unless a leaf hangs on
        vertex 0, one arc runs across the end of the cycle list."""
        for r in range(3, 21):
            for i, j in itertools.combinations(range(r), 2):
                g = _two_leaves(r, i, j)
                got = shifted_inertia(g, 1)
                assert got == _heap_inertia(g, 1), (r, i, j)


class TestKernelSplit:
    """shifted_inertia reaches sparse_inertia exactly when some component has
    two cycles."""

    @pytest.fixture
    def no_heap_kernel(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("sparse_inertia reached")

        monkeypatch.setattr(spectra, "sparse_inertia", refuse)

    def test_at_most_one_cycle_per_component_never_reaches_it(self, no_heap_kernel, corpus):
        graphs = list(corpus) + list(forests_upto(6)) + list(one_cycle_unions(8))
        graphs += [make_lollipop(200, 40), make_cycle(500)]
        for g in graphs:
            for c in SHIFTS:
                shifted_inertia(g, c)

    def test_two_cycles_in_one_component_reach_it(self, no_heap_kernel):
        theta = make_cycle(6).with_edge_added(0, 3)
        bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        dumbbell = disjoint_union(make_cycle(3), make_cycle(4)).with_edge_added(2, 3)
        with_tree = disjoint_union(make_path(4), dumbbell)
        for g in (theta, bowtie, dumbbell, with_tree):
            for c in (Fraction(1), Fraction(7, 5)):
                with pytest.raises(AssertionError, match="sparse_inertia reached"):
                    shifted_inertia(g, c)


def _kernel_code():
    """The code objects of the leaf-to-root kernel: _forest_inertia and its
    comprehensions, the pivot fold and cycle closer it calls in linalg, and
    _cycle_inertia; and the fold's own code object. _forest_inertia nests
    no function of its own."""
    outer = spectra._forest_inertia.__code__
    nested = {c for c in outer.co_consts if isinstance(c, types.CodeType)}
    assert all(c.co_name.startswith("<") for c in nested), nested
    fold = linalg._fold_pivots.__code__
    kernel = {outer, fold, linalg._close_cycle.__code__, linalg._cycle_inertia.__code__}
    return nested | kernel, fold


def _widest_int_formed(g, c):
    """Largest bit length of any int the leaf-to-root kernel holds in a local
    variable while counting L(g) - cI, read at every line it runs, and of
    every int in its lists when it returns; and how many times the trace
    entered each kernel function, by name."""
    kernel, fold = _kernel_code()
    seen = {"folds": 0, "bits": 0}
    entered = collections.Counter()

    def scan(frame, event, arg):
        bits = seen["bits"]
        for x in frame.f_locals.values():
            if type(x) is int:
                bits = max(bits, x.bit_length())
            elif type(x) is list and event == "return":
                bits = max([bits] + [y.bit_length() for y in x if type(y) is int])
        seen["bits"] = bits
        return scan

    def enter(frame, event, arg):
        if frame.f_code in kernel:
            seen["folds"] += frame.f_code is fold
            entered[frame.f_code.co_name] += 1
            return scan
        return None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        shifted_inertia(g, c)
    finally:
        sys.settrace(previous)
    # the fold is where every num and den is formed: a trace that never
    # entered it would pass on any kernel
    assert seen["folds"] > 0, seen
    return seen["bits"], entered


class TestLeafToRootBitGrowth:
    """Every num and den is a minor of qL - pI: none outgrows its Hadamard bound."""

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(7, 5), Fraction(3, 1)])
    @pytest.mark.parametrize(
        "make",
        [make_path, make_cycle, lambda n: make_lollipop(n, n // 3)],
        ids=["path", "cycle", "lollipop"],
    )
    def test_within_hadamard_bound(self, make, c):
        for n in (30, 100, 300):
            g = make(n)
            bits, _ = _hadamard_bits(g, c)
            widest, _ = _widest_int_formed(g, c)
            assert widest <= math.floor(bits) + 1, (n, widest, bits)

    @pytest.mark.parametrize("r", [30, 100, 300])
    def test_sun_at_one_folds_its_cut_cycle(self, r):
        """At 1 every cycle vertex of a sun is paired, so the closer folds
        the cut cycle as a path: the trace enters the pivot fold once, for
        the strip, and the closer once, which never reaches _cycle_inertia."""
        g = _sun(r)
        bits, _ = _hadamard_bits(g, 1)
        widest, entered = _widest_int_formed(g, 1)
        assert entered["_fold_pivots"] == entered["_close_cycle"] == 1, (r, entered)
        assert entered["_cycle_inertia"] == 0 and widest <= math.floor(bits) + 1, (r, widest, bits)


def _cosines_below(values, c):
    """How many of the float eigenvalues lie below c, or None within 1e-9 of one."""
    if any(abs(x - c) < 1e-9 for x in values):
        return None
    return sum(x < c for x in values)


class TestClosedFormsAtRationalShifts:
    """Path and cycle counts at p/q against the cosine eigenvalues
    2 - 2cos(pi k / n) and 2 - 2cos(2 pi k / n), computed in floats."""

    SHIFTS = [Fraction(1, 2), Fraction(7, 5), Fraction(13, 4), Fraction(5, 3)]

    @staticmethod
    def _check(g, values, c):
        below = _cosines_below(values, float(c))
        if below is not None:
            assert shifted_inertia(g, c) == linalg.Inertia(below, 0, g.n - below), (g.n, c)
        return below is not None

    def test_every_n_up_to_200(self):
        checked = 0
        for n in range(1, 201):
            path = [2 - 2 * math.cos(math.pi * k / n) for k in range(n)]
            cycle = [2 - 2 * math.cos(2 * math.pi * k / n) for k in range(n)]
            for c in self.SHIFTS:
                checked += self._check(make_path(n), path, c)
                if n >= 3:
                    checked += self._check(make_cycle(n), cycle, c)
        assert checked == 200 * 4 + 198 * 4

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_large_at_seven_fifths(self, n):
        c = Fraction(7, 5)
        assert self._check(make_path(n), [2 - 2 * math.cos(math.pi * k / n) for k in range(n)], c)
        cycle = [2 - 2 * math.cos(2 * math.pi * k / n) for k in range(n)]
        assert self._check(make_cycle(n), cycle, c)
