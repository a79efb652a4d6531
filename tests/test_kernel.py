"""The sparse heap-ordered kernel against the dense kernel it replaced.

dense_kernel holds the earlier full-scan elimination over its own dense
ExactMatrix, read from laplacian_rows(g) minus cI; the sparse path assembles
L - cI from the adjacency lists and picks pivots from a heap, whether it is
reached through shifted_inertia or through laplacian() and inertia(). All
must give the same Inertia everywhere, and the counts must match the path,
cycle and lollipop closed forms at sizes the dense kernel could not reach in
reasonable time.
"""

import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_kernel
from dense_kernel import dense_inertia
from unilap import linalg
from unilap.bounds import ceil_div, lollipop_exact_count
from unilap.enumeration import enumerate_unicyclic
from unilap.graphs import make_cycle, make_lollipop, make_path
from unilap.linalg import ExactMatrix, inertia
from unilap.spectra import count_interval, laplacian, laplacian_rows, shifted_inertia

# 2 zeroes the whole diagonal of a cycle, so the 2x2 block path runs too
SHIFTS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 5), Fraction(2), Fraction(3)]


def _dense_shifted(g, c):
    return dense_kernel.ExactMatrix(laplacian_rows(g)).minus_scaled_identity(c)


def _typed_entries(rows):
    """Every stored entry with its type: a Fraction 2 and an int 2 differ."""
    return {(i, j): (type(x), x) for i, row in rows.items() for j, x in row.items()}


def _assert_kernels_agree(g):
    lap = laplacian(g)
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


class TestDifferential:
    @pytest.mark.parametrize("n", range(3, 9))
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
    """Pivot rows stay within the Hadamard bound, linear in n for these families."""

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
            shifted_inertia(g, c)
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
                    shifted_inertia(g, c)
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
