from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unilap.errors import NonSymmetricError
from unilap.graphs import disjoint_union, make_cycle, make_path
from unilap.linalg import ExactMatrix, Inertia, inertia
from unilap.spectra import laplacian


class TestExamples:
    def test_antidiagonal_pair(self):
        assert inertia(ExactMatrix([[0, -1], [-1, 0]])) == Inertia(1, 0, 1)

    def test_path3_shifted(self):
        m = laplacian(make_path(3)).minus_scaled_identity(1)
        assert inertia(m) == Inertia(1, 1, 1)

    def test_cycle6_shifted(self):
        m = laplacian(make_cycle(6)).minus_scaled_identity(1)
        assert inertia(m) == Inertia(1, 2, 3)

    def test_nullity_examples(self):
        assert inertia(ExactMatrix([[0] * 4 for _ in range(4)])).zeros == 4
        assert inertia(laplacian(make_cycle(6)).minus_scaled_identity(1)).zeros == 2
        assert inertia(laplacian(make_path(4)).minus_scaled_identity(1)).zeros == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 0], [0]])

    def test_stores_nonzero_entries_ints_while_integral(self):
        m = ExactMatrix([[Fraction(4, 2), 0], [Fraction(0), Fraction(1, 3)]])
        assert m.n == 2
        assert m.rows == {0: {0: 2}, 1: {1: Fraction(1, 3)}}
        assert type(m.rows[0][0]) is int
        shifted = m.minus_scaled_identity(Fraction(1, 3))
        assert shifted.rows == {0: {0: Fraction(5, 3)}, 1: {}}
        assert m.rows == {0: {0: 2}, 1: {1: Fraction(1, 3)}}

    def test_rejects_non_symmetric(self):
        with pytest.raises(NonSymmetricError):
            inertia(ExactMatrix([[0, 1], [2, 0]]))
        # the transposed entry is absent rather than different
        with pytest.raises(NonSymmetricError):
            inertia(ExactMatrix([[0, 1], [0, 0]]))

    def test_zero_diagonal_block_matrix(self):
        # 4x4 with zero diagonal: two antidiagonal pairs
        m = ExactMatrix(
            [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, -3], [0, 0, -3, 0]]
        )
        assert inertia(m) == Inertia(2, 0, 2)

    def test_rational_entries(self):
        m = ExactMatrix([[Fraction(1, 3), 1], [1, Fraction(1, 2)]])
        # det = 1/6 - 1 < 0: one of each sign
        assert inertia(m) == Inertia(1, 0, 1)


def _sign_counts_float(eigs, zero_band=1e-8):
    neg = int((eigs < -zero_band).sum())
    pos = int((eigs > zero_band).sum())
    return neg, len(eigs) - neg - pos, pos


@st.composite
def small_symmetric(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    entries = draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        )
    )
    rows = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return rows


class TestSylvesterConsistency:
    @given(small_symmetric())
    @settings(max_examples=120, deadline=None)
    def test_matches_float_eigensolver(self, rows):
        eigs = np.linalg.eigvalsh(np.array(rows, dtype=float))
        # only trust the float classification on well-separated spectra
        assume(all(abs(e) > 1e-6 or abs(e) < 1e-9 for e in eigs))
        got = inertia(ExactMatrix(rows))
        assert (got.negatives, got.zeros, got.positives) == _sign_counts_float(eigs)


class TestLaplacianInertia:
    def test_psd_with_component_kernel(self, corpus):
        for g in corpus:
            comp = _component_count(g)
            got = inertia(laplacian(g))
            assert got == Inertia(0, comp, g.n - comp)

    def test_disjoint_union_kernel(self):
        g = disjoint_union(make_cycle(3), disjoint_union(make_path(2), make_path(4)))
        assert inertia(laplacian(g)).zeros == 3

    def test_negatives_monotone_in_shift(self, corpus):
        shifts = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]
        for g in corpus[:10]:
            lap = laplacian(g)
            counts = [inertia(lap.minus_scaled_identity(c)).negatives for c in shifts]
            assert counts == sorted(counts)


def _component_count(g):
    seen = set()
    comps = 0
    for start in range(g.n):
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return comps
