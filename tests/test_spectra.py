import random
from fractions import Fraction

import pytest

from conftest import numpy_eigs
from jacobi import spectrum_float as jacobi_spectrum
from unilap import spectra
from unilap.errors import EdgeNotPresentError, InvalidIntervalError, InvalidParameterError
from unilap.graphs import (
    CompassParams,
    disjoint_union,
    join_with_edge,
    make_compass,
    make_cycle,
    make_lollipop,
    make_path,
    pendant_vertices,
)
from unilap.harness import random_connected_graph, random_unicyclic
from unilap.spectra import (
    check_interlacing,
    closed_form_spectrum,
    count_interval,
    laplacian,
    laplacian_apply,
    laplacian_rows,
    multiplicity,
    spectrum_float,
)


class TestLaplacian:
    def test_path2(self):
        assert laplacian_rows(make_path(2)) == [[1, -1], [-1, 1]]

    def test_cycle3(self):
        assert laplacian_rows(make_cycle(3)) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]

    def test_single_vertex(self):
        assert laplacian_rows(make_path(1)) == [[0]]

    def test_row_sums_zero(self, corpus):
        for g in corpus:
            for row in laplacian_rows(g):
                assert sum(row) == 0
            assert laplacian(g).is_symmetric()

    def test_apply(self):
        g = make_path(3)
        assert laplacian_apply(g, [1, 0, -1]) == [1, 0, -1]
        with pytest.raises(InvalidParameterError):
            laplacian_apply(g, [1, 0])


class TestCountInterval:
    def test_reported_family_values(self):
        assert count_interval(make_path(5), 0, 1).count == 2
        assert count_interval(make_lollipop(12, 8), 0, 1).count == 4
        assert count_interval(make_compass(CompassParams(14, 8, 4, 3)), 0, 1).count == 5
        assert count_interval(make_cycle(6), 0, 1).count == 1

    def test_half_open_semantics(self):
        # C_6 spectrum is {0, 1, 1, 3, 3, 4}: [0, 1) sees only the 0
        g = make_cycle(6)
        assert count_interval(g, 0, 1).count == 1
        assert count_interval(g, 0, Fraction(1001, 1000)).count == 3
        assert count_interval(g, 1, 3).count == 2
        assert count_interval(g, 3, 5).count == 3

    def test_rejects_empty_interval(self):
        with pytest.raises(InvalidIntervalError):
            count_interval(make_path(3), 1, 1)
        with pytest.raises(InvalidIntervalError):
            count_interval(make_path(3), 2, 1)

    def test_partition_sums_to_n(self, corpus):
        for g in corpus:
            cuts = [Fraction(0)]
            cuts += [Fraction(k) for k in range(1, g.n + 1)]
            cuts.append(Fraction(g.n + 1))
            total = sum(
                count_interval(g, a, b).count for a, b in zip(cuts, cuts[1:])
            )
            assert total == g.n

    def test_components_below_algebraic_connectivity(self, corpus):
        for g in corpus:
            if g.is_connected() and g.n > 1:
                eps = Fraction(1, g.n * g.n)
                assert count_interval(g, 0, eps).count == 1

    def test_disjoint_union_additivity(self):
        rng = random.Random(5)
        for _ in range(10):
            g1 = random_connected_graph(rng, rng.randrange(2, 9), rng.randrange(0, 3))
            g2 = random_unicyclic(rng, rng.randrange(4, 9))
            u = disjoint_union(g1, g2)
            a, b = Fraction(0), Fraction(rng.randrange(1, 5))
            assert (
                count_interval(u, a, b).count
                == count_interval(g1, a, b).count + count_interval(g2, a, b).count
            )
            assert multiplicity(u, 1) == multiplicity(g1, 1) + multiplicity(g2, 1)

    def test_agrees_with_float_oracle_away_from_boundary(self, corpus):
        for g in corpus:
            eigs = numpy_eigs(g)
            if any(abs(e - 1.0) < 1e-6 for e in eigs):
                continue  # boundary case: exact path is authoritative
            assert count_interval(g, 0, 1).count == int((eigs < 1.0 - 1e-6).sum())


class TestMultiplicity:
    def test_reported_values(self):
        assert multiplicity(make_cycle(6), 1) == 2
        assert multiplicity(make_path(3), 1) == 1
        assert multiplicity(make_lollipop(9, 6), 1) == 2

    def test_kernel_is_component_count(self, corpus):
        for g in corpus:
            eigs = numpy_eigs(g)
            zero_float = int((abs(eigs) < 1e-9).sum())
            assert multiplicity(g, 0) == zero_float

    def test_non_eigenvalue(self):
        assert multiplicity(make_path(4), Fraction(1, 7)) == 0


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteShifts:
    """NaN and the infinities are outside every shift's domain: they raise
    InvalidParameterError, not OverflowError or Fraction's own ValueError."""

    @pytest.mark.parametrize("x", _NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_count_interval_endpoints(self, x):
        g = make_cycle(5)
        for a, b in ((x, 1), (0, x)):
            with pytest.raises(InvalidParameterError, match="finite"):
                count_interval(g, a, b)

    @pytest.mark.parametrize("x", _NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_multiplicity_and_inertia(self, x):
        g = make_lollipop(6, 3)
        with pytest.raises(InvalidParameterError, match="finite"):
            multiplicity(g, x)
        with pytest.raises(InvalidParameterError, match="finite"):
            spectra.shifted_inertia(g, x)
        with pytest.raises(InvalidParameterError, match="finite"):
            laplacian(g).minus_scaled_identity(x)

    def test_finite_floats_stay_exact(self):
        assert count_interval(make_path(3), 0.5, 1.5).count == 1
        assert multiplicity(make_path(3), 1.0) == 1


class TestClosedForms:
    def test_path3(self):
        assert closed_form_spectrum("path", 3) == pytest.approx([0.0, 1.0, 3.0])

    def test_cycle6(self):
        assert closed_form_spectrum("cycle", 6) == pytest.approx([0, 1, 1, 3, 3, 4])

    def test_cycle4(self):
        assert closed_form_spectrum("cycle", 4) == pytest.approx([0, 2, 2, 4])

    def test_rejects_bad_family(self):
        with pytest.raises(InvalidParameterError):
            closed_form_spectrum("tree", 4)
        with pytest.raises(InvalidParameterError):
            closed_form_spectrum("cycle", 2)

    def test_matches_numpy(self):
        for n in (2, 5, 9):
            assert closed_form_spectrum("path", n) == pytest.approx(
                list(numpy_eigs(make_path(n))), abs=1e-9
            )
        for n in (3, 8, 12):
            assert closed_form_spectrum("cycle", n) == pytest.approx(
                list(numpy_eigs(make_cycle(n))), abs=1e-9
            )


class TestSpectrumFloat:
    def test_small_examples(self):
        assert spectrum_float(make_path(2)) == pytest.approx([0.0, 2.0], abs=1e-9)
        assert spectrum_float(make_cycle(3)) == pytest.approx([0.0, 3.0, 3.0], abs=1e-9)
        assert spectrum_float(make_path(6)) == pytest.approx(
            closed_form_spectrum("path", 6), abs=1e-9
        )
        assert spectrum_float(make_path(1)) == [0.0]

    def test_matches_numpy_on_random_graphs(self):
        # spectrum_float is numpy's eigvalsh, so the check is against the
        # Jacobi solver it replaced, which shares no code with LAPACK
        rng = random.Random(3)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randrange(2, 25), rng.randrange(0, 5))
            assert spectrum_float(g) == pytest.approx(jacobi_spectrum(g), abs=1e-8)

    @pytest.mark.parametrize(
        "family, maker, lo", [("path", make_path, 1), ("cycle", make_cycle, 3)]
    )
    def test_matches_closed_forms(self, family, maker, lo):
        for n in range(lo, 41):
            assert spectrum_float(maker(n)) == pytest.approx(
                closed_form_spectrum(family, n), abs=1e-9
            ), n


class TestInterlacing:
    def test_cycle6_all_edges(self):
        g = make_cycle(6)
        for e in g.edges():
            assert check_interlacing(g, e)

    def test_path4_middle_edge(self):
        assert check_interlacing(make_path(4), (1, 2))

    def test_lollipop_chord(self):
        assert check_interlacing(make_lollipop(12, 8), (0, 7))

    def test_missing_edge_rejected(self):
        with pytest.raises(EdgeNotPresentError):
            check_interlacing(make_path(4), (0, 3))

    @pytest.mark.parametrize(
        "spec_h, holds",
        [
            ([0.0, 1.0, 3.0], True),
            ([0.0, 1.0, 3.0 + spectra.INTERLACING_SLACK / 2], True),
            ([0.0, 0.9, 3.0], False),  # mu_2(g - e) below mu_1(g)
            ([0.0, 2.1, 3.0], False),  # mu_2(g - e) above mu_2(g)
            ([0.0, 1.0, 3.1], False),  # mu_3(g - e) above mu_3(g)
        ],
    )
    def test_each_side_of_the_chain_is_checked(self, monkeypatch, spec_h, holds):
        """The chain compared on made-up spectra: g's is [1, 2, 3] and
        g - e's is the second call's."""
        spectra_seen = iter([[1.0, 2.0, 3.0], spec_h])
        monkeypatch.setattr(spectra, "spectrum_float", lambda g: next(spectra_seen))
        assert check_interlacing(make_path(3), (0, 1)) is holds


class TestPendantAndAttachment:
    def test_pendant_deletion_monotone(self):
        rng = random.Random(9)
        done = 0
        while done < 25:
            g = random_unicyclic(rng, rng.randrange(5, 14))
            pendants = pendant_vertices(g)
            if not pendants:
                continue
            v = rng.choice(pendants)
            assert (
                count_interval(g, 0, 1).count
                >= count_interval(g.without_vertex(v), 0, 1).count
            )
            done += 1

    def test_path_attachment_preserves_multiplicity_of_one(self):
        rng = random.Random(13)
        for i in range(20):
            g = random_connected_graph(rng, rng.randrange(2, 10), rng.randrange(0, 3))
            m = 3 if i % 2 else 6
            h = join_with_edge(g, rng.randrange(g.n), make_path(m), 0)
            assert multiplicity(h, 1) == multiplicity(g, 1)
