import pytest

from unilap.errors import InternalConsistencyError, InvalidParameterError
from unilap.graphs import CompassParams, make_compass, make_cycle, make_lollipop, make_path
from unilap.spectra import laplacian_apply, multiplicity
from unilap.witnesses import (
    _certified,
    compass_one_witness,
    cycle_one_vectors,
    lollipop_one_witness,
    path_one_vector,
)


class TestCertified:
    """_certified returns only vectors with L v = v, checked exactly."""

    @pytest.mark.parametrize(
        "vec",
        [[1, 1, 1], [1, 0, 1], [2, 0, -1], [-1, 0, -1]],
        ids=["eigenvalue-0", "sign", "scale", "both-ends"],
    )
    def test_rejects_a_vector_that_is_not_an_eigenvector(self, vec):
        with pytest.raises(InternalConsistencyError, match="fails L v = v"):
            _certified(make_path(3), vec, "p")

    def test_rejects_one_wrong_entry_of_a_pattern(self):
        entries = list(cycle_one_vectors(12)[0].entries)
        for i in range(12):
            bad = entries[:i] + [entries[i] + 1] + entries[i + 1 :]
            with pytest.raises(InternalConsistencyError, match="fails L v = v"):
                _certified(make_cycle(12), bad, "c")

    def test_rejects_zero(self):
        with pytest.raises(InternalConsistencyError, match="zero"):
            _certified(make_path(3), [0, 0, 0], "p")


class TestPathWitness:
    def test_small_patterns(self):
        assert path_one_vector(3).entries == (1, 0, -1)
        assert path_one_vector(6).entries == (1, 0, -1, -1, 0, 1)

    def test_rejects_non_multiples_of_three(self):
        for n in (1, 2, 4, 7):
            with pytest.raises(InvalidParameterError):
                path_one_vector(n)

    def test_verified_for_range(self):
        for n in range(3, 61, 3):
            w = path_one_vector(n)
            vec = list(w.entries)
            assert laplacian_apply(make_path(n), vec) == vec


class TestCycleWitnesses:
    def test_small_patterns(self):
        wa, wb = cycle_one_vectors(6)
        assert wa.entries == (1, 0, -1, -1, 0, 1)
        assert wb.entries == (1, 1, 0, -1, -1, 0)

    def test_rejects_non_multiples_of_six(self):
        for n in (3, 9, 10):
            with pytest.raises(InvalidParameterError):
                cycle_one_vectors(n)

    def test_verified_and_independent(self):
        for n in range(6, 61, 6):
            wa, wb = cycle_one_vectors(n)
            g = make_cycle(n)
            for w in (wa, wb):
                vec = list(w.entries)
                assert laplacian_apply(g, vec) == vec
            assert multiplicity(g, 1) >= 2


class TestLollipopWitness:
    def test_scaled_tail_example(self):
        w = lollipop_one_witness(7, 3)
        assert w is not None
        assert w.entries == (1, 1, 0, -2, -2, 0, 2)

    def test_cycle_block_case(self):
        w = lollipop_one_witness(9, 6)
        assert w is not None
        assert w.entries[6:] == (0, 0, 0)
        assert multiplicity(make_lollipop(9, 6), 1) == 2

    def test_unrolled_path_case(self):
        w = lollipop_one_witness(9, 7)
        assert w is not None
        assert multiplicity(make_lollipop(9, 7), 1) == 1

    def test_none_when_no_construction_applies(self):
        assert lollipop_one_witness(9, 5) is None
        assert lollipop_one_witness(10, 7) is None  # r=1 mod 6 but 3 does not divide n

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            lollipop_one_witness(5, 5)
        with pytest.raises(InvalidParameterError):
            lollipop_one_witness(5, 2)

    def test_witness_implies_eigenvalue(self):
        for n in range(4, 26):
            for r in range(3, n):
                w = lollipop_one_witness(n, r)
                if w is not None:
                    g = make_lollipop(n, r)
                    vec = list(w.entries)
                    assert laplacian_apply(g, vec) == vec
                    assert multiplicity(g, 1) >= 1

    def test_multiplicity_claims(self):
        for n in range(4, 31):
            for r in range(3, n):
                mult = multiplicity(make_lollipop(n, r), 1)
                if r % 6 == 0:
                    assert mult == (2 if n % 3 == 0 else 1)
                elif r % 6 == 1 and n % 3 == 0:
                    assert mult == 1
                elif r % 6 == 3 and n % 3 == 1:
                    assert mult == 1


class TestCompassWitness:
    def test_exists_on_hypotheses(self):
        p = CompassParams(12, 6, 3, 1)
        w = compass_one_witness(p)
        assert w is not None
        g = make_compass(p)
        vec = list(w.entries)
        assert laplacian_apply(g, vec) == vec
        assert multiplicity(g, 1) >= 1

    def test_none_off_hypotheses(self):
        assert compass_one_witness(CompassParams(14, 8, 4, 3)) is None
        assert compass_one_witness(CompassParams(13, 6, 2, 1)) is None

    def test_verified_across_grid(self):
        for r in (6, 12):
            for n in range(r + 2, 31):
                for t in range(1, n - r):
                    p = CompassParams(n, r, r // 2, t)
                    w = compass_one_witness(p)
                    assert w is not None
                    vec = list(w.entries)
                    assert laplacian_apply(make_compass(p), vec) == vec

    def test_rejects_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            compass_one_witness(CompassParams(10, 8, 1, 1))
