import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstarkit import families
from hstarkit.boxgroup import enumerate_box_group
from hstarkit.errors import InvalidParametersError
from hstarkit.families import (
    delta_cm,
    join,
    lemma41_simplex,
    multiplicativity_pairs,
    prop43_instance,
    remark44_simplex,
    unit_simplex,
    zero_window_family,
)
from hstarkit.hstar import hstar_from_box_group
from hstarkit.oracle import hstar_by_interpolation
from hstarkit.simplex import LatticeSimplex, all_faces, normalized_volume
from hstarkit.theorem import check_shifted_symmetric, check_zero_window, condition_report


def box_hstar(simplex):
    return hstar_from_box_group(enumerate_box_group(simplex))


class TestJoin:
    def test_point_join_point_is_primitive_segment(self):
        s = join(unit_simplex(0), unit_simplex(0))
        assert s.vertices == ((0,), (1,))
        assert box_hstar(s).coeffs == (1,)

    def test_segments(self):
        s = join(delta_cm(1, 1), delta_cm(2, 1))
        assert s.dimension == 3
        assert box_hstar(s).coeffs == (1, 3, 2)
        assert hstar_by_interpolation(s).coeffs == (1, 3, 2)

    def test_coordinate_layout(self):
        s = join(unit_simplex(1), unit_simplex(2))
        # left vertices carry flag 0, right vertices flag 1
        assert s.vertices[0] == (0, 0, 0, 0)
        assert s.vertices[1] == (0, 1, 0, 0)
        assert s.vertices[2] == (1, 0, 0, 0)
        assert s.vertices[3][0] == 1

    def test_dimension_adds_one(self):
        s = join(delta_cm(1, 2), remark44_simplex(2))
        assert s.dimension == delta_cm(1, 2).dimension + remark44_simplex(2).dimension + 1

    def test_multiplicativity_on_fixed_pairs(self):
        cases = [
            (delta_cm(2, 3), delta_cm(1, 7)),
            (delta_cm(3, 1), remark44_simplex(2)),
            (unit_simplex(2), delta_cm(4, 2)),
        ]
        for left, right in cases:
            assert box_hstar(join(left, right)) == box_hstar(left) * box_hstar(right)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_multiplicativity_random_small(self, a, b, k, ell):
        left, right = delta_cm(a, k), delta_cm(b, ell)
        assert box_hstar(join(left, right)) == box_hstar(left) * box_hstar(right)


class TestDeltaCm:
    @pytest.mark.parametrize("c", [1, 2, 5, 10])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_two_term_hstar(self, c, m):
        h = box_hstar(delta_cm(c, m))
        assert h.coeffs == tuple([1] + [0] * (m - 1) + [c])

    def test_dimension_and_volume(self):
        s = delta_cm(4, 3)
        assert s.dimension == 5
        assert normalized_volume(s) == 5

    def test_oracle_cross_check_small(self):
        for c, m in [(1, 1), (3, 1), (2, 2), (9, 2), (2, 3)]:
            s = delta_cm(c, m)
            assert hstar_by_interpolation(s) == box_hstar(s)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParametersError):
            delta_cm(0, 1)
        with pytest.raises(InvalidParametersError):
            delta_cm(1, 0)


class TestLemma41:
    def test_square_of_segments(self):
        assert box_hstar(lemma41_simplex(1, 1, 1, 1)).coeffs == (1, 2, 1)

    def test_three_term_shape(self):
        # (1 + a t^k)(1 + b t^l): top coefficient is the product a*b
        h = box_hstar(lemma41_simplex(1, 3, 2, 3))
        assert h.coeffs == (1, 0, 1, 3, 0, 3)

    def test_validation(self):
        with pytest.raises(InvalidParametersError):
            lemma41_simplex(0, 1, 1, 1)


class TestCounterexampleInstances:
    @pytest.mark.parametrize(
        "k,j",
        [(3, 4), (3, 5), (4, 5), (4, 6), (4, 7), (5, 6), (5, 9)],
    )
    def test_required_properties(self, k, j):
        s = prop43_instance(k, j)
        h = box_hstar(s)
        # upper window vanishes except at j, where it does not
        for i in range(k + 1, 2 * k):
            if i == j:
                assert h.coefficient(i) != 0
            else:
                assert h.coefficient(i) == 0
        # the truncation is certified unrealizable at degree k
        verdicts = {e.name: e.status for e in condition_report(h.truncated(k))}
        assert "not_realizable" in (verdicts["lemma_hhh"], verdicts["prime_symmetry"])

    def test_explicit_simplex_values(self):
        s = prop43_instance(3, 4)
        assert box_hstar(s).coeffs == (1, 0, 2, 4, 2)
        assert not check_zero_window(box_hstar(s), 3)

    def test_same_simplex_from_both_recipes(self):
        assert prop43_instance(3, 5, 5) == prop43_instance(4, 5, 5)

    def test_validation(self):
        with pytest.raises(InvalidParametersError):
            prop43_instance(2, 3)
        with pytest.raises(InvalidParametersError):
            prop43_instance(3, 6)
        with pytest.raises(InvalidParametersError):
            prop43_instance(3, 5, p=4)
        with pytest.raises(InvalidParametersError, match="p must be a prime >= 5"):
            prop43_instance(3, 4, p=4)


class TestSymmetricFamily:
    @pytest.mark.parametrize("k", [2, 3])
    def test_hstar(self, k):
        h = box_hstar(remark44_simplex(k))
        expect = [0] * (2 * k + 1)
        expect[0] = expect[k] = expect[2 * k] = 1
        assert h.coeffs == tuple(expect)
        assert check_shifted_symmetric(h, 3 * k - 1)

    def test_volume_three(self):
        assert normalized_volume(remark44_simplex(4)) == 3

    def test_all_proper_faces_unimodular_k2(self):
        s = remark44_simplex(2)
        total = 0
        for sel, face_simplex in all_faces(s):
            if len(sel) == s.n_vertices:
                continue
            total += 1
            assert box_hstar(face_simplex).coeffs == (1,)
        assert total == 2 ** (3 * 2) - 2

    def test_validation(self):
        with pytest.raises(InvalidParametersError):
            remark44_simplex(1)


class TestDimensionBound:
    """Each generator checks MAX_FAMILY_DIM = 200 before it builds a vertex
    list; here the rank check is skipped, so builds at the bound are quick."""

    # family -> (constructor, parameters at the bound, parameters just past it)
    CASES = {
        "unit": (unit_simplex, (200,), (201,)),
        "delta_cm": (delta_cm, (2, 100), (2, 101)),
        "lemma41": (lemma41_simplex, (1, 1, 50, 50), (1, 1, 50, 51)),
        "prop43": (prop43_instance, (60, 100), (60, 101)),
        "remark44": (remark44_simplex, (67,), (68,)),
    }

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        origin_and_units = families._origin_and_units

        def spy_units(dim, count):
            built.append(dim)
            return origin_and_units(dim, count)

        def unchecked(dim, verts):
            built.append(dim)
            return LatticeSimplex(dim, tuple(map(tuple, verts)))

        monkeypatch.setattr(families, "_origin_and_units", spy_units)
        monkeypatch.setattr(families, "from_vertices", unchecked)
        return built

    @pytest.mark.parametrize("family", sorted(CASES))
    def test_bound_is_checked_first(self, built, family):
        make, largest, too_large = self.CASES[family]
        assert 199 <= make(*largest).ambient_dim <= families.MAX_FAMILY_DIM == 200
        built.clear()
        with pytest.raises(InvalidParametersError, match=r"^dimension 20[13] exceeds the family "
                           r"bound MAX_FAMILY_DIM = 200$"):
            make(*too_large)
        assert built == []

    def test_join_checks_the_sum(self):
        point = LatticeSimplex(100, ((0,) * 100,))
        with pytest.raises(InvalidParametersError, match="^dimension 201 exceeds"):
            join(point, point)
        assert join(point, LatticeSimplex(99, ((0,) * 99,))).ambient_dim == 200


class TestCohorts:
    def test_zero_window_family_size_and_uniqueness(self):
        rows = list(zero_window_family())
        names = [name for name, _, _ in rows]
        assert len(rows) >= 100
        assert len(set(names)) == len(names)
        assert all(k >= 3 for _, _, k in rows)
        vols = [normalized_volume(s) for _, s, _ in rows]
        assert max(vols) == 10**4

    def test_multiplicativity_pairs_deterministic(self):
        a = multiplicativity_pairs()
        b = multiplicativity_pairs()
        assert a == b and len(a) == 25
