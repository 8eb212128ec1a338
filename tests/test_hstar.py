import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hstarkit.boxgroup import enumerate_box_group
from hstarkit.errors import InternalCheckError
from hstarkit.families import delta_cm, join, prop43_instance, remark44_simplex, unit_simplex
from hstarkit.hstar import (
    HStarVector,
    ehrhart_from_hstar,
    hstar_from_box_group,
    structural_facts,
)
from hstarkit.io import canonical_dumps
from hstarkit.simplex import LatticeSimplex, from_vertices

TRI_VOL2 = from_vertices(2, [(0, 0), (1, 0), (1, 2)])


class TestVector:
    def test_leading_one_required(self):
        with pytest.raises(ValueError):
            HStarVector((2, 1))

    def test_nonnegative_required(self):
        with pytest.raises(ValueError):
            HStarVector((1, -1))

    def test_trailing_zeros_trimmed_by_of(self):
        h = HStarVector.of([1, 1, 0, 0])
        assert h.coeffs == (1, 1)
        with pytest.raises(ValueError):
            HStarVector((1, 1, 0))

    @pytest.mark.parametrize("coeffs", [[1, 0.5], [1, 2.0], [1, "2"]], ids=str)
    def test_non_integer_coefficient_is_refused_not_truncated(self, coeffs):
        with pytest.raises(TypeError):
            HStarVector.of(coeffs)

    def test_numpy_integers_are_read_as_ints(self):
        h = HStarVector.of(np.array([1, 2, 0], dtype=np.int64))
        assert h.coeffs == (1, 2) and all(type(c) is int for c in h.coeffs)

    @pytest.mark.parametrize("coeffs", [(1, 0.5), (1, 2.0), (1.0,)], ids=str)
    def test_constructor_refuses_what_of_refuses(self, coeffs):
        with pytest.raises(TypeError):
            HStarVector(coeffs)

    def test_constructor_reads_numpy_integers_as_ints(self):
        h = HStarVector(tuple(np.array([1, 2], dtype=np.int64)))
        assert h.coeffs == (1, 2) and all(type(c) is int for c in h.coeffs)

    def test_degree_and_volume(self):
        assert HStarVector.of([1]).degree == 0
        assert HStarVector.of([1]).normalized_volume == 1
        h = HStarVector.of([1, 0, 2, 4, 2])
        assert h.degree == 4 and h.normalized_volume == 9
        assert HStarVector.of([1, 1, 0, 1]).degree == 3

    def test_product(self):
        h = HStarVector.of([1, 1]) * HStarVector.of([1, 2])
        assert h.coeffs == (1, 3, 2)

    def test_truncated(self):
        h = HStarVector.of([1, 0, 1, 0, 1])
        assert h.truncated(2).coeffs == (1, 0, 1)
        assert h.truncated(3).coeffs == (1, 0, 1)
        assert h.truncated(0).coeffs == (1,)


class TestFromGroup:
    def test_unit(self):
        assert hstar_from_box_group(enumerate_box_group(unit_simplex(3))).coeffs == (1,)

    def test_triangle(self):
        assert hstar_from_box_group(enumerate_box_group(TRI_VOL2)).coeffs == (1, 1)

    def test_explicit_5dim(self):
        h = hstar_from_box_group(enumerate_box_group(prop43_instance(3, 4)))
        assert h.coeffs == (1, 0, 2, 4, 2)

    def test_sum_is_group_order(self):
        for s in (unit_simplex(2), TRI_VOL2, delta_cm(7, 2), prop43_instance(3, 4)):
            g = enumerate_box_group(s)
            assert hstar_from_box_group(g).normalized_volume == g.order

    def test_invariance_under_vertex_permutation(self):
        s = prop43_instance(3, 4)
        rotated = LatticeSimplex(s.ambient_dim, s.vertices[2:] + s.vertices[:2])
        assert (
            hstar_from_box_group(enumerate_box_group(rotated)).coeffs
            == hstar_from_box_group(enumerate_box_group(s)).coeffs
        )

    def test_invariance_under_all_permutations_of_triangle(self):
        from itertools import permutations

        base = hstar_from_box_group(enumerate_box_group(TRI_VOL2)).coeffs
        for perm in permutations(TRI_VOL2.vertices):
            s = LatticeSimplex(2, perm)
            assert hstar_from_box_group(enumerate_box_group(s)).coeffs == base


class TestEhrhartEvaluation:
    def test_unit_triangle(self):
        assert ehrhart_from_hstar(HStarVector.of([1]), 2, 3) == 10

    def test_triangle_vol2(self):
        assert ehrhart_from_hstar(HStarVector.of([1, 1, 0]), 2, 1) == 4

    def test_explicit_5dim_single_dilate(self):
        assert ehrhart_from_hstar(HStarVector.of([1, 0, 2, 4, 2]), 5, 1) == 6

    def test_dilation_zero_is_one(self):
        for coeffs, d in [([1], 2), ([1, 0, 2, 4, 2], 5), ([1, 3, 2], 3)]:
            assert ehrhart_from_hstar(HStarVector.of(coeffs), d, 0) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ehrhart_from_hstar(HStarVector.of([1, 1]), 2, -1)
        with pytest.raises(ValueError):
            ehrhart_from_hstar(HStarVector.of([1, 0, 1]), 1, 1)

    @given(
        st.lists(st.integers(0, 6), min_size=0, max_size=4),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_dilation_zero_property(self, tail, extra_dim):
        h = HStarVector.of([1] + tail)
        d = h.degree + extra_dim
        assert ehrhart_from_hstar(h, d, 0) == 1


class TestStructuralFacts:
    def test_unit_triangle(self):
        s = unit_simplex(2)
        assert structural_facts(s, hstar_from_box_group(enumerate_box_group(s))) == ()
        with pytest.raises(InternalCheckError, match=r"point-count-minus-vertices \(1 vs 0\)"):
            structural_facts(s, HStarVector.of([1, 1]))
        # h_1 >= h_d comes from condition_report's eq1 entry.
        with pytest.raises(InternalCheckError, match=r"eq1 \(0 vs 1\)"):
            structural_facts(s, HStarVector.of([1, 0, 1]))

    def test_triangle_vol2(self):
        g = enumerate_box_group(TRI_VOL2)
        assert structural_facts(TRI_VOL2, hstar_from_box_group(g)) == ()

    def test_explicit_5dim(self):
        s = prop43_instance(3, 4)
        g = enumerate_box_group(s)
        assert structural_facts(s, hstar_from_box_group(g)) == ()
        # top coefficient equals the interior count of the first dilate: zero
        with pytest.raises(InternalCheckError, match=r"interior-count-dilate-1 \(1 vs 0\)"):
            structural_facts(s, HStarVector.of([1, 0, 2, 4, 2, 1]))
        # h_d > 0 forces h_1 <= h_i: condition_report's hibi entry.
        with pytest.raises(InternalCheckError, match=r"hibi \(2 vs 3\)"):
            structural_facts(s, HStarVector.of([1, 3, 2, 4, 2, 1]))

    @pytest.mark.parametrize(
        "point", [unit_simplex(0), from_vertices(3, [(2, -1, 5)])], ids=["Z^0", "Z^3"]
    )
    def test_point(self, point):
        # h_1 >= h_d needs d >= 1: a point has h_0 = 1 and h_1 = 0.
        assert structural_facts(point, hstar_from_box_group(enumerate_box_group(point))) == ()

    def test_wrong_vector_aborts(self):
        s = unit_simplex(2)
        with pytest.raises(InternalCheckError):
            structural_facts(s, HStarVector.of([1, 3]))

    @pytest.mark.parametrize(
        "simplex, coeffs, sides",
        [
            (unit_simplex(2), [1, 0, 0, 1], "3 vs 2"),
            (delta_cm(2, 2), [1, 0, 2, 0, 0, 1], "5 vs 3"),
        ],
        ids=["triangle", "delta_cm(2,2)"],
    )
    def test_degree_above_dimension_raises(self, simplex, coeffs, sides):
        # The h* of a d-simplex has degree at most d.
        with pytest.raises(InternalCheckError) as info:
            structural_facts(simplex, HStarVector.of(coeffs))
        assert str(info.value) == f"structural fact violated: degree-at-most-dimension ({sides})"

    def test_scan_cap_records_skip(self):
        s = prop43_instance(3, 4)
        g = enumerate_box_group(s)
        assert structural_facts(s, hstar_from_box_group(g), scan_cap=10) == (
            "point-count-minus-vertices", "interior-count-dilate-2", "interior-count-dilate-1"
        )

    def test_outcome_grid_pin(self):
        # Every h* with h_0 = 1, degree <= d and coefficients <= 3, on sixteen
        # simplices of dimension 0..5, with and without a scan cap: the
        # outcome is a pass with its skipped facts, or a raise.
        simplices = [unit_simplex(d) for d in range(4)]
        simplices += [delta_cm(c, m) for c in (1, 2, 4) for m in (1, 2, 3)]
        simplices += [remark44_simplex(2), prop43_instance(3, 4),
                      join(delta_cm(2, 1), delta_cm(1, 2))]
        digest = hashlib.sha256()
        cases = passes = 0
        for s in simplices:
            for tail in itertools.product(range(4), repeat=s.dimension):
                h = HStarVector.of((1,) + tail)
                for cap in (None, 3):
                    try:
                        outcome = ["pass", list(structural_facts(s, h, scan_cap=cap))]
                        passes += 1
                    except InternalCheckError:
                        outcome = ["raise"]
                    digest.update(canonical_dumps(
                        [[list(v) for v in s.vertices], list(h.coeffs), cap, outcome]
                    ).encode())
                    cases += 1
        assert (cases, passes) == (12866, 1989)
        assert digest.hexdigest() == "8fbe678ed0cffcdbe7489b2a7a4eee7900d8fafe1de602fc71c09e2d45d3e68b"
