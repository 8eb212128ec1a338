import sys
from itertools import combinations, product as iter_product
from math import comb, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hstarkit import boxgroup, hstar, linalg, oracle
from hstarkit.errors import NotASimplexError, ScanTooLargeError, VolumeTooLargeError
from hstarkit.families import delta_cm, join, prop43_instance, remark44_simplex, unit_simplex
from hstarkit.hstar import HStarVector, ehrhart_from_hstar, hstar_from_box_group, structural_facts
from hstarkit.boxgroup import enumerate_box_group, enumerate_by_box_scan
from hstarkit.io import load_simplex_document
from hstarkit.oracle import (
    count_interior_points,
    count_lattice_points,
    cross_validate,
    heldout_count_matches,
    hstar_by_interpolation,
)
from hstarkit.simplex import (
    LatticeSimplex,
    from_vertices,
    homogenize,
    normalized_volume,
    restrict_to_affine_lattice,
)
from hstarkit.theorem import extract_face

TRI_VOL2 = from_vertices(2, [(0, 0), (1, 0), (1, 2)])


class TestCounts:
    def test_unit_triangle_small_dilates(self):
        tri = unit_simplex(2)
        assert count_lattice_points(tri, 1) == 3
        assert count_lattice_points(tri, 2) == 6
        assert count_lattice_points(tri, 3) == 10

    def test_dilation_zero(self):
        assert count_lattice_points(prop43_instance(3, 4), 0) == 1
        assert count_interior_points(prop43_instance(3, 4), 0) == 0

    def test_triangle_vol2_by_hand(self):
        # area 4 at n=2, boundary 8, so 1 interior and 9 total
        assert count_lattice_points(TRI_VOL2, 2) == 9
        assert count_interior_points(TRI_VOL2, 2) == 1

    def test_interior_unit_triangle(self):
        tri = unit_simplex(2)
        assert count_interior_points(tri, 1) == 0
        assert count_interior_points(tri, 2) == 0
        assert count_interior_points(tri, 3) == 1

    def test_interior_of_explicit_simplex_is_empty(self):
        assert count_interior_points(prop43_instance(3, 4), 1) == 0

    def test_point_simplex(self):
        pt = unit_simplex(0)
        assert count_lattice_points(pt, 5) == 1
        assert count_interior_points(pt, 5) == 1

    def test_interior_never_exceeds_total(self):
        for s in (TRI_VOL2, delta_cm(2, 2), prop43_instance(3, 4)):
            for n in range(0, 4):
                assert count_interior_points(s, n) <= count_lattice_points(s, n)

    def test_counts_strictly_increasing(self):
        for s in (TRI_VOL2, delta_cm(3, 2), prop43_instance(3, 4)):
            counts = [count_lattice_points(s, n) for n in range(s.dimension + 1)]
            assert counts[0] == 1
            assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_scan_cap(self):
        with pytest.raises(ScanTooLargeError):
            count_lattice_points(prop43_instance(3, 4), 5, scan_cap=1000)

    def test_lower_dimensional_cap_counts_the_box_of_its_model(self):
        # Its own box in Z^11 holds 6**11 candidates at dilate 5.
        segment = from_vertices(11, [(0,) * 11, (1,) * 11])
        assert count_lattice_points(segment, 5) == 6
        assert count_interior_points(segment, 5) == 4
        with pytest.raises(ScanTooLargeError) as info:
            count_lattice_points(segment, 5, scan_cap=5)
        assert str(info.value) == "oracle scan of dilate 5: 6 box candidates exceed scan cap 5"

    def test_scan_cap_names_cap_value_and_stage(self):
        simplex = prop43_instance(3, 5)
        with pytest.raises(ScanTooLargeError) as info:
            count_interior_points(simplex, 4, scan_cap=10**6)
        assert str(info.value) == (
            "oracle scan of dilate 4: 80803125 box candidates exceed scan cap 1000000"
        )
        assert (info.value.candidates, info.value.cap) == (box_candidates(simplex, 4), 10**6)
        assert info.value.stage == "oracle scan of dilate 4"


class TestModelCache:
    def test_one_model_per_simplex_and_a_cold_start_after_clear(self):
        simplex = prop43_instance(3, 4)
        oracle._scan.cache_clear()
        with mock.patch.object(
            oracle, "restrict_to_affine_lattice", wraps=restrict_to_affine_lattice
        ) as spy:
            # Every dilate of a full-dimensional 5-simplex shares one model.
            h = hstar_from_box_group(enumerate_box_group(simplex))
            result = cross_validate(simplex, h)
            assert result.match and result.heldout_ok
            assert spy.call_count == 1
            count_lattice_points(TRI_VOL2, 1)
            assert spy.call_count == 2
            # Clearing the scan cache, the only reset between benchmark
            # passes, also drops the models, as a fresh process would.
            oracle._scan.cache_clear()
            assert count_lattice_points(simplex, 2) == ehrhart_from_hstar(h, 5, 2)
            assert spy.call_count == 3
            assert oracle._model.cache_info().currsize == 1


def brute_force_counts(simplex: LatticeSimplex, n: int) -> tuple[int, int]:
    """(closure, interior) counts of the n-th dilate, testing every candidate
    of the bounding box one at a time."""
    d = simplex.ambient_dim
    k = d + 1
    adj, det_m = linalg.adjugate(homogenize(simplex))
    sign = 1 if det_m > 0 else -1
    forms = [[sign * adj[i][j] for j in range(k)] for i in range(k)]
    base = [forms[i][d] * n for i in range(k)]
    los = [n * min(v[j] for v in simplex.vertices) for j in range(d)]
    his = [n * max(v[j] for v in simplex.vertices) for j in range(d)]
    weak = strict = 0
    for x in iter_product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        mn = None
        for i in range(k):
            row = forms[i]
            w = base[i]
            for j in range(d):
                w += row[j] * x[j]
            if mn is None or w < mn:
                mn = w
            if mn < 0:
                break
        if mn >= 0:
            weak += 1
            if mn > 0:
                strict += 1
    return weak, strict


def box_candidates(simplex: LatticeSimplex, n: int) -> int:
    return prod(n * (max(col) - min(col)) + 1 for col in zip(*simplex.vertices))


def scan_dtypes(simplex: LatticeSimplex, n: int) -> tuple[tuple[int, int], list]:
    """Counts by the project-and-lift kernel, uncapped and uncached, with the
    dtype of every kernel call (one for the closure, one for the interior)."""
    with mock.patch.object(oracle, "_count_lifts", wraps=oracle._count_lifts) as spy:
        counts = scan(simplex, n)
    return counts, [c.args[-1] for c in spy.call_args_list]


def scan(simplex: LatticeSimplex, n: int) -> tuple[int, int]:
    """(closure, interior) counts of the n-th dilate, uncapped and uncached."""
    return oracle._scan.__wrapped__(simplex, n, 0), oracle._scan.__wrapped__(simplex, n, 1)


def brute_force_counts_embedded(simplex: LatticeSimplex, n: int) -> tuple[int, int]:
    """(closure, interior) counts of the n-th dilate of a simplex of any
    dimension, testing every candidate of its bounding box in Z^N: the
    barycentric weights come from a nonsingular square block of the edge
    equations, and the other equations must hold too."""
    v0 = simplex.vertices[0]
    d = simplex.dimension
    edges = [[v[i] - v0[i] for v in simplex.vertices[1:]] for i in range(simplex.ambient_dim)]
    block = next(
        rows
        for rows in combinations(range(simplex.ambient_dim), d)
        if linalg.det([edges[i] for i in rows])
    )
    square = [edges[i] for i in block]
    weak = strict = 0
    for x in iter_product(*(range(n * min(c), n * max(c) + 1) for c in zip(*simplex.vertices))):
        rhs = [x[i] - n * v0[i] for i in range(simplex.ambient_dim)]
        lam = linalg.solve_rational(square, [rhs[i] for i in block]) if d else ()
        if any(sum(e * w for e, w in zip(row, lam)) != r for row, r in zip(edges, rhs)):
            continue
        weights = (n - sum(lam),) + lam
        if min(weights) >= 0:
            weak += 1
            strict += min(weights) > 0
    return weak, strict


# Coordinate half-width per dimension: keeps the brute-force reference small.
SPREAD = {0: 0, 1: 5, 2: 4, 3: 2, 4: 2, 5: 1}


@st.composite
def random_simplices(draw) -> LatticeSimplex:
    d = draw(st.integers(0, 5))
    s = SPREAD[d]
    shift = draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d))
    verts = draw(
        st.lists(
            st.lists(st.integers(-s, s), min_size=d, max_size=d), min_size=d + 1, max_size=d + 1
        )
    )
    try:
        return from_vertices(d, [[x + t for x, t in zip(v, shift)] for v in verts])
    except NotASimplexError:
        assume(False)


@st.composite
def corner_simplices(draw) -> LatticeSimplex:
    """0 and a_j e_j with the last vertex possibly moved, then shifted: the
    facets x_j = 0 make forms that are flat along every other axis."""
    d = draw(st.integers(1, 5))
    s = 2 * SPREAD[d]
    scales = draw(st.lists(st.integers(-s, s).filter(bool), min_size=d, max_size=d))
    verts = [[0] * d] + [[a if i == j else 0 for i in range(d)] for j, a in enumerate(scales)]
    if draw(st.booleans()):
        verts[-1] = draw(st.lists(st.integers(-s, s), min_size=d, max_size=d))
    shift = draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d))
    try:
        return from_vertices(d, [[x + t for x, t in zip(v, shift)] for v in verts])
    except NotASimplexError:
        assume(False)


@st.composite
def unimodular_images(draw) -> tuple[LatticeSimplex, LatticeSimplex]:
    """A small full-dimensional simplex and its image x -> A x + t, with A a
    product of a unit lower and a unit upper triangular matrix."""
    simplex = draw(random_simplices())
    d = simplex.ambient_dim
    entries = st.integers(-2, 2)
    low = [[1 if i == j else draw(entries) if j < i else 0 for j in range(d)] for i in range(d)]
    up = [[1 if i == j else draw(entries) if j > i else 0 for j in range(d)] for i in range(d)]
    a = [[sum(low[i][k] * up[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    t = draw(st.lists(st.integers(-(10**100), 10**100), min_size=d, max_size=d))
    image = from_vertices(
        d, [[sum(a[i][j] * v[j] for j in range(d)) + t[i] for i in range(d)] for v in simplex.vertices]
    )
    return simplex, image


@st.composite
def embedded_simplices(draw) -> LatticeSimplex:
    """A simplex of dimension <= 4 in Z^N, N <= 6, lower-dimensional, with
    small coordinates."""
    big_n = draw(st.integers(1, 6))
    d = draw(st.integers(0, min(big_n - 1, 4)))
    s = {0: 3, 1: 3, 2: 2, 3: 1, 4: 1}[d] if big_n <= 3 else 1
    verts = draw(
        st.lists(
            st.lists(st.integers(-s, s), min_size=big_n, max_size=big_n),
            min_size=d + 1,
            max_size=d + 1,
        )
    )
    try:
        return from_vertices(big_n, verts)
    except NotASimplexError:
        assume(False)


class TestLineKernel:
    @given(st.one_of(random_simplices(), corner_simplices()), st.integers(1, 3))
    @settings(max_examples=250, deadline=None)
    def test_matches_brute_force(self, simplex, n):
        assume(box_candidates(simplex, n) <= 20_000)
        assert scan(simplex, n) == brute_force_counts(simplex, n)

    @given(st.one_of(random_simplices(), corner_simplices()), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_int64_and_object_runs_agree(self, simplex, n):
        assume(simplex.ambient_dim > 0)
        fast, fast_dtypes = scan_dtypes(simplex, n)
        with mock.patch.object(oracle, "INT64_LIMIT", 0):
            exact, exact_dtypes = scan_dtypes(simplex, n)
        assert fast_dtypes == [np.int64] * 2 and exact_dtypes == [object] * 2
        assert fast == exact

    @pytest.mark.parametrize(
        "simplex", [TRI_VOL2, delta_cm(2, 2), unit_simplex(3), prop43_instance(3, 4)]
    )
    def test_huge_shift_counts_unchanged(self, simplex):
        # The Hermite model drops the translate, so int64 still suffices.
        shift = 10**30
        far = from_vertices(
            simplex.ambient_dim, [[x + shift for x in v] for v in simplex.vertices]
        )
        for n in (1, 2):
            counts, dtypes = scan_dtypes(far, n)
            assert dtypes == [np.int64] * 2
            assert counts == scan(simplex, n)
        assert count_lattice_points(far, 2) == brute_force_counts(far, 2)[0]

    def test_large_forms_run_on_python_integers(self):
        # The n-th dilate of the triangle 0, e_1, b e_2 has twice the area
        # n^2 b and n + n + n b boundary points; Pick's theorem gives the
        # interior. The overflow bound is proved per unit dilate and scaled
        # by n, so at b = 2**43 // 11 dilate 1 still runs on int64.
        cases = [(2**62, n, object) for n in (1, 2, 3)]
        cases += [(2**43 // 11, 1, np.int64), (2**43 // 11, 2, object)]
        for b, n, dtype in cases:
            tri = from_vertices(2, [(0, 0), (1, 0), (0, b)])
            counts, dtypes = scan_dtypes(tri, n)
            assert dtypes == [dtype] * 2
            boundary = 2 * n + n * b
            interior = (n * n * b - boundary) // 2 + 1
            assert counts == (interior + boundary, interior)

    def test_flat_forms_are_covered(self):
        # The facet x_2 = 0 of this triangle is flat along the axis x_1.
        tri = from_vertices(2, [(0, 0), (7, 0), (-3, 2)])
        adj, _ = linalg.adjugate(homogenize(tri))
        assert 0 in [row[0] for row in adj]
        assert scan(tri, 2) == brute_force_counts(tri, 2)

    @given(unimodular_images(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_unimodular_image_keeps_counts(self, pair, n):
        simplex, image = pair
        assume(box_candidates(simplex, n) <= 20_000)
        assume(box_candidates(image, n) <= oracle.DEFAULT_SCAN_CAP)
        assert scan(image, n) == scan(simplex, n) == brute_force_counts(simplex, n)

    @given(embedded_simplices(), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_lower_dimensional_counts_match_model(self, simplex, n):
        assume(box_candidates(simplex, n) <= 5_000)
        model = restrict_to_affine_lattice(simplex)
        expected = brute_force_counts_embedded(simplex, n)
        assert scan(simplex, n) == scan(model, n) == expected

    @given(st.one_of(random_simplices(), corner_simplices()), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_small_chunks_split_rows_and_intervals(self, simplex, n):
        assume(box_candidates(simplex, n) <= 20_000)
        blocks = []
        oracle_expand = oracle._expand

        def expand(first, widths, limit):
            for rows, x in oracle_expand(first, widths, limit):
                blocks.append((len(rows), limit))
                yield rows, x

        with mock.patch.object(oracle, "_CHUNK", 6), mock.patch.object(oracle, "_expand", expand):
            counts = scan(simplex, n)
        assert counts == brute_force_counts(simplex, n)
        assert all(0 < size <= limit for size, limit in blocks)

    def test_small_chunks_cut_a_wide_interval(self):
        blocks = list(oracle._expand(np.array([0, 5, 7]), np.array([9, 0, 2]), 3))
        assert sorted(len(rows) for rows, _ in blocks) == [2, 3, 3, 3]
        listed = sorted((int(i), int(x)) for rows, xs in blocks for i, x in zip(rows, xs))
        assert listed == [(0, x) for x in range(9)] + [(2, 7), (2, 8)]
        wide = from_vertices(2, [(0, 0), (40, 0), (0, 3)])
        with mock.patch.object(oracle, "_CHUNK", 6):
            assert scan(wide, 2) == brute_force_counts(wide, 2)


@st.composite
def small_full_simplices(draw) -> LatticeSimplex:
    d = draw(st.integers(1, 4))
    s = {1: 6, 2: 4, 3: 2, 4: 1}[d]
    verts = draw(
        st.lists(
            st.lists(st.integers(-s, s), min_size=d, max_size=d), min_size=d + 1, max_size=d + 1
        )
    )
    try:
        simplex = from_vertices(d, verts)
    except NotASimplexError:
        assume(False)
    assume(normalized_volume(simplex) <= 200)
    return simplex


class TestRouteAgreement:
    @given(small_full_simplices())
    @settings(max_examples=100, deadline=None)
    def test_group_scan_interpolation_and_heldout_agree(self, simplex):
        group = enumerate_box_group(simplex)
        h = hstar_from_box_group(group)
        rows, volume = enumerate_by_box_scan(simplex)
        assert np.array_equal(rows * group.exponent, group.rows() * volume)
        assert hstar_by_interpolation(simplex).coeffs == h.coeffs
        assert heldout_count_matches(simplex, h)


class TestInterpolation:
    def test_unit_triangle(self):
        assert hstar_by_interpolation(unit_simplex(2)).coeffs == (1,)

    def test_triangle_vol2(self):
        assert [count_lattice_points(TRI_VOL2, n) for n in range(3)] == [1, 4, 9]
        assert hstar_by_interpolation(TRI_VOL2).coeffs == (1, 1)

    def test_delta_22(self):
        assert hstar_by_interpolation(delta_cm(2, 2)).coeffs == (1, 0, 2)

    def test_matches_evaluation_beyond_range(self):
        # one dilate beyond the held-out check: counts really are polynomial
        for s in (TRI_VOL2, delta_cm(2, 2), join(delta_cm(1, 1), delta_cm(2, 1))):
            h = hstar_by_interpolation(s)
            d = s.dimension
            for n in range(d + 3):
                assert count_lattice_points(s, n) == ehrhart_from_hstar(h, d, n)


def full_range_interpolation(simplex: LatticeSimplex) -> tuple[int, ...]:
    """h* from the closure counts E(0..d) alone, h_j = sum_i (-1)^i C(d+1, i)
    E(j-i): the transform before the reciprocity split, kept as its
    reference."""
    d = simplex.dimension
    counts = [count_lattice_points(simplex, n) for n in range(d + 1)]
    return HStarVector.of([
        sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1))
        for j in range(d + 1)
    ]).coeffs


class TestReciprocitySplit:
    @given(st.one_of(random_simplices(), corner_simplices(), embedded_simplices()))
    @example(unit_simplex(0))
    @example(from_vertices(1, [(2,), (-3,)]))
    @example(from_vertices(3, [(0, 0, 0), (1, 2, 2), (2, 1, 0)]))
    @example(prop43_instance(3, 4))
    @example(delta_cm(2, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_range_transform(self, simplex):
        assume(box_candidates(simplex, simplex.dimension) <= 50_000)
        assert hstar_by_interpolation(simplex).coeffs == full_range_interpolation(simplex)

    @pytest.mark.parametrize("d", range(8))
    def test_counts_half_the_dilates_top_first_and_holds_one_out(self, d):
        # Closure counts of dilates 0..m and interior counts of dilates
        # 0..d-m, the top one first; the held-out count is the interior
        # count of the next dilate, which the split never reads.
        simplex, m = unit_simplex(d), d // 2
        with mock.patch.object(oracle, "_count", wraps=oracle._count) as spy:
            h = hstar_by_interpolation(simplex)
            split = [c.args[1:3] for c in spy.call_args_list]
            spy.reset_mock()
            assert heldout_count_matches(simplex, h)
            heldout = [c.args[1:3] for c in spy.call_args_list]
        assert split[0] == (d - m, 1)
        assert sorted(split) == sorted([(n, 0) for n in range(m + 1)]
                                       + [(n, 1) for n in range(d - m + 1)])
        assert heldout == [(d - m + 1, 1)]

    def test_a_capped_top_dilate_scans_nothing(self, corpus_dir):
        simplex = load_simplex_document(corpus_dir / "prop43-k3-j5-p5.json").to_simplex()
        h = hstar_from_box_group(enumerate_box_group(simplex))
        oracle._scan.cache_clear()
        with mock.patch.object(oracle, "_count_lifts", wraps=oracle._count_lifts) as spy:
            with pytest.raises(ScanTooLargeError) as info:
                cross_validate(simplex, h)
        assert (simplex.dimension, info.value.stage) == (9, "oracle scan of dilate 5")
        assert spy.call_count == 0

    def test_fourteen_dimensions_with_the_cap_lifted(self):
        # The split counts dilates up to 8 of this 14-simplex; the
        # full-range transform counted up to 15 and took about 300 times as long.
        simplex = remark44_simplex(5)
        h = hstar_from_box_group(enumerate_box_group(simplex))
        cv = cross_validate(simplex, h, scan_cap=10**40)
        assert simplex.dimension == 14
        assert (cv.oracle_hstar, cv.match, cv.heldout_ok) == (h, True, True)


def group_cross_validation(simplex):
    """cross_validate on the group path's h*, which the result must match."""
    h = hstar_from_box_group(enumerate_box_group(simplex))
    cv = cross_validate(simplex, h)
    assert cv.oracle_hstar == h
    return h, cv


class TestCrossValidation:
    def test_unit(self):
        h, cv = group_cross_validation(unit_simplex(2))
        assert cv.match and h.coeffs == (1,)

    def test_explicit_5dim(self):
        h, cv = group_cross_validation(prop43_instance(3, 4))
        assert cv.match and h.coeffs == (1, 0, 2, 4, 2)
        assert cv.heldout_ok

    def test_remark44_k2(self):
        h, cv = group_cross_validation(remark44_simplex(2))
        assert cv.match and h.coeffs == (1, 0, 1, 0, 1)

    def test_lower_dimensional_input_restricted(self):
        seg = from_vertices(2, [(0, 0), (3, 0)])
        h, cv = group_cross_validation(seg)
        assert cv.match and h.coeffs == (1, 2)

    def test_wrong_hstar_fails_both_checks(self):
        # Same volume as the true (1, 0, 2, 4, 2), so only the counts tell.
        simplex = prop43_instance(3, 4)
        cv = cross_validate(simplex, HStarVector.of([1, 0, 2, 3, 3]))
        assert cv.oracle_hstar.coeffs == (1, 0, 2, 4, 2)
        assert (cv.match, cv.heldout_ok) == (False, False)

    def test_heldout_skipped_past_the_scan_cap(self):
        # The interpolation's dilates 0..3 fit a cap that the held-out
        # dilate 4 exceeds.
        simplex = prop43_instance(3, 4)
        h = hstar_from_box_group(enumerate_box_group(simplex))
        cap = box_candidates(simplex, 3)
        assert box_candidates(simplex, 4) > cap
        cv = cross_validate(simplex, h, scan_cap=cap)
        assert (cv.match, cv.heldout_ok) == (True, None)

    def test_heldout_detects_wrong_vector(self):
        h = hstar_from_box_group(enumerate_box_group(TRI_VOL2))
        assert heldout_count_matches(TRI_VOL2, h)
        assert not heldout_count_matches(TRI_VOL2, HStarVector.of([1, 2]))

    def test_degree_above_dimension_fails_both_checks(self):
        cv = cross_validate(unit_simplex(2), HStarVector.of([1, 0, 0, 0, 5]))
        assert cv.oracle_hstar.coeffs == (1,)
        assert (cv.match, cv.heldout_ok) == (False, False)
        # (1, 0, 2) predicts the held-out count 7 of the segment [0, 4],
        # interior count of dilate 2, yet no 1-simplex has that h*.
        segment = from_vertices(1, [(0,), (4,)])
        assert count_interior_points(segment, 2) == 1 * 1 + 2 * 3 == 7
        cv = cross_validate(segment, HStarVector.of([1, 0, 2]))
        assert (cv.oracle_hstar.coeffs, cv.match, cv.heldout_ok) == ((1, 3), False, False)


class TestAnySimplex:
    """A lower-dimensional input gives on every route exactly what its
    model gives."""

    @given(embedded_simplices(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_input_and_model_agree(self, simplex, k):
        model = restrict_to_affine_lattice(simplex)
        assume(normalized_volume(model) <= 100)
        group, model_group = enumerate_box_group(simplex), enumerate_box_group(model)
        assert group.invariant_factors == model_group.invariant_factors
        assert group.column_map == model_group.column_map
        assert np.array_equal(group.rows(), model_group.rows())
        assert np.array_equal(group.heights, model_group.heights)
        assert extract_face(simplex, k) == extract_face(model, k)
        h = hstar_from_box_group(group)
        assert cross_validate(simplex, h) == cross_validate(model, h)
        assert structural_facts(simplex, h) == structural_facts(model, h)
        for n in range(simplex.dimension + 3):
            assert count_lattice_points(simplex, n) == count_lattice_points(model, n)
            assert count_interior_points(simplex, n) == count_interior_points(model, n)
        for n in (1, simplex.dimension + 1):
            # The cap counts the model's box, with the model's message.
            cap = box_candidates(model, n)
            errors = []
            for s in (simplex, model):
                with pytest.raises(ScanTooLargeError) as info:
                    count_interior_points(s, n, scan_cap=cap - 1)
                errors.append((str(info.value), info.value.candidates))
            assert errors[0] == errors[1] == (errors[1][0], cap)
            assert count_lattice_points(simplex, n, scan_cap=cap) == count_lattice_points(model, n)


def poison(monkeypatch, targets) -> list[str]:
    """Replace every binding of each (module, name) function in every
    hstarkit module, the module attribute and each from-imported alias, by
    one that records its name and raises. Returns the record, which shows a
    call even where a handler swallowed the error."""
    reached: list[str] = []

    def poisoned(name):
        def call(*args, **kwargs):
            reached.append(name)
            raise AssertionError(f"{name} reached")
        return call

    originals = [(getattr(module, name), name) for module, name in targets]
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "hstarkit":
            continue
        for attr, value in list(vars(module).items()):
            for original, name in originals:
                if value is original:
                    monkeypatch.setattr(module, attr, poisoned(name))
    return reached


def corpus_simplices(corpus_dir):
    return [(p.name, load_simplex_document(p).to_simplex())
            for p in sorted(corpus_dir.glob("*.json"))]


class TestRouteIndependence:
    """The two h* routes share no code: the oracle and the box scan never
    reach the Smith form, the weight group or the group h*, and the group
    path never scans."""

    GROUP_PATH = ((linalg, "smith_normal_form"), (boxgroup, "enumerate_box_group"),
                  (hstar, "hstar_from_box_group"))

    def test_oracle_never_reaches_the_group_path(self, monkeypatch, corpus_dir):
        docs = corpus_simplices(corpus_dir)
        hstars = {name: hstar_from_box_group(enumerate_box_group(s)) for name, s in docs}
        oracle._scan.cache_clear()  # a cached count would not run its code
        reached = poison(monkeypatch, self.GROUP_PATH)
        # The oracle names nothing of the group path: it is handed h*.
        for name in ("enumerate_box_group", "hstar_from_box_group", "BoxGroup",
                     "smith_normal_form"):
            assert not hasattr(oracle, name), name
        ran = set()
        for name, s in docs:
            h, d = hstars[name], s.dimension
            routes = {
                "counts": lambda: [(count_lattice_points(s, n), count_interior_points(s, n))
                                   for n in range(d + 2)],
                "interpolation": lambda: hstar_by_interpolation(s),
                "heldout": lambda: heldout_count_matches(s, h),
                "cross-validate": lambda: cross_validate(s, h),
                "box-scan": lambda: enumerate_by_box_scan(s),
                "structural-facts": lambda: structural_facts(s, h),
            }
            for route, call in routes.items():
                try:
                    call()
                except (ScanTooLargeError, VolumeTooLargeError):
                    continue  # a cap refusal is allowed
                ran.add((name, route))
        assert reached == []
        assert sum(route == "interpolation" for _, route in ran) >= 12
        assert all((name, "structural-facts") in ran for name, _ in docs)

    def test_group_path_never_scans(self, monkeypatch, corpus_dir):
        docs = corpus_simplices(corpus_dir)
        reached = poison(monkeypatch, [(oracle, "_scan")])
        for _, s in docs:
            hstar_from_box_group(enumerate_box_group(s))
            extract_face(s, 3)
        assert reached == []
