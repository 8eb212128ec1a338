import dataclasses
from fractions import Fraction
from itertools import product
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hstarkit import boxgroup, cli, linalg, theorem
from hstarkit.boxgroup import BoxGroup, enumerate_box_group, enumerate_by_box_scan
from hstarkit.errors import DimensionMismatchError, VolumeTooLargeError
from hstarkit.families import delta_cm, join, prop43_instance, remark44_simplex, unit_simplex
from hstarkit.hstar import hstar_from_box_group
from hstarkit.linalg import smith_normal_form
from hstarkit.search import realize_cyclic_group
from hstarkit.simplex import (
    LatticeSimplex,
    all_faces,
    from_vertices,
    homogenize,
    normalized_volume,
    restrict_to_affine_lattice,
)

from elements import add, as_rows, elements, height, neg, point, support, zero

TRI_VOL2 = from_vertices(2, [(0, 0), (1, 0), (1, 2)])


def frac(a, b=1):
    return Fraction(a, b)


def scan_points(simplex, volume_cap=200):
    """The box scan's rows over their volume, as points."""
    rows, volume = enumerate_by_box_scan(simplex, volume_cap=volume_cap)
    return tuple(point(r, volume) for r in rows.tolist())


class TestElementReference:
    def test_height_and_support(self):
        p = point((0, 1, 1), 2)
        assert height(p) == 1
        assert support(p) == (1, 2)
        z = zero(3)
        assert height(z) == 0 and support(z) == ()

    def test_non_integral_height_signals_corruption(self):
        with pytest.raises(AssertionError, match="not an integer"):
            height(point((1, 0), 2))


class TestBoxPoint:
    """The element view that perfbench still reads: ``from_scaled``,
    ``nums``, ``den``, ``len``, ``add``, ``neg`` and group iteration."""

    def test_reduction_and_coords(self):
        p = boxgroup.BoxPoint.from_scaled((0, 3, 9), 6)
        assert p.den == 2 and p.nums == (0, 1, 1) and len(p) == 3
        assert point(p.nums, p.den) == (frac(0), frac(1, 2), frac(1, 2))
        zero_point = boxgroup.BoxPoint.from_scaled((0, 6), 6)
        assert zero_point.den == 1 and zero_point.nums == (0, 0)

    @pytest.mark.parametrize(
        "nums, den", [((0, 2), 2), ((-1, 0), 2), ((), 0), ((0,), -1)],
        ids=["num-at-den", "negative-num", "zero-den", "negative-den"],
    )
    def test_numerators_outside_the_denominator_are_refused(self, nums, den):
        with pytest.raises(ValueError, match=r"numerators must lie in \[0, den\)"):
            boxgroup.BoxPoint(nums, den)

    def test_add_and_neg(self):
        from_scaled = boxgroup.BoxPoint.from_scaled
        a = from_scaled((0, 1, 1), 2)
        z = from_scaled((0, 0, 0), 1)
        assert boxgroup.add(a, z) == a
        assert boxgroup.add(a, a) == z
        assert boxgroup.neg(z) == z
        assert boxgroup.neg(a) == a
        b = from_scaled((0, 1, 2), 3)
        assert boxgroup.neg(b) == from_scaled((0, 2, 1), 3)

    def test_length_mismatch(self):
        from_scaled = boxgroup.BoxPoint.from_scaled
        with pytest.raises(DimensionMismatchError):
            boxgroup.add(from_scaled((0, 0), 1), from_scaled((0, 0, 0), 1))

    @pytest.mark.parametrize(
        "simplex", [unit_simplex(2), prop43_instance(3, 4), join(delta_cm(3, 2), delta_cm(1, 1))],
        ids=["unit", "explicit5", "join"],
    )
    def test_iteration_and_group_law_match_the_reference(self, simplex):
        group = enumerate_box_group(simplex)
        points = list(group)
        els = elements(group)

        def exact(p):
            return point(p.nums, p.den)

        assert [exact(p) for p in points] == list(els)
        for a, x in zip(points, els):
            assert exact(boxgroup.neg(a)) == neg(x)
            for b, y in zip(points, els):
                assert exact(boxgroup.add(a, b)) == add(x, y)


class TestEnumeration:
    def test_unit_simplices_trivial(self):
        for d in range(0, 5):
            g = enumerate_box_group(unit_simplex(d))
            assert g.order == 1
            assert elements(g) == (zero(d + 1),)

    def test_triangle_vol2(self):
        g = enumerate_box_group(TRI_VOL2)
        assert g.order == 2
        nonzero = elements(g)[1]
        assert nonzero == (frac(0), frac(1, 2), frac(1, 2))
        assert height(nonzero) == 1

    def test_explicit_5dim(self):
        g = enumerate_box_group(prop43_instance(3, 4))
        assert g.order == 9
        assert sorted(height(p) for p in elements(g)) == [0, 2, 2, 3, 3, 3, 3, 4, 4]
        assert g.level_counts() == {0: 1, 2: 2, 3: 4, 4: 2}

    def test_remark44_levels(self):
        g = enumerate_box_group(remark44_simplex(2))
        assert g.level_counts() == {0: 1, 2: 1, 4: 1}

    def test_delta_cm_heights_all_m(self):
        for c, m in [(1, 1), (2, 3), (3, 2), (5, 4)]:
            g = enumerate_box_group(delta_cm(c, m))
            assert g.order == c + 1
            assert all(height(p) == m for p in elements(g) if any(p))

    def test_elements_sorted_and_zero_first(self):
        g = enumerate_box_group(prop43_instance(3, 4))
        els = elements(g)
        assert els[0] == zero(len(g.column_map))
        keys = [(height(p), p) for p in els]
        assert keys == sorted(keys)

    def test_order_equals_volume(self):
        for s in (TRI_VOL2, prop43_instance(3, 4), delta_cm(4, 2), remark44_simplex(2)):
            assert enumerate_box_group(s).order == normalized_volume(s)

    def test_volume_cap(self):
        with pytest.raises(VolumeTooLargeError) as info:
            enumerate_box_group(delta_cm(100, 1), volume_cap=50)
        assert info.value.stage == "weight-group enumeration"
        assert str(info.value) == "weight-group enumeration: normalized volume 101 exceeds cap 50"
        with pytest.raises(VolumeTooLargeError) as info:
            enumerate_by_box_scan(delta_cm(100, 1), volume_cap=50)
        assert str(info.value) == "box scan: normalized volume 101 exceeds cap 50"

    def test_lower_dimensional_input_enumerates_its_model(self):
        segment = from_vertices(2, [(0, 0), (2, 0)])
        g = enumerate_box_group(segment)
        m = enumerate_box_group(restrict_to_affine_lattice(segment))
        assert g.invariant_factors == m.invariant_factors and g.order == 2
        assert g.column_map == m.column_map
        assert np.array_equal(g.rows(), m.rows()) and np.array_equal(g.heights, m.heights)
        assert g.rows().tolist() == [[0, 0], [1, 1]]
        assert hstar_from_box_group(g).coeffs == (1, 1)
        assert not hasattr(g, "simplex")

    def test_inverses_exhaustive(self):
        for p in elements(enumerate_box_group(prop43_instance(3, 4))):
            assert add(p, neg(p)) == zero(len(p))

    def test_scan_oracle_agreement(self):
        for s in (
            TRI_VOL2,
            prop43_instance(3, 4),
            delta_cm(3, 2),
            remark44_simplex(2),
            join(delta_cm(1, 1), delta_cm(2, 1)),
        ):
            assert scan_points(s) == elements(enumerate_box_group(s))


def huge_unimodular_image(simplex):
    """The simplex under two shears and a translation with 100+-digit
    entries. Unimodular maps keep barycentric weights, so the group's
    elements are unchanged."""
    big, other = 10**120 + 7, 3 * 10**105 + 1
    shift = [10**110 + i for i in range(simplex.ambient_dim)]
    verts = []
    for v in simplex.vertices:
        x = list(v)
        x[0] += big * x[1]
        x[1] += other * x[0]
        verts.append(tuple(a + t for a, t in zip(x, shift)))
    return from_vertices(simplex.ambient_dim, verts)


def reference_residues(simplex):
    """Residue rows by an explicit loop over the Smith residue tuples,
    sorted by (height, residues)."""
    factors, w = smith_normal_form(homogenize(simplex))
    k, q = len(factors), factors[-1]
    rows = set()
    for ys in product(*(range(d) for d in factors)):
        rows.add(tuple(
            sum(w[i][j] * (q // d) * y for j, (d, y) in enumerate(zip(factors, ys))) % q
            for i in range(k)
        ))
    return sorted(rows, key=lambda t: (sum(t) // q, t))


NON_CYCLIC = join(delta_cm(4, 3), delta_cm(4, 2))


def reference_enumeration(simplex):
    """The earlier enumeration, kept as the differential reference: the
    full (order, n+1) array, built one invariant factor at a time over every
    column, sorted by a lexsort with one key per column after the height."""
    factors, w = smith_normal_form(homogenize(simplex))
    k, q = len(factors), factors[-1]
    dtype = np.int64 if max(q * q + q, k * q) < boxgroup.INT64_LIMIT else object
    arr = np.zeros((1, k), dtype=dtype)
    for j, d in enumerate(factors):
        if d == 1:
            continue
        step = np.array([w[i][j] * (q // d) % q for i in range(k)], dtype=dtype)
        multiples = np.arange(d, dtype=dtype)[:, None] * step
        arr = ((arr[:, None, :] + multiples) % q).reshape(-1, k)
    heights = (arr.sum(axis=1) // q).astype(np.int64)
    perm = np.lexsort(tuple(arr[:, i] for i in reversed(range(k))) + (heights,))
    return arr[perm], heights[perm]


def assert_matches_reference(simplex):
    group = enumerate_box_group(simplex)
    # The enumeration keeps the distinct columns and stores nothing else.
    assert set(vars(group)) == {f.name for f in dataclasses.fields(group)}
    assert len(group.column_map) == simplex.n_vertices
    assert group.columns.shape == (max(group.column_map) + 1, group.order)
    residues, heights = reference_enumeration(simplex)
    assert group.heights.dtype == heights.dtype == np.int64
    assert group.heights.tolist() == heights.tolist()
    # A slice, a mask and an index array (out of order, with a repeat)
    # gather the rows the same selection takes from the reference.
    selections = [
        slice(None),
        slice(1, None, 2),
        np.arange(group.order) % 3 == 1,
        np.array([group.order - 1, 0, group.order - 1]),
    ]
    for select in selections:
        rows = group.rows(select)
        assert rows.dtype == residues.dtype
        assert rows.flags.c_contiguous
        assert rows.shape == residues[select].shape
        assert rows.tolist() == residues[select].tolist()
    return group


@pytest.fixture
def gathered(monkeypatch):
    """Every ``BoxGroup.rows`` call, as (group, number of rows gathered)."""
    calls = []
    real = BoxGroup.rows

    def spy(group, select=slice(None)):
        rows = real(group, select)
        calls.append((group, len(rows)))
        return rows

    monkeypatch.setattr(BoxGroup, "rows", spy)
    return calls


def sorts_of(simplex):
    """The group, and the sorts its enumeration ran: ("argsort", 1) or
    ("lexsort", number of keys)."""
    calls = []
    lexsort, argsort = np.lexsort, np.argsort

    def lex_spy(keys):
        calls.append(("lexsort", len(keys)))
        return lexsort(keys)

    def arg_spy(key):
        calls.append(("argsort", 1))
        return argsort(key)

    with mock.patch.object(np, "lexsort", lex_spy), mock.patch.object(np, "argsort", arg_spy):
        group = enumerate_box_group(simplex)
    return group, calls


class TestArrayRepresentation:
    def test_non_cyclic_fixture(self):
        factors = enumerate_box_group(NON_CYCLIC).invariant_factors
        assert sum(1 for d in factors if d > 1) >= 2

    @pytest.mark.parametrize(
        "simplex",
        [TRI_VOL2, prop43_instance(3, 4), delta_cm(6, 3), remark44_simplex(2), NON_CYCLIC],
        ids=["tri", "explicit5", "d63", "r44k2", "join"],
    )
    def test_residues_match_reference_loop(self, simplex):
        g = enumerate_box_group(simplex)
        q = g.exponent
        assert g.rows().tolist() == [list(t) for t in reference_residues(simplex)]
        assert g.heights.tolist() == [sum(r) // q for r in g.rows().tolist()]

    @pytest.mark.parametrize(
        "simplex",
        [delta_cm(50, 3), NON_CYCLIC, huge_unimodular_image(prop43_instance(3, 4))],
        ids=["delta_cm", "join", "huge-image"],
    )
    def test_object_path_matches_int64_path(self, simplex, monkeypatch):
        fast, fast_sorts = sorts_of(simplex)
        assert fast.rows().dtype == np.int64 and fast_sorts == [("argsort", 1)]
        monkeypatch.setattr(boxgroup, "INT64_LIMIT", 0)
        exact, exact_sorts = sorts_of(simplex)
        assert exact.rows().dtype == object
        # No digit is packed: the height shares a key with column 0 only,
        # and the last distinct column, which the others fix, gets none, so
        # there is one key per distinct column but the last.
        keys = len(set(map(tuple, fast.rows().T.tolist()))) - 1
        assert exact_sorts == [("argsort", 1) if keys == 1 else ("lexsort", keys)]
        assert_matches_reference(simplex)
        assert exact.rows().tolist() == fast.rows().tolist()
        assert exact.heights.tolist() == fast.heights.tolist()
        assert elements(exact) == elements(fast)
        assert hstar_from_box_group(exact) == hstar_from_box_group(fast)

    def test_huge_image_keeps_the_elements(self):
        base = prop43_instance(3, 4)
        assert elements(enumerate_box_group(huge_unimodular_image(base))) == (
            elements(enumerate_box_group(base))
        )

    def test_hstar_builds_no_points(self, gathered):
        g = enumerate_box_group(delta_cm(99999, 3))
        assert hstar_from_box_group(g).coeffs == (1, 0, 0, 99999)
        # h* is a count over the heights: no row is gathered.
        assert gathered == [] and not hasattr(g, "elements")

    @pytest.mark.parametrize(
        "simplex",
        [delta_cm(99999, 3), join(delta_cm(299, 3), delta_cm(299, 4)), unit_simplex(3)],
        ids=["cyclic-1e5", "z300-squared", "unit"],
    )
    def test_hstar_and_zero_leave_the_rows_unbuilt(self, simplex, gathered):
        g = enumerate_box_group(simplex)
        h = hstar_from_box_group(g)
        assert list(h.coeffs) == [g.level_counts().get(i, 0) for i in range(h.degree + 1)]
        # The zero element sorts first, and its column of the table is zero.
        assert g.heights[0] == 0 and not g.columns[:, 0].any()
        assert gathered == []

    def test_extract_face_never_widens_its_face_group(self, monkeypatch, gathered):
        groups = []
        real = theorem.enumerate_box_group

        def spy(simplex, **kwargs):
            groups.append(real(simplex, **kwargs))
            return groups[-1]

        monkeypatch.setattr(theorem, "enumerate_box_group", spy)
        # The second input is at the volume cap, |L'| = 1000 of 10^6 rows,
        # and its window fails: h*_4 counts 999 elements.
        at_cap = join(delta_cm(999, 3), delta_cm(999, 4))
        for simplex, window in ((join(delta_cm(3, 3), delta_cm(2, 7)), True), (at_cap, False)):
            groups.clear()
            gathered.clear()
            cert = theorem.extract_face(simplex, k=3)
            assert cert.hypothesis_met == window and cert.hstar_match and len(groups) == 2
            group, face_group = groups
            # The lemmas gather L' once from the input group, and nothing else.
            assert len(gathered) == 1 and gathered[0][0] is group
            assert gathered[0][1] == len(cert.lambda_prime) == int((group.heights <= 3).sum())
            assert cert.face_hstar == hstar_from_box_group(face_group)

    def test_rows_are_gathered_not_stored(self):
        # The columns are the one representation, and no `residues` is
        # left for old code to read a stale or full-width array from.
        g = enumerate_box_group(NON_CYCLIC)
        assert not hasattr(BoxGroup, "residues")
        with pytest.raises(AttributeError):
            g.residues

    @pytest.mark.parametrize(
        "simplex",
        [prop43_instance(3, 4), remark44_simplex(3), NON_CYCLIC, join(delta_cm(2, 3), unit_simplex(0))],
        ids=["explicit5", "r44k3", "join", "join-point"],
    )
    def test_low_subgroup_matches_element_filter(self, simplex):
        g = enumerate_box_group(simplex)
        els = elements(g)
        for k in range(1, 7):
            low = [p for p in els if height(p) <= k]
            assert g.rows(g.heights <= k).tolist() == as_rows(low, g.exponent)

    def test_level_counts_are_python_ints(self):
        for s in (prop43_instance(3, 4), NON_CYCLIC):
            counts = enumerate_box_group(s).level_counts()
            assert all(type(h) is int and type(c) is int for h, c in counts.items())

    def test_arrays_are_read_only(self):
        g = enumerate_box_group(TRI_VOL2)
        with pytest.raises(ValueError):
            g.columns[0, 0] = 1
        with pytest.raises(ValueError):
            g.heights[0] = 1
        # Each read gathers a fresh array: writing into one changes no other.
        before = g.rows().tolist()
        for select in (slice(None), slice(0, 1), g.heights <= 1):
            g.rows(select)[...] = 1
        assert g.rows().tolist() == before


class TestGroupLaws:
    @pytest.mark.parametrize(
        "simplex",
        [TRI_VOL2, prop43_instance(3, 4), delta_cm(4, 2), remark44_simplex(2)],
        ids=["tri", "explicit5", "d42", "r44k2"],
    )
    def test_axioms_exhaustive(self, simplex):
        g = enumerate_box_group(simplex)
        els = elements(g)
        members = set(els)
        assert zero(len(g.column_map)) in members
        for a in els:
            assert neg(a) in members
            for b in els:
                assert add(a, b) in members
        sample = els[: min(5, len(els))]
        for a in sample:
            for b in sample:
                assert add(a, b) == add(b, a)
                for c in sample:
                    assert add(add(a, b), c) == add(a, add(b, c))

    @pytest.mark.parametrize(
        "simplex",
        [prop43_instance(3, 4), delta_cm(6, 2), remark44_simplex(2)],
        ids=["explicit5", "d62", "r44k2"],
    )
    def test_support_height_identity(self, simplex):
        for p in elements(enumerate_box_group(simplex)):
            assert len(support(p)) == height(p) + height(neg(p))

    @pytest.mark.parametrize(
        "simplex",
        [prop43_instance(3, 4), delta_cm(5, 3)],
        ids=["explicit5", "d53"],
    )
    def test_height_subadditive_and_step_bound(self, simplex):
        els = elements(enumerate_box_group(simplex))
        for a in els:
            for b in els:
                assert height(add(a, b)) <= height(a) + height(b)
            prev = a
            while any(a):
                cur = add(prev, a)
                assert height(cur) <= height(prev) + height(a)
                if not any(cur):
                    break
                prev = cur

    def test_face_groups_are_supported_subsets(self):
        for s in (prop43_instance(3, 4), remark44_simplex(2)):
            els = elements(enumerate_box_group(s))
            for sel, face_simplex in all_faces(s):
                got = set(elements(enumerate_box_group(face_simplex)))
                want = {
                    tuple(p[i] for i in sel)
                    for p in els
                    if set(support(p)) <= set(sel)
                }
                assert got == want


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-4, 4), min_size=d, max_size=d),
            min_size=d + 1,
            max_size=d + 1,
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_random_simplices_group_matches_volume_and_scan(verts):
    dim = len(verts[0])
    try:
        s = from_vertices(dim, verts)
    except Exception:
        return
    vol = normalized_volume(s)
    if vol > 60:
        return
    g = enumerate_box_group(s)
    assert g.order == vol
    els = elements(g)
    assert len(els) == vol
    assert scan_points(s, volume_cap=60) == els
    for p in els:
        assert len(support(p)) == height(p) + height(neg(p))


def reference_box_scan(simplex, volume_cap=200):
    """The earlier enumeration, kept as the differential reference: scan
    every lattice point of the bounding box of the homogenized vertex
    matrix and keep those whose weights adj(M) x / |det M| lie in [0, 1)."""
    matrix = homogenize(simplex)
    adj, det_m = linalg.adjugate(matrix)
    volume = abs(det_m)
    if volume > volume_cap:
        raise VolumeTooLargeError(volume, volume_cap, "box scan")
    k = len(matrix)
    sign = 1 if det_m > 0 else -1
    rows = [[sign * adj[i][j] for j in range(k)] for i in range(k)]
    los = []
    his = []
    for i in range(k):
        row = matrix[i]
        los.append(sum(min(x, 0) for x in row))
        his.append(sum(max(x, 0) for x in row))
    found = []
    lattice_point = [0] * k

    def scan(axis: int) -> None:
        if axis == k:
            # weight_i = (rows[i] . lattice_point) / volume must lie in [0, 1)
            nums = []
            for i in range(k):
                w = sum(rows[i][j] * lattice_point[j] for j in range(k))
                if w < 0 or w >= volume:
                    return
                nums.append(w)
            found.append(point(nums, volume))
            return
        for val in range(los[axis], his[axis] + 1):
            lattice_point[axis] = val
            scan(axis + 1)

    scan(0)
    return tuple(sorted(found, key=lambda p: (height(p), p)))


# Coordinate bounds per dimension that keep the reference's box below 20,000
# points.
_COORDS = {1: 12, 2: 6, 3: 3, 4: 1}


@st.composite
def full_dimensional_simplices(draw):
    d = draw(st.integers(1, 4))
    b = _COORDS[d]
    verts = draw(st.lists(
        st.lists(st.integers(-b, b), min_size=d, max_size=d), min_size=d + 1, max_size=d + 1
    ))
    try:
        s = from_vertices(d, verts)
    except Exception:
        assume(False)
    assume(normalized_volume(s) <= 200)
    return s


@st.composite
def lower_dimensional_simplices(draw):
    ambient = draw(st.integers(1, 4))
    n = draw(st.integers(0, min(ambient - 1, 2)))
    verts = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=ambient, max_size=ambient),
        min_size=n + 1, max_size=n + 1,
    ))
    try:
        s = from_vertices(ambient, verts)
    except Exception:
        assume(False)
    assume(normalized_volume(s) <= 200)
    return s


# The join of segments of lengths 2 and 3: q = 6, and the elements of
# order 2 and 3 have coordinates over 2 and 3.
JOIN_SEG2_SEG3 = from_vertices(3, [(0, 0, 0), (0, 2, 0), (1, 0, 0), (1, 0, 3)])


def test_join_seg2_seg3_has_denominators_below_q():
    g = enumerate_box_group(JOIN_SEG2_SEG3)
    dens = {lcm(*(x.denominator for x in p)) for p in elements(g)}
    assert g.exponent == 6 and dens == {1, 2, 3, 6}


@given(st.one_of(full_dimensional_simplices(), lower_dimensional_simplices()), st.integers(1, 4))
@example(JOIN_SEG2_SEG3, 1)
@example(JOIN_SEG2_SEG3, 3)
@settings(max_examples=80, deadline=None)
def test_cli_coordinates_match_the_elements(s, k):
    # box-group prints every row of the group and extract-face every row of
    # L'; each must read as the reduced coordinates of its element.
    group = enumerate_box_group(s)
    els = elements(group)
    printed = [cli._coords_strings(r, group.exponent) for r in group.rows().tolist()]
    assert printed == [[str(c) for c in p] for p in els]
    cert = theorem.extract_face(s, k)
    printed = [cli._coords_strings(r, cert.exponent) for r in cert.lambda_prime.tolist()]
    assert printed == [[str(c) for c in p] for p in els if height(p) <= k]


class TestBoxScan:
    @given(full_dimensional_simplices())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_in_both_orientations(self, s):
        swapped = LatticeSimplex(s.ambient_dim, (s.vertices[1], s.vertices[0]) + s.vertices[2:])
        for simplex in (s, swapped):
            got, volume = enumerate_by_box_scan(simplex)
            assert got.tolist() == as_rows(reference_box_scan(simplex), volume)
            g = enumerate_box_group(simplex)
            assert np.array_equal(got * g.exponent, g.rows() * volume)

    @given(lower_dimensional_simplices())
    @settings(max_examples=60, deadline=None)
    def test_lower_dimensional_input_scans_its_model(self, s):
        got, volume = enumerate_by_box_scan(s)
        assert got.tolist() == as_rows(reference_box_scan(restrict_to_affine_lattice(s)), volume)

    def test_point_and_corpus_shapes(self):
        rows, volume = enumerate_by_box_scan(from_vertices(3, [(5, -1, 2)]))
        assert rows.tolist() == [[0]] and volume == 1
        for s in (prop43_instance(3, 4), NON_CYCLIC, huge_unimodular_image(prop43_instance(3, 4))):
            assert scan_points(s) == elements(enumerate_box_group(s))

    def test_rows_are_read_only_over_the_volume(self):
        s = prop43_instance(3, 4)
        rows, volume = enumerate_by_box_scan(s)
        assert volume == normalized_volume(s) and rows.shape == (volume, 6)
        assert not rows.flags.writeable
        assert ((rows >= 0) & (rows < volume)).all()
        assert not (rows.sum(axis=1) % volume).any()

    def test_cap_is_checked_before_anything_is_allocated(self, monkeypatch):
        calls = []
        adjugate, indices = linalg.adjugate, np.indices

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(linalg, "adjugate", spy("adjugate", adjugate))
        monkeypatch.setattr(np, "indices", spy("indices", indices))
        with pytest.raises(VolumeTooLargeError) as info:
            enumerate_by_box_scan(delta_cm(10**5, 1), volume_cap=200)
        assert str(info.value) == "box scan: normalized volume 100001 exceeds cap 200"
        assert calls == []
        enumerate_by_box_scan(delta_cm(10, 1), volume_cap=200)
        assert calls == ["adjugate", "indices"]

    @pytest.mark.parametrize(
        "simplex",
        [delta_cm(50, 3), NON_CYCLIC, huge_unimodular_image(prop43_instance(3, 4))],
        ids=["delta_cm", "join", "huge-image"],
    )
    def test_object_path_matches_int64_path(self, simplex, monkeypatch):
        dtypes = []
        lexsort = np.lexsort

        def spy(keys):
            dtypes.append(keys[0].dtype)
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", spy)
        fast, volume = enumerate_by_box_scan(simplex)
        monkeypatch.setattr(boxgroup, "INT64_LIMIT", 0)
        exact, exact_volume = enumerate_by_box_scan(simplex)
        assert dtypes == [np.int64, object]
        assert exact.dtype == object and exact_volume == volume
        assert exact.tolist() == fast.tolist()
        assert fast.tolist() == as_rows(elements(enumerate_box_group(simplex)), volume)


class TestDistinctColumnEnumeration:
    """The enumeration on distinct columns against the full-width reference."""

    @given(full_dimensional_simplices())
    @settings(max_examples=120, deadline=None)
    def test_random_simplices(self, s):
        assert_matches_reference(s)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_vertex_relabellings(self, data):
        s = data.draw(full_dimensional_simplices())
        order = data.draw(st.permutations(range(s.n_vertices)))
        relabelled = LatticeSimplex(s.ambient_dim, tuple(s.vertices[i] for i in order))
        group = assert_matches_reference(relabelled)
        # Relabelling permutes the columns of the same group.
        back = np.argsort(order)
        base = enumerate_box_group(s)
        assert sorted(map(tuple, group.rows()[:, back].tolist())) == sorted(
            map(tuple, base.rows().tolist())
        )

    @given(full_dimensional_simplices(), st.integers(0, 3), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_joins_with_unit_simplices(self, s, u, unit_first):
        simplex = join(unit_simplex(u), s) if unit_first else join(s, unit_simplex(u))
        group = assert_matches_reference(simplex)
        # The unit simplex's u + 1 vertices carry weight 0 in every element:
        # a repeated zero column.
        assert sum(not col.any() for col in group.rows().T) >= u + 1

    @pytest.mark.parametrize(
        "simplex",
        [delta_cm(99999, 3), join(delta_cm(299, 3), delta_cm(299, 4))],
        ids=["cyclic-1e5", "z300-squared"],
    )
    def test_bulk_inputs_sort_on_one_key(self, simplex):
        assert_matches_reference(simplex)
        _, sorts = sorts_of(simplex)
        assert sorts == [("argsort", 1)]

    def test_many_columns_of_a_large_order_need_two_keys(self):
        # Five distinct columns over q = 99991: the height and three columns
        # stay below 5 * q**3 < INT64_LIMIT, a fourth would pass it and takes
        # a second key; the fifth, which the others fix, takes none.
        q = 99991
        simplex = realize_cyclic_group((1, 2, 3, 5, q - 11), q)
        group, sorts = sorts_of(simplex)
        assert sorts == [("lexsort", 2)]
        assert group.order == q and group.rows().dtype == np.int64
        assert_matches_reference(simplex)
