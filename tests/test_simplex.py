import re
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hstarkit import linalg
from hstarkit.errors import (
    DimensionMismatchError,
    NotASimplexError,
    TooManyFacesError,
)
from hstarkit.families import prop43_instance, remark44_simplex, unit_simplex
from hstarkit.simplex import (
    LatticeSimplex,
    all_faces,
    face,
    from_vertices,
    homogenize,
    normalized_volume,
    restrict_to_affine_lattice,
)
from hstarkit.theorem import extract_face


def small_simplices(dim_max=3, coord=4):
    """Random full-dimensional simplices with small coordinates."""

    def build(draw_dim):
        dim, flat = draw_dim
        verts = [tuple(flat[i * dim : (i + 1) * dim]) for i in range(dim + 1)]
        return dim, verts

    return (
        st.integers(1, dim_max)
        .flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(
                    st.integers(-coord, coord),
                    min_size=d * (d + 1),
                    max_size=d * (d + 1),
                ),
            )
        )
        .map(build)
    )


def minor_gcd(s) -> int:
    """Normalized volume by Cauchy-Binet: the gcd of the n x n minors of the
    edge matrix [v_i - v_0], which is the index of the edge lattice in the
    lattice points of its span."""
    base = s.vertices[0]
    edges = [[a - b for a, b in zip(v, base)] for v in s.vertices[1:]]
    g = 0
    for cols in combinations(range(s.ambient_dim), s.dimension):
        g = gcd(g, linalg.det([[e[c] for c in cols] for e in edges]))
    return g


class TestConstruction:
    def test_unit_triangle(self):
        s = from_vertices(2, [(0, 0), (1, 0), (0, 1)])
        assert s.dimension == 2 and s.is_full_dimensional

    def test_explicit_5dim(self):
        s = prop43_instance(3, 4)
        assert s.vertices[-1] == (1, 4, 7, 8, 9)
        assert s.dimension == 5

    def test_collinear_rejected(self):
        with pytest.raises(NotASimplexError):
            from_vertices(2, [(0, 0), (1, 1), (2, 2)])

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionMismatchError):
            from_vertices(3, [(0, 0), (1, 0)])

    def test_too_many_vertices_rejected(self):
        with pytest.raises(NotASimplexError):
            from_vertices(1, [(0,), (1,), (2,)])

    def test_empty_rejected(self):
        with pytest.raises(NotASimplexError):
            from_vertices(2, [])

    @pytest.mark.parametrize("dim, verts", [
        (2, [(0, 0), (1.7, 0), (0, 1)]),
        (2, [(0, 0), (1.0, 0), (0, 1)]),
        (1, [("0",), (" 3 ",)]),
    ], ids=["float", "integral-float", "string"])
    def test_non_integer_entry_is_refused_not_truncated(self, dim, verts):
        with pytest.raises(TypeError):
            from_vertices(dim, verts)

    def test_numpy_integers_are_read_as_ints(self):
        s = from_vertices(2, list(np.array([[0, 0], [1, 0], [0, 2]], dtype=np.int64)))
        assert s.vertices == ((0, 0), (1, 0), (0, 2))
        assert all(type(x) is int for v in s.vertices for x in v)

    def test_numpy_vertex_array_is_read(self):
        s = from_vertices(2, np.array([[0, 0], [1, 0], [0, 1]]))
        assert s == from_vertices(2, [(0, 0), (1, 0), (0, 1)])
        assert all(type(x) is int for v in s.vertices for x in v)

    def test_empty_numpy_vertex_array_rejected(self):
        with pytest.raises(NotASimplexError, match="^empty vertex list$"):
            from_vertices(2, np.zeros((0, 2), dtype=np.int64))


class TestHomogenize:
    @pytest.mark.parametrize(
        "verts,expected",
        [
            ([(0, 0), (1, 0), (0, 1)], 1),
            ([(0, 0), (1, 0), (1, 2)], 2),
        ],
    )
    def test_small_volumes(self, verts, expected):
        assert abs(linalg.det(homogenize(from_vertices(2, verts)))) == expected

    def test_explicit_simplex_volume(self):
        assert abs(linalg.det(homogenize(prop43_instance(3, 4)))) == 9

    def test_last_row_is_ones(self):
        m = homogenize(unit_simplex(3))
        assert m[-1] == (1, 1, 1, 1)

    def test_lower_dimensional_rejected(self):
        seg = from_vertices(2, [(0, 0), (2, 0)])
        with pytest.raises(DimensionMismatchError):
            homogenize(seg)


class TestRestrict:
    def test_full_dimensional_unit_triangle(self):
        s = from_vertices(2, [(3, 4), (4, 4), (3, 5)])
        r = restrict_to_affine_lattice(s)
        assert r.vertices == ((0, 0), (1, 0), (0, 1))

    def test_full_dimensional_gets_hermite_coordinates(self):
        # Edge columns (2, 1) and (1, 3) become the lower-triangular
        # columns (5, 2) and (0, 1); the same triangle in a plane of Z^3
        # gets the same model.
        tri = from_vertices(2, [(0, 0), (2, 1), (1, 3)])
        r = restrict_to_affine_lattice(tri)
        assert r.vertices == ((0, 0), (5, 2), (0, 1))
        lifted = from_vertices(3, [(1, 1, 1), (3, 2, 1), (2, 4, 1)])
        assert restrict_to_affine_lattice(lifted) == r
        assert normalized_volume(tri) == 5

    def test_dependent_vertices_rejected(self):
        collinear = LatticeSimplex(2, ((0, 0), (1, 1), (2, 2)))
        with pytest.raises(NotASimplexError):
            restrict_to_affine_lattice(collinear)
        with pytest.raises(NotASimplexError):
            normalized_volume(collinear)
        with pytest.raises(NotASimplexError):
            restrict_to_affine_lattice(LatticeSimplex(3, ((0, 0, 0), (1, 2, 3), (2, 4, 6))))

    def test_segment_in_plane(self):
        seg = from_vertices(2, [(0, 0), (2, 0)])
        r = restrict_to_affine_lattice(seg)
        assert r.ambient_dim == 1
        assert r.vertices == ((0,), (2,))

    def test_edge_of_explicit_simplex_is_primitive(self):
        s = prop43_instance(3, 4)
        edge = from_vertices(5, [s.vertices[1], s.vertices[5]])
        r = restrict_to_affine_lattice(edge)
        diff = tuple(a - b for a, b in zip(s.vertices[5], s.vertices[1]))
        assert normalized_volume(r) == gcd(*diff)

    def test_single_vertex(self):
        r = restrict_to_affine_lattice(from_vertices(3, [(5, 6, 7)]))
        assert r.ambient_dim == 0 and r.vertices == ((),)

    def test_skew_plane_volume_preserved(self):
        tri = from_vertices(3, [(0, 0, 0), (1, 2, 2), (2, 1, 0)])
        r = restrict_to_affine_lattice(tri)
        assert r.is_full_dimensional
        assert normalized_volume(r) == normalized_volume(tri)
        assert normalized_volume(tri) == minor_gcd(tri)

    @given(small_simplices())
    @settings(max_examples=50, deadline=None)
    def test_volume_preserved_on_faces(self, data):
        dim, verts = data
        try:
            s = from_vertices(dim, verts)
        except NotASimplexError:
            return
        sub = from_vertices(dim, list(s.vertices[:dim]))
        r = restrict_to_affine_lattice(sub)
        assert r.is_full_dimensional
        assert normalized_volume(r) == normalized_volume(sub)
        assert normalized_volume(sub) == minor_gcd(sub)


@st.composite
def edge_simplices(draw):
    """A base vertex plus the columns of a random N x n edge matrix; with
    some probability its last column is a multiple of the first, which
    makes the vertices dependent."""
    big_d = draw(st.integers(1, 5))
    n = draw(st.integers(0, big_d))
    entries = st.integers(-4, 4)
    column = st.lists(entries, min_size=big_d, max_size=big_d)
    cols = draw(st.lists(column, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        c = draw(st.integers(-2, 2))
        cols[-1] = [c * x for x in cols[0]]
    base = draw(column)
    verts = (tuple(base),) + tuple(tuple(b + x for b, x in zip(base, col)) for col in cols)
    edges = [list(row) for row in zip(*cols)] if n else [[]] * big_d
    return LatticeSimplex(big_d, verts), edges


class TestRestrictIsTheHermiteForm:
    @given(edge_simplices())
    @settings(max_examples=200, deadline=None)
    def test_model_is_the_last_rows_of_the_hermite_form(self, case):
        s, edges = case
        n, big_d = s.dimension, s.ambient_dim
        if linalg.rank(edges) < n:
            with pytest.raises(NotASimplexError):
                restrict_to_affine_lattice(s)
            return
        h, _ = linalg.hermite_normal_form(edges)
        model = restrict_to_affine_lattice(s)
        tri = [[v[i] for v in model.vertices[1:]] for i in range(n)]
        assert tri == h[big_d - n :]
        assert model.vertices[0] == (0,) * n

    def test_no_transform_is_built(self, monkeypatch):
        widths = []
        hermite_rows = linalg.hermite_rows

        def spy(rows, n):
            widths.extend((len(row), n) for row in rows)
            return hermite_rows(rows, n)

        def refuse(*args):
            raise AssertionError("hermite_normal_form called")

        monkeypatch.setattr(linalg, "hermite_rows", spy)
        monkeypatch.setattr(linalg, "hermite_normal_form", refuse)
        cases = [
            prop43_instance(3, 4),
            remark44_simplex(3),
            from_vertices(3, [(0, 0, 0), (1, 2, 2), (2, 1, 0)]),
            from_vertices(3, [(5, 6, 7)]),
        ]
        for s in cases:
            restrict_to_affine_lattice(s)
            for _, f in all_faces(s):
                normalized_volume(f)
        assert widths and all(width == n for width, n in widths)
        assert {0, 1, 2, 3, 5, 8} <= {n for _, n in widths}


class TestFaces:
    def test_full_selector_is_restriction(self):
        s = from_vertices(2, [(1, 1), (2, 1), (1, 3)])
        assert face(s, range(3)) == restrict_to_affine_lattice(s)

    def test_index_order_does_not_matter(self):
        # An unsorted selector once reordered the vertices: its model was
        # ((0, 0), (3, 2), (0, 2)) instead of ((0, 0), (6, 3), (0, 1)).
        s = from_vertices(2, [(0, 0), (3, 0), (1, 2)])
        assert face(s, (2, 0, 1)) == face(s, (0, 1, 2))
        assert face(s, (2, 0)) == face(s, (0, 2))

    def test_single_vertex_face(self):
        s = unit_simplex(3)
        f = face(s, [2])
        assert f.dimension == 0

    def test_counts(self):
        assert sum(1 for _ in all_faces(unit_simplex(2))) == 7
        assert sum(1 for _ in all_faces(prop43_instance(3, 4))) == 63
        assert sum(1 for _ in all_faces(remark44_simplex(3))) == 511

    def test_order_by_size_then_lex(self):
        sels = [sel for sel, _ in all_faces(unit_simplex(2))]
        assert sels == [
            (0,), (1,), (2,),
            (0, 1), (0, 2), (1, 2),
            (0, 1, 2),
        ]

    def test_face_of_face_composes(self):
        s = prop43_instance(3, 4)
        outer = (0, 2, 3, 5)
        inner = (0, 1, 3)
        composed = [outer[i] for i in inner]
        assert face(face(s, outer), inner) == face(s, composed)

    def test_selector_validation(self):
        for indices, message in [
            ([], "face selector must be nonempty"),
            ([0, 3], "face selector index out of range 0..2"),
            ([-1, 0], "face selector index out of range 0..2"),
            ([1, 1], "face selector indices must be distinct"),
        ]:
            with pytest.raises(IndexError, match=f"^{re.escape(message)}$"):
                face(unit_simplex(2), indices)

    def test_face_blowup_guard(self):
        with pytest.raises(TooManyFacesError, match="^17 vertices would give 2"):
            next(all_faces(unit_simplex(16)))


def _unimodular_images():
    """(simplex, image): a random simplex of dimension <= 4 in Z^N, N <= 6,
    and its image under x -> A x + t, where A = L U is a product of unit
    lower and unit upper triangular matrices with 100-digit entries."""
    big = st.builds(lambda x, sign: sign * x, st.integers(10**100, 10**101), st.sampled_from((1, -1)))

    @st.composite
    def build(draw):
        big_d = draw(st.integers(1, 6))
        n = draw(st.integers(0, min(4, big_d)))
        verts = draw(
            st.lists(
                st.tuples(*[st.integers(-4, 4)] * big_d), min_size=n + 1, max_size=n + 1
            )
        )
        try:
            s = from_vertices(big_d, verts)
        except NotASimplexError:
            assume(False)
        lower = [[draw(big) if i > j else int(i == j) for j in range(big_d)] for i in range(big_d)]
        upper = [[draw(big) if i < j else int(i == j) for j in range(big_d)] for i in range(big_d)]
        a = np.array(lower, dtype=object) @ np.array(upper, dtype=object)
        shift = [draw(big) for _ in range(big_d)]
        images = a @ np.array(s.vertices, dtype=object).T
        image = from_vertices(big_d, [[x + t for x, t in zip(col, shift)] for col in images.T])
        return s, image

    return build()


def _faces_until_dependent(faces) -> list:
    """The (indices, model) pairs that ``faces`` yields, then "dependent"
    if it stops on NotASimplexError."""
    out = []
    try:
        out.extend(faces)
    except NotASimplexError:
        out.append("dependent")
    return out


def _face_by_face(s: LatticeSimplex):
    """The reference for ``all_faces``: one elimination per face."""
    for size in range(1, s.n_vertices + 1):
        for combo in combinations(range(s.n_vertices), size):
            yield combo, face(s, combo)


def _is_hermite_model(f: LatticeSimplex) -> bool:
    """The origin and the columns of a lower-triangular H with positive
    diagonal, each column reduced to [0, H_tt) below its pivot."""
    n = f.dimension
    h = [[v[i] for v in f.vertices[1:]] for i in range(n)]
    return f.vertices[0] == (0,) * n and all(
        h[t][t] > 0
        and not any(h[i][t] for i in range(t))
        and all(0 <= h[i][t] < h[t][t] for i in range(t + 1, n))
        for t in range(n)
    )


class TestFaceSweep:
    """``all_faces`` takes one Hermite column step per face from its
    parent's state; ``face`` runs each face's elimination on its own. Both
    must give the same faces, in the same order, and stop at the same
    affinely dependent face. The models' Hermite shape is checked apart,
    since the two share ``linalg.hermite_column``."""

    @given(edge_simplices())
    @example((LatticeSimplex(3, ((5, 6, 7),)), [[]] * 3))
    @example((LatticeSimplex(2, ((1, 1), (3, -1))), [[2], [-2]]))
    @example((LatticeSimplex(1, ((0,), (0,))), [[0]]))
    @settings(max_examples=200, deadline=None)
    def test_sweep_matches_face_by_face(self, case):
        s, _ = case
        got = _faces_until_dependent(all_faces(s))
        assert got == _faces_until_dependent(_face_by_face(s))
        assert all(_is_hermite_model(item[1]) for item in got if item != "dependent")

    @given(_unimodular_images())
    @settings(max_examples=40, deadline=None)
    def test_sweep_matches_face_by_face_on_huge_coordinates(self, pair):
        _, image = pair
        got = list(all_faces(image))
        assert got == list(_face_by_face(image))
        assert all(_is_hermite_model(f) for _, f in got)

    def test_sixteen_vertices_are_allowed(self):
        assert next(all_faces(unit_simplex(15))) == ((0,), LatticeSimplex(0, ((),)))


class TestCanonicalModel:
    """The Hermite form is unique for a lattice, so the model of a simplex
    does not depend on how the simplex is embedded."""

    @given(_unimodular_images())
    @settings(max_examples=60, deadline=None)
    def test_unimodular_image_has_the_same_faces_and_certificates(self, pair):
        s, image = pair
        for (_, f), (_, f_image) in zip(all_faces(s), all_faces(image)):
            assert f_image == f
        for k in (1, 2, 3):
            cert = extract_face(s, k)
            assert extract_face(image, k) == cert
        assert cert.hstar.normalized_volume == normalized_volume(s) == normalized_volume(image)
