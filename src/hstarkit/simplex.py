"""Lattice simplices: validated vertex lists, homogenization, faces, and
reduction of lower-dimensional simplices to full-dimensional coordinates.

Vertex order is significant throughout: fractional-weight tuples downstream
are indexed by vertex position, so every operation here preserves the order
in which vertices were given.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from . import linalg
from .errors import (
    DimensionMismatchError,
    NotASimplexError,
    TooManyFacesError,
)

MAX_FACE_VERTICES = 24


@dataclass(frozen=True)
class LatticeSimplex:
    """Simplex with integer vertices, possibly lower-dimensional in its
    ambient space. ``dimension`` is the number of vertices minus one."""

    ambient_dim: int
    vertices: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def is_full_dimensional(self) -> bool:
        return self.dimension == self.ambient_dim


@dataclass(frozen=True)
class FaceSelector:
    """Nonempty set of vertex indices (0-based, stored sorted)."""

    indices: tuple[int, ...]

    @classmethod
    def of(cls, indices: Iterable[int], n_vertices: int) -> "FaceSelector":
        idx = tuple(sorted(int(i) for i in indices))
        if not idx:
            raise IndexError("face selector must be nonempty")
        if len(set(idx)) != len(idx):
            raise IndexError("face selector indices must be distinct")
        if idx[0] < 0 or idx[-1] >= n_vertices:
            raise IndexError(f"face selector index out of range 0..{n_vertices - 1}")
        return cls(idx)


def from_vertices(ambient_dim: int, vertex_list: Sequence[Sequence[int]]) -> LatticeSimplex:
    """Validate and build a simplex; rejects affinely dependent vertex lists."""
    if not vertex_list:
        raise NotASimplexError("empty vertex list")
    verts = tuple(tuple(int(x) for x in v) for v in vertex_list)
    for v in verts:
        if len(v) != ambient_dim:
            raise DimensionMismatchError(
                f"vertex {v} does not live in ambient dimension {ambient_dim}"
            )
    n = len(verts) - 1
    if n > ambient_dim:
        raise NotASimplexError("more vertices than an independent set allows")
    if n > 0:
        diffs = linalg.IntMatrix.from_rows(
            [tuple(a - b for a, b in zip(verts[i], verts[0])) for i in range(1, n + 1)],
            ncols=ambient_dim,
        )
        if linalg.rank(diffs) != n:
            raise NotASimplexError("vertices are affinely dependent")
    return LatticeSimplex(ambient_dim, verts)


def homogenize(simplex: LatticeSimplex) -> linalg.IntMatrix:
    """Square matrix whose columns are the vertices extended by a final 1.

    Requires a full-dimensional simplex; the absolute determinant equals the
    normalized volume.
    """
    if not simplex.is_full_dimensional:
        raise DimensionMismatchError("homogenize requires a full-dimensional simplex")
    d = simplex.ambient_dim
    rows = [tuple(v[i] for v in simplex.vertices) for i in range(d)]
    rows.append(tuple(1 for _ in simplex.vertices))
    return linalg.IntMatrix.from_rows(rows, ncols=d + 1)


def restrict_to_affine_lattice(simplex: LatticeSimplex) -> LatticeSimplex:
    """Rewrite a simplex in a lattice basis of its own affine hull.

    The first vertex is translated to the origin, a basis of the saturation
    of the difference lattice is computed through Hermite-form kernels, and
    all vertices are re-expressed in that basis. The result is
    full-dimensional, keeps the vertex order, and has the same normalized
    volume and fractional-weight group as the input.
    """
    n = simplex.dimension
    big_d = simplex.ambient_dim
    if n == 0:
        return LatticeSimplex(0, ((),))
    base = simplex.vertices[0]
    diffs = [
        tuple(a - b for a, b in zip(v, base)) for v in simplex.vertices[1:]
    ]
    if n == big_d:
        new_verts = ((0,) * n,) + tuple(diffs)
        return LatticeSimplex(n, new_verts)
    diff_mat = linalg.IntMatrix.from_rows(diffs, ncols=big_d)
    # Orthogonal-complement lattice, then its complement again: the double
    # kernel is exactly the saturation of the row lattice of diff_mat.
    ortho = linalg.left_kernel(diff_mat.transpose())
    basis = linalg.left_kernel(ortho.transpose())
    if basis.nrows != n:  # pragma: no cover - rank was validated on input
        raise NotASimplexError("saturation basis has unexpected rank")
    stacked = linalg.IntMatrix.from_rows(
        list(basis.rows) + list(ortho.rows), ncols=big_d
    ).transpose()
    new_verts = [(0,) * n]
    for sol in linalg.solve_columns(stacked, diffs):
        coords = []
        for i, val in enumerate(sol):
            if i < n:
                if val.denominator != 1:  # pragma: no cover - saturation guarantees this
                    raise NotASimplexError("vertex not integral in saturated basis")
                coords.append(int(val))
            elif val:  # pragma: no cover - difference lies in the hull by construction
                raise NotASimplexError("vertex escapes the affine hull")
        new_verts.append(tuple(coords))
    return LatticeSimplex(n, tuple(new_verts))


def face(simplex: LatticeSimplex, selector: FaceSelector) -> LatticeSimplex:
    """Full-dimensional model of the face spanned by the selected vertices."""
    FaceSelector.of(selector.indices, simplex.n_vertices)
    sub = from_vertices(
        simplex.ambient_dim, [simplex.vertices[i] for i in selector.indices]
    )
    return restrict_to_affine_lattice(sub)


def all_faces(
    simplex: LatticeSimplex,
) -> Iterator[tuple[FaceSelector, LatticeSimplex]]:
    """All nonempty faces, ordered by vertex count then lexicographically."""
    k = simplex.n_vertices
    if k > MAX_FACE_VERTICES:
        raise TooManyFacesError(f"{k} vertices would give 2^{k}-1 faces")
    for size in range(1, k + 1):
        for combo in combinations(range(k), size):
            sel = FaceSelector(combo)
            yield sel, face(simplex, sel)


def normalized_volume(simplex: LatticeSimplex) -> int:
    """Sum-of-h* volume: |det| of the homogenized full-dimensional model."""
    full = simplex if simplex.is_full_dimensional else restrict_to_affine_lattice(simplex)
    return abs(linalg.det(homogenize(full)))
