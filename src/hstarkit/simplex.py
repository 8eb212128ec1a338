"""Lattice simplices: validated vertex lists, homogenization, faces, and
one model of any simplex in the lattice of its own affine hull.

That model is triangular: a row-style Hermite form of the edge matrix
rewrites the simplex as the origin and the columns of a lower-triangular
matrix, full-dimensional in Z^n. Faces, normalized volumes and every
lower-dimensional input go through it.

Vertex order is significant throughout: fractional-weight tuples downstream
are indexed by vertex position, so every operation here preserves the order
in which vertices were given.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Iterable, Iterator, Sequence

from . import linalg
from .errors import (
    DimensionMismatchError,
    NotASimplexError,
    TooManyFacesError,
)

MAX_FACE_VERTICES = 16


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


def from_vertices(ambient_dim: int, vertex_list: Sequence[Sequence[int]]) -> LatticeSimplex:
    """Validate and build a simplex; rejects affinely dependent vertex lists."""
    if not len(vertex_list):  # not bool(): a numpy array has no truth value
        raise NotASimplexError("empty vertex list")
    verts = tuple(tuple(map(operator.index, v)) for v in vertex_list)
    for v in verts:
        if len(v) != ambient_dim:
            raise DimensionMismatchError(
                f"vertex {v} does not live in ambient dimension {ambient_dim}"
            )
    n = len(verts) - 1
    if n > ambient_dim:
        raise NotASimplexError("more vertices than an independent set allows")
    if n > 0:
        diffs = [[a - b for a, b in zip(verts[i], verts[0])] for i in range(1, n + 1)]
        if linalg.rank(diffs) != n:
            raise NotASimplexError("vertices are affinely dependent")
    return LatticeSimplex(ambient_dim, verts)


def homogenize(simplex: LatticeSimplex) -> tuple[tuple[int, ...], ...]:
    """Rows of the square matrix whose columns are the vertices extended by
    a final 1.

    Requires a full-dimensional simplex; the absolute determinant equals the
    normalized volume.
    """
    if not simplex.is_full_dimensional:
        raise DimensionMismatchError("homogenize requires a full-dimensional simplex")
    return (*zip(*simplex.vertices), (1,) * len(simplex.vertices))


def restrict_to_affine_lattice(simplex: LatticeSimplex) -> LatticeSimplex:
    """Triangular Hermite model of a simplex in the lattice of its affine hull.

    The row-style Hermite form of the N x n edge matrix E = [v_i - v_0] is
    U E = [0; H] with U unimodular, so U maps the lattice points of the hull,
    translated to v_0, onto Z^n. Only H is needed: the bare rows of E go
    through ``linalg.hermite_rows`` and U is never built. The model's
    vertices are the origin and the columns of the lower-triangular H, in
    the input order. The N - n zero rows and a nonzero diagonal prove the
    vertices affinely independent; NotASimplexError is raised otherwise. H
    is unique for the lattice, so a unimodular image or a translate of the
    input has the same model. The model keeps the normalized volume (the
    product of the diagonal) and the fractional-weight group.
    """
    n = simplex.dimension
    big_d = simplex.ambient_dim
    if n > big_d:
        raise NotASimplexError("more vertices than an independent set allows")
    base = simplex.vertices[0]
    h = [[v[i] - base[i] for v in simplex.vertices[1:]] for i in range(big_d)]
    linalg.hermite_rows(h, n)
    zero, tri = h[: big_d - n], h[big_d - n :]
    if any(any(row) for row in zero) or not all(tri[i][i] for i in range(n)):
        raise NotASimplexError("vertices are affinely dependent")
    return LatticeSimplex(n, ((0,) * n,) + tuple(zip(*tri)))


def face(simplex: LatticeSimplex, indices: Iterable[int]) -> LatticeSimplex:
    """Triangular model of the face spanned by the vertices at the given
    0-based indices, in any order: the face keeps the input's vertex order."""
    idx = sorted(indices)
    if not idx:
        raise IndexError("face selector must be nonempty")
    if len(set(idx)) != len(idx):
        raise IndexError("face selector indices must be distinct")
    if idx[0] < 0 or idx[-1] >= simplex.n_vertices:
        raise IndexError(f"face selector index out of range 0..{simplex.n_vertices - 1}")
    return restrict_to_affine_lattice(
        LatticeSimplex(simplex.ambient_dim, tuple(simplex.vertices[i] for i in idx))
    )


def all_faces(simplex: LatticeSimplex) -> Iterator[tuple[tuple[int, ...], LatticeSimplex]]:
    """All nonempty faces with their index tuples, ordered by vertex count
    then lexicographically; each model equals ``face(simplex, indices)``.

    The model of face (b, j_1, ..., j_s) is the Hermite form of the edges
    v_j - v_b, pivoted on j_s down to j_1. ``linalg.hermite_column`` picks
    each step from its own column and replaces rows without editing them,
    so the elimination of j_s, ..., j_2 over the edges to every later
    vertex is the state of the parent face (b, j_2, ..., j_s), and a face
    costs one column step on a shallow copy of that state. States are kept
    for one vertex count at a time, each until its last child: at most
    about C(k, k/2) of them for k vertices. MAX_FACE_VERTICES bounds that,
    and the 2^k - 1 faces, before any state is built.
    """
    k = simplex.n_vertices
    if k > MAX_FACE_VERTICES:
        raise TooManyFacesError(
            f"{k} vertices would give 2^{k}-1 faces; at most {MAX_FACE_VERTICES} vertices")
    big_d, verts = simplex.ambient_dim, simplex.vertices
    # The state of a face based at vertex b holds its edges to vertices
    # b+1..k-1: column j - b - 1 is vertex j. The children of a face add a
    # vertex between b and its second vertex, so a face with no vertex
    # there keeps no state.
    states = {}
    for b, base in enumerate(verts):
        yield (b,), LatticeSimplex(0, ((),))
        states[(b,)] = [[v[i] - base[i] for v in verts[b + 1 :]] for i in range(big_d)]
    for size in range(2, k + 1):
        parents, states = states, {}
        n = size - 1
        for combo in combinations(range(k), size):
            b, j = combo[:2]
            parent = combo[:1] + combo[2:]
            last_child = j + 1 == (combo[2] if size > 2 else k)
            state = list(parents.pop(parent) if last_child else parents[parent])
            if not linalg.hermite_column(state, j - b - 1, big_d - n):
                raise NotASimplexError("vertices are affinely dependent")
            tri = state[big_d - n :]
            yield combo, LatticeSimplex(
                n, ((0,) * n,) + tuple(tuple(row[c - b - 1] for row in tri) for c in combo[1:]))
            if j > b + 1:
                states[combo] = state


def normalized_volume(simplex: LatticeSimplex) -> int:
    """Sum-of-h* volume: the product of the triangular model's diagonal."""
    model = restrict_to_affine_lattice(simplex)
    return prod(model.vertices[i + 1][i] for i in range(model.dimension))
