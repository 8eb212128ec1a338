"""Generators for the example families: joins, the two-coefficient family
delta_cm with h* = 1 + c t^m, its three-term joins, the counterexample
instances whose upper-window coefficient blocks face extraction, and the
symmetric family whose proper faces are all unimodular.

Everything here is a pure deterministic constructor; the h*-polynomials the
docstrings promise are verified by the test suite through both the group
path and the counting oracle, never assumed. A constructor whose simplex
would have dimension above MAX_FAMILY_DIM raises InvalidParametersError
before it builds anything.
"""
from __future__ import annotations

import random
from typing import Iterator

from .errors import InvalidParametersError
from .simplex import LatticeSimplex, from_vertices, normalized_volume
from .theorem import is_prime

# Largest dimension a generator builds. It is checked before any vertex
# list exists: the affine-independence check is an exact O(dim^3) rank.
MAX_FAMILY_DIM = 200


def _check_dim(dim: int) -> None:
    if dim > MAX_FAMILY_DIM:
        raise InvalidParametersError(
            f"dimension {dim} exceeds the family bound MAX_FAMILY_DIM = {MAX_FAMILY_DIM}"
        )


def _origin_and_units(dim: int, count: int) -> list[tuple[int, ...]]:
    """The origin and the first ``count`` unit vectors of Z^dim."""
    return [(0,) * dim] + [tuple(int(j == i) for j in range(dim)) for i in range(count)]


def unit_simplex(dim: int) -> LatticeSimplex:
    """conv(0, e_1, ..., e_dim); normalized volume 1, h* = (1)."""
    if dim < 0:
        raise InvalidParametersError("dimension must be nonnegative")
    _check_dim(dim)
    return from_vertices(dim, _origin_and_units(dim, dim))


def join(left: LatticeSimplex, right: LatticeSimplex) -> LatticeSimplex:
    """Join of two simplices, with a fresh flag coordinate first.

    Left vertices embed as (0, x, 0...0), right vertices as (1, 0...0, y),
    in ambient dimension d + e + 1. The dimension adds one and the
    h*-polynomial multiplies. Left vertices come first, so weight tuples of
    the join split into a left block and a right block.
    """
    d, e = left.ambient_dim, right.ambient_dim
    _check_dim(d + e + 1)
    verts = [(0,) + x + (0,) * e for x in left.vertices]
    verts += [(1,) + (0,) * d + y for y in right.vertices]
    return from_vertices(d + e + 1, verts)


def delta_cm(c: int, m: int) -> LatticeSimplex:
    """A (2m-1)-dimensional simplex with h* = 1 + c t^m.

    With q = c + 1 the vertices are 0, e_1, ..., e_{2m-2} and the extra
    vertex (q-1, 1, q-1, 1, ..., q-1, 1, q): its weight group is cyclic of
    order q and every nonzero element pairs coordinates as (j/q, (q-j)/q)
    m times over, hence has height exactly m.
    """
    if c < 1 or m < 1:
        raise InvalidParametersError("delta_cm needs c >= 1 and m >= 1")
    q = c + 1
    dim = 2 * m - 1
    _check_dim(dim)
    tail = [q - 1 if i % 2 == 0 else 1 for i in range(dim - 1)]
    return from_vertices(dim, _origin_and_units(dim, dim - 1) + [(*tail, q)])


def lemma41_simplex(a: int, b: int, k: int, ell: int) -> LatticeSimplex:
    """join(delta_cm(a, k), delta_cm(b, ell)).

    By multiplicativity its h*-polynomial is
    (1 + a t^k)(1 + b t^ell) = 1 + a t^k + b t^ell + a*b t^{k+ell}.
    """
    if min(a, b, k, ell) < 1:
        raise InvalidParametersError("all four parameters must be >= 1")
    _check_dim(2 * k + 2 * ell - 1)
    return join(delta_cm(a, k), delta_cm(b, ell))


def prop43_instance(k: int, j: int, p: int = 5) -> LatticeSimplex:
    """A simplex whose h* vanishes on k+1..2k-1 except at index j, and whose
    truncation at k is certified non-realizable at degree k.

    For j >= k + 2 this is join(delta_cm(1, j-k), delta_cm(p-2, k)); for
    j = k + 1 with k >= 4, join(delta_cm(1, 2), delta_cm(p-2, k-1)); and for
    j = k + 1 with k = 3, the explicit five-dimensional simplex
    conv(0, e_1, ..., e_4, e_1 + 4 e_2 + 7 e_3 + 8 e_4 + 9 e_5) with
    h* = 1 + 2 t^2 + 4 t^3 + 2 t^4. That last simplex does not use p, which
    is still checked.
    """
    if k < 3 or not (k + 1 <= j <= 2 * k - 1):
        raise InvalidParametersError("need k >= 3 and k+1 <= j <= 2k-1")
    if p < 5 or not is_prime(p):
        raise InvalidParametersError("p must be a prime >= 5")
    if j >= k + 2:
        return lemma41_simplex(1, p - 2, j - k, k)
    if k >= 4:
        return lemma41_simplex(1, p - 2, 2, k - 1)
    return from_vertices(
        5,
        [
            (0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (1, 4, 7, 8, 9),
        ],
    )


def remark44_simplex(k: int) -> LatticeSimplex:
    """The (3k-1)-dimensional simplex with h* = 1 + t^k + t^{2k}.

    Vertices 0, e_1, ..., e_{d-1} and 2(e_1 + ... + e_{d-1}) + 3 e_d with
    d = 3k - 1; normalized volume 3, every weight coordinate j/3, and every
    proper face unimodular.
    """
    if k < 2:
        raise InvalidParametersError("k must be >= 2")
    d = 3 * k - 1
    _check_dim(d)
    return from_vertices(d, _origin_and_units(d, d - 1) + [(2,) * (d - 1) + (3,)])


def zero_window_family() -> Iterator[tuple[str, LatticeSimplex, int]]:
    """Deterministic regression cohort for the face-extraction construction.

    Yields (name, simplex, k) with more than a hundred instances, all
    satisfying the zero window h_{k+1} = ... = h_{2k} = 0 for the stated k,
    with normalized volumes up to 10^4. Joins with a high-index delta_cm
    factor make the height-<=k subgroup proper, which is where the face
    extraction does real work.
    """
    for c in range(1, 13):
        yield f"delta_c{c}_m3", delta_cm(c, 3), 3
    for c in range(1, 13):
        yield f"delta_c{c}_m4", delta_cm(c, 4), 4
    for c in range(1, 9):
        for u in range(1, 4):
            yield f"delta_c{c}_m3_join_unit{u}", join(delta_cm(c, 3), unit_simplex(u)), 3
    for c in range(1, 9):
        for u in range(1, 4):
            yield f"unit{u}_join_delta_c{c}_m4", join(unit_simplex(u), delta_cm(c, 4)), 4
    for a in range(1, 5):
        for b in range(1, 4):
            yield f"delta_a{a}_m3_join_delta_b{b}_m7", join(delta_cm(a, 3), delta_cm(b, 7)), 3
    for a in range(1, 5):
        for b in range(1, 4):
            yield f"delta_a{a}_m4_join_delta_b{b}_m9", join(delta_cm(a, 4), delta_cm(b, 9)), 4
    for a in range(1, 4):
        for b in range(1, 4):
            yield f"delta_a{a}_m3_join_delta_b{b}_m3", join(delta_cm(a, 3), delta_cm(b, 3)), 6
    yield "delta_c9999_m3", delta_cm(9999, 3), 3
    yield "delta_c9999_m4", delta_cm(9999, 4), 4
    yield "delta_c499_m3_join_delta_c19_m7", join(delta_cm(499, 3), delta_cm(19, 7)), 3


def multiplicativity_pairs(count: int = 25) -> list[tuple[LatticeSimplex, LatticeSimplex]]:
    """Deterministic pseudo-random join pairs with product volume <= 10^4."""
    rng = random.Random(20240814)
    pool: list[LatticeSimplex] = [unit_simplex(d) for d in range(0, 3)]
    pool += [delta_cm(c, m) for c in (1, 2, 3, 5, 9) for m in (1, 2, 3)]
    pool += [remark44_simplex(2)]
    pairs = []
    while len(pairs) < count:
        left = rng.choice(pool)
        right = rng.choice(pool)
        if normalized_volume(left) * normalized_volume(right) <= 10**4:
            pairs.append((left, right))
    return pairs
