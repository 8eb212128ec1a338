"""Bounded exploratory search over cyclic weight groups.

Enumerates generator tuples (a_1, ..., a_L)/q with every a_i in [1, q-1],
coordinate sum divisible by q, and gcd(a_1, ..., a_L, q) = 1, canonicalized
up to coordinate permutation. Each group whose height distribution matches
the requested zero window is realized as a lattice simplex and run through
the face extraction, recording whether the truncation is realized by a
face. Purely empirical: emits instances, never claims answers.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

import numpy as np

from . import linalg
from .boxgroup import enumerate_box_group
from .errors import InternalCheckError, InvalidParametersError
from .hstar import HStarVector
from .simplex import LatticeSimplex, from_vertices
from .theorem import extract_face

MAX_ORDER = 10**4
MAX_DIM = 20


@dataclass(frozen=True)
class SearchHit:
    order: int
    dim: int
    generator: tuple[int, ...]
    hstar: HStarVector
    k: int
    window: str
    face_realizes_truncation: bool
    face_hstar: HStarVector
    face_selector: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "dim": self.dim,
            "generator": list(self.generator),
            "hstar": list(self.hstar.coeffs),
            "k": self.k,
            "window": self.window,
            "face_realizes_truncation": self.face_realizes_truncation,
            "face_hstar": list(self.face_hstar.coeffs),
            "face_selector": list(self.face_selector),
        }


def _nondecreasing_tuples(q: int, length: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing tuples over [1, q-1] whose sum is divisible by q."""
    out: list[int] = []

    def rec(start: int, total: int) -> Iterator[tuple[int, ...]]:
        remaining = length - len(out)
        if remaining == 0:
            if total % q == 0:
                yield tuple(out)
            return
        hi = total + (q - 1) * remaining
        last_multiple = (hi // q) * q
        for v in range(start, q):
            if total + v * remaining > last_multiple:
                break
            out.append(v)
            yield from rec(v, total + v)
            out.pop()

    yield from rec(1, 0)


def realize_cyclic_group(generator: tuple[int, ...], q: int) -> LatticeSimplex:
    """A simplex whose weight group is exactly the cyclic group generated by
    generator/q.

    Build an integer matrix of determinant +-q whose rows annihilate the
    generator mod q, with the homogenizing all-ones row last; its columns
    minus that row are the vertices. Verified on the way out by
    re-enumerating the group.
    """
    length = len(generator)
    if q < 1 or any(a < 0 or a >= q for a in generator):
        raise InvalidParametersError("generator entries must lie in [0, q)")
    if sum(generator) % q:
        raise InvalidParametersError("generator's coordinate sum must be divisible by q")
    if gcd(q, *generator) != 1:
        raise InvalidParametersError("generator must have order exactly q")
    stack = linalg.IntMatrix.from_rows([[a] for a in generator] + [[q]], ncols=1)
    kernel = linalg.left_kernel(stack)
    basis = linalg.IntMatrix.from_rows(
        [row[:length] for row in kernel.rows], ncols=length
    )
    if abs(linalg.det(basis)) != q:  # pragma: no cover - kernel theory
        raise InternalCheckError("annihilator basis has wrong determinant")
    ones = [1] * length
    sol = linalg.solve_rational(basis.transpose(), ones)
    c = []
    for val in sol:
        if val.denominator != 1:  # pragma: no cover - all-ones lies in the lattice
            raise InternalCheckError("all-ones row not expressible in basis")
        c.append(int(val))
    # Complete the primitive vector c to a unimodular matrix with c as the
    # last row: reduce c (as a column) to e_last by row operations U, then
    # transpose the integer inverse of U, which is det(U) * adj(U) with
    # det(U) = +-1.
    c_col = linalg.IntMatrix.from_rows([[x] for x in c], ncols=1)
    reduced, u = linalg.hermite_normal_form(c_col)
    if reduced.rows[-1][0] != 1:  # pragma: no cover - gcd(c) is 1
        raise InternalCheckError("all-ones coordinates are not primitive")
    adj_u, det_u = linalg.adjugate(u)
    r_mat = linalg.IntMatrix.from_rows(
        [[det_u * x for x in col] for col in zip(*adj_u.rows)], ncols=length
    )
    matrix = r_mat @ basis
    if list(matrix.rows[-1]) != ones:  # pragma: no cover - construction
        raise InternalCheckError("homogenizing row is not all ones")
    verts = [tuple(matrix.rows[i][j] for i in range(length - 1)) for j in range(length)]
    simplex = from_vertices(length - 1, verts)
    group = enumerate_box_group(simplex)
    expected = np.unique(np.arange(q)[:, None] * np.array(generator) % q, axis=0)
    if group.exponent != q or not np.array_equal(
        np.unique(group.residues, axis=0), expected
    ):  # pragma: no cover - construction
        raise InternalCheckError("realized simplex has the wrong weight group")
    return simplex


def _window_holds(counts: dict[int, int], k: int, window: str) -> bool:
    top = 2 * k - 1 if window == "weak" else 2 * k
    return all(counts.get(h, 0) == 0 for h in range(k + 1, top + 1))


def search_windows(
    k: int,
    window: str,
    max_order: int,
    max_dim: int,
    limit: int | None = None,
) -> Iterator[SearchHit]:
    """All canonical cyclic instances matching the window, in deterministic
    order (group order, then dimension, then lexicographic generator)."""
    if window not in ("weak", "strong"):
        raise InvalidParametersError("window must be weak or strong")
    if k < 1:
        raise InvalidParametersError("k must be >= 1")
    if not 1 <= max_order <= MAX_ORDER:
        raise InvalidParametersError(f"max order must be in 1..{MAX_ORDER}")
    if not 1 <= max_dim <= MAX_DIM:
        raise InvalidParametersError(f"max dim must be in 1..{MAX_DIM}")
    emitted = 0
    seen: set[tuple] = set()
    for q in range(1, max_order + 1):
        if limit is not None and emitted >= limit:
            return
        if q == 1:
            simplex = from_vertices(1, [(0,), (1,)])
            cert = extract_face(simplex, max(k, 1))
            yield SearchHit(
                order=1,
                dim=1,
                generator=(0, 0),
                hstar=cert.hstar,
                k=k,
                window=window,
                face_realizes_truncation=cert.hstar_match,
                face_hstar=cert.face_hstar,
                face_selector=cert.face_selector.indices,
            )
            emitted += 1
            continue
        for length in range(2, max_dim + 2):
            if limit is not None and emitted >= limit:
                return
            for gen in _nondecreasing_tuples(q, length):
                if gcd(q, *gen) != 1:
                    continue
                elements = [tuple(j * a % q for a in gen) for j in range(q)]
                counts: dict[int, int] = {}
                for el in elements:
                    h = sum(el) // q
                    counts[h] = counts.get(h, 0) + 1
                if not _window_holds(counts, k, window):
                    continue
                signature = tuple(sorted(tuple(sorted(el)) for el in elements))
                if signature in seen:
                    continue
                seen.add(signature)
                simplex = realize_cyclic_group(gen, q)
                cert = extract_face(simplex, k)
                yield SearchHit(
                    order=q,
                    dim=length - 1,
                    generator=gen,
                    hstar=cert.hstar,
                    k=k,
                    window=window,
                    face_realizes_truncation=cert.hstar_match,
                    face_hstar=cert.face_hstar,
                    face_selector=cert.face_selector.indices,
                )
                emitted += 1
                if limit is not None and emitted >= limit:
                    return
