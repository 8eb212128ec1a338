"""Bounded exploratory search over cyclic weight groups.

Enumerates generator tuples (a_1, ..., a_L)/q with every a_i in [1, q-1],
coordinate sum divisible by q, and gcd(a_1, ..., a_L, q) = 1, canonicalized
up to coordinate permutation: nondecreasing, with the last entry fixed by
the sum. Each group is listed once, as the (q, L) array of its elements,
which gives both its heights and its signature for deduplication. Each
group whose height distribution matches the requested zero window is
realized as a lattice simplex, certified by its volume and generator, and
run through the face extraction, recording whether the truncation is
realized by a face. Purely empirical: emits instances, never claims answers.
"""
from __future__ import annotations

import sys
from itertools import combinations_with_replacement, islice
from math import gcd
from typing import Iterator

import numpy as np

from . import linalg
from .errors import InternalCheckError, InvalidParametersError
from .simplex import LatticeSimplex, from_vertices, normalized_volume
from .theorem import ExtractionCertificate, extract_face

MAX_ORDER = 10**4
MAX_DIM = 20


def realize_cyclic_group(generator: tuple[int, ...], q: int) -> LatticeSimplex:
    """A simplex whose weight group is exactly the cyclic group generated by
    generator/q.

    With n = len(generator) - 1 and g' = (g_1, ..., g_n), the rows g',
    q*e_1, ..., q*e_n span q*(Z^n + Z*g'/q). Their Hermite form has a zero
    top row over a lower-triangular basis T of that lattice, det T =
    q^(n-1). The vertices are the origin and the rows of V = q*T^-1 =
    q*adj(T)/det T. A point sum_i w_i v_i is then a lattice point exactly
    when (w_1, ..., w_n) lies in Z^n V^-1 = Z^n + Z*g'/q, so vertex i
    carries g_i/q and the origin g_0/q, which makes the weights sum to an
    integer. Certified without listing the group, in O(n^3) at any q: g/q,
    of order q as gcd(q, g) = 1, is a weight tuple when sum_i g_i v_i is 0
    mod q (sum g is, on entry), and the weight group's order is the
    normalized volume. A volume of q then makes the two groups equal, by
    Lagrange; InternalCheckError is raised otherwise.
    """
    n = len(generator) - 1
    if q < 1 or any(a < 0 or a >= q for a in generator):
        raise InvalidParametersError("generator entries must lie in [0, q)")
    if sum(generator) % q:
        raise InvalidParametersError("generator's coordinate sum must be divisible by q")
    if gcd(q, *generator) != 1:
        raise InvalidParametersError("generator must have order exactly q")
    rows = [list(generator[1:])] + [[q * (i == j) for j in range(n)] for i in range(n)]
    linalg.hermite_rows(rows, n)
    adj, det_t = linalg.adjugate(rows[1:])
    verts = [(0,) * n] + [tuple(q * x // det_t for x in row) for row in adj]
    simplex = from_vertices(n, verts)
    weighted = [sum(g * v[i] for g, v in zip(generator, simplex.vertices)) for i in range(n)]
    if normalized_volume(simplex) != q or any(x % q for x in weighted):
        raise InternalCheckError("realized simplex has the wrong weight group")
    return simplex


def _window_generators(
    k: int, window: str, max_order: int, max_dim: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(q, generator) of every canonical cyclic group matching the window,
    in search order. Order 1 is the trivial group of the unit segment.

    A generator is a nondecreasing tuple over [1, q-1] whose last entry is
    fixed by the sum condition; the heads come in lexicographic order. Of
    the groups with equal multisets of sorted elements only the first is
    kept."""
    yield 1, (0, 0)
    top = 2 * k - 1 if window == "weak" else 2 * k
    for q in range(2, max_order + 1):
        for length in range(2, max_dim + 2):
            seen: set[bytes] = set()  # per shape: arrays of two shapes can share bytes
            for head in combinations_with_replacement(range(1, q), length - 1):
                gen = head + (-sum(head) % q,)
                if gen[-1] < head[-1] or gcd(q, *gen) != 1:
                    continue
                # Row j is j * gen mod q: products below q^2 <= 10^8 and row
                # sums below (MAX_DIM + 1) * q keep int64 exact.
                elements = np.arange(q)[:, None] * np.array(gen, dtype=np.int64) % q
                heights = elements.sum(axis=1) // q
                if np.count_nonzero((heights > k) & (heights <= top)):
                    continue
                elements.sort(axis=1)
                signature = elements[np.lexsort(elements.T[::-1])].tobytes()
                if signature in seen:
                    continue
                seen.add(signature)
                yield q, gen


def search_windows(
    k: int,
    window: str,
    max_order: int,
    max_dim: int,
    limit: int | None = None,
) -> Iterator[tuple[int, tuple[int, ...], ExtractionCertificate]]:
    """(order, generator, certificate) of every canonical cyclic instance
    matching the window, in deterministic order (group order, then
    dimension, then lexicographic generator), at most ``limit`` of them.
    The certificate is ``extract_face`` at k of the realized simplex. The
    parameters are checked on the call, before the first hit is asked for."""
    if window not in ("weak", "strong"):
        raise InvalidParametersError("window must be weak or strong")
    if k < 1:
        raise InvalidParametersError("k must be >= 1")
    if not 1 <= max_order <= MAX_ORDER:
        raise InvalidParametersError(f"max order must be in 1..{MAX_ORDER}")
    if not 1 <= max_dim <= MAX_DIM:
        raise InvalidParametersError(f"max dim must be in 1..{MAX_DIM}")
    if limit is not None and limit < 0:
        raise InvalidParametersError("limit must be >= 0")
    # islice takes no stop past sys.maxsize, which no search could reach.
    stop = None if limit is None else min(limit, sys.maxsize)
    generators = islice(_window_generators(k, window, max_order, max_dim), stop)
    return ((q, gen, extract_face(realize_cyclic_group(gen, q), k)) for q, gen in generators)
