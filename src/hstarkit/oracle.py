"""Independent brute-force route to h*: count lattice points in dilates by
an exhaustive bounding-box scan with exact membership, then convert counts
to h* by the standard finite-difference transform.

This module exists to cross-validate the group-enumeration path, so it
stays deliberately dumb: the box is the coordinate extremes of the dilated
vertices and every candidate is tested. The only sophistication is that the
inner loop is vectorized over 64-bit integers when an exact bound proves no
overflow is possible; otherwise it falls back to arbitrary-precision Python
integers. Counts are exact either way.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from math import prod

import numpy as np

from . import linalg
from .boxgroup import DEFAULT_VOLUME_CAP, enumerate_box_group
from .errors import InternalCheckError, ScanTooLargeError
from .hstar import HStarVector, binomial, ehrhart_from_hstar, hstar_from_box_group
from .simplex import LatticeSimplex, homogenize, restrict_to_affine_lattice

DEFAULT_SCAN_CAP = 10**8
_CHUNK = 1 << 19
_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class CountTable:
    """Exact dilate counts E(0), ..., E(d)."""

    d: int
    counts: tuple[int, ...]


@dataclass(frozen=True)
class CrossValidation:
    box_hstar: HStarVector
    oracle_hstar: HStarVector
    match: bool
    heldout_ok: bool | None = None


@lru_cache(maxsize=4096)
def _scan(simplex: LatticeSimplex, n: int, scan_cap: int) -> tuple[int, int]:
    """(closure count, interior count) of the n-th dilate."""
    k = simplex.ambient_dim + 1
    matrix = homogenize(simplex)
    adj, det_m = linalg.adjugate(matrix)
    sign = 1 if det_m > 0 else -1
    # Row i of forms dotted with (x, n) is det * (i-th barycentric weight).
    forms = [[sign * adj.rows[i][j] for j in range(k)] for i in range(k)]
    d = simplex.ambient_dim
    los = [n * min(v[j] for v in simplex.vertices) for j in range(d)]
    his = [n * max(v[j] for v in simplex.vertices) for j in range(d)]
    candidates = prod(hi - lo + 1 for lo, hi in zip(los, his))
    if candidates > scan_cap:
        raise ScanTooLargeError(candidates, scan_cap)
    base = [forms[i][d] * n for i in range(k)]
    if d == 0:
        weak = int(all(b >= 0 for b in base))
        strict = int(all(b > 0 for b in base))
        return weak, strict
    bound = max(
        sum(abs(forms[i][j]) * max(abs(los[j]), abs(his[j])) for j in range(d))
        + abs(base[i])
        for i in range(k)
    )
    if candidates >= 512 and bound < _INT64_SAFE:
        return _scan_vectorized(forms, base, los, his)
    return _scan_python(forms, base, los, his)


def _scan_python(forms, base, los, his) -> tuple[int, int]:
    d = len(los)
    k = len(forms)
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


def _scan_vectorized(forms, base, los, his) -> tuple[int, int]:
    d = len(los)
    k = len(forms)
    lengths = [hi - lo + 1 for lo, hi in zip(los, his)]
    # Tail axes are evaluated as one vectorized block; head axes are looped.
    split = d
    tail_size = 1
    while split > 0 and tail_size * lengths[split - 1] <= _CHUNK:
        split -= 1
        tail_size *= lengths[split]
    tail_axes = list(range(split, d))
    head_axes = list(range(split))
    mesh = np.indices([lengths[j] for j in tail_axes], dtype=np.int64)
    tail_grid = mesh.reshape(len(tail_axes), -1).T.copy()
    for col, j in enumerate(tail_axes):
        tail_grid[:, col] += los[j]
    b_tail = np.array([[row[j] for j in tail_axes] for row in forms], dtype=np.int64)
    # One contiguous row per form: tw[i] holds the tail contribution to form i.
    tw = np.ascontiguousarray(b_tail @ tail_grid.T)
    weak = strict = 0
    mask = np.empty(tw.shape[1], dtype=bool)
    smask = np.empty(tw.shape[1], dtype=bool)
    for head in iter_product(*(range(los[j], his[j] + 1) for j in head_axes)):
        offs = [
            base[i] + sum(forms[i][j] * head[pos] for pos, j in enumerate(head_axes))
            for i in range(k)
        ]
        # Form i is nonnegative exactly where tw[i] >= -offs[i].
        np.greater_equal(tw[0], -offs[0], out=mask)
        np.greater(tw[0], -offs[0], out=smask)
        for i in range(1, k):
            mask &= tw[i] >= -offs[i]
            smask &= tw[i] > -offs[i]
        weak += int(mask.sum())
        strict += int(smask.sum())
    return weak, strict


def count_lattice_points(
    simplex: LatticeSimplex, n: int, scan_cap: int = DEFAULT_SCAN_CAP
) -> int:
    """|nS| over the lattice, by scan; membership is exact barycentric
    nonnegativity."""
    if n < 0:
        raise ValueError("dilation must be nonnegative")
    if n == 0:
        return 1
    return _scan(simplex, n, scan_cap)[0]


def count_interior_points(
    simplex: LatticeSimplex, n: int, scan_cap: int = DEFAULT_SCAN_CAP
) -> int:
    """Lattice points of the n-th dilate with all barycentric weights > 0."""
    if n < 0:
        raise ValueError("dilation must be nonnegative")
    if n == 0:
        return 0
    return _scan(simplex, n, scan_cap)[1]


def count_table(simplex: LatticeSimplex, scan_cap: int = DEFAULT_SCAN_CAP) -> CountTable:
    d = simplex.dimension
    return CountTable(
        d, tuple(count_lattice_points(simplex, n, scan_cap) for n in range(d + 1))
    )


def hstar_by_interpolation(
    simplex: LatticeSimplex, scan_cap: int = DEFAULT_SCAN_CAP
) -> HStarVector:
    """h* from the counts E(0..d) alone: h_j = sum_i (-1)^i C(d+1, i) E(j-i).

    Uses exactly d+1 counts; E(d+1) is deliberately left out so it can serve
    as a held-out consistency check.
    """
    table = count_table(simplex, scan_cap)
    d = table.d
    coeffs = []
    for j in range(d + 1):
        v = sum(
            (-1) ** i * binomial(d + 1, i) * table.counts[j - i] for i in range(j + 1)
        )
        coeffs.append(v)
    if any(c < 0 for c in coeffs):
        raise InternalCheckError(f"negative interpolated coefficient: {coeffs}")
    return HStarVector.of(coeffs, dim_context=d)


def heldout_count_matches(
    simplex: LatticeSimplex, h: HStarVector, scan_cap: int = DEFAULT_SCAN_CAP
) -> bool:
    """Direct count at dilation d+1 (outside the interpolation range) against
    the value the h*-vector predicts."""
    d = simplex.dimension
    return count_lattice_points(simplex, d + 1, scan_cap) == ehrhart_from_hstar(
        h, d, d + 1
    )


def cross_validate(
    simplex: LatticeSimplex,
    volume_cap: int = DEFAULT_VOLUME_CAP,
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> CrossValidation:
    """Group-enumeration h* against interpolation h*, plus the held-out count."""
    full = simplex if simplex.is_full_dimensional else restrict_to_affine_lattice(simplex)
    group = enumerate_box_group(full, volume_cap=volume_cap)
    box_h = hstar_from_box_group(group)
    oracle_h = hstar_by_interpolation(full, scan_cap)
    match = box_h.coeffs == oracle_h.coeffs
    try:
        heldout: bool | None = heldout_count_matches(full, box_h, scan_cap)
    except ScanTooLargeError:
        heldout = None
    return CrossValidation(box_h, oracle_h, match, heldout)
