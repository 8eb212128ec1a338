"""Independent brute-force route to h*: count lattice points in dilates by
an exhaustive bounding-box scan with exact membership, then convert counts
to h* by the standard finite-difference transform.

This module exists to cross-validate the group-enumeration path, so it
stays deliberately dumb: the box is the coordinate extremes of the dilated
vertices and every line of the box is counted exactly. Along a line each
barycentric form is affine in the line coordinate, so the members of the
dilate on it are one integer interval cut out by integer floor divisions.
The lines are evaluated as numpy arrays over 64-bit integers when an exact
bound proves no overflow is possible; otherwise the same code runs on
arbitrary-precision Python integers. Counts are exact either way.
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
    # Every array value below is a partial sum of a form over the box, that
    # sum minus 1, a floor quotient of one by a nonzero integer, or a box
    # coordinate (each column of the nonsingular adjugate has a nonzero
    # entry): all at most bound + 1 in absolute value. Clipped line ends
    # therefore stay within bound + 1 and widths within 2 * bound + 3, while
    # the widths of one block sum to at most the candidate count. Both below
    # 2**62 make int64 exact.
    bound = max(
        sum(abs(forms[i][j]) * max(abs(los[j]), abs(his[j])) for j in range(d))
        + abs(base[i])
        for i in range(k)
    )
    dtype = np.int64 if max(bound + 1, candidates) < _INT64_SAFE else object
    return _count_lines(forms, base, los, his, dtype)


def _count_lines(forms, base, los, his, dtype) -> tuple[int, int]:
    d = len(los)
    k = len(forms)
    lengths = [hi - lo + 1 for lo, hi in zip(los, his)]
    line = lengths.index(max(lengths))
    # Forms rising along the line first, then falling, then flat ones.
    order = sorted(range(k), key=lambda i: (forms[i][line] <= 0, forms[i][line] == 0))
    forms = [forms[i] for i in order]
    base = [base[i] for i in order]
    slopes = [row[line] for row in forms]
    rising = sum(c > 0 for c in slopes)
    falling = rising + sum(c < 0 for c in slopes)
    up = np.array(slopes[:rising], dtype=dtype)[:, None]
    down = np.array([-c for c in slopes[rising:falling]], dtype=dtype)[:, None]

    def members(w) -> int:
        # a*x + w >= 0 is x >= -(w // a) for a > 0 and x <= w // -a for a < 0.
        first = np.max(-(w[:rising] // up), axis=0, initial=los[line])
        last = np.min(w[rising:falling] // down, axis=0, initial=his[line])
        widths = np.maximum(last - first + 1, 0)
        return int(widths[np.all(w[falling:] >= 0, axis=0)].sum())

    # The trailing axes span one block of lines holding at most _CHUNK form
    # values (k per line); the leading axes are looped.
    others = [j for j in range(d) if j != line]
    split = len(others)
    tail_size = 1
    while split > 0 and k * tail_size * lengths[others[split - 1]] <= _CHUNK:
        split -= 1
        tail_size *= lengths[others[split]]
    head_axes = others[:split]
    # tail[i] holds the trailing axes' share of form i, one column per line,
    # built as an outer sum one axis at a time.
    tail = np.zeros((k, 1), dtype=dtype)
    for j in others[split:]:
        coeffs = np.array([row[j] for row in forms], dtype=dtype)[:, None]
        share = coeffs * (los[j] + np.arange(lengths[j], dtype=dtype))
        tail = (tail[:, :, None] + share[:, None, :]).reshape(k, -1)
    weak = strict = 0
    for head in iter_product(*(range(los[j], his[j] + 1) for j in head_axes)):
        offs = [
            base[i] + sum(forms[i][j] * x for j, x in zip(head_axes, head))
            for i in range(k)
        ]
        w = tail + np.array(offs, dtype=dtype)[:, None]
        weak += members(w)
        # Integer forms are > 0 exactly where they are >= 1.
        strict += members(w - 1)
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
