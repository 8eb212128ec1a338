"""Independent brute-force route to h*: count lattice points in dilates by
exact enumeration, then convert counts to h* by finite differences.

With m = floor(d/2), h*_0..h*_m come from the closure counts of dilates
0..m, and h*_{m+1}..h*_d from the interior counts of dilates 1..d-m by
Ehrhart-Macdonald reciprocity, so no dilate past ceil(d/2) is counted.

This module checks the group path's h*, handed in by the caller, so it
uses no Smith form and no weight group. A dilate is counted in the
lower-triangular Hermite model of its simplex (`restrict_to_affine_lattice`),
a unimodular change of coordinates that keeps lattice-point counts. There
the barycentric forms are triangular: the first t+1 forms depend only on the
first t+1 coordinates. So the points are enumerated by project-and-lift
(as in Normaliz): each prefix row of coordinates is extended along the next
axis by the one integer interval that keeps its forms nonnegative and their
sum within the dilate, and the last axis only sums interval widths. Rows are
numpy arrays over 64-bit integers when an exact bound proves no overflow is
possible; otherwise the same code runs on arbitrary-precision Python
integers. Counts are exact either way. The scan cap bounds the candidate
points of the input's bounding box, or of its model's box when the input is
lower-dimensional, checked before anything is allocated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

import numpy as np

from . import linalg
from .errors import InternalCheckError, ScanTooLargeError
from .hstar import HStarVector
from .linalg import INT64_LIMIT
from .simplex import LatticeSimplex, restrict_to_affine_lattice

DEFAULT_SCAN_CAP = 10**8
_CHUNK = 1 << 19


@dataclass(frozen=True)
class CrossValidation:
    oracle_hstar: HStarVector
    match: bool
    heldout_ok: bool | None = None


@lru_cache(maxsize=4096)
def _scan(simplex: LatticeSimplex, n: int, s: int) -> int:
    """Lattice points of the n-th dilate (n >= 1) of any simplex, counted in
    its Hermite model: the closure for s = 0, the interior for s = 1. The
    caller checks the scan cap.
    """
    forms, det_h, unit_bound, _ = _model(simplex)
    if not forms:
        return 1  # a point is its every dilate and its own interior
    total = n * det_h
    # Every kept row lies in the projection of the dilate, where
    # |x_j| <= n * max |v_j| and so every partial form is at most
    # bound = n * unit_bound; the sum of the fixed forms is in [0, total].
    # Interval ends and their numerators are then at most
    # bound + 2 * total + 2, and widths at most `wide`. A block holds at
    # most _CHUNK rows, so its widths sum to at most _CHUNK * wide. Below
    # 2**62 that makes int64 exact.
    wide = 2 * (n * unit_bound + 2 * total + 2) + 1
    dtype = np.int64 if _CHUNK * wide < INT64_LIMIT else object
    # Integer forms are > 0 exactly where they are >= 1.
    return _count_lifts(forms, total, s, dtype)


@lru_cache(maxsize=256)
def _model(
    simplex: LatticeSimplex,
) -> tuple[tuple[tuple[int, ...], ...], int, int, tuple[int, ...]]:
    """The barycentric forms of the simplex's Hermite model, det H, the
    largest partial form at dilate 1, and the box widths the scan cap counts.

    A point of the model is H lambda for the weights lambda_1..lambda_d of
    the vertices after the origin, so row c of adj H is the form
    F_c = det_h * lambda_c, and the origin's weight is
    (total - sum_c F_c) / det_h. adj H is lower triangular with diagonal
    det_h / H_cc > 0, since the Hermite diagonal is positive. A point model
    (d = 0) has no forms.

    The box is the input's own when it is full-dimensional and the model's
    otherwise, which is [0, spread_j] on axis j since H has no negative
    entry; at dilate n it is n times as wide. The partial-form bound is
    max_c sum_j |F_cj| * spread_j, with spread_j the model's largest
    absolute coordinate on axis j; at dilate n it is n times as large.
    """
    model = restrict_to_affine_lattice(simplex)
    boxed = simplex if simplex.is_full_dimensional else model
    box = tuple(max(col) - min(col) for col in zip(*boxed.vertices))
    d = model.dimension
    if d == 0:
        return (), 1, 0, box
    adj, det_h = linalg.adjugate([[v[i] for v in model.vertices[1:]] for i in range(d)])
    spread = [max(abs(v[j]) for v in model.vertices) for j in range(d)]
    unit_bound = max(sum(abs(a) * r for a, r in zip(row, spread)) for row in adj)
    return tuple(map(tuple, adj)), det_h, unit_bound, box


def _count_lifts(forms, total: int, s: int, dtype) -> int:
    """Integer points x with F_c(x) >= s for every c and sum_c F_c(x) <=
    total - s, for lower-triangular forms with a positive diagonal.

    Axis t extends each prefix row (x_0..x_{t-1}) by the one integer
    interval of x_t with F_t >= s and sum_{c<=t} F_c <= total - s; the last
    axis only sums the interval widths. A row keeps the partial forms
    F_t..F_{d-1} of its fixed coordinates and the sum of F_0..F_{t-1}.
    """
    d = len(forms)

    def lift(t: int, part, used) -> int:
        a = forms[t][t]
        # With w the partial F_t, a * x + w >= s is x >= -((w - s) // a), and
        # used + w + a * x <= total - s is x <= (total - s - used - w) // a.
        first = -((part[0] - s) // a)
        last = (total - s - used - part[0]) // a
        widths = np.maximum(last - first + 1, 0)
        if t == d - 1:
            return int(widths.sum())
        coeffs = np.array([row[t] for row in forms[t:]], dtype=dtype)[:, None]
        count = 0
        for rows, x in _expand(first, widths, _CHUNK // (d - t) or 1):
            lifted = part[:, rows] + coeffs * x
            count += lift(t + 1, lifted[1:], used[rows] + lifted[0])
        return count

    return lift(0, np.zeros((d, 1), dtype=dtype), np.zeros(1, dtype=dtype))


def _expand(first, widths, limit: int):
    """(row index, coordinate) arrays of between 1 and `limit` entries that
    together list first[i] .. first[i] + widths[i] - 1 for every row i: the
    intervals laid end to end, cut into consecutive windows of `limit`
    entries. Nothing larger than `limit` entries is allocated.
    """
    widths = widths.astype(np.int64, copy=False)
    ends = np.cumsum(widths)
    starts = ends - widths
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, limit):
        hi = min(lo + limit, total)
        # Rows a..b-1 meet [lo, hi): from the first ending past lo to the first reaching hi.
        a = int(np.searchsorted(ends, lo, side="right"))
        b = int(np.searchsorted(ends, hi, side="left")) + 1
        sizes = np.minimum(ends[a:b], hi) - np.maximum(starts[a:b], lo)
        rows = np.repeat(np.arange(a, b), sizes)
        yield rows, first[rows] + (np.arange(lo, hi) - starts[rows]).astype(first.dtype)


def _count(simplex: LatticeSimplex, n: int, s: int, scan_cap: int) -> int:
    """The closure (s = 0) or interior (s = 1) count of the n-th dilate,
    after checking the scan cap.

    The model is built once per simplex, not once per dilate. A cleared
    scan cache starts cold: while it is empty the model cache is emptied as
    well, so ``_scan.cache_clear()`` resets both.
    """
    if n < 0:
        raise ValueError("dilation must be nonnegative")
    if n == 0:
        return 1 - s
    if not _scan.cache_info().currsize:
        _model.cache_clear()
    candidates = prod(n * b + 1 for b in _model(simplex)[3])
    if candidates > scan_cap:
        raise ScanTooLargeError(candidates, scan_cap, f"oracle scan of dilate {n}")
    return _scan(simplex, n, s)


def count_lattice_points(
    simplex: LatticeSimplex, n: int, scan_cap: int = DEFAULT_SCAN_CAP
) -> int:
    """|nS| over the lattice, by scan; membership is exact barycentric
    nonnegativity."""
    return _count(simplex, n, 0, scan_cap)


def count_interior_points(
    simplex: LatticeSimplex, n: int, scan_cap: int = DEFAULT_SCAN_CAP
) -> int:
    """Lattice points of the n-th dilate with all barycentric weights > 0."""
    return _count(simplex, n, 1, scan_cap)


def hstar_by_interpolation(
    simplex: LatticeSimplex, scan_cap: int = DEFAULT_SCAN_CAP
) -> HStarVector:
    """h* from the closure counts E(0..m) and the interior counts L°(0..d-m),
    m = floor(d/2):

        h_j = sum_{i<=j} (-1)^i C(d+1, i) E(j-i)                for j <= m,
        h_{d+1-j} = sum_{i<=j} (-1)^i C(d+1, i) L°(j-i)         for 1 <= j <= d-m,

    the second by Ehrhart-Macdonald reciprocity, with L°(0) = 0. No dilate
    past ceil(d/2) is counted, and the interior count of the next dilate is
    left out so that it can serve as the held-out check. The top dilate is
    counted first: its box is the largest, so a cap that any dilate exceeds
    refuses before anything is scanned.
    """
    d = simplex.dimension
    m = d // 2
    interior = [count_interior_points(simplex, n, scan_cap) for n in range(d - m, -1, -1)][::-1]
    closure = [count_lattice_points(simplex, n, scan_cap) for n in range(m + 1)]

    def difference(counts: list[int], j: int) -> int:
        return sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1))

    coeffs = [difference(closure, j) for j in range(m + 1)]
    coeffs += [difference(interior, d + 1 - j) for j in range(m + 1, d + 1)]
    if any(c < 0 for c in coeffs):
        raise InternalCheckError(f"negative interpolated coefficient: {coeffs}")
    return HStarVector.of(coeffs)


def heldout_count_matches(
    simplex: LatticeSimplex, h: HStarVector, scan_cap: int = DEFAULT_SCAN_CAP
) -> bool:
    """The interior count of dilate n = d - floor(d/2) + 1, the first that
    the interpolation leaves out, against sum_i h_i C(n-1+i, d), the value
    the h*-vector predicts by reciprocity. An h* of degree above d is wrong
    for a d-simplex, so it fails with nothing counted."""
    d = simplex.dimension
    if h.degree > d:
        return False
    n = d - d // 2 + 1
    predicted = sum(c * comb(n - 1 + i, d) for i, c in enumerate(h.coeffs))
    return count_interior_points(simplex, n, scan_cap) == predicted


def cross_validate(
    simplex: LatticeSimplex, h: HStarVector, scan_cap: int = DEFAULT_SCAN_CAP
) -> CrossValidation:
    """The given h* against interpolation h*, and the held-out count against
    it, for any simplex; a lower-dimensional one's cap counts its model's box.
    ``heldout_ok`` is None when the held-out dilate alone exceeds the cap."""
    oracle_h = hstar_by_interpolation(simplex, scan_cap)
    try:
        heldout: bool | None = heldout_count_matches(simplex, h, scan_cap)
    except ScanTooLargeError:
        heldout = None
    return CrossValidation(oracle_h, h.coeffs == oracle_h.coeffs, heldout)
