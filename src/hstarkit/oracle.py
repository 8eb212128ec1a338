"""Independent brute-force route to h*: count lattice points in dilates by
exact enumeration, then convert counts to h* by the standard
finite-difference transform.

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
from .hstar import HStarVector, ehrhart_from_hstar
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
def _scan(simplex: LatticeSimplex, n: int, scan_cap: int) -> tuple[int, int]:
    """(closure count, interior count) of the n-th dilate of any simplex,
    counted in its Hermite model. The cap counts the candidates of the
    input's box, or for a lower-dimensional input of its model's box, which
    is [0, n * spread_j] on axis j since H has no negative entry.

    The model is built once per simplex, not once per dilate. A cleared
    scan cache starts cold: its next miss empties the model cache as well,
    so ``_scan.cache_clear()`` resets both.
    """
    if not _scan.cache_info().currsize:
        _model.cache_clear()
    box = ([max(col) - min(col) for col in zip(*simplex.vertices)]
           if simplex.is_full_dimensional else _model(simplex)[2])
    candidates = prod(n * b + 1 for b in box)
    if candidates > scan_cap:
        raise ScanTooLargeError(candidates, scan_cap, f"oracle scan of dilate {n}")
    forms, det_h, spread = _model(simplex)
    if not forms:
        return 1, int(n > 0)
    total = n * det_h
    # Every kept row lies in the projection of the dilate, where
    # |x_j| <= n * max |v_j| and so every partial form is at most `bound`;
    # the sum of the fixed forms is in [0, total]. Interval ends and their
    # numerators are then at most bound + 2 * total + 2, and widths at most
    # `wide`. A block holds at most _CHUNK rows, so its widths sum to at
    # most _CHUNK * wide. Below 2**62 that makes int64 exact.
    bound = n * max(sum(abs(a) * r for a, r in zip(row, spread)) for row in forms)
    wide = 2 * (bound + 2 * total + 2) + 1
    dtype = np.int64 if _CHUNK * wide < INT64_LIMIT else object
    # Integer forms are > 0 exactly where they are >= 1.
    return _count_lifts(forms, total, 0, dtype), _count_lifts(forms, total, 1, dtype)


@lru_cache(maxsize=256)
def _model(simplex: LatticeSimplex) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """The barycentric forms of the simplex's Hermite model, det H, and the
    largest absolute vertex coordinate of the model on each axis.

    A point of the model is H lambda for the weights lambda_1..lambda_d of
    the vertices after the origin, so row c of adj H is the form
    F_c = det_h * lambda_c, and the origin's weight is
    (total - sum_c F_c) / det_h. adj H is lower triangular with diagonal
    det_h / H_cc > 0, since the Hermite diagonal is positive. A point model
    (d = 0) has no forms.
    """
    model = restrict_to_affine_lattice(simplex)
    d = model.dimension
    if d == 0:
        return (), 1, ()
    adj, det_h = linalg.adjugate([[v[i] for v in model.vertices[1:]] for i in range(d)])
    spread = tuple(max(abs(v[j]) for v in model.vertices) for j in range(d))
    return tuple(map(tuple, adj)), det_h, spread


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


def hstar_by_interpolation(
    simplex: LatticeSimplex, scan_cap: int = DEFAULT_SCAN_CAP
) -> HStarVector:
    """h* from the counts E(0..d) alone: h_j = sum_i (-1)^i C(d+1, i) E(j-i).

    Uses exactly d+1 counts; E(d+1) is deliberately left out so it can serve
    as a held-out consistency check.
    """
    d = simplex.dimension
    counts = [count_lattice_points(simplex, n, scan_cap) for n in range(d + 1)]
    coeffs = [
        sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1))
        for j in range(d + 1)
    ]
    if any(c < 0 for c in coeffs):
        raise InternalCheckError(f"negative interpolated coefficient: {coeffs}")
    return HStarVector.of(coeffs)


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
    simplex: LatticeSimplex, h: HStarVector, scan_cap: int = DEFAULT_SCAN_CAP
) -> CrossValidation:
    """The given h* against interpolation h*, and the held-out count against
    it, for any simplex; a lower-dimensional one's cap counts its model's box."""
    oracle_h = hstar_by_interpolation(simplex, scan_cap)
    try:
        heldout: bool | None = heldout_count_matches(simplex, h, scan_cap)
    except ScanTooLargeError:
        heldout = None
    return CrossValidation(oracle_h, h.coeffs == oracle_h.coeffs, heldout)
