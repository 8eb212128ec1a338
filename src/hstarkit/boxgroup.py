"""The finite abelian group of fractional vertex-weight tuples of a simplex.

For a full-dimensional lattice simplex with vertices v_1, ..., v_{n+1}, the
group consists of all tuples (r_1, ..., r_{n+1}) with 0 <= r_i < 1 such that
sum r_i * v_i is a lattice point and sum r_i is an integer. Addition is
coordinatewise fractional-part addition, negation is coordinatewise 1 - r on
the support, and the group order equals the normalized volume. The integer
coordinate sum of an element is its height; the number of elements of height
h is exactly the h-th coefficient of the simplex's h*-polynomial, which is
how everything downstream computes h*.

A ``BoxGroup`` stores the whole group as its sorted table of distinct
residue columns: the Smith form shows which of the n+1 vertex columns are
equal before any array exists, so the group holds the m distinct columns
over the group exponent q, the map from each vertex to its column, and the
element heights. h* is a count over the heights. ``enumerate_box_group``
builds and sorts that table at O(order * m) cost; its sort packs (height,
distinct columns but the last, which the others fix) base q into as few
int64 keys as stay below ``INT64_LIMIT``. ``BoxGroup.rows`` gathers the
residue rows of just the s elements a caller selects, one numerator over q
per vertex, at O(s * (n+1)); no row is stored or cached.

The package works on the residue columns and rows alone. ``BoxPoint``,
``add``, ``neg`` and ``BoxGroup.__iter__`` are an element-by-element view
kept only for the benchmark in ``perfbench``, which still reads them.

``enumerate_by_box_scan`` is an independent second enumeration, used to
check the first: no Smith form, no ``BoxGroup``. It reads the group off the
coset representatives prod_t [0, H_tt) of the lower-triangular Hermite model
H of the simplex, in one numpy pass, on int64 while n * vol**2 stays below
``INT64_LIMIT`` and on Python integers otherwise, and returns residue rows
over vol = det H.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterator, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, InternalCheckError, VolumeTooLargeError
from .linalg import INT64_LIMIT
from .simplex import LatticeSimplex, homogenize, restrict_to_affine_lattice

DEFAULT_VOLUME_CAP = 10**6


# perfbench reads BoxPoint, add, neg and BoxGroup.__iter__ (its tracer test
# adds two iterated elements through verify.add), and nothing else does;
# they go once the benchmark stops reading them.
@dataclass(frozen=True)
class BoxPoint:
    """One fractional-weight tuple; coordinate i equals nums[i] / den.

    Stored reduced: den > 0 and gcd(den, *nums) == 1, each num in [0, den).
    """

    nums: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0 or any(x < 0 or x >= self.den for x in self.nums):
            raise ValueError("numerators must lie in [0, den)")

    @classmethod
    def from_scaled(cls, nums: Sequence[int], den: int) -> "BoxPoint":
        nums = tuple(x % den for x in nums)
        g = gcd(den, *nums) if nums else den
        return cls(nums=tuple(x // g for x in nums), den=den // g)

    def __len__(self) -> int:
        return len(self.nums)


def add(a: BoxPoint, b: BoxPoint) -> BoxPoint:
    """Coordinatewise fractional-part sum."""
    if len(a) != len(b):
        raise DimensionMismatchError("cannot add tuples of different lengths")
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    return BoxPoint.from_scaled(
        [x * fa + y * fb for x, y in zip(a.nums, b.nums)], den
    )


def neg(a: BoxPoint) -> BoxPoint:
    """Group inverse: coordinatewise 1 - r on the support, 0 elsewhere."""
    return BoxPoint.from_scaled([(-x) % a.den for x in a.nums], a.den)


@dataclass(frozen=True, eq=False)
class BoxGroup:
    """Complete fractional-weight group of a simplex.

    ``columns`` is a read-only (m, order) integer array of the distinct
    residue columns over the exponent q, and vertex i has column
    ``column_map[i]``. ``heights`` holds the element heights, so ``order``
    is their count. Elements are sorted by (height, coordinates) so that
    every downstream report is deterministic. ``rows`` gathers the
    numerators of selected elements, one column per vertex.
    """

    invariant_factors: tuple[int, ...]
    columns: np.ndarray
    column_map: tuple[int, ...]
    heights: np.ndarray

    def rows(self, select=slice(None)) -> np.ndarray:
        """A fresh (s, n+1) array whose rows hold the numerators over q of
        the selected elements (a slice, mask or index array), in the group's
        canonical order, at O(s * (n+1))."""
        return self.columns[:, select].T.take(self.column_map, axis=1)

    def __iter__(self) -> Iterator[BoxPoint]:
        q = self.exponent
        return (BoxPoint.from_scaled(r, q) for r in self.rows().tolist())

    def __len__(self) -> int:
        return len(self.heights)

    order = property(__len__)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def level_counts(self) -> dict[int, int]:
        counts = np.bincount(self.heights).tolist()
        return {h: c for h, c in enumerate(counts) if c}


def enumerate_box_group(
    simplex: LatticeSimplex, volume_cap: int = DEFAULT_VOLUME_CAP
) -> BoxGroup:
    """Enumerate the whole group of any simplex, a lower-dimensional one in its model.

    The quotient of the standard lattice by the column lattice of the
    homogenized matrix M is walked through the Smith decomposition
    U M W = D: residue tuples y over the invariant factors map to the
    fractional parts of W (y_1/d_1, ..., y_k/d_k), giving each group element
    once. Column i of the residue array over q is sum_j y_j * S_ij mod q,
    with steps S_ij = W_ij * (q / d_j) over the nontrivial factors d_j, so
    columns with equal step tuples are equal. The m distinct columns are
    built by broadcasting, one nontrivial factor at a time, sorted, and
    kept as the group's ``columns``, with ``column_map`` sending each of
    the k = n+1 vertices to its column. That costs O(order * m) integer
    operations for the build, the checks and the sort keys, after the
    decomposition, independent of coordinate sizes; no row is widened to
    k columns until a caller gathers it with ``BoxGroup.rows``.

    The sort key is (height, distinct columns in order of first
    appearance, but the last). It gives the (height, coordinates) order of
    the rows, because a repeated column never breaks a tie that its first
    copy left, and the last distinct column breaks none: the
    multiplicity-weighted row sum is height * q, so the height and the
    other columns fix it. Its digits are packed base q, the height leading,
    into as few integer keys as stay below ``INT64_LIMIT``: one key is
    sorted by ``argsort``, more by ``lexsort``.
    """
    if not simplex.is_full_dimensional:
        simplex = restrict_to_affine_lattice(simplex)
    factors, w = linalg.smith_normal_form(homogenize(simplex))
    order = prod(factors)
    if order > volume_cap:
        raise VolumeTooLargeError(order, volume_cap, "weight-group enumeration")
    k = len(factors)
    q = factors[-1]
    active = [(j, d) for j, d in enumerate(factors) if d > 1]
    # Row i of W gives the step tuple of column i. W entries can be huge:
    # steps are reduced in Python before numpy sees them. With no
    # nontrivial factor every step tuple is empty.
    tuples = list(zip(*[[row[j] * (q // d) % q for row in w] for j, d in active]))
    # Distinct step tuples, numbered in order of first appearance.
    first: dict[tuple[int, ...], int] = {}
    cols = [first.setdefault(t, len(first)) for t in tuples or [()] * k]
    m = len(first)
    # Row c of `table` is distinct column c over all elements. Steps times
    # multipliers stay below q*q, entries below 2*q and row sums below k*q.
    dtype = np.int64 if max(q * q + q, k * q) < INT64_LIMIT else object
    table = np.zeros((m, 1), dtype=dtype)
    for (_, d), step in zip(active, zip(*first)):
        multiples = np.array(step, dtype=dtype)[:, None] * np.arange(d, dtype=dtype) % q
        table = (table[:, :, None] + multiples[:, None, :]).reshape(m, -1)
        np.subtract(table, q, out=table, where=table >= q)
    sums = np.array([cols.count(c) for c in range(m)], dtype=dtype) @ table
    # The checks count with np.count_nonzero, which costs a third of
    # ndarray.any on the tiny arrays of the many order-1 face groups.
    if np.count_nonzero(sums % q):  # the all-ones matrix row forces this
        raise InternalCheckError("element with non-integral coordinate sum")
    # The first key holds the height and, unless it is the last, column 0,
    # as sums + c_0 = height * q + c_0 < k * q, and takes more columns
    # while it stays below k * q**a <= INT64_LIMIT for its a columns; each
    # later key stays below q**b <= INT64_LIMIT for its b columns. On
    # int64, k * q < INT64_LIMIT.
    keys, span = [sums if m == 1 else sums + table[0]], k * q
    for c in range(1, m - 1):
        if span * q <= INT64_LIMIT:
            keys[-1] = keys[-1] * q + table[c]
            span *= q
        else:
            keys.append(table[c])
            span = q
    perm = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    # Sorted keys are duplicate-free iff no two neighbours agree on all keys.
    sorted_keys = [key[perm] for key in keys]
    ties = sorted_keys[0][1:] == sorted_keys[0][:-1]
    for key in sorted_keys[1:]:
        ties &= key[1:] == key[:-1]
    if np.count_nonzero(ties):  # W is unimodular
        raise InternalCheckError("enumeration produced duplicate elements")
    columns = table.take(perm, axis=1)
    heights = (sums[perm] // q).astype(np.int64, copy=False)
    columns.flags.writeable = False
    heights.flags.writeable = False
    return BoxGroup(
        invariant_factors=factors,
        columns=columns,
        column_map=tuple(cols),
        heights=heights,
    )


def enumerate_by_box_scan(
    simplex: LatticeSimplex, volume_cap: int = DEFAULT_VOLUME_CAP
) -> tuple[np.ndarray, int]:
    """Debug oracle: the group read off coset representatives in the
    triangular Hermite model, with no Smith form and no ``BoxGroup``.

    Returns the read-only (vol, n+1) array of numerators over vol = det H,
    one row per element, sorted by (height, coordinates) like
    ``BoxGroup.rows()``, and vol itself. Rows are not reduced: a row
    equals a group row over q exactly when row * q == residue * vol.

    The model (`restrict_to_affine_lattice`) has the origin and the columns
    of a lower-triangular H with positive diagonal as vertices, so
    x -> H^-1 x maps the cosets of H Z^n in Z^n one to one onto the group,
    and the box prod_t [0, H_tt) holds exactly one point of each coset (the
    triangle fixes x_t mod H_tt once x_0..x_{t-1} are fixed). With
    vol = det H = prod H_tt, representative x gets the numerators
    F = adj(H) x mod vol on vertices 1..n, height h = ceil(sum F / vol) and
    numerator h * vol - sum F on the origin. Any simplex is accepted; a
    lower-dimensional one gives the group of its model. The cap on vol is
    checked before the adjugate and before any array is allocated. adj(H) is
    reduced mod vol first, so every entry of its product with x is below
    n * vol**2: int64 is used below ``INT64_LIMIT``, Python integers
    otherwise.
    """
    model = restrict_to_affine_lattice(simplex)
    n = model.dimension
    diagonal = [model.vertices[t + 1][t] for t in range(n)]
    volume = prod(diagonal)
    if volume > volume_cap:
        raise VolumeTooLargeError(volume, volume_cap, "box scan")
    adj, _ = linalg.adjugate([[v[i] for v in model.vertices[1:]] for i in range(n)])
    dtype = np.int64 if n * volume * volume < INT64_LIMIT else object
    forms = np.array([[x % volume for x in row] for row in adj], dtype=dtype).reshape(n, n)
    reps = np.indices(diagonal).reshape(n, volume).astype(dtype)
    weights = (forms @ reps % volume).T
    sums = weights.sum(axis=1)
    heights = -(-sums // volume)
    arr = np.column_stack([heights * volume - sums, weights])
    perm = np.lexsort(tuple(arr[:, i] for i in reversed(range(n + 1))) + (heights,))
    arr = arr[perm]
    arr.flags.writeable = False
    return arr, volume
