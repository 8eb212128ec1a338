"""The finite abelian group of fractional vertex-weight tuples of a simplex.

For a full-dimensional lattice simplex with vertices v_1, ..., v_{n+1}, the
group consists of all tuples (r_1, ..., r_{n+1}) with 0 <= r_i < 1 such that
sum r_i * v_i is a lattice point and sum r_i is an integer. Addition is
coordinatewise fractional-part addition, negation is coordinatewise 1 - r on
the support, and the group order equals the normalized volume. The integer
coordinate sum of an element is its height; the number of elements of height
h is exactly the h-th coefficient of the simplex's h*-polynomial, which is
how everything downstream computes h*.

A ``BoxGroup`` stores the whole group as one integer array: row i holds the
numerators of element i over the group exponent q, next to an array of the
row heights. h* is a count over the heights. Single elements are
``BoxPoint`` objects (reduced integer numerators over their own
denominator, which keeps the group law in pure integer arithmetic; ``coords``
exposes the exact rationals); a group builds them only when a caller asks
for its elements. ``add`` and ``neg`` are the group law on single elements,
a public view: the package itself works on the residue array.

``enumerate_by_box_scan`` is an independent second enumeration, used to
check the first: no Smith form, no ``BoxGroup``. It reads the group off the
coset representatives prod_t [0, H_tt) of the lower-triangular Hermite model
H of the simplex, in one numpy pass, on int64 while n * vol**2 stays below
``INT64_LIMIT`` and on Python integers otherwise, and returns residue rows
over vol = det H.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterator, Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    NonIntegralHeightError,
    VolumeTooLargeError,
)
from .simplex import LatticeSimplex, homogenize, restrict_to_affine_lattice

DEFAULT_VOLUME_CAP = 10**6
# int64 residue arithmetic is used only while every intermediate value stays
# below this bound; beyond it the same code runs on Python integers.
INT64_LIMIT = 2**62


@dataclass(frozen=True)
class BoxPoint:
    """One fractional-weight tuple; coordinate i equals nums[i] / den.

    Stored reduced: den > 0 and gcd(den, *nums) == 1, each num in [0, den).
    Points order by (height, coordinates), exactly.
    """

    nums: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0 or any(x < 0 or x >= self.den for x in self.nums):
            raise ValueError("numerators must lie in [0, den)")

    def __lt__(self, other: "BoxPoint") -> bool:
        return (self.height, self.coords) < (other.height, other.coords)

    @classmethod
    def from_scaled(cls, nums: Sequence[int], den: int) -> "BoxPoint":
        nums = tuple(x % den for x in nums)
        g = gcd(den, *nums) if nums else den
        return cls(nums=tuple(x // g for x in nums), den=den // g)

    @classmethod
    def from_fractions(cls, coords: Sequence[Fraction]) -> "BoxPoint":
        den = lcm(*(c.denominator for c in coords)) if coords else 1
        return cls.from_scaled([c.numerator * (den // c.denominator) for c in coords], den)

    @classmethod
    def zero(cls, length: int) -> "BoxPoint":
        return cls(nums=(0,) * length, den=1)

    def __len__(self) -> int:
        return len(self.nums)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def height(self) -> int:
        total = sum(self.nums)
        if total % self.den:
            raise NonIntegralHeightError(
                f"coordinate sum {total}/{self.den} is not an integer"
            )
        return total // self.den

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.nums) if x > 0)

    @property
    def support_size(self) -> int:
        return sum(1 for x in self.nums if x > 0)

    def is_zero(self) -> bool:
        return not any(self.nums)


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
    """Complete fractional-weight group of a full-dimensional simplex.

    ``residues`` is a read-only (order, n+1) integer array: row i holds the
    numerators of element i over the exponent q. ``heights`` holds the row
    heights. Rows are sorted by (height, coordinates) so that every
    downstream report is deterministic. ``elements`` is the same group as
    ``BoxPoint`` objects, built on first use.
    """

    simplex: LatticeSimplex
    order: int
    invariant_factors: tuple[int, ...]
    residues: np.ndarray
    heights: np.ndarray

    @cached_property
    def elements(self) -> tuple[BoxPoint, ...]:
        return self.points(slice(None))

    def points(self, rows) -> tuple[BoxPoint, ...]:
        """The elements of the selected rows (a slice, mask or index array),
        in the group's canonical order."""
        q = self.exponent
        return tuple(BoxPoint.from_scaled(r, q) for r in self.residues[rows].tolist())

    def __iter__(self) -> Iterator[BoxPoint]:
        # Unused in the package; perfbench's tracer test iterates a group.
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    @property
    def zero(self) -> BoxPoint:
        return BoxPoint.zero(self.residues.shape[1])

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def level_counts(self) -> dict[int, int]:
        counts = np.bincount(self.heights).tolist()
        return {h: c for h, c in enumerate(counts) if c}


def enumerate_box_group(
    simplex: LatticeSimplex, volume_cap: int = DEFAULT_VOLUME_CAP
) -> BoxGroup:
    """Enumerate the whole group of a full-dimensional simplex.

    The quotient of the standard lattice by the column lattice of the
    homogenized matrix M is walked through the Smith decomposition
    U M W = D: residue tuples y over the invariant factors map to the
    fractional parts of W (y_1/d_1, ..., y_k/d_k), giving each group element
    once. The residue array over q is built by broadcasting, one active
    invariant factor at a time, at a cost of O(order * (n+1)) integer
    operations after the decomposition, independent of coordinate sizes.
    """
    matrix = homogenize(simplex)
    dec = linalg.smith_normal_form(matrix)
    factors = dec.invariant_factors
    order = prod(factors)
    if order > volume_cap:
        raise VolumeTooLargeError(order, volume_cap, "weight-group enumeration")
    k = len(factors)
    q = factors[-1]
    # Entries stay below q*q + q while building and row sums below k*q.
    dtype = np.int64 if max(q * q + q, k * q) < INT64_LIMIT else object
    arr = np.zeros((1, k), dtype=dtype)
    for j, d in enumerate(factors):
        if d == 1:
            continue
        # W entries can be huge: reduce the step in Python before numpy sees it.
        step = np.array([dec.W.rows[i][j] * (q // d) % q for i in range(k)], dtype=dtype)
        multiples = np.arange(d, dtype=dtype)[:, None] * step
        arr = ((arr[:, None, :] + multiples) % q).reshape(-1, k)
    sums = arr.sum(axis=1)
    if (sums % q).any():  # pragma: no cover - the all-ones matrix row forces this
        raise NonIntegralHeightError("element with non-integral coordinate sum")
    heights = (sums // q).astype(np.int64)
    perm = np.lexsort(tuple(arr[:, i] for i in reversed(range(k))) + (heights,))
    arr, heights = arr[perm], heights[perm]
    # Sorted rows are duplicate-free iff no two neighbours are equal.
    if not (arr[1:] != arr[:-1]).any(axis=1).all():  # pragma: no cover - unimodularity
        raise NonIntegralHeightError("enumeration produced duplicate elements")
    arr.flags.writeable = False
    heights.flags.writeable = False
    return BoxGroup(
        simplex=simplex,
        order=order,
        invariant_factors=factors,
        residues=arr,
        heights=heights,
    )


def enumerate_by_box_scan(simplex: LatticeSimplex, cap: int = 200) -> tuple[np.ndarray, int]:
    """Debug oracle: the group read off coset representatives in the
    triangular Hermite model, with no Smith form and no ``BoxGroup``.

    Returns the read-only (vol, n+1) array of numerators over vol = det H,
    one row per element, sorted by (height, coordinates) like
    ``BoxGroup.residues``, and vol itself. Rows are not reduced: a row
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
    if volume > cap:
        raise VolumeTooLargeError(volume, cap, "box scan")
    edges = linalg.IntMatrix.from_rows(
        [[v[i] for v in model.vertices[1:]] for i in range(n)], ncols=n
    )
    adj, _ = linalg.adjugate(edges)
    dtype = np.int64 if n * volume * volume < INT64_LIMIT else object
    forms = np.array([[x % volume for x in row] for row in adj.rows], dtype=dtype).reshape(n, n)
    reps = np.indices(diagonal).reshape(n, volume).astype(dtype)
    weights = (forms @ reps % volume).T
    sums = weights.sum(axis=1)
    heights = -(-sums // volume)
    arr = np.column_stack([heights * volume - sums, weights])
    perm = np.lexsort(tuple(arr[:, i] for i in reversed(range(n + 1))) + (heights,))
    arr = arr[perm]
    arr.flags.writeable = False
    return arr, volume
