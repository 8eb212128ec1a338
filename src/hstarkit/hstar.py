"""h*-vectors: construction from fractional-weight groups, derived
quantities, and the classical structural facts as executable checks."""
from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .boxgroup import BoxGroup
from .errors import InternalCheckError, ScanTooLargeError
from .simplex import LatticeSimplex


@dataclass(frozen=True)
class HStarVector:
    """Nonnegative integer coefficients h_0, h_1, ... with h_0 = 1.

    Trailing zeros are trimmed.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        # As in ``of``: a float or string coefficient raises TypeError.
        object.__setattr__(self, "coeffs", tuple(map(operator.index, self.coeffs)))
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("leading coefficient must be 1")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("trailing zeros must be trimmed; use HStarVector.of")

    @classmethod
    def of(cls, coeffs: Sequence[int]) -> "HStarVector":
        c = list(map(operator.index, coeffs))
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def normalized_volume(self) -> int:
        return sum(self.coeffs)

    def __mul__(self, other: "HStarVector") -> "HStarVector":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return HStarVector.of(out)

    def truncated(self, k: int) -> "HStarVector":
        """Coefficients 0..k with trailing zeros trimmed."""
        return HStarVector.of(self.coeffs[: k + 1])


def hstar_from_box_group(group: BoxGroup) -> HStarVector:
    """Coefficient h equals the number of group elements of height h."""
    counts = group.level_counts()
    out = [0] * (max(counts) + 1)
    for h, c in counts.items():
        out[h] = c
    return HStarVector.of(out)


def ehrhart_from_hstar(h: HStarVector, d: int, n: int) -> int:
    """Lattice-point count of the n-th dilate: sum_i h_i * C(n+d-i, d)."""
    if n < 0:
        raise ValueError("dilation must be nonnegative")
    if h.degree > d:
        raise ValueError("h* has more coefficients than dimension + 1")
    return sum(c * comb(n + d - i, d) for i, c in enumerate(h.coeffs))


def structural_facts(
    simplex: LatticeSimplex,
    h: HStarVector,
    scan_cap: int | None = None,
) -> tuple[str, ...]:
    """Check the classical facts tying h* to its simplex; return the names of
    the facts whose count exceeded the scan cap.

    Counted: h_1 = |P| - (d+1), and h_i = interior count of the
    (d+1-i)-dilate for degree <= i <= d (so h_d = interior count of P).
    Read from ``condition_report`` at dimension d: ``eq1`` (h_1 >= h_d when
    d >= 1) and ``hibi`` (h_1 <= h_i for 1 <= i <= d - 1 when h_d > 0).
    These are theorems, so a degree above d or any violated fact raises
    InternalCheckError naming the fact and its two sides.
    """
    from . import oracle  # local imports: both modules build on this one
    from .theorem import condition_report

    d = simplex.dimension
    if h.degree > d:
        raise InternalCheckError(
            f"structural fact violated: degree-at-most-dimension ({h.degree} vs {d})"
        )
    kwargs = {} if scan_cap is None else {"scan_cap": scan_cap}
    lattice, interior = oracle.count_lattice_points, oracle.count_interior_points
    # (name, count, dilate, h* side, offset subtracted from the count)
    facts = [("point-count-minus-vertices", lattice, 1, h.coefficient(1), d + 1)]
    facts += [(f"interior-count-dilate-{d + 1 - i}", interior, d + 1 - i, h.coefficient(i), 0)
              for i in range(h.degree, d + 1)]
    skipped: list[str] = []
    failures: list[str] = []
    for name, count, n, lhs, offset in facts:
        try:
            rhs = count(simplex, n, **kwargs) - offset
        except ScanTooLargeError:
            skipped.append(name)
            continue
        if lhs != rhs:
            failures.append(f"{name} ({lhs} vs {rhs})")
    entries = {e.name: e for e in condition_report(h, dim=d)}
    eq1, hibi = entries["eq1"], entries["hibi"]
    if eq1.status == "fails":
        failures.append(f"eq1 ({eq1.detail['h1']} vs {eq1.detail['hd']})")
    if hibi.status == "fails":
        first = h.coefficient(hibi.detail["first_violation_index"])
        failures.append(f"hibi ({first} vs {hibi.detail['h1']})")
    if failures:
        raise InternalCheckError("structural fact violated: " + "; ".join(failures))
    return tuple(skipped)
