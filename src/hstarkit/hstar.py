"""h*-vectors: construction from fractional-weight groups, derived
quantities, and the classical structural facts as executable checks."""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Sequence

from .boxgroup import BoxGroup
from .errors import InternalCheckError, ScanTooLargeError
from .simplex import LatticeSimplex


def binomial(a: int, b: int) -> int:
    """C(a, b), defined as 0 whenever a < b or b < 0."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


@dataclass(frozen=True)
class HStarVector:
    """Nonnegative integer coefficients h_0, h_1, ... with h_0 = 1.

    Trailing zeros are trimmed; ``dim_context``, when present, records the
    dimension of the simplex the vector came from (needed by the facts that
    are indexed by dimension rather than degree). Equality compares the
    coefficients only.
    """

    coeffs: tuple[int, ...]
    dim_context: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("leading coefficient must be 1")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("trailing zeros must be trimmed; use HStarVector.of")
        if self.dim_context is not None and len(self.coeffs) > self.dim_context + 1:
            raise ValueError("more coefficients than dimension + 1")

    @classmethod
    def of(cls, coeffs: Sequence[int], dim_context: int | None = None) -> "HStarVector":
        c = list(int(x) for x in coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return cls(tuple(c), dim_context)

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
    return HStarVector.of(out, dim_context=len(group.column_map) - 1)


def ehrhart_from_hstar(h: HStarVector, d: int, n: int) -> int:
    """Lattice-point count of the n-th dilate: sum_i h_i * C(n+d-i, d)."""
    if n < 0:
        raise ValueError("dilation must be nonnegative")
    if h.degree > d:
        raise ValueError("h* has more coefficients than dimension + 1")
    return sum(c * binomial(n + d - i, d) for i, c in enumerate(h.coeffs))


@dataclass(frozen=True)
class FactCheck:
    name: str
    lhs: int | None
    rhs: int | None
    ok: bool
    skipped: bool = False
    note: str = ""


@dataclass(frozen=True)
class FactReport:
    checks: tuple[FactCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok or c.skipped for c in self.checks)

    @property
    def failures(self) -> tuple[FactCheck, ...]:
        return tuple(c for c in self.checks if not c.ok and not c.skipped)


def structural_facts(
    simplex: LatticeSimplex,
    h: HStarVector,
    scan_cap: int | None = None,
) -> FactReport:
    """Check the classical identities tying h* to lattice-point counts.

    Verified: h_1 = |P| - (d+1); h_i = interior count of the (d+1-i)-dilate
    for degree <= i <= d (so in particular h_d = interior count of P);
    h_1 >= h_d when d >= 1; nonnegativity; and, when h_d > 0, h_i >= h_1 for
    1 <= i <= d - 1. These are theorems, so any failure raises
    InternalCheckError; counts whose scan exceeds the cap are recorded as
    skipped.
    """
    from . import oracle  # local import: oracle builds on this module

    d = simplex.dimension
    checks: list[FactCheck] = []

    def count_or_skip(name, fn, *args):
        try:
            return fn(*args) if scan_cap is None else fn(*args, scan_cap=scan_cap)
        except ScanTooLargeError:
            checks.append(
                FactCheck(name, None, None, ok=True, skipped=True, note="scan cap")
            )
            return None

    e1 = count_or_skip("point-count-minus-vertices", oracle.count_lattice_points, simplex, 1)
    if e1 is not None:
        checks.append(
            FactCheck("point-count-minus-vertices", h.coefficient(1), e1 - (d + 1),
                      ok=h.coefficient(1) == e1 - (d + 1))
        )
    for i in range(h.degree, d + 1):
        name = f"interior-count-dilate-{d + 1 - i}"
        inner = count_or_skip(name, oracle.count_interior_points, simplex, d + 1 - i)
        if inner is not None:
            checks.append(FactCheck(name, h.coefficient(i), inner, ok=h.coefficient(i) == inner))
    hd = h.coefficient(d)
    if d >= 1:  # for a point, h_d = h_0 = 1 and h_1 = 0
        checks.append(
            FactCheck("linear-coefficient-dominates-top", h.coefficient(1), hd,
                      ok=h.coefficient(1) >= hd)
        )
    checks.append(
        FactCheck("nonnegative", min(h.coeffs), 0, ok=min(h.coeffs) >= 0)
    )
    if hd > 0:
        worst = min((h.coefficient(i) for i in range(1, d)), default=h.coefficient(1))
        checks.append(
            FactCheck("interior-forces-lower-bound", worst, h.coefficient(1),
                      ok=worst >= h.coefficient(1))
        )
    report = FactReport(tuple(checks))
    if not report.ok:
        raise InternalCheckError(
            "structural fact violated: "
            + "; ".join(f"{c.name} ({c.lhs} vs {c.rhs})" for c in report.failures)
        )
    return report
