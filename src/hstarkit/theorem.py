"""Face extraction from a zero window, certified, and the classical
realizability conditions on h*-vectors.

The central construction: when the coefficients h_{k+1}, ..., h_{2k} of a
lattice simplex all vanish, the elements of height at most k form a subgroup
of the fractional-weight group whose support selects a face realizing
exactly the truncated h*-polynomial. ``extract_face`` carries that out and
returns one certificate that records the window, both lemmas' verdicts and
the face. ``condition_report`` evaluates the published realizability
conditions on a bare coefficient vector, one ``ConditionEntry`` per
condition.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .boxgroup import DEFAULT_VOLUME_CAP, BoxGroup, enumerate_box_group
from .errors import HypothesisNotMetError, InternalCheckError, InvalidParametersError
from .hstar import HStarVector, hstar_from_box_group
from .simplex import LatticeSimplex, face


def _check_k(k: int) -> None:
    """The window parameter must be at least 1. The face-extraction theorem
    assumes k >= 3; smaller k is allowed only as an exploratory relaxation."""
    if k < 1:
        raise InvalidParametersError("window parameter k must be >= 1")


def check_zero_window(h: HStarVector, k: int) -> bool:
    """True iff coefficients k+1 through 2k (inclusive) are all zero; only
    the stored coefficients are read, so any k costs O(degree)."""
    _check_k(k)
    return not any(h.coeffs[k + 1 : 2 * k + 1])


def _lex_sorted(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


def _is_subgroup(rows: np.ndarray, group: BoxGroup) -> bool:
    """Is the set S of the given residue rows (distinct elements of the
    group, over its exponent) a subgroup?

    A nonempty finite subset of a group that is closed under addition is a
    subgroup, so only addition is checked; the empty set is not one, and
    the whole group is one by construction of the enumeration. Translation
    is injective, so S + g lies in S exactly when its sorted rows equal
    those of S. Closure is checked through generators picked greedily from
    S in row order: a row not yet in the span H of the earlier generators
    becomes the next one, once S + g equals S. Every row then lies in the
    final H, so S + S lies in S + H = S. Checking before growing keeps H
    inside S, and each generator at least doubles H, so at most
    1 + log2 |S| sorts of |S| rows replace a sweep over all |S|^2 pairs.
    """
    if len(rows) == 0:
        return False
    if len(rows) == group.order:
        return True
    q = group.exponent
    ordered = _lex_sorted(rows)
    span = {(0,) * rows.shape[1]}
    for g in map(tuple, rows.tolist()):
        if g in span:
            continue
        shift = np.array(g, dtype=rows.dtype)
        if not np.array_equal(_lex_sorted((rows + shift) % q), ordered):
            return False
        # H + <g> is the union of the cosets H + m*g up to the first m*g in H.
        base = np.array(list(span), dtype=rows.dtype)
        step = shift
        while tuple(step.tolist()) not in span:
            span.update(map(tuple, ((base + step) % q).tolist()))
            step = (step + shift) % q
    return True


@dataclass(frozen=True, eq=False)
class ExtractionCertificate:
    """Everything the face extraction computed, verdicts included.

    ``lambda_prime`` is L', the elements of height at most k, as read-only
    residue rows over the group ``exponent`` in the group's canonical order.
    Equality compares every field, L' row by row.

    ``lemma31_ok`` states Lemma 3.1's bound |supp(a)| <= k + heit(a) for
    every a in L'; ``subgroup_ok`` that L' is a subgroup and
    ``support_bound_ok`` that its ``support`` has at most 4k - 1 vertices
    (Lemma 3.2). ``hstar_match`` states that the extracted face's
    h*-polynomial equals the truncation of the input's h* at degree k. When
    the hypothesis (window plus k >= 3) held, a certificate can only be
    returned with all four true.
    """

    k: int
    strict: bool
    window_ok: bool
    hypothesis_met: bool
    hstar: HStarVector
    lambda_prime: np.ndarray
    exponent: int
    support: tuple[int, ...]
    face_selector: tuple[int, ...]
    face_hstar: HStarVector
    truncation: HStarVector
    lemma31_ok: bool
    subgroup_ok: bool
    support_bound_ok: bool
    hstar_match: bool

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtractionCertificate):
            return NotImplemented
        rest = (f.name for f in fields(self) if f.name != "lambda_prime")
        return np.array_equal(self.lambda_prime, other.lambda_prime) and all(
            getattr(self, name) == getattr(other, name) for name in rest
        )


def extract_face(
    simplex: LatticeSimplex,
    k: int,
    strict: bool = False,
    volume_cap: int = DEFAULT_VOLUME_CAP,
) -> ExtractionCertificate:
    """Extract the face spanned by the support of the height-<=k elements.

    In strict mode the zero window and k >= 3 are enforced up front. In
    permissive mode the construction always runs and the certificate simply
    records which verdicts hold; with the hypothesis met, any failing
    verdict is raised as an internal error since the construction is then
    guaranteed to work.

    An empty support (only the zero element has height <= k) selects the
    single first vertex, whose h*-polynomial is 1; that agrees with the
    truncation exactly when h_1..h_k vanish, which is the only way the
    support can be empty under the hypothesis.
    """
    _check_k(k)
    group = enumerate_box_group(simplex, volume_cap=volume_cap)
    h = hstar_from_box_group(group)
    window_ok = check_zero_window(h, k)
    hypothesis_met = window_ok and k >= 3
    if strict and not hypothesis_met:
        raise HypothesisNotMetError(
            f"k={k} with h*={h.coeffs}: zero window "
            f"{'holds but k < 3' if window_ok else 'fails'}"
        )
    low = group.heights <= k
    low_rows = group.rows(low)
    low_rows.flags.writeable = False
    # Lemma 3.1 bounds the support of each element of L'; Lemma 3.2 makes L'
    # a subgroup whose support has at most 4k - 1 vertices.
    positive = low_rows > 0
    lemma31_ok = bool((positive.sum(axis=1) - group.heights[low] <= k).all())
    subgroup_ok = _is_subgroup(low_rows, group)
    supp = tuple(np.flatnonzero(positive.any(axis=0)).tolist())
    support_bound_ok = len(supp) <= 4 * k - 1
    selector = supp if supp else (0,)
    face_simplex = face(simplex, selector)
    face_group = enumerate_box_group(face_simplex, volume_cap=volume_cap)
    face_h = hstar_from_box_group(face_group)
    truncation = h.truncated(k)
    hstar_match = face_h.coeffs == truncation.coeffs
    certificate = ExtractionCertificate(
        k=k,
        strict=strict,
        window_ok=window_ok,
        hypothesis_met=hypothesis_met,
        hstar=h,
        lambda_prime=low_rows,
        exponent=group.exponent,
        support=supp,
        face_selector=selector,
        face_hstar=face_h,
        truncation=truncation,
        lemma31_ok=lemma31_ok,
        subgroup_ok=subgroup_ok,
        support_bound_ok=support_bound_ok,
        hstar_match=hstar_match,
    )
    if hypothesis_met and not (hstar_match and subgroup_ok and support_bound_ok and lemma31_ok):
        raise InternalCheckError(
            f"face extraction failed under a true hypothesis: {certificate}"
        )
    return certificate


# ---------------------------------------------------------------------------
# Condition checks on bare coefficient vectors.


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..41, proved exact
    below 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, 2015);
    larger n raises InvalidParametersError. False for every n < 2."""
    if n >= 3_317_044_064_679_887_385_961_981:
        raise InvalidParametersError(
            f"primality test refused for a {n.bit_length()}-bit number: "
            "it is proved exact only below 3317044064679887385961981"
        )
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    # n - 1 = d * 2**s with d odd; n is a strong probable prime to base a
    # when a**d = 1 or a**(d * 2**r) = -1 (mod n) for some r < s.
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)) for a in bases
    )


def check_shifted_symmetric(h: HStarVector, d: int) -> bool:
    """h_{i+1} == h_{d-i} for every 0 <= i <= d-1 (d = dimension), i.e. the
    level symmetry h_i == h_{c-i} for 0 < i < c at center c = d + 1.

    The pairs are symmetric and h_j = 0 past the degree, so checking
    i + 1 <= min(d, degree) covers every pair at O(degree) for any d."""
    return all(h.coefficient(i + 1) == h.coefficient(d - i) for i in range(min(d, h.degree)))


@dataclass(frozen=True)
class ConditionEntry:
    name: str
    status: str
    detail: dict


def condition_report(h: HStarVector, dim: int | None = None) -> tuple[ConditionEntry, ...]:
    """All condition verdicts for one vector, as data, one entry per condition.

    ``dim`` gates the dimension-indexed checks; one below the degree is
    refused. A condition outside its gate is ``not_applicable``.

    - ``scott``, ``degree2``, ``universal``: the three-way quadratic bound
      on (h_1, h_2), reporting as ``via`` the first that holds of (1)
      h_2 = 0, (2) h_1 <= 3 h_2 + 3 and (3) h_1 = 7, h_2 = 1, or
      ``violates_all``. ``scott`` is the polygon version: it needs dimension
      2 (degree at most 2 without ``dim``) and adds the lower bound
      h_2 <= h_1 to (2). ``degree2`` applies to degree at most 2 and
      ``universal`` to any vector with h_3 = 0, both without the lower bound.
    - ``hibi``: h_1 <= h_i for 1 <= i < d when h_d > 0 (d = ``dim``).
    - ``eq1``: h_1 >= h_d, for d >= 1.
    - ``lemma_hhh``: not realizable when the nonzero coefficients are
      exactly h_0 = 1, h_i = 1 and h_j = p - 2 with 2 <= i < j and the
      normalized volume p a prime >= 5. One-directional: anything else is
      inconclusive.
    - ``shifted_symmetric``: ``check_shifted_symmetric`` at d.
    - ``prime_symmetry``: applies when h_1 = 0 and the normalized volume p
      is prime. A vanishing linear coefficient forces any realizing
      polytope to be a simplex whose only lattice points are its vertices;
      a prime volume then makes the weight group cyclic of prime order,
      whose nonzero elements all share one support, say of size c. Pairing
      each element with its negative gives the level symmetry
      h_i = h_{c-i} for 0 < i < c. It pairs the least i0 >= 1 with h_i0 > 0
      with the degree, so only c = deg + i0 is checked, in O(degree): it is
      ``valid_center`` (inconclusive), or no lattice polytope has this h*.
    """
    if dim is not None and dim < h.degree:
        raise InvalidParametersError(f"dimension {dim} is below the degree {h.degree} of h*")
    h1, h2 = h.coefficient(1), h.coefficient(2)

    def scott(name: str, applicable: bool, lower_bound: bool) -> ConditionEntry:
        if not applicable:
            return ConditionEntry(name, "not_applicable", {})
        via = None
        if h2 == 0:
            via = 1
        elif (h2 <= h1 or not lower_bound) and h1 <= 3 * h2 + 3:
            via = 2
        elif h1 == 7 and h2 == 1:
            via = 3
        status = "violates_all" if via is None else "satisfied"
        return ConditionEntry(name, status, {"via": via, "h1": h1, "h2": h2})

    entries = [
        scott("scott", (dim == 2) if dim is not None else h.degree <= 2, True),
        scott("degree2", h.degree <= 2, False),
        scott("universal", h.coefficient(3) == 0, False),
    ]

    hd = None if dim is None else h.coefficient(dim)
    if dim is None:
        entries.append(ConditionEntry("hibi", "not_applicable", {}))
    elif hd > 0:
        bad = [i for i in range(1, dim) if h.coefficient(i) < h1]
        entries.append(
            ConditionEntry(
                "hibi",
                "holds" if not bad else "fails",
                {"h1": h1, "first_violation_index": bad[0] if bad else None},
            )
        )
    else:
        entries.append(ConditionEntry("hibi", "not_applicable", {"hd": 0}))
    if dim in (None, 0):
        entries.append(ConditionEntry("eq1", "not_applicable", {}))
    else:
        entries.append(
            ConditionEntry("eq1", "holds" if h1 >= hd else "fails", {"h1": h1, "hd": hd})
        )

    p = h.normalized_volume
    nonzero = [idx for idx, c in enumerate(h.coeffs) if c]
    # With h_0 = h_i = 1, the one other coefficient h_j is p - 2.
    if len(nonzero) == 3 and nonzero[1] >= 2 and h.coeffs[nonzero[1]] == 1 and p >= 5 and is_prime(p):
        i, j = nonzero[1:]
        entries.append(ConditionEntry("lemma_hhh", "not_realizable", {"i": i, "j": j, "p": p}))
    else:
        entries.append(
            ConditionEntry("lemma_hhh", "inconclusive", {"i": None, "j": None, "p": None})
        )

    if dim is None:
        entries.append(ConditionEntry("shifted_symmetric", "not_applicable", {}))
    else:
        entries.append(
            ConditionEntry(
                "shifted_symmetric",
                "holds" if check_shifted_symmetric(h, dim) else "fails",
                {"dim": dim},
            )
        )

    # h_1 = 0 with a prime p rules out the point, whose p is 1: i0 = nonzero[1].
    if h1 != 0 or not is_prime(p):
        status, center = "not_applicable", None
    else:
        c = h.degree + nonzero[1]
        center = c if check_shifted_symmetric(h, c - 1) else None
        status = "not_realizable" if center is None else "inconclusive"
    entries.append(ConditionEntry("prime_symmetry", status, {"p": p, "valid_center": center}))
    return tuple(entries)
