import dataclasses
import functools
import hashlib
import itertools
import math
import time
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hstarkit import oracle, theorem, verify
from hstarkit.boxgroup import DEFAULT_VOLUME_CAP, enumerate_box_group
from hstarkit.errors import HypothesisNotMetError, InvalidParametersError
from hstarkit.families import delta_cm, join, prop43_instance, remark44_simplex, unit_simplex
from hstarkit.hstar import HStarVector, hstar_from_box_group
from hstarkit.io import SimplexDocument, canonical_dumps
from hstarkit.theorem import (
    _is_subgroup,
    check_shifted_symmetric,
    check_zero_window,
    condition_report,
    extract_face,
    is_prime,
)

from conftest import with_rows
from elements import add, as_rows, elements, height, neg, support, zero

H = HStarVector.of


class TestZeroWindow:
    def test_examples(self):
        assert not check_zero_window(H([1, 0, 2, 4, 2]), 3)
        assert check_zero_window(H([1, 0, 0, 2]), 3)
        assert not check_zero_window(H([1, 0, 1, 0, 1]), 2)

    def test_not_monotone_in_k(self):
        h = H([1, 0, 0, 2])
        assert check_zero_window(h, 3)
        assert not check_zero_window(h, 2)
        # the checker evaluates the definition literally: coefficients 2..2
        # of this vector vanish, so k = 1 passes even though k = 2 fails
        assert check_zero_window(h, 1)

    def test_k_validation(self):
        with pytest.raises(InvalidParametersError, match="window parameter k must be >= 1"):
            check_zero_window(H([1]), 0)
        # k is checked before the group is enumerated: the cap is not reached.
        with pytest.raises(InvalidParametersError, match="window parameter k must be >= 1"):
            extract_face(prop43_instance(3, 4), 0, volume_cap=1)


def _shifted_symmetric_loop(h, d):
    """The earlier check, one pair per index below d."""
    return all(h.coefficient(i + 1) == h.coefficient(d - i) for i in range(d))


class TestHugeParameters:
    """The window and symmetry checks read only the stored coefficients, so
    their cost does not grow with k or the dimension. The zero window's
    loop reference is ``test_zero_window_matches_slice_definition``."""

    def test_shifted_symmetric_matches_the_loop(self):
        for h in {H((1,) + tail) for tail in itertools.product(range(3), repeat=5)}:
            for d in range(-2, 13):
                assert check_shifted_symmetric(h, d) == _shifted_symmetric_loop(h, d), (h, d)

    @pytest.mark.parametrize("big", [10**12, 10**20], ids=["1e12", "past-int64"])
    def test_huge_k_and_dim_return_at_once(self, big):
        start = time.perf_counter()
        assert check_zero_window(H([1, 0, 2]), big)
        for simplex in (unit_simplex(2), delta_cm(2, 3)):
            cert = extract_face(simplex, big)
            assert cert.window_ok and cert.hstar_match and cert.hypothesis_met
            assert cert.lemma31_ok and cert.subgroup_ok
            assert len(cert.lambda_prime) == cert.hstar.normalized_volume
        entries = {e.name: e for e in condition_report(H([1]), dim=big)}
        assert entries["shifted_symmetric"].status == "holds"
        assert not check_shifted_symmetric(H([1, 1]), big)
        assert time.perf_counter() - start < 1.0


class TestLowSubgroup:
    def test_whole_group_when_k_large(self):
        g = enumerate_box_group(prop43_instance(3, 4))
        assert g.rows(g.heights <= 4).tolist() == g.rows().tolist()

    def test_unit_gives_zero_only(self):
        g = enumerate_box_group(unit_simplex(3))
        assert g.rows(g.heights <= 5).tolist() == [[0, 0, 0, 0]]

    def test_delta_23_all_heights_three(self):
        g = enumerate_box_group(delta_cm(2, 3))
        low = [p for p in elements(g) if height(p) <= 3]
        assert len(low) == len(g.rows(g.heights <= 3)) == 3
        assert sorted(height(p) for p in low) == [0, 3, 3]


class TestSupportBound:
    def test_unit_vacuous(self):
        cert = extract_face(unit_simplex(4), 3)
        assert cert.lemma31_ok and len(cert.lambda_prime) == 1

    def test_delta23_join_point(self):
        s = join(delta_cm(2, 3), unit_simplex(0))
        assert extract_face(s, 3).lemma31_ok
        for p in elements(enumerate_box_group(s)):
            if any(p):
                assert height(p) == 3 and len(support(p)) == 6


class TestLowSubgroupVerdict:
    def test_unit(self):
        cert = extract_face(unit_simplex(3), 3)
        assert cert.subgroup_ok and cert.support == () and cert.support_bound_ok

    def test_delta23_join_point(self):
        cert = extract_face(join(delta_cm(2, 3), unit_simplex(0)), 3)
        assert cert.subgroup_ok and cert.support_bound_ok
        assert len(cert.support) == 6 <= 4 * 3 - 1
        assert max(cert.lambda_prime.sum(axis=1)) == 3 * cert.exponent

    @pytest.mark.parametrize("c", range(1, 11))
    @pytest.mark.parametrize("k", [3, 4])
    def test_delta_family_bounds(self, c, k):
        cert = extract_face(delta_cm(c, k), k)
        assert cert.subgroup_ok and cert.support_bound_ok
        assert len(cert.support) == 2 * k <= 4 * k - 1


LEMMA_SIMPLICES = [
    remark44_simplex(2),
    prop43_instance(3, 4),
    join(delta_cm(3, 3), delta_cm(2, 7)),
    join(delta_cm(4, 3), delta_cm(4, 2)),
    join(delta_cm(2, 3), unit_simplex(0)),
    join(delta_cm(1, 1), delta_cm(1, 1)),  # at k = 1, L' spans all 4 > 4k - 1 vertices
]


class TestLemmaHelpersMatchElementLoops:
    """The lemma verdicts of a permissive extraction against the
    per-element definitions, with and without the zero window."""

    @pytest.mark.parametrize("simplex", LEMMA_SIMPLICES)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_support_bound(self, simplex, k):
        group = enumerate_box_group(simplex)
        low = [p for p in elements(group) if height(p) <= k]
        cert = extract_face(simplex, k)
        assert cert.lambda_prime.tolist() == as_rows(low, group.exponent)
        assert cert.lemma31_ok == all(len(support(p)) <= k + height(p) for p in low)

    @pytest.mark.parametrize("simplex", LEMMA_SIMPLICES)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_low_subgroup_verdict(self, simplex, k):
        g = enumerate_box_group(simplex)
        low = set(p for p in elements(g) if height(p) <= k)
        closed = all(add(a, b) in low for a in low for b in low)
        supp = tuple(sorted({i for p in low for i in support(p)}))
        cert = extract_face(simplex, k)
        assert cert.subgroup_ok == (closed and all(neg(a) in low for a in low))
        assert cert.support == supp
        assert cert.support_bound_ok == (len(supp) <= 4 * k - 1)


CLOSURE_GROUPS = [
    enumerate_box_group(s)
    for s in (
        delta_cm(59, 3),  # cyclic of order 60
        join(delta_cm(5, 2), delta_cm(9, 3)),  # Z_2 x Z_30
        join(delta_cm(4, 3), delta_cm(4, 2)),  # Z_5 x Z_5
        join(delta_cm(1, 1), join(delta_cm(1, 2), delta_cm(3, 2))),  # Z_2 x Z_2 x Z_4
        remark44_simplex(2),
        unit_simplex(2),
    )
]
# The same groups on exact Python integers, the path huge exponents take.
CLOSURE_GROUPS += [
    with_rows(g, g.rows().astype(object)) for g in CLOSURE_GROUPS[:3]
]


@functools.cache
def _group_law(group):
    """The group law of the exact elements, on their indices in the group:
    the identity's index, each element's inverse and each pair's sum."""
    els = elements(group)
    index = {p: i for i, p in enumerate(els)}
    return (
        index[zero(len(group.column_map))],
        [index[neg(a)] for a in els],
        [[index[add(a, b)] for b in els] for a in els],
    )


def _generated(picked, group):
    """The span of the picked indices: each element found is added to every pick once."""
    identity, _, sums = _group_law(group)
    span = new = {identity}
    while new:
        new = {sums[a][g] for a in new for g in picked} - span
        span |= new
    return span


def _zero_g_neg_g(group):
    """{0, g, -g} for the first nonzero g: closed under negation, and not
    under addition when g has order 5."""
    identity, negs, _ = _group_law(group)
    g = next(i for i in range(group.order) if i != identity)
    return {identity, g, negs[g]}


def test_closure_groups_cover_non_cyclic_and_object_rows():
    assert all(g.order <= 60 for g in CLOSURE_GROUPS)
    assert sorted(sum(1 for d in g.invariant_factors if d > 1) for g in CLOSURE_GROUPS)[-1] == 3
    assert any(g.rows().dtype == object for g in CLOSURE_GROUPS)


def test_is_subgroup_sorts_once_per_generator(monkeypatch):
    g = enumerate_box_group(join(delta_cm(2999, 3), delta_cm(1, 7)))
    rows = g.rows(g.heights <= 3)
    sorts = []
    real = theorem._lex_sorted
    monkeypatch.setattr(theorem, "_lex_sorted", lambda a: sorts.append(len(a)) or real(a))
    assert _is_subgroup(rows, g)
    # S once, then one S + g per generator; each generator doubles the span
    assert len(rows) == 3000 and len(sorts) <= 1 + math.log2(3000)


@given(
    st.sampled_from(CLOSURE_GROUPS),
    st.sets(st.integers(0, 59)),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@example(CLOSURE_GROUPS[0], set(), False, Random(0))
@example(CLOSURE_GROUPS[6], set(), False, Random(0))
@example(CLOSURE_GROUPS[0], {_group_law(CLOSURE_GROUPS[0])[0]}, False, Random(0))
@example(CLOSURE_GROUPS[7], {_group_law(CLOSURE_GROUPS[7])[0]}, False, Random(0))
@example(CLOSURE_GROUPS[1], set(range(60)), False, Random(0))
@example(CLOSURE_GROUPS[7], set(range(60)), False, Random(1))
@example(CLOSURE_GROUPS[2], _zero_g_neg_g(CLOSURE_GROUPS[2]), False, Random(0))
@example(CLOSURE_GROUPS[8], _zero_g_neg_g(CLOSURE_GROUPS[8]), False, Random(2))
@settings(max_examples=300, deadline=None)
def test_is_subgroup_matches_pair_sweep(group, indices, generate, rng):
    # Indices past the order wrap, so a set of all 60 picks the whole group.
    identity, negs, sums = _group_law(group)
    picked = {i % group.order for i in indices}
    if generate:
        picked = _generated(picked, group)
    rows = sorted(picked)
    rng.shuffle(rows)
    subgroup = (
        identity in picked
        and all(negs[a] in picked for a in picked)
        and all(sums[a][b] in picked for a in picked for b in picked)
    )
    assert _is_subgroup(group.rows(rows), group) == subgroup


class TestExtractFace:
    def test_unit_simplex_single_vertex(self):
        cert = extract_face(unit_simplex(4), 3)
        assert cert.face_selector == (0,)
        assert cert.face_hstar.coeffs == (1,)
        assert cert.hstar_match and cert.hypothesis_met

    def test_join_with_unimodular_factor(self):
        cert = extract_face(join(delta_cm(2, 3), unit_simplex(2)), 3)
        assert cert.support == (0, 1, 2, 3, 4, 5)
        assert cert.face_hstar.coeffs == (1, 0, 0, 2)
        assert cert.hstar_match and cert.subgroup_ok and cert.lemma31_ok

    def test_proper_low_subgroup(self):
        # the high-index factor pushes heights 7 and 10 outside the window
        cert = extract_face(join(delta_cm(3, 3), delta_cm(2, 7)), 3)
        assert cert.hstar.coeffs == (1, 0, 0, 3, 0, 0, 0, 2, 0, 0, 6)
        assert len(cert.lambda_prime) == 4
        assert cert.face_hstar.coeffs == (1, 0, 0, 3)
        assert cert.hstar_match

    def test_permissive_failure_is_reported_not_raised(self):
        cert = extract_face(remark44_simplex(2), 2)
        assert not cert.window_ok and not cert.hypothesis_met
        assert not cert.hstar_match
        assert not cert.subgroup_ok
        assert cert.face_hstar.coeffs == (1, 0, 1, 0, 1)
        assert cert.truncation.coeffs == (1, 0, 1)

    def test_strict_raises_when_window_fails(self):
        with pytest.raises(HypothesisNotMetError):
            extract_face(remark44_simplex(2), 2, strict=True)
        with pytest.raises(HypothesisNotMetError):
            extract_face(prop43_instance(3, 4), 3, strict=True)

    def test_strict_passes_when_window_holds(self):
        cert = extract_face(delta_cm(4, 3), 3, strict=True)
        assert cert.hstar_match

    def test_window_beyond_degree_returns_whole_simplex(self):
        s = remark44_simplex(2)
        cert = extract_face(s, 5)
        assert cert.window_ok and cert.hstar_match
        assert cert.face_hstar.coeffs == (1, 0, 1, 0, 1)

    def test_low_subgroup_beyond_the_old_pair_budget(self):
        # |L'| = 3000: a pairwise sweep would test 9 * 10^6 pairs
        cert = extract_face(join(delta_cm(2999, 3), delta_cm(1, 7)), 3)
        assert cert.hypothesis_met and cert.subgroup_ok and cert.hstar_match
        assert len(cert.lambda_prime) == 3000
        assert cert.face_hstar.coeffs == (1, 0, 0, 2999)

    def test_lambda_prime_is_read_only_rows_over_the_exponent(self):
        s = join(delta_cm(3, 3), delta_cm(2, 7))
        cert = extract_face(s, 3)
        group = enumerate_box_group(s)
        assert cert.exponent == group.exponent
        assert cert.lambda_prime.tolist() == group.rows(group.heights <= 3).tolist()
        with pytest.raises(ValueError):
            cert.lambda_prime[0, 0] = 1

    def test_len_of_lambda_prime_builds_no_points(self, monkeypatch):
        from hstarkit.boxgroup import BoxPoint

        built = []
        from_scaled = BoxPoint.from_scaled.__func__

        def spy(cls, nums, den):
            built.append(den)
            return from_scaled(cls, nums, den)

        monkeypatch.setattr(BoxPoint, "from_scaled", classmethod(spy))
        cert = extract_face(join(delta_cm(2999, 3), delta_cm(1, 7)), 3)
        assert len(cert.lambda_prime) == 3000
        assert built == []
        # The spy is live: building one point records it.
        BoxPoint.from_scaled((0, 1), 2)
        assert built == [2]

    def test_equality_compares_lambda_prime_rows(self):
        cert = extract_face(delta_cm(4, 3), 3)
        assert cert == extract_face(delta_cm(4, 3), 3)
        assert cert != "certificate"
        changed = cert.lambda_prime.copy()
        changed[-1, -1] = (changed[-1, -1] + 1) % cert.exponent
        assert cert != dataclasses.replace(cert, lambda_prime=changed)
        assert cert != dataclasses.replace(cert, lambda_prime=cert.lambda_prime[:-1])
        assert cert != dataclasses.replace(cert, exponent=2 * cert.exponent)
        assert cert != dataclasses.replace(cert, k=4)

    def test_lower_dimensional_input(self):
        from hstarkit.simplex import from_vertices

        seg = from_vertices(3, [(0, 0, 0), (2, 0, 0)])
        cert = extract_face(seg, 3)
        assert cert.hstar.coeffs == (1, 1)
        assert cert.hstar_match


def report(h, dim=None):
    return {e.name: e for e in condition_report(h, dim)}


class TestScott:
    def test_via_third_condition(self):
        assert report(H([1, 7, 1]))["scott"].detail["via"] == 3

    def test_via_second_condition(self):
        assert report(H([1, 3, 1]))["scott"].detail["via"] == 2

    def test_violates_all_universal(self):
        v = report(H([1, 10, 2]))["universal"]
        assert v.status == "violates_all" and v.detail["via"] is None

    def test_mode_difference_on_lower_bound(self):
        # degree2 has no h2 <= h1 clause
        entries = report(H([1, 2, 3]))
        assert entries["scott"].detail["via"] is None
        assert entries["degree2"].detail["via"] == 2

    def test_preconditions(self):
        for dim in (None, 3):
            entries = report(H([1, 0, 0, 1]), dim)
            for name in ("scott", "degree2", "universal"):
                assert (entries[name].status, entries[name].detail) == ("not_applicable", {})

    def test_agrees_with_direct_tabulation(self):
        for h1 in range(31):
            for h2 in range(31):
                coeffs = [1, h1, h2]
                direct = (
                    h2 == 0
                    or (h2 <= h1 <= 3 * h2 + 3)
                    or (h1 == 7 and h2 == 1)
                )
                got = report(H(coeffs))["scott"].status == "satisfied"
                assert got == direct, (h1, h2)


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    i = 2
    while i * i <= limit:
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
        i += 1
    return flags


def test_is_prime_matches_sieve():
    flags = sieve(2000)
    assert [n for n in range(-3, 2001) if is_prime(n)] == [n for n in range(2001) if flags[n]]


# Bound below which Miller-Rabin on the prime bases 2..41 is proved exact.
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


@given(st.integers(2, 10**9))
@settings(max_examples=200, deadline=None)
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_large_values():
    # Strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23.
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(10**20 + 39) and is_prime(2**61 - 1) and is_prime(1_000_003)
    assert not is_prime((2**61 - 1) * 1_000_003)  # just below the bound


@pytest.mark.parametrize("n", [MILLER_RABIN_BOUND, 10**4000])
def test_is_prime_refuses_past_its_proved_bound(n):
    with pytest.raises(InvalidParametersError, match="only below 3317044064679887385961981"):
        is_prime(n)


def not_realizable(h, name="lemma_hhh"):
    return report(h)[name].status == "not_realizable"


class TestHhh:
    def test_examples(self):
        assert not_realizable(H([1, 0, 1, 3]))
        assert report(H([1, 0, 1, 3]))["lemma_hhh"].detail == {"i": 2, "j": 3, "p": 5}
        assert not not_realizable(H([1, 0, 1, 2]))  # volume 4
        assert not not_realizable(H([1, 0, 2, 4]))  # h_i is 2

    def test_linear_index_excluded(self):
        # the lower exponent must be at least 2
        assert not not_realizable(H([1, 1, 0, 3]))

    def test_grid_matches_direct_shape_test(self):
        primes = sieve(40)
        cases = 0
        for i in range(1, 7):
            for j in range(i + 1, 10):
                for v in range(0, 31):
                    coeffs = [0] * (j + 1)
                    coeffs[0] = 1
                    coeffs[i] += 1
                    coeffs[j] += v
                    if coeffs[0] != 1:
                        continue
                    h = H(coeffs)
                    cases += 1
                    direct = (
                        i >= 2
                        and v >= 3
                        and h.coefficient(i) == 1
                        and primes[2 + v]
                        and 2 + v >= 5
                        and j > i
                    )
                    assert not_realizable(h) == direct, coeffs
        assert cases >= 1000


class TestSymmetry:
    def test_shifted_symmetric_examples(self):
        assert check_shifted_symmetric(H([1, 0, 1, 0, 1]), 5)
        assert check_shifted_symmetric(H([1]), 4)
        assert check_shifted_symmetric(H([1, 1]), 1)
        assert not check_shifted_symmetric(H([1, 1]), 2)
        # symmetric at its own dimension, broken one dimension down
        assert check_shifted_symmetric(H([1, 0, 2, 4, 2]), 5)
        assert not check_shifted_symmetric(H([1, 0, 2, 4, 2]), 4)

    def test_prime_symmetry_literal(self):
        assert check_shifted_symmetric(H([1, 0, 1, 0, 1]), 5)
        assert not check_shifted_symmetric(H([1, 0, 1, 3]), 3)

    def test_obstruction_flags_truncation_shape(self):
        v = report(H([1, 0, 2, 4]))["prime_symmetry"]
        assert v.status == "not_realizable" and v.detail == {"p": 7, "valid_center": None}

    def test_obstruction_inconclusive_when_center_exists(self):
        for coeffs, center in (([1, 0, 1, 0, 1], 6), ([1, 0, 1, 1], 5)):
            v = report(H(coeffs))["prime_symmetry"]
            assert (v.status, v.detail["valid_center"]) == ("inconclusive", center)

    def test_obstruction_gates(self):
        for coeffs in ([1, 1], [1, 0, 1, 2], [1]):
            v = report(H(coeffs))["prime_symmetry"]
            assert v.status == "not_applicable" and v.detail["valid_center"] is None

    def test_hhh_shape_also_caught_by_obstruction(self):
        assert not_realizable(H([1, 0, 1, 3]), "prime_symmetry")

    @staticmethod
    def searched_center(h):
        """The reference: the first center in [deg + 1, 2 deg] at which the
        symmetry holds, each tried by an O(deg) check."""
        centers = range(h.degree + 1, 2 * h.degree + 1)
        return next((c for c in centers if check_shifted_symmetric(h, c - 1)), None)

    def assert_center_matches_the_search(self, h):
        v = report(h)["prime_symmetry"]
        if v.status != "not_applicable":
            assert v.detail["valid_center"] == self.searched_center(h), h.coeffs

    def test_center_matches_the_search_exhaustively(self):
        applicable = 0
        for n in range(7):
            for tail in itertools.product(range(4), repeat=n):
                h = H((1, 0) + tail)
                self.assert_center_matches_the_search(h)
                applicable += is_prime(h.normalized_volume)
        assert applicable >= 1000

    @given(st.integers(0, 6), st.lists(st.integers(0, 9), min_size=1, max_size=8),
           st.booleans(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_center_matches_the_search_on_symmetric_shapes(self, gap, half, odd, noise):
        # Zeros up to i0 = gap + 2, then a palindrome: symmetric at deg + i0
        # whenever h_{i0} > 0; `noise` breaks the symmetry at one end.
        body = half + half[::-1][odd:]
        body[-1] += noise
        self.assert_center_matches_the_search(H([1, 0] + [0] * gap + body))

    def test_center_of_a_long_vector_is_linear(self):
        # h = 1 + 4 t^D, p = 5: i0 = D, so the one center is 2 D. The search
        # tried D centers of O(D) each (1.9 s at D = 4000).
        d = 10**5
        start = time.perf_counter()
        v = report(H([1] + [0] * (d - 1) + [4]))["prime_symmetry"]
        assert time.perf_counter() - start < 1.0
        assert (v.status, v.detail) == ("inconclusive", {"p": 5, "valid_center": 2 * d})


class TestConditionReport:
    def test_names_and_order(self):
        entries = condition_report(H([1, 7, 1]), dim=2)
        assert [e.name for e in entries] == [
            "scott",
            "degree2",
            "universal",
            "hibi",
            "eq1",
            "lemma_hhh",
            "shifted_symmetric",
            "prime_symmetry",
        ]

    def test_scott_gate_uses_dim(self):
        entries = {e.name: e for e in condition_report(H([1, 7, 1]), dim=5)}
        assert entries["scott"].status == "not_applicable"
        assert entries["degree2"].status == "satisfied"

    def test_flags_non_realizable_truncation(self):
        entries = {e.name: e for e in condition_report(H([1, 0, 2, 4]))}
        assert entries["prime_symmetry"].status == "not_realizable"
        assert entries["lemma_hhh"].status == "inconclusive"

    def test_computed_simplex_uses_support_center(self):
        # The exact center of a computed group is verify's business: its
        # prime-volume-symmetry record checks the symmetry about the joint
        # support size.
        simplex = remark44_simplex(2)
        g = enumerate_box_group(simplex)
        h = hstar_from_box_group(g)
        supp = len({i for p in elements(g) for i in support(p)})
        assert is_prime(g.order)
        assert check_shifted_symmetric(h, supp - 1)
        doc = SimplexDocument.from_simplex(simplex, name="remark44-k2")
        records = verify._instance_records(
            "remark44-k2", doc, DEFAULT_VOLUME_CAP, oracle.DEFAULT_SCAN_CAP
        )
        record = next(r for r in records if r.invariant == "prime-volume-symmetry")
        assert (record.status, record.detail) == ("pass", {"center": supp})
        entries = {e.name: e for e in condition_report(h, dim=5)}
        assert entries["shifted_symmetric"].status == "holds"
        # condition_report knows no group: it computes the one possible center.
        sym = entries["prime_symmetry"]
        assert (sym.status, sym.detail["valid_center"]) == ("inconclusive", supp)

    def test_hibi_and_eq1(self):
        entries = {e.name: e for e in condition_report(H([1, 2, 3, 2]), dim=3)}
        assert entries["eq1"].status == "holds"
        assert entries["hibi"].status == "holds"
        entries = {e.name: e for e in condition_report(H([1, 0, 3, 2]), dim=3)}
        assert entries["eq1"].status == "fails"  # not a real h*, checker reports data

    def test_eq1_not_applicable_on_a_point(self):
        # h_1 >= h_d holds only for d >= 1; a point has h* = 1 = h_0.
        eq1 = report(H([1]), 0)["eq1"]
        assert (eq1.status, eq1.detail) == ("not_applicable", {})
        assert report(H([1]), 1)["eq1"].status == "holds"

    def test_dimension_below_the_degree_is_refused(self):
        # A d-simplex has at most d + 1 coefficients.
        for dim in (1, 0, -3):
            with pytest.raises(InvalidParametersError, match=f"dimension {dim} is below"):
                condition_report(H([1, 7, 1]), dim=dim)
        assert condition_report(H([1, 7, 1]), dim=2)
        assert condition_report(H([1]), dim=0)

    def test_report_grid_pin(self):
        # Every h* of degree <= 5 with coefficients <= 4, and the shape grid
        # 1 + t^i + v t^j, each without a dimension and at every dimension
        # from max(1, degree) to degree + 3, as canonical JSON.
        vectors = {H((1,) + tail) for tail in itertools.product(range(5), repeat=5)}
        for i in range(1, 7):
            for j in range(i + 1, 10):
                for v in range(31):
                    coeffs = [1] + [0] * j
                    coeffs[i] += 1
                    coeffs[j] += v
                    vectors.add(H(coeffs))
        digest = hashlib.sha256()
        reports = 0
        for h in sorted(vectors, key=lambda h: (len(h.coeffs), h.coeffs)):
            for dim in (None, *range(max(1, h.degree), h.degree + 4)):
                entries = condition_report(h, dim)
                payload = [[e.name, e.status, e.detail] for e in entries]
                digest.update(canonical_dumps([list(h.coeffs), dim, payload]).encode())
                reports += 1
        assert reports == 20379
        assert digest.hexdigest() == "009e55f7634787c9ac55a0bb5e47ae4a974873f6959a6f4c291b269e08902cc2"


@given(st.lists(st.integers(0, 5), min_size=0, max_size=6), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_zero_window_matches_slice_definition(tail, k):
    h = H([1] + tail)
    expected = all(h.coefficient(i) == 0 for i in range(k + 1, 2 * k + 1))
    assert check_zero_window(h, k) == expected
