import dataclasses
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hstarkit import oracle, verify
from hstarkit import simplex as simplex_module
from hstarkit.verify import Record
from hstarkit.boxgroup import DEFAULT_VOLUME_CAP, enumerate_box_group
from hstarkit.errors import NotASimplexError
from hstarkit.io import SimplexDocument, load_simplex_document
from hstarkit.simplex import (
    LatticeSimplex,
    all_faces,
    from_vertices,
    normalized_volume,
    restrict_to_affine_lattice,
)

from conftest import with_rows
from elements import add, elements, height, neg, support, zero

SKEW = SimplexDocument(3, ((1, 0, 2), (2, 3, 1), (0, 1, 5)), name="skew")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_DOCS = {p.name: load_simplex_document(p) for p in sorted(CORPUS.glob("*.json"))}
GROUP_INVARIANTS = (
    "height-subadditivity",
    "scalar-step-bound",
    "group-axioms",
    "face-group-identification",
)


def records(doc: SimplexDocument, scan_cap: int = oracle.DEFAULT_SCAN_CAP) -> list:
    return list(verify._instance_records("doc.json", doc, DEFAULT_VOLUME_CAP, scan_cap))


def group_verdicts(doc: SimplexDocument) -> dict:
    return {
        r.invariant: (r.status, r.detail) for r in records(doc) if r.invariant in GROUP_INVARIANTS
    }


def reference_verdicts(doc: SimplexDocument) -> dict:
    """The four group invariants computed element by element on exact
    coordinate tuples: the reference the residue-array checks must match."""
    simplex = doc.to_simplex()
    group = enumerate_box_group(simplex)
    els = elements(group)
    members = set(els)
    out = {}
    if group.order <= verify.SUBGROUP_ORDER_GATE:
        sub_ok = all(height(add(a, b)) <= height(a) + height(b) for a in els for b in els)
        step_ok = True
        for a in els:
            prev = a
            while any(a):
                cur = add(prev, a)
                step_ok = step_ok and height(cur) <= height(prev) + height(a)
                if not any(cur):
                    break
                prev = cur
        out["height-subadditivity"] = ("pass" if sub_ok else "fail", {})
        out["scalar-step-bound"] = ("pass" if step_ok else "fail", {})
    else:
        reason = {"reason": f"order above {verify.SUBGROUP_ORDER_GATE}"}
        out["height-subadditivity"] = out["scalar-step-bound"] = ("skip", reason)
    if group.order <= verify.AXIOM_ORDER_GATE:
        closed = all(add(a, b) in members for a in els for b in els)
        identity = zero(simplex.n_vertices)
        has_zero = identity in members
        inverses = all(neg(a) in members and add(a, neg(a)) == identity for a in els)
        sample = els[:5]
        assoc = all(
            add(add(a, b), c) == add(a, add(b, c)) for a in sample for b in sample for c in sample
        )
        detail = {"closed": closed, "zero": has_zero, "inverses": inverses, "assoc_sampled": assoc}
        out["group-axioms"] = ("pass" if all(detail.values()) else "fail", detail)
    else:
        out["group-axioms"] = ("skip", {"reason": f"order above {verify.AXIOM_ORDER_GATE}"})
    if group.order <= verify.FACE_IDENTIFICATION_GATE and simplex.n_vertices <= verify.FACE_VERTEX_GATE:
        mismatch = None
        for sel, face_simplex in all_faces(simplex):
            got = set(elements(enumerate_box_group(face_simplex)))
            want = {
                tuple(p[i] for i in sel)
                for p in els
                if set(support(p)) <= set(sel)
            }
            if got != want:
                mismatch = list(sel)
                break
        status = "pass" if mismatch is None else "fail"
        out["face-group-identification"] = (status, {"first_mismatch": mismatch})
    else:
        reason = {"reason": "order or vertex count above gate"}
        out["face-group-identification"] = ("skip", reason)
    return out


def tampered_verdicts(doc: SimplexDocument, edit) -> dict:
    """Group verdicts when the i-th group verify enumerates is replaced by
    ``edit(i, group)``; group 0 is the input's own."""
    calls = itertools.count()

    def fake(simplex, volume_cap):
        return edit(next(calls), enumerate_box_group(simplex, volume_cap=volume_cap))

    with mock.patch.object(verify, "enumerate_box_group", fake):
        return group_verdicts(doc)


def input_group_edit(fn):
    """An edit of the input's own group by fn(residues, heights, q) on copies."""

    def edit(i, group):
        if i:
            return group
        residues, heights = fn(group.rows(), group.heights.copy(), group.exponent)
        return with_rows(group, residues, heights)

    return edit


class TestRestrictInvariance:
    def test_lower_dimensional_input_compares_the_reversed_model(self):
        simplex = SKEW.to_simplex()
        full = restrict_to_affine_lattice(simplex)
        reversed_model = restrict_to_affine_lattice(
            LatticeSimplex(3, simplex.vertices[::-1])
        )
        assert reversed_model != full
        with mock.patch.object(
            verify, "enumerate_box_group", wraps=verify.enumerate_box_group
        ) as spy:
            out = records(SKEW)
        assert reversed_model in [c.args[0] for c in spy.call_args_list]
        record = next(r for r in out if r.invariant == "restrict-invariance")
        assert (record.status, record.detail) == ("pass", {})


def oracle_records(doc: SimplexDocument, scan_cap: int = oracle.DEFAULT_SCAN_CAP) -> dict:
    return {
        r.invariant: (r.status, r.detail)
        for r in records(doc, scan_cap)
        if r.invariant in ("oracle-cross-validation", "heldout-count")
    }


class TestScanCapRecords:
    """The oracle records skip for the scan cap alone, at any dimension."""

    def test_cap_hit_is_recorded_as_scan_cap(self):
        assert oracle_records(SKEW, scan_cap=1) == {
            "oracle-cross-validation": ("skip", {"reason": "scan cap"}),
            "heldout-count": ("skip", {"reason": "scan cap"}),
        }

    def test_six_dimensional_join_passes_under_the_cap(self):
        assert oracle_records(CORPUS_DOCS["join-delta23-point.json"]) == {
            "oracle-cross-validation": ("pass", {"box": [1, 0, 0, 2], "oracle": [1, 0, 0, 2]}),
            "heldout-count": ("pass", {}),
        }

    def test_eight_dimensional_simplex_meets_the_cap(self):
        assert oracle_records(CORPUS_DOCS["remark44-k3.json"]) == {
            "oracle-cross-validation": ("skip", {"reason": "scan cap"}),
            "heldout-count": ("skip", {"reason": "scan cap"}),
        }


class TestGroupInvariants:
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                min_size=d + 1,
                max_size=d + 1,
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_simplices_match_the_reference(self, verts):
        try:
            simplex = from_vertices(len(verts[0]), verts)
        except NotASimplexError:
            assume(False)
        assume(normalized_volume(simplex) <= 60)
        doc = SimplexDocument.from_simplex(simplex)
        assert group_verdicts(doc) == reference_verdicts(doc)

    @given(st.sampled_from(sorted(CORPUS_DOCS)).flatmap(
        lambda name: st.tuples(
            st.just(name), st.permutations(range(len(CORPUS_DOCS[name].vertices)))
        )
    ))
    @settings(max_examples=16, deadline=None)
    def test_relabelled_corpus_matches_the_reference(self, case):
        name, perm = case
        doc = CORPUS_DOCS[name]
        doc = SimplexDocument(doc.ambient_dim, tuple(doc.vertices[i] for i in perm))
        assert group_verdicts(doc) == reference_verdicts(doc)


@input_group_edit
def drop_row_one(residues, heights, q):
    return np.delete(residues, 1, axis=0), np.delete(heights, 1)


@input_group_edit
def lower_an_order_two_height(residues, heights, q):
    i = next(i for i, r in enumerate(residues) if r.any() and not (2 * r % q).any())
    heights[i] -= 1
    return residues, heights


@input_group_edit
def negate_a_row_inside_a_face(residues, heights, q):
    i = next(i for i, r in enumerate(residues) if (r == 0).any() and (2 * r % q).any())
    residues[i] = -residues[i] % q
    return residues, heights


def later_groups_over_five_times_their_exponent(i, group):
    if not i:
        return group
    factors = group.invariant_factors[:-1] + (5 * group.exponent,)
    return with_rows(dataclasses.replace(group, invariant_factors=factors), 5 * group.rows())


class TestTamperedGroup:
    JOIN = CORPUS_DOCS["join-seg2-seg3.json"]  # Z/2 on vertices 0, 1 times Z/3 on 2, 3

    def test_dropped_row_breaks_closure_and_inverses(self):
        assert tampered_verdicts(self.JOIN, drop_row_one)["group-axioms"] == (
            "fail",
            {"closed": False, "zero": True, "inverses": False, "assoc_sampled": True},
        )

    def test_lowered_height_breaks_both_height_bounds(self):
        doc = CORPUS_DOCS["delta-cm-c9-m2.json"]  # cyclic of order 10, h* = 1 + 9t^2
        out = tampered_verdicts(doc, lower_an_order_two_height)
        assert out["height-subadditivity"][0] == out["scalar-step-bound"][0] == "fail"

    def test_altered_row_inside_a_face_breaks_face_identification(self):
        out = tampered_verdicts(self.JOIN, negate_a_row_inside_a_face)
        assert out["face-group-identification"][0] == "fail"

    def test_face_groups_compare_as_fractions(self):
        # Face exponents 10 and 15 do not divide the input's exponent 6.
        out = tampered_verdicts(self.JOIN, later_groups_over_five_times_their_exponent)
        assert out["face-group-identification"] == ("pass", {"first_mismatch": None})


class TestFaceModelReuse:
    """The face loop enumerates each distinct face model once per instance
    and still builds and compares every face."""

    K3 = "remark44-k3.json"  # 9 vertices, 511 faces; every proper face unimodular
    SEGMENT = LatticeSimplex(1, ((0,), (1,)))  # the model of all 36 edges of K3

    def test_each_model_is_enumerated_once(self, monkeypatch, tmp_path):
        (tmp_path / self.K3).write_bytes((CORPUS / self.K3).read_bytes())
        faces = list(all_faces(CORPUS_DOCS[self.K3].to_simplex()))
        models = {f for _, f in faces}
        enumerated, built = [], []
        real_enumerate, real_face = verify.enumerate_box_group, simplex_module.face

        def spy_enumerate(simplex, volume_cap):
            enumerated.append(simplex)
            return real_enumerate(simplex, volume_cap=volume_cap)

        def spy_face(simplex, indices):
            built.append(tuple(indices))
            return real_face(simplex, indices)

        monkeypatch.setattr(verify, "enumerate_box_group", spy_enumerate)
        monkeypatch.setattr(simplex_module, "face", spy_face)
        assert len(faces) == 511 and len(models) == 9
        for _ in range(2):  # nothing is kept from one run to the next
            enumerated.clear()
            built.clear()
            out, ok = verify.run_suite(tmp_path)
            record = next(r for r in out if r.invariant == "face-group-identification")
            assert ok and record.status == "pass"
            # The input's group, the reversed model's and the rotated
            # input's come first; then one enumeration per distinct model.
            assert len(enumerated) == 3 + 9 and set(enumerated[3:]) == models
            assert built == [cols for cols, _ in faces]

    def test_corrupted_shared_model_fails_at_its_first_face(self):
        doc = CORPUS_DOCS[self.K3]
        first = next(list(cols) for cols, f in all_faces(doc.to_simplex()) if f == self.SEGMENT)
        corrupted = []

        def fake(simplex, volume_cap):
            group = enumerate_box_group(simplex, volume_cap=volume_cap)
            if simplex != self.SEGMENT:
                return group
            corrupted.append(simplex)
            # Claim the segment had length 2: one more element, (1/2, 1/2).
            wrong = dataclasses.replace(group, invariant_factors=(2,))
            return with_rows(wrong, np.array([[0, 0], [1, 1]]), np.array([0, 1]))

        with mock.patch.object(verify, "enumerate_box_group", fake):
            out = group_verdicts(doc)
        assert out["face-group-identification"] == ("fail", {"first_mismatch": first})
        assert first == [0, 1] and len(corrupted) == 1

    def test_every_face_of_a_shared_model_is_compared(self):
        # An element supported on edge (1, 2) alone: the edges before it
        # pass, and (1, 2) has the model they share but not their rows.
        @input_group_edit
        def add_an_element_on_edge_1_2(residues, heights, q):
            row = np.zeros_like(residues[:1])
            row[0, 1:3] = 1, q - 1
            return np.vstack([residues, row]), np.append(heights, 1)

        out = tampered_verdicts(CORPUS_DOCS[self.K3], add_an_element_on_edge_1_2)
        assert out["face-group-identification"] == ("fail", {"first_mismatch": [1, 2]})


def scan_record(doc: SimplexDocument, edit) -> Record:
    """The scan-enumeration-agreement record when the box scan's
    (rows, volume) is replaced by ``edit(rows, volume)``."""
    scan = verify.enumerate_by_box_scan

    def fake(simplex, volume_cap):
        return edit(*scan(simplex, volume_cap=volume_cap))

    with mock.patch.object(verify, "enumerate_by_box_scan", fake):
        return next(r for r in records(doc) if r.invariant == "scan-enumeration-agreement")


def change_row_one(rows, volume):
    rows = rows.copy()
    rows[1] = -rows[1] % volume
    return rows, volume


class TestScanAgreement:
    JOIN = CORPUS_DOCS["join-seg2-seg3.json"]

    def test_only_the_volume_cap_bounds_the_scan(self):
        # remark44-k3 has dimension 8 and order 3; the segment has order 201.
        high_dim = next(r for r in records(CORPUS_DOCS["remark44-k3.json"])
                        if r.invariant == "scan-enumeration-agreement")
        assert (high_dim.status, high_dim.detail) == ("pass", {"scanned": 3})
        segment = SimplexDocument(1, ((0,), (201,)))
        record = next(r for r in records(segment) if r.invariant == "scan-enumeration-agreement")
        assert (record.status, record.detail) == ("pass", {"scanned": 201})

    def test_untouched_scan_passes(self):
        record = scan_record(self.JOIN, lambda rows, volume: (rows, volume))
        assert (record.status, record.detail) == ("pass", {"scanned": 6})

    def test_rows_compare_as_fractions(self):
        record = scan_record(self.JOIN, lambda rows, volume: (3 * rows, 3 * volume))
        assert record.status == "pass"

    def test_one_changed_row_fails(self):
        assert scan_record(self.JOIN, change_row_one).status == "fail"

    def test_wrong_denominator_fails(self):
        assert scan_record(self.JOIN, lambda rows, volume: (rows, 2 * volume)).status == "fail"

    def test_denominator_not_a_multiple_of_the_exponent_fails(self):
        # 7 // 6 == 1 would pass the rows unchanged if q | vol went unchecked.
        record = scan_record(self.JOIN, lambda rows, volume: (rows, volume + 1))
        assert (record.status, record.detail) == ("fail", {"scanned": 6})

    def test_missing_row_fails(self):
        record = scan_record(self.JOIN, lambda rows, volume: (rows[:-1], volume))
        assert (record.status, record.detail) == ("fail", {"scanned": 5})

    def test_run_suite_builds_no_points(self, monkeypatch, corpus_dir):
        from hstarkit.boxgroup import BoxPoint

        built = []
        post_init = BoxPoint.__post_init__

        def spy(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(BoxPoint, "__post_init__", spy)
        out, ok = verify.run_suite(corpus_dir)
        assert ok and len(out) == 256
        scans = [r.status for r in out if r.invariant == "scan-enumeration-agreement"]
        assert scans.count("pass") == 16
        assert built == []
