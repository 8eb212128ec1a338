"""Batch invariant verification over a corpus of simplex documents.

One record per (instance, invariant): status pass, fail, or skip (skips are
capacity gates, never verdicts). Records come out in a fixed order so two
runs over the same corpus are byte-identical.

Face-group identification builds every face's model and compares it with
the input group's elements supported on that face. The group of a model
is enumerated once per instance, however many faces share the model; no
result is kept from one instance to the next.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import Iterator

import numpy as np

from . import oracle
from .boxgroup import DEFAULT_VOLUME_CAP, enumerate_box_group, enumerate_by_box_scan
from .boxgroup import add  # noqa: F401 - unused here; perfbench's tracer test calls verify.add
from .errors import HstarkitError, ScanTooLargeError, VolumeTooLargeError
from .hstar import hstar_from_box_group, structural_facts
from .io import SimplexDocument, load_simplex_document
from .simplex import LatticeSimplex, all_faces, normalized_volume, restrict_to_affine_lattice
from .theorem import check_shifted_symmetric, check_zero_window, extract_face, is_prime

SUBGROUP_ORDER_GATE = 500
AXIOM_ORDER_GATE = 200
FACE_IDENTIFICATION_GATE = 200
FACE_VERTEX_GATE = 9


@dataclass(frozen=True)
class Record:
    instance: str
    invariant: str
    status: str  # "pass" | "fail" | "skip"
    detail: dict

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "invariant": self.invariant,
            "status": self.status,
            "detail": self.detail,
        }


def _ok(instance: str, invariant: str, ok: bool, detail: dict | None = None) -> Record:
    return Record(instance, invariant, "pass" if ok else "fail", detail or {})


def _skip(instance: str, invariant: str, reason: str) -> Record:
    return Record(instance, invariant, "skip", {"reason": reason})


def _row_set(rows: np.ndarray) -> set[tuple[int, ...]]:
    """The rows as a set of tuples. Kept apart from the theorem module's row
    checks, which this suite certifies."""
    return set(map(tuple, rows.tolist()))


def _instance_records(
    name: str, doc: SimplexDocument, volume_cap: int, scan_cap: int
) -> Iterator[Record]:
    simplex = doc.to_simplex()
    volume = normalized_volume(simplex)
    try:
        group = enumerate_box_group(simplex, volume_cap=volume_cap)
    except VolumeTooLargeError:
        yield _skip(name, "volume-order", f"volume {volume} above --volume-cap")
        return
    h = hstar_from_box_group(group)

    yield _ok(name, "volume-order", group.order == volume, {"order": group.order, "volume": volume})
    yield _ok(name, "hstar-sum", h.normalized_volume == group.order, {"hstar": list(h.coeffs)})
    if doc.expected_hstar is not None:
        yield _ok(
            name,
            "expected-hstar",
            h.coeffs == tuple(doc.expected_hstar),
            {"computed": list(h.coeffs), "expected": list(doc.expected_hstar)},
        )
    else:
        yield _skip(name, "expected-hstar", "no expected_hstar in document")

    q = group.exponent
    rows, heights = group.rows(), group.heights
    support = rows != 0
    neg_heights = ((q - rows) % q).sum(axis=1) // q
    bad = int((support.sum(axis=1) != heights + neg_heights).sum())
    yield _ok(name, "support-height-identity", not bad, {"violations": bad})

    # Within these gates q <= 500, so the residues are int64. Each temporary
    # holds at most order * (n+1) entries: one operand is looped over.
    if group.order <= SUBGROUP_ORDER_GATE:
        sub_ok = all(
            (((a + rows) % q).sum(axis=1) // q <= ha + heights).all()
            for a, ha in zip(rows, heights)
        )
        # `multiple` runs through j * rows for j = 1..q-1; multiples past the
        # order of a repeat earlier checks or hold trivially.
        step_ok = True
        multiple, multiple_heights = rows, heights
        for _ in range(q - 2):
            multiple = (multiple + rows) % q
            next_heights = multiple.sum(axis=1) // q
            if (next_heights > multiple_heights + heights).any():
                step_ok = False
                break
            multiple_heights = next_heights
        yield _ok(name, "height-subadditivity", sub_ok)
        yield _ok(name, "scalar-step-bound", step_ok)
    else:
        yield _skip(name, "height-subadditivity", f"order above {SUBGROUP_ORDER_GATE}")
        yield _skip(name, "scalar-step-bound", f"order above {SUBGROUP_ORDER_GATE}")

    if group.order <= AXIOM_ORDER_GATE:
        members = _row_set(rows)
        closed = all(_row_set((a + rows) % q) <= members for a in rows)
        has_zero = (0,) * rows.shape[1] in members
        inverses = _row_set(-rows % q) <= members
        x, y, z = rows[:5, None, None], rows[None, :5, None], rows[None, None, :5]
        assoc = bool((((x + y) % q + z) % q == (x + (y + z) % q) % q).all())
        yield _ok(
            name,
            "group-axioms",
            closed and has_zero and inverses and assoc,
            {"closed": closed, "zero": has_zero, "inverses": inverses, "assoc_sampled": assoc},
        )
    else:
        yield _skip(name, "group-axioms", f"order above {AXIOM_ORDER_GATE}")

    # O(order * n), bounded by the volume cap like the enumeration itself.
    scanned, vol = enumerate_by_box_scan(simplex, volume_cap=volume_cap)
    # Both are sorted by (height, coordinates); scanned / vol == rows / q
    # row by row. Once q | vol, rows * (vol // q) has every entry below vol,
    # as scanned has, so the comparison is exact at any order.
    agree = scanned.shape == rows.shape and vol % q == 0
    agree = agree and bool((scanned == rows * (vol // q)).all())
    yield _ok(name, "scan-enumeration-agreement", agree, {"scanned": len(scanned)})

    # The model of the vertex-reversed simplex is a second, independent Hermite form.
    reversed_model = restrict_to_affine_lattice(
        LatticeSimplex(simplex.ambient_dim, simplex.vertices[::-1])
    )
    h_reversed = hstar_from_box_group(enumerate_box_group(reversed_model, volume_cap=volume_cap))
    yield _ok(name, "restrict-invariance", h_reversed.coeffs == h.coeffs)

    rotated = LatticeSimplex(simplex.ambient_dim, simplex.vertices[1:] + simplex.vertices[:1])
    h_rotated = hstar_from_box_group(enumerate_box_group(rotated, volume_cap=volume_cap))
    yield _ok(name, "permutation-invariance", h_rotated.coeffs == h.coeffs)

    try:
        cv = oracle.cross_validate(simplex, h, scan_cap=scan_cap)
        detail = {"box": list(h.coeffs), "oracle": list(cv.oracle_hstar.coeffs)}
        yield _ok(name, "oracle-cross-validation", cv.match, detail)
        if cv.heldout_ok is None:
            yield _skip(name, "heldout-count", "scan cap")
        else:
            yield _ok(name, "heldout-count", cv.heldout_ok)
    except ScanTooLargeError:
        yield _skip(name, "oracle-cross-validation", "scan cap")
        yield _skip(name, "heldout-count", "scan cap")
    except HstarkitError as exc:
        yield Record(name, "oracle-cross-validation", "fail", {"error": str(exc)})
        yield _skip(name, "heldout-count", "oracle failed")

    try:
        skipped = structural_facts(simplex, h, scan_cap=scan_cap)
        yield _ok(name, "structural-facts", True, {"skipped": list(skipped)})
    except HstarkitError as exc:
        yield Record(name, "structural-facts", "fail", {"error": str(exc)})

    supp_size = int(support.any(axis=0).sum())
    if is_prime(group.order):
        sym = check_shifted_symmetric(h, supp_size - 1)
        yield _ok(name, "prime-volume-symmetry", sym, {"center": supp_size})
    else:
        yield _skip(name, "prime-volume-symmetry", "volume not prime")

    if group.order <= FACE_IDENTIFICATION_GATE and simplex.n_vertices <= FACE_VERTEX_GATE:
        mismatch = None
        # Bit i of bits[e] is set when element e is nonzero at vertex i, so a
        # face holds the elements with no bit outside its own. One int64 bit
        # per vertex is exact up to 62 vertices; FACE_VERTEX_GATE keeps 9.
        bits = support @ (1 << np.arange(simplex.n_vertices))
        # Faces with one model share its group, which is a function of the
        # model alone: each distinct model is enumerated once per instance.
        face_rows: dict[LatticeSimplex, tuple[int, set[tuple[int, ...]]]] = {}
        for cols, face_simplex in all_faces(simplex):
            if face_simplex not in face_rows:
                face_group = enumerate_box_group(face_simplex, volume_cap=volume_cap)
                # A broken face group need not have an exponent dividing q.
                m = lcm(q, face_group.exponent)
                scaled = face_group.rows() * (m // face_group.exponent)
                face_rows[face_simplex] = m, _row_set(scaled)
            m, got = face_rows[face_simplex]
            inside = rows[(bits & ~sum(1 << c for c in cols)) == 0][:, cols]
            if got != _row_set(inside * (m // q)):
                mismatch = list(cols)
                break
        yield _ok(name, "face-group-identification", mismatch is None, {"first_mismatch": mismatch})
    else:
        yield _skip(name, "face-group-identification", "order or vertex count above gate")

    window_ks = [k for k in range(3, max(4, h.degree + 2)) if check_zero_window(h, k)]
    if window_ks:
        failures = []
        for k in window_ks:
            # k >= 3 with a zero window: extract_face raises on any failed lemma.
            try:
                extract_face(simplex, k, volume_cap=volume_cap)
            except HstarkitError:
                failures.append(k)
        yield _ok(name, "window-extraction", not failures, {"ks": window_ks, "failed": failures})
    else:
        yield _skip(name, "window-extraction", "no zero window in range")


def run_suite(
    corpus_dir: str | Path,
    volume_cap: int = DEFAULT_VOLUME_CAP,
    scan_cap: int = oracle.DEFAULT_SCAN_CAP,
) -> tuple[list[Record], bool]:
    """All records for all documents in the directory, sorted by filename."""
    paths = sorted(Path(corpus_dir).glob("*.json"))
    if not paths:
        raise HstarkitError(f"no *.json documents in {corpus_dir}")
    records: list[Record] = []
    for path in paths:
        doc = load_simplex_document(path)
        records.extend(_instance_records(path.name, doc, volume_cap, scan_cap))
    ok = all(r.status != "fail" for r in records)
    return records, ok
