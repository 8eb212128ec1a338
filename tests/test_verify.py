from unittest import mock

from hstarkit import oracle, verify
from hstarkit.boxgroup import DEFAULT_VOLUME_CAP
from hstarkit.io import SimplexDocument
from hstarkit.simplex import LatticeSimplex, restrict_to_affine_lattice

SKEW = SimplexDocument(3, ((1, 0, 2), (2, 3, 1), (0, 1, 5)), name="skew")


def records(doc: SimplexDocument, scan_cap: int = oracle.DEFAULT_SCAN_CAP) -> list:
    return list(verify._instance_records("doc.json", doc, DEFAULT_VOLUME_CAP, scan_cap))


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


class TestScanCapRecords:
    def test_cap_hit_is_recorded_as_scan_cap(self):
        out = records(SKEW, scan_cap=1)
        skipped = {r.invariant: r.detail for r in out if r.status == "skip"}
        assert skipped["oracle-cross-validation"] == {"reason": "scan cap"}
        assert skipped["heldout-count"] == {"reason": "scan cap"}
