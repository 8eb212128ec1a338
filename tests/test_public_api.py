"""Every name the package exports resolves, and the exports are pinned."""
import pytest

import hstarkit


@pytest.mark.parametrize("name", hstarkit.__all__)
def test_exported_name_resolves(name):
    assert getattr(hstarkit, name) is not None


def test_exports_are_pinned():
    # Adding or removing an export is an API change: update this list with it.
    assert sorted(hstarkit.__all__) == [
        "BoxGroup",
        "ExtractionCertificate",
        "HStarVector",
        "HstarkitError",
        "LatticeSimplex",
        "all_faces",
        "check_zero_window",
        "condition_report",
        "count_interior_points",
        "count_lattice_points",
        "cross_validate",
        "det",
        "ehrhart_from_hstar",
        "enumerate_box_group",
        "extract_face",
        "face",
        "families",
        "from_vertices",
        "hermite_normal_form",
        "homogenize",
        "hstar_by_interpolation",
        "hstar_from_box_group",
        "normalized_volume",
        "restrict_to_affine_lattice",
        "smith_normal_form",
        "solve_rational",
        "structural_facts",
    ]
