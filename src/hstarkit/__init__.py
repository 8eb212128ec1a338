"""Exact h*-polynomials of lattice simplices.

The group path enumerates the finite abelian group of fractional
vertex-weight tuples and reads h* off its height distribution; the oracle
path counts lattice points in dilates by brute force and interpolates. The
two must always agree, and the test suite holds the package to that.
"""

from .boxgroup import BoxGroup, enumerate_box_group
from .errors import HstarkitError
from .hstar import HStarVector, ehrhart_from_hstar, hstar_from_box_group, structural_facts
from .linalg import det, hermite_normal_form, smith_normal_form, solve_rational
from .oracle import count_interior_points, count_lattice_points, cross_validate, hstar_by_interpolation
from .simplex import LatticeSimplex, all_faces, face, from_vertices, homogenize, normalized_volume, restrict_to_affine_lattice
from .theorem import ExtractionCertificate, check_zero_window, condition_report, extract_face
from . import families

__all__ = [
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
