#!/usr/bin/env python3
"""Regenerate the shipped corpus of simplex documents.

Every fixture carries a pinned expected_hstar; the build aborts if the
computed group-path h* disagrees, so a stale pin can never be shipped.
"""
from __future__ import annotations

import sys
from pathlib import Path

from hstarkit import enumerate_box_group, from_vertices, hstar_from_box_group
from hstarkit.families import delta_cm, join, prop43_instance, remark44_simplex, unit_simplex
from hstarkit.io import SimplexDocument, canonical_dumps

FIXTURES = [
    ("unit-triangle", unit_simplex(2), (1,)),
    ("unit-d4", unit_simplex(4), (1,)),
    ("tri-vol2", from_vertices(2, [(0, 0), (1, 0), (1, 2)]), (1, 1)),
    # extremal polygon for the quadratic bound: satisfied only via (h1, h2) = (7, 1)
    ("tri-scott-71", from_vertices(2, [(0, 0), (3, 0), (0, 3)]), (1, 7, 1)),
    ("prop43-k3-j4", prop43_instance(3, 4), (1, 0, 2, 4, 2)),
    ("prop43-k3-j5-p5", prop43_instance(3, 5, 5), (1, 0, 1, 3, 0, 3)),
    ("prop43-k4-j5-p5", prop43_instance(4, 5, 5), (1, 0, 1, 3, 0, 3)),
    ("remark44-k2", remark44_simplex(2), (1, 0, 1, 0, 1)),
    ("remark44-k3", remark44_simplex(3), (1, 0, 0, 1, 0, 0, 1)),
    ("delta-cm-c1-m1", delta_cm(1, 1), (1, 1)),
    ("delta-cm-c2-m2", delta_cm(2, 2), (1, 0, 2)),
    ("delta-cm-c2-m3", delta_cm(2, 3), (1, 0, 0, 2)),
    ("delta-cm-c9-m2", delta_cm(9, 2), (1, 0, 9)),
    ("join-seg2-seg3", join(delta_cm(1, 1), delta_cm(2, 1)), (1, 3, 2)),
    ("join-delta23-point", join(delta_cm(2, 3), unit_simplex(0)), (1, 0, 0, 2)),
    ("join-delta23-delta17", join(delta_cm(2, 3), delta_cm(1, 7)),
     (1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 2)),
]


def main() -> int:
    out_dir = Path(__file__).resolve().parent.parent / "corpus"
    out_dir.mkdir(exist_ok=True)
    for name, simplex, expected in FIXTURES:
        computed = hstar_from_box_group(enumerate_box_group(simplex)).coeffs
        if computed != expected:
            print(f"{name}: pinned {expected} but computed {computed}", file=sys.stderr)
            return 1
        doc = SimplexDocument.from_simplex(simplex, name=name, expected_hstar=expected)
        path = out_dir / f"{name}.json"
        path.write_text(canonical_dumps(doc.to_json_dict()), encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
