"""Inputs, expected outputs and correctness checks for the three workloads.

This module never imports hstarkit: the benchmark builds its own inputs
(the same vertex lists that ``hstarkit.families`` produces, which a test
checks) and its own expected values, so a change to the package can change
neither the inputs it is fed nor the answers it is held to.

Seeding is by vertex relabelling only. h*, extraction certificates and the
corpus pins are invariant under a permutation of the vertices, while the
amount of exact linear algebra is not, so two commits must be compared at
the same seed. Seed 0 keeps the shipped vertex order.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("hstar-large", "extract-cohort", "verify-corpus")

# Relabelled copies of the input set made per run; pass i uses variant
# i mod VARIANTS, so one run's median pass mixes several relabellings and a
# single unlucky permutation does not decide a seed's figures.
VARIANTS = 4

PINS_PATH = Path(__file__).resolve().parent / "corpus_pins.json"


# -- polynomials (coefficient lists, index = degree) -------------------------

def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def delta_hstar(c: int, m: int) -> list[int]:
    return [1] + [0] * (m - 1) + [c]


def trim(coeffs: list[int]) -> list[int]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


# -- simplices as (ambient_dim, vertices, expected h*) -----------------------

def unit(dim: int) -> tuple[int, list[tuple[int, ...]], list[int]]:
    verts = [(0,) * dim] + [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    return dim, verts, [1]


def delta(c: int, m: int) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """h* = 1 + c t^m, in dimension 2m - 1 (the ``families.delta_cm`` shape)."""
    q = c + 1
    dim = 2 * m - 1
    verts = [(0,) * dim] + [tuple(int(j == i) for j in range(dim)) for i in range(dim - 1)]
    tail = [q - 1 if i % 2 == 0 else 1 for i in range(dim - 1)]
    verts.append(tuple(tail + [q]))
    return dim, verts, delta_hstar(c, m)


def join(left, right):
    """Join with a leading flag coordinate; h* multiplies."""
    d, lv, lh = left
    e, rv, rh = right
    verts = [(0,) + x + (0,) * e for x in lv] + [(1,) + (0,) * d + y for y in rv]
    return d + e + 1, verts, poly_mul(lh, rh)


def hstar_large_inputs() -> list[tuple[str, tuple, int | None]]:
    """A cyclic group of order 10^5 and the non-cyclic Z_300^2 (order 9*10^4)."""
    return [
        ("delta_c99999_m3", delta(99999, 3), None),
        ("delta_c299_m3_join_delta_c299_m4", join(delta(299, 3), delta(299, 4)), None),
    ]


def cohort_inputs() -> list[tuple[str, tuple, int]]:
    """The 108 instances of ``families.zero_window_family()``, in its order."""
    out = []
    for c in range(1, 13):
        out.append((f"delta_c{c}_m3", delta(c, 3), 3))
    for c in range(1, 13):
        out.append((f"delta_c{c}_m4", delta(c, 4), 4))
    for c in range(1, 9):
        for u in range(1, 4):
            out.append((f"delta_c{c}_m3_join_unit{u}", join(delta(c, 3), unit(u)), 3))
    for c in range(1, 9):
        for u in range(1, 4):
            out.append((f"unit{u}_join_delta_c{c}_m4", join(unit(u), delta(c, 4)), 4))
    for a in range(1, 5):
        for b in range(1, 4):
            out.append((f"delta_a{a}_m3_join_delta_b{b}_m7", join(delta(a, 3), delta(b, 7)), 3))
    for a in range(1, 5):
        for b in range(1, 4):
            out.append((f"delta_a{a}_m4_join_delta_b{b}_m9", join(delta(a, 4), delta(b, 9)), 4))
    for a in range(1, 4):
        for b in range(1, 4):
            out.append((f"delta_a{a}_m3_join_delta_b{b}_m3", join(delta(a, 3), delta(b, 3)), 6))
    out.append(("delta_c9999_m3", delta(9999, 3), 3))
    out.append(("delta_c9999_m4", delta(9999, 4), 4))
    out.append(("delta_c499_m3_join_delta_c19_m7", join(delta(499, 3), delta(19, 7)), 3))
    return out


# -- relabelling --------------------------------------------------------------

def permutation(seed: int, variant: int, key: str, n: int) -> list[int]:
    """The vertex order of one input in one variant; identity for seed 0."""
    order = list(range(n))
    if seed:
        random.Random(f"{seed}:{variant}:{key}").shuffle(order)
    return order


def relabel(vertices: list, order: list[int]) -> list:
    return [vertices[i] for i in order]


def document(name: str, ambient_dim: int, vertices) -> dict:
    """A schema-1 simplex document, as ``hstarkit.io`` reads it."""
    return {"schema_version": "1", "name": name, "ambient_dim": ambient_dim,
            "vertices": [list(v) for v in vertices]}


def write_inputs(workload: str, seed: int, corpus_dir: Path, out_dir: Path) -> list[dict]:
    """Write the relabelled variants under out_dir; return the expected
    outputs per item, in item order (identical for every variant)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "verify-corpus":
        paths = sorted(corpus_dir.glob("*.json"))
        if not paths:
            raise FileNotFoundError(f"no corpus documents in {corpus_dir}")
        for v in range(VARIANTS):
            for path in paths:
                doc = json.loads(path.read_text(encoding="utf-8"))
                doc["vertices"] = relabel(
                    doc["vertices"], permutation(seed, v, path.name, len(doc["vertices"])))
                # One directory per document: each is one run_suite call, one item.
                target = out_dir / f"variant-{v}" / path.stem / path.name
                target.parent.mkdir(parents=True)
                target.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        return [{"name": p.name} for p in paths]
    items = hstar_large_inputs() if workload == "hstar-large" else cohort_inputs()
    for v in range(VARIANTS):
        lines = []
        for name, (dim, verts, _), k in items:
            order = permutation(seed, v, name, len(verts))
            lines.append(json.dumps({"k": k, "doc": document(name, dim, relabel(verts, order))},
                                    separators=(",", ":")))
        (out_dir / f"variant-{v}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [{"name": name, "hstar": trim(h), "k": k} for name, (_, _, h), k in items]


# -- checks -------------------------------------------------------------------

# Each check returns (checks attempted, problems found); fail_ratio is the
# number of problems over the number of checks.

def check_hstar_large(expected: dict, out: dict) -> tuple[int, list[str]]:
    if out["hstar"] != expected["hstar"]:
        return 1, [f"{expected['name']}: h* {out['hstar']} != {expected['hstar']}"]
    return 1, []


COHORT_FLAGS = ("hypothesis_met", "hstar_match", "subgroup_ok", "support_bound_ok", "lemma31_ok")


def check_cohort(expected: dict, out: dict) -> tuple[int, list[str]]:
    name, k, h = expected["name"], expected["k"], expected["hstar"]
    problems = [f"{name}: {flag} false" for flag in COHORT_FLAGS if not out[flag]]
    truncation = trim(h[: k + 1])
    if out["hstar"] != h:
        problems.append(f"{name}: h* {out['hstar']} != {h}")
    if out["truncation"] != truncation:
        problems.append(f"{name}: truncation {out['truncation']} != {truncation}")
    if out["face_hstar"] != truncation:
        problems.append(f"{name}: face h* {out['face_hstar']} != truncation {truncation}")
    if out["lambda_prime"] != sum(truncation):
        problems.append(f"{name}: |L'| {out['lambda_prime']} != {sum(truncation)}")
    return len(COHORT_FLAGS) + 4, problems


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def check_corpus_document(expected: dict, out: dict, pins: dict) -> tuple[int, list[str]]:
    """Records of one document against the seed commit's, one check per
    record: none is ``fail``, the count is the same, and every record that
    passed there passes here."""
    name = expected["name"]
    pinned = pins["documents"][name]
    statuses = dict(out["records"])
    problems = [f"{name}: {inv} fail" for inv, status in out["records"] if status == "fail"]
    problems += [f"{name}: {inv} is {statuses.get(inv, 'missing')}, was pass"
                 for inv in pinned["pass"] if statuses.get(inv) not in ("pass", "fail")]
    if len(out["records"]) != pinned["records"]:
        problems.append(f"{name}: {len(out['records'])} records, expected {pinned['records']}")
    return pinned["records"], problems


def checker(workload: str):
    """A function (expected, output) -> (checks attempted, problems)."""
    if workload == "hstar-large":
        return check_hstar_large
    if workload == "extract-cohort":
        return check_cohort
    pins = load_pins()
    return lambda expected, out: check_corpus_document(expected, out, pins)
