"""One workload in a fresh interpreter: the process whose set-up time and
peak RSS the benchmark reports.

It imports hstarkit from the checkout's ``src``, loads the first input
variant as simplices and prints ``ready``; the parent times that line from
process start. Unless ``--setup-only`` is given it then runs passes until
``--seconds`` have elapsed and writes every pass's timings and outputs to
``--out``. It does not check the outputs; ``run.py`` does.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hstarkit  # noqa: E402  (timed as part of set-up)
# Calls go through module attributes, so that the tracer's wrappers see them.
from hstarkit import boxgroup, hstar, io, oracle, theorem, verify  # noqa: E402

from tracer import Tracer  # noqa: E402

SPANS = (
    "linalg.smith_normal_form",
    "linalg.hermite_normal_form",
    "linalg.solve_rational",
    "linalg.adjugate",
    "linalg.rank",
    "linalg.det",
    "simplex.restrict_to_affine_lattice",
    "simplex.face",
    "simplex.from_vertices",
    "boxgroup.enumerate_box_group",
    "boxgroup.enumerate_by_box_scan",
    "hstar.hstar_from_box_group",
    "hstar.structural_facts",
    "oracle.count_lattice_points",
    "oracle.count_interior_points",
    "oracle.cross_validate",
    "theorem.extract_face",
    "verify.run_suite",
)
COUNTED = ("boxgroup.add", "boxgroup.neg")
# Counts computed from the inputs and results, not measured: they repeat
# exactly, and a later change may cite them as counts, not as speed-ups.
COMPUTED = (
    "boxgroup.elements",
    "theorem.lambda_prime",
    "theorem.closure_pairs_bound",
    "oracle.candidates",
    "verify.records.pass",
    "verify.records.skip",
)

# Span counts known from the workload definitions, checked on every traced
# pass: one group per simplex, two per extraction (group and face group),
# one suite call per corpus document.
EXPECTED_SPANS = {
    "hstar-large": ("boxgroup.enumerate_box_group", 2),
    "extract-cohort": ("boxgroup.enumerate_box_group", 216),
    "verify-corpus": ("verify.run_suite", 16),
}


# -- the program's work, one item at a time -----------------------------------

def run_hstar(item) -> dict:
    simplex, _ = item
    group = boxgroup.enumerate_box_group(simplex)
    return {"hstar": list(hstar.hstar_from_box_group(group).coeffs)}


def run_extract(item) -> dict:
    simplex, k = item
    cert = theorem.extract_face(simplex, k)
    return {
        "hypothesis_met": cert.hypothesis_met,
        "hstar_match": cert.hstar_match,
        "subgroup_ok": cert.subgroup_ok,
        "support_bound_ok": cert.support_bound_ok,
        "lemma31_ok": cert.lemma31_ok,
        "hstar": list(cert.hstar.coeffs),
        "truncation": list(cert.truncation.coeffs),
        "face_hstar": list(cert.face_hstar.coeffs),
        "lambda_prime": len(cert.lambda_prime),
    }


def run_verify(item) -> dict:
    records, _ = verify.run_suite(item)
    return {"records": [[r.invariant, r.status] for r in records]}


RUNNERS = {"hstar-large": run_hstar, "extract-cohort": run_extract, "verify-corpus": run_verify}


def load_variant(workload: str, inputs: Path, variant: int) -> list:
    """The items of one variant, with every simplex loaded and validated."""
    if workload == "verify-corpus":
        dirs = sorted(p for p in (inputs / f"variant-{variant}").iterdir() if p.is_dir())
        for d in dirs:
            for path in d.glob("*.json"):
                io.load_simplex_document(path).to_simplex()
        return dirs
    items = []
    for line in (inputs / f"variant-{variant}.jsonl").read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        items.append((io.SimplexDocument.from_json_dict(rec["doc"]).to_simplex(), rec["k"]))
    return items


# Seconds of program work between two runs of the reference task.
SLICE_S = 1.0


def reference_s() -> float:
    """Wall time of a fixed task that does no hstarkit work: building,
    sorting and hashing small integer tuples, the kind of work hstarkit
    spends its time on.

    A shared machine can change speed by tens of percent within a minute,
    and the reference slows with it; program time over the reference time
    measured next to it cancels most of that drift. The
    garbage collector is off here so that objects the program keeps alive
    do not change what the reference measures.
    """
    gc.disable()
    try:
        start = perf_counter()
        _reference_task()
        return perf_counter() - start
    finally:
        gc.enable()


def _reference_task() -> None:
    # Everything it allocates is freed on return, before collection resumes.
    rows = [(i % 7, (i * 7919) % 30011, i % 3, (-i) % 30011) for i in range(60_000)]
    rows.sort(key=lambda r: (sum(r) // 7, r))
    table = frozenset(rows)
    if sum(1 for r in rows if r in table) != len(rows):
        raise RuntimeError("reference task miscounted")


def run_pass(workload: str, items: list, calibrate: bool) -> dict:
    """One pass, starting with an empty oracle scan cache as a fresh CLI
    process would.

    With ``calibrate``, the reference task runs before the first item and
    again between items whenever ``SLICE_S`` of work has gone by; ``rel``
    sums each slice's time over the mean of the two references around it.
    Reference time is excluded from the pass and item times.
    """
    oracle._scan.cache_clear()
    run = RUNNERS[workload]
    item_s = []
    outputs = []
    refs = [reference_s()] if calibrate else []
    rel = 0.0
    pending = 0.0  # item time since the last reference
    for item in items:
        t0 = perf_counter()
        outputs.append(run(item))
        item_s.append(perf_counter() - t0)
        pending += item_s[-1]
        if calibrate and (pending >= SLICE_S or len(item_s) == len(items)):
            refs.append(reference_s())
            rel += pending / ((refs[-2] + refs[-1]) / 2)
            pending = 0.0
    result = {"seconds": sum(item_s), "item_s": item_s, "outputs": outputs}
    if calibrate:
        result.update(rel=rel, reference_s=statistics.median(refs))
    return result


# -- tracing ------------------------------------------------------------------

def _bounding_box_points(simplex, n: int) -> int:
    total = 1
    for j in range(simplex.ambient_dim):
        col = [v[j] for v in simplex.vertices]
        total *= n * (max(col) - min(col)) + 1
    return total


def make_observers(scan_keys: set) -> dict:
    def groups(tr, args, kwargs, group):
        tr.add("boxgroup.elements", group.order)

    def extraction(tr, args, kwargs, cert):
        size = len(cert.lambda_prime)
        tr.add("theorem.lambda_prime", size)
        if size < cert.hstar.normalized_volume:
            tr.add("theorem.closure_pairs_bound", size * size)

    def count(tr, args, kwargs, result):
        simplex, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
        if n > 0:
            scan_keys.add((simplex, n))

    def suite(tr, args, kwargs, result):
        records, _ = result
        for r in records:
            if r.status in ("pass", "skip"):
                tr.add(f"verify.records.{r.status}", 1)

    observers = dict.fromkeys(SPANS)
    observers.update({
        "boxgroup.enumerate_box_group": groups,
        "theorem.extract_face": extraction,
        "oracle.count_lattice_points": count,
        "oracle.count_interior_points": count,
        "verify.run_suite": suite,
    })
    return observers


def traced_pass(workload: str, items: list, tracer: Tracer, scan_keys: set) -> dict:
    tracer.reset()
    scan_keys.clear()
    tracer.install("hstarkit", make_observers(scan_keys), COUNTED)
    try:
        result = run_pass(workload, items, calibrate=False)
        cache = oracle._scan.cache_info()
    finally:
        tracer.uninstall()
    layers = {}
    for name in SPANS:
        layers[f"{name}.calls"] = tracer.stats[name][0]
        layers[f"{name}.self_s"] = tracer.self_s(name)
    for name in COUNTED:
        layers[f"{name}.calls"] = tracer.stats[name][0]
    lookups = cache.hits + cache.misses
    layers["oracle.scan_cache.hit_ratio"] = cache.hits / lookups if lookups else 0.0
    tracer.add("oracle.candidates", sum(_bounding_box_points(s, n) for s, n in scan_keys))
    for name in COMPUTED:
        layers[name] = tracer.counters.get(name, 0)
    span, want = EXPECTED_SPANS[workload]
    got = tracer.stats[span][0]
    result["span_check"] = None if got == want else f"{span}: {got} spans, expected {want}"
    result["layers"] = layers
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    variants = {0: load_variant(args.workload, args.inputs, 0)}
    print("ready", flush=True)
    if args.setup_only:
        return 0

    n_variants = len(list(args.inputs.glob("variant-*")))
    tracer = Tracer()
    scan_keys: set = set()
    passes = []
    deadline = perf_counter() + args.seconds
    i = 0
    while not passes or perf_counter() < deadline:
        v = i % n_variants
        if v not in variants:
            variants[v] = load_variant(args.workload, args.inputs, v)
        # With tracing, each variant runs untraced and traced back to back,
        # in alternating order, so that the overhead compares like with like.
        kinds = [False] if not args.trace else [False, True] if i % 2 else [True, False]
        for traced in kinds:
            if traced:
                result = traced_pass(args.workload, variants[v], tracer, scan_keys)
            else:
                result = run_pass(args.workload, variants[v], calibrate=not args.trace)
            passes.append(dict(result, variant=v, traced=traced, pair=i))
        i += 1

    report = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "hstarkit": str(Path(hstarkit.__file__).resolve().parent),
    }
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
