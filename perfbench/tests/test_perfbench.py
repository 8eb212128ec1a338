"""Tests of the benchmark's own code: inputs, checks, tracer and gate.

    python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from hstarkit import boxgroup, families, hstar, io, theorem, verify  # noqa: E402
from hstarkit.simplex import restrict_to_affine_lattice  # noqa: E402


def _hstar_of(simplex) -> list[int]:
    full = simplex if simplex.is_full_dimensional else restrict_to_affine_lattice(simplex)
    return list(hstar.hstar_from_box_group(boxgroup.enumerate_box_group(full)).coeffs)


def test_inputs_match_the_package_families():
    shipped = list(families.zero_window_family())
    ours = workloads.cohort_inputs()
    assert len(ours) == len(shipped) == 108
    for (name, (dim, verts, _), k), (fname, simplex, fk) in zip(ours, shipped):
        assert (name, k, dim) == (fname, fk, simplex.ambient_dim)
        assert tuple(verts) == simplex.vertices
    big = [families.delta_cm(99999, 3), families.join(families.delta_cm(299, 3), families.delta_cm(299, 4))]
    for (_, (dim, verts, _), _), simplex in zip(workloads.hstar_large_inputs(), big):
        assert tuple(verts) == simplex.vertices


def test_expected_hstar_of_the_cohort_is_the_package_result():
    for name, (dim, verts, expected), _ in workloads.cohort_inputs()[:40]:
        assert _hstar_of(io.SimplexDocument(dim, tuple(verts)).to_simplex()) == expected, name


def test_checker_counts_a_wrong_hstar_as_a_failure():
    expected = [{"name": n, "hstar": workloads.trim(h), "k": k}
                for n, (_, _, h), k in workloads.hstar_large_inputs()]
    check = workloads.checker("hstar-large")
    assert check(expected[0], {"hstar": [1, 0, 0, 99999]}) == (1, [])
    attempted, problems = check(expected[0], {"hstar": [1, 0, 0, 99998]})
    assert attempted == 1 and len(problems) == 1

    name, (_, _, h), k = workloads.cohort_inputs()[0]
    good = {flag: True for flag in workloads.COHORT_FLAGS}
    good.update(hstar=h, truncation=h, face_hstar=h, lambda_prime=sum(h))
    exp = {"name": name, "hstar": h, "k": k}
    check = workloads.checker("extract-cohort")
    assert check(exp, good)[1] == []
    assert len(check(exp, dict(good, face_hstar=[1]))[1]) == 1
    assert len(check(exp, dict(good, subgroup_ok=False))[1]) == 1


def test_checker_counts_fail_records_and_lost_passes():
    pins = workloads.load_pins()
    name = "tri-vol2.json"
    pinned = pins["documents"][name]
    records = [[inv, "pass"] for inv in pinned["pass"]]
    records += [[f"skipped-{i}", "skip"] for i in range(pinned["records"] - len(records))]
    check = workloads.checker("verify-corpus")
    exp = {"name": name}
    assert check(exp, {"records": records}) == (pinned["records"], [])
    failing = [[records[0][0], "fail"]] + records[1:]
    assert len(check(exp, {"records": failing})[1]) == 1
    skipped = [[records[0][0], "skip"]] + records[1:]
    assert len(check(exp, {"records": skipped})[1]) == 1
    assert len(check(exp, {"records": records[1:]})[1]) == 2  # lost pass, short count


@pytest.mark.parametrize("seed", [0, 7])
def test_relabelling_preserves_hstar_and_corpus_pins(tmp_path, seed):
    expected = workloads.write_inputs("verify-corpus", seed, ROOT / "corpus", tmp_path)
    check = workloads.checker("verify-corpus")
    moved = 0
    for v in range(workloads.VARIANTS):
        for exp in expected:
            path = tmp_path / f"variant-{v}" / Path(exp["name"]).stem / exp["name"]
            doc = io.load_simplex_document(path)
            shipped = io.load_simplex_document(ROOT / "corpus" / exp["name"])
            assert sorted(doc.vertices) == sorted(shipped.vertices)
            moved += doc.vertices != shipped.vertices
            assert tuple(_hstar_of(doc.to_simplex())) == doc.expected_hstar
    assert (moved == 0) == (seed == 0)
    # The full suite on the small documents of one relabelled variant.
    for name in ("tri-vol2.json", "join-seg2-seg3.json", "delta-cm-c9-m2.json"):
        records, _ = verify.run_suite(tmp_path / "variant-1" / Path(name).stem)
        out = {"records": [[r.invariant, r.status] for r in records]}
        assert check({"name": name}, out)[1] == []


def test_relabelling_is_deterministic_and_keeps_expected_values(tmp_path):
    a = workloads.write_inputs("extract-cohort", 5, ROOT / "corpus", tmp_path / "a")
    b = workloads.write_inputs("extract-cohort", 5, ROOT / "corpus", tmp_path / "b")
    assert a == b
    for v in range(workloads.VARIANTS):
        text = (tmp_path / "a" / f"variant-{v}.jsonl").read_text()
        assert text == (tmp_path / "b" / f"variant-{v}.jsonl").read_text()
    lines = (tmp_path / "a" / "variant-2.jsonl").read_text().splitlines()
    for line, exp in list(zip(lines, a))[:30]:
        rec = json.loads(line)
        simplex = io.SimplexDocument.from_json_dict(rec["doc"]).to_simplex()
        assert _hstar_of(simplex) == exp["hstar"]


def test_tracer_records_calls_through_from_imported_names():
    # theorem holds its own name for enumerate_box_group; extract_face calls it twice.
    assert "enumerate_box_group" in vars(theorem)
    original = boxgroup.enumerate_box_group
    tracer = Tracer()
    tracer.install("hstarkit", {"boxgroup.enumerate_box_group": None,
                                "theorem.extract_face": None}, ("boxgroup.add",))
    try:
        assert theorem.enumerate_box_group is not original
        theorem.extract_face(families.delta_cm(2, 3), 3)
        verify.add(*list(boxgroup.enumerate_box_group(families.delta_cm(2, 2)))[:2])
    finally:
        tracer.uninstall()
    assert theorem.enumerate_box_group is original and verify.add is boxgroup.add
    assert tracer.stats["boxgroup.enumerate_box_group"][0] == 3
    assert tracer.stats["theorem.extract_face"][0] == 1
    assert tracer.stats["boxgroup.add"][0] == 1
    calls, total, child = tracer.stats["theorem.extract_face"]
    assert 0 < child < total
    assert tracer.self_s("theorem.extract_face") == pytest.approx(total - child)


def _copy_checkout(dst: Path, with_program: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(BENCH, dst / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "corpus", dst / "corpus")


def _run(checkout: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=170)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_program=False)
    proc = _run(tmp_path, "hstar-large")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_wrong_hstar_fails_the_run_and_is_not_timed(tmp_path):
    _copy_checkout(tmp_path, with_program=True)
    source = tmp_path / "src" / "hstarkit" / "hstar.py"
    text = source.read_text()
    assert "        out[h] = c\n" in text
    source.write_text(text.replace("        out[h] = c\n", "        out[h] = c + (h == 3)\n"))
    proc = _run(tmp_path, "hstar-large")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"] == {}
    assert not (tmp_path / ".bench_work").exists()
