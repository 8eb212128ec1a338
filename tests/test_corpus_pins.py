"""The benchmark's verify-corpus rule, held in tier-1: on the shipped corpus
and on one relabelled variant, no record fails, each document keeps its
pinned record count, and every record pinned as pass still passes.

The rule and the pins are read from ``perfbench/workloads.py`` and
``perfbench/corpus_pins.json``, loaded read-only and never changed here.
"""
import importlib.util
from collections import defaultdict
from pathlib import Path

from hstarkit import verify

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def outputs(records) -> dict:
    """The benchmark's per-document output, {"records": [[invariant, status], ...]}."""
    out = defaultdict(lambda: {"records": []})
    for r in records:
        out[r.instance]["records"].append([r.invariant, r.status])
    return out


def test_shipped_corpus_keeps_its_pins(corpus_dir):
    check = workloads.checker("verify-corpus")
    out = outputs(verify.run_suite(corpus_dir)[0])
    names = sorted(workloads.load_pins()["documents"])
    assert sorted(out) == names == sorted(p.name for p in corpus_dir.glob("*.json"))
    assert [p for name in names for p in check({"name": name}, out[name])[1]] == []


def test_relabelled_corpus_keeps_its_pins(corpus_dir, tmp_path):
    expected = workloads.write_inputs("verify-corpus", 11, corpus_dir, tmp_path)
    check = workloads.checker("verify-corpus")
    problems = []
    for exp in expected:
        # One directory per document, as the benchmark runs it.
        records, _ = verify.run_suite(tmp_path / "variant-0" / Path(exp["name"]).stem)
        problems += check(exp, outputs(records)[exp["name"]])[1]
    assert len(expected) == 16 and problems == []
