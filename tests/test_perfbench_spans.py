"""The benchmark traces library functions by ``module.function`` name. A
name that no longer resolves breaks traced benchmark runs, so it is checked
here, reading the worker's tuples without importing or running it. The
benchmark's own tests also lean on a few anchors in the package, which are
checked here too, since those tests are not run with this suite."""
import ast
import importlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
WORKER = REPO / "perfbench" / "worker.py"


def _traced_names() -> list[str]:
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTED") for t in node.targets
        ):
            names.extend(ast.literal_eval(node.value))
    return names


TRACED = _traced_names()


def test_worker_declares_spans_and_counted():
    assert "simplex.restrict_to_affine_lattice" in TRACED
    assert "boxgroup.add" in TRACED


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"hstarkit.{module}"), function))


def test_anchors_of_the_benchmark_tests():
    from hstarkit import boxgroup, families, verify
    from hstarkit.boxgroup import BoxPoint

    # The wrong-h* test patches this exact line of a copied hstar.py.
    hstar = (REPO / "src" / "hstarkit" / "hstar.py").read_text(encoding="utf-8")
    assert "        out[h] = c\n" in hstar
    # The tracer test calls boxgroup.add through verify's name for it, on
    # elements got by iterating a group.
    assert verify.add is boxgroup.add
    elements = list(boxgroup.enumerate_box_group(families.delta_cm(2, 2)))
    assert len(elements) == 3 and all(isinstance(p, BoxPoint) for p in elements)
