"""The benchmark traces library functions by ``module.function`` name. A
name that no longer resolves breaks traced benchmark runs, so it is checked
here, reading the worker's tuples without importing or running it."""
import ast
import importlib
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


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
