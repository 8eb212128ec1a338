"""The benchmark traces library functions by ``module.function`` name. A
name that no longer resolves breaks traced benchmark runs, so it is checked
here, reading the worker's tuples without importing or running it. So is
every module attribute and certificate field the worker reads on its
untraced passes. The benchmark's own tests, under ``perfbench/tests``,
also lean on a few anchors in the package; they are checked here too, so
that a failure names the anchor and not only the benchmark test that broke."""
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
    # The tracer test in perfbench/tests, which runs with this suite, calls
    # boxgroup.add through verify's name for it, on elements got by
    # iterating a group. It is why BoxPoint, add and iteration remain.
    assert verify.add is boxgroup.add
    elements = list(boxgroup.enumerate_box_group(families.delta_cm(2, 2)))
    assert len(elements) == 3 and all(isinstance(p, BoxPoint) for p in elements)


WORKER_MODULES = ("boxgroup", "hstar", "io", "oracle", "theorem", "verify")


def _chains(root_names) -> set[str]:
    """Every dotted attribute chain the worker reads off one of the given
    names, e.g. ``oracle._scan.cache_info`` and its prefix ``oracle._scan``."""
    chains = set()
    for node in ast.walk(ast.parse(WORKER.read_text(encoding="utf-8"))):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in root_names:
            chains.add(".".join([node.id, *reversed(parts)]))
    return chains


def _resolve(root, chain: str) -> None:
    for attr in chain.split(".")[1:]:
        root = getattr(root, attr)


def test_untraced_reads_of_the_worker_resolve():
    # The untraced passes run only under the benchmark, so a name the
    # worker reads and the package lost would fail every benchmark run
    # while this suite stayed green.
    chains = _chains(WORKER_MODULES)
    assert {"theorem.extract_face", "verify.run_suite", "oracle._scan.cache_clear"} <= chains
    for chain in sorted(chains):
        _resolve(importlib.import_module(f"hstarkit.{chain.split('.')[0]}"), chain)


def test_certificate_fields_read_by_the_worker_exist():
    from hstarkit import families, theorem

    chains = _chains(("cert",))
    assert {"cert.lambda_prime", "cert.hstar.coeffs", "cert.hstar_match"} <= chains
    cert = theorem.extract_face(families.delta_cm(2, 3), 3)
    for chain in sorted(chains):
        _resolve(cert, chain)


def test_scan_cache_keeps_its_controls():
    from hstarkit import oracle

    assert {"oracle._scan.cache_clear", "oracle._scan.cache_info"} <= _chains(("oracle",))
    assert callable(oracle._scan.cache_clear) and callable(oracle._scan.cache_info)
