"""Source-level rules for the package layout."""

import ast
import importlib
from pathlib import Path

import sc3opt


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(Path(sc3opt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_benchmark_tracer_targets_exist():
    """bench/tracer.py wraps each (module, attribute) in its TARGETS by
    replacing the module attribute, so each must exist there; read without
    importing the tracer, which only the benchmark runs."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    pairs = [(ast.unparse(entry.elts[0]), ast.literal_eval(entry.elts[1])) for entry in targets.elts]
    assert len(pairs) > 20
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if not module.startswith("sc3opt") or not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
