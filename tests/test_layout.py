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


def _tracer_targets() -> list[tuple[str, str]]:
    """The (module, attribute) pairs in bench/tracer.py's TARGETS, read
    without importing the tracer, which only the benchmark runs."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    return [(ast.unparse(entry.elts[0]), ast.literal_eval(entry.elts[1])) for entry in targets.elts]


def test_benchmark_tracer_targets_exist():
    """bench/tracer.py wraps each (module, attribute) in its TARGETS by
    replacing the module attribute, so each must exist there."""
    pairs = _tracer_targets()
    assert len(pairs) > 20
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if not module.startswith("sc3opt") or not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_unused_sibling_imports_are_tracer_targets():
    """A module imports a sibling's name it never uses only so that
    bench/tracer.py can wrap it there; ``__init__`` re-exports what it
    imports."""
    targets = set(_tracer_targets())
    offenders = []
    for path in sorted(Path(sc3opt.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"sc3opt.{path.stem}"
        imported = [
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
        ]
        offenders += [f"{module}.{name}" for name in imported if name not in used and (module, name) not in targets]
    assert offenders == []
