"""Source-level rules for the package layout."""

import ast
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
