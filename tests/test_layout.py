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


def _defined_names(node) -> list[str]:
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_private_module_name_is_used():
    """A module-level ``_name`` in the package is read somewhere in it
    outside its own definition; a helper nothing calls is deleted, not
    kept."""
    private = {}  # name -> the statements that define it, by module
    used = {}  # module-level statement -> the names read inside it
    for path in sorted(Path(sc3opt.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            used[node] = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
            }
            for name in _defined_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    private.setdefault(f"{path.stem}.{name}", (name, set()))[1].add(node)
    orphans = [
        qualified
        for qualified, (name, own) in private.items()
        if not any(name in names for node, names in used.items() if node not in own)
    ]
    assert orphans == []


def _calls_outside(names: tuple[str, ...], homes: tuple[str, ...]) -> list[str]:
    """Calls, by plain or attribute name, to any of ``names`` in a package
    module other than ``homes``."""
    offenders = []
    for path in sorted(Path(sc3opt.__file__).parent.glob("*.py")):
        if path.name in homes:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in names:
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    return offenders


def test_model_formulas_live_in_channel_and_control():
    """The entropy, its inverse in power and the cost curve are written
    once, in channel.py and control.py; a call to log1p, expm1 or exp2
    anywhere else in the package is a second copy of one of them."""
    assert _calls_outside(("log1p", "expm1", "exp2"), ("channel.py", "control.py")) == []


def test_cost_rule_is_bound_once():
    """The entropy and cost kernels are called only by their scalar forms
    in channel.py and control.py and by ``LoopData`` in solver.py, which
    also holds the cost's domain rule (window > 0 and entropy > h); every
    other module scores an allocation through ``LoopData``, so a call
    elsewhere is a second copy of that rule."""
    assert _calls_outside(("delivered_entropy", "cost_curve"), ("channel.py", "control.py", "solver.py")) == []


def test_library_scores_loops_through_loop_data():
    """The scalar entropy and cost functions are the kernels' one-value
    forms for callers outside the package; inside it every loop is scored
    through ``LoopData``, so a call outside channel.py and control.py is a
    per-loop copy of its evaluation."""
    assert _calls_outside(("entropy_per_cycle", "lqr_from_entropy"), ("channel.py", "control.py")) == []


def test_latency_constants_are_read_in_compute_only():
    """The offload constants enter the latency through ``ComputeParams.rows``
    and the majorant through ``ComputeParams.majorant_rows``, both set in
    compute.py; any other module reading alpha, beta, rho, tau, the relay
    delay or the pre-processing gain off a ``ComputeParams`` writes a
    regime's constants a second time."""
    constants = {"alpha", "beta", "rho", "tau", "relay_delay", "preproc_gain"}
    offenders = []
    for path in sorted(Path(sc3opt.__file__).parent.glob("*.py")):
        if path.name == "compute.py":
            continue
        offenders += [
            f"{path.name}:{node.lineno}: .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in constants
        ]
    assert offenders == []


def test_regime_rule_is_written_once():
    """compute.py reads the pre-processing gain, which gates the S1 and S2
    regimes, only in ``region_index``, the regime rule every scalar and
    array caller shares; a read anywhere else is a second copy of the rule."""
    path = Path(sc3opt.__file__).parent / "compute.py"
    tree = ast.parse(path.read_text(), filename=str(path))

    def reads(node):
        return [
            n
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and n.attr == "preproc_gain"
        ]

    readers = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and reads(fn)]
    assert [fn.name for fn in readers] == ["region_index"]
    assert len(reads(tree)) == len(reads(readers[0]))
