"""Layout guards: every top-level function and class in src/semlink has a
caller, and every import of src/semlink sits at the top of its module.

A definition counts as used when its name appears somewhere in src/semlink
outside its own definition, or in a non-test file of bench/ (the benchmark
traces functions by name). Code that only tests call belongs in tests/. An
import made further down is allowed only where a top-level one would close
an import cycle.
"""

import ast
from pathlib import Path

import semlink

SRC = Path(semlink.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"

# Kept for the detector audit planned in ROADMAP item 4, which reports the
# ACK AUC of each sweep point with it.
EXEMPT = {("detector", "roc_auc")}


def _names(node: ast.AST) -> set[str]:
    """Identifiers a node names: variables, attributes, imports, identifier strings."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _unused_definitions() -> set[tuple[str, str]]:
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used_by_bench = set()
    for path in sorted(BENCH.glob("*.py")):
        if not path.name.startswith("test_"):
            used_by_bench |= _names(ast.parse(path.read_text()))
    # names used by each top-level statement of each module
    statements = [
        (mod, i, _names(stmt))
        for mod, tree in modules.items()
        for i, stmt in enumerate(tree.body)
    ]
    unused = set()
    for mod, tree in modules.items():
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            elsewhere = any(
                stmt.name in names for m, j, names in statements if (m, j) != (mod, i)
            )
            if not elsewhere and stmt.name not in used_by_bench:
                unused.add((mod, stmt.name))
    return unused


def test_every_src_definition_has_a_caller_outside_tests():
    unused = _unused_definitions()
    assert EXEMPT <= unused, "an exempt definition is now used; drop its exemption"
    assert unused == EXEMPT, f"defined in src/ but used only by tests or nothing: {sorted(unused - EXEMPT)}"


# The one import made inside a function: harq imports detector at its top, so
# detector.build_corpus imports harq.SemanticSource where it runs.
CYCLE_BREAKERS = {("detector", "harq")}


def _imported(node: ast.AST) -> set[str]:
    """Last components of the modules an import statement reads from."""
    if isinstance(node, ast.Import):
        return {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    if node.module:
        return {node.module.rsplit(".", 1)[-1]}
    return {alias.name for alias in node.names}  # from . import codec


def _imports(tree: ast.Module, top: bool) -> set[str]:
    nodes = tree.body if top else [n for stmt in tree.body for n in ast.walk(stmt) if n is not stmt]
    return {name for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom)) for name in _imported(n)}


def test_src_imports_inside_functions_only_to_break_a_cycle():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    local = {(mod, name) for mod, tree in modules.items() for name in _imports(tree, top=False)}
    assert local == CYCLE_BREAKERS, f"imports below the top level: {sorted(local - CYCLE_BREAKERS)}"
    for mod, target in CYCLE_BREAKERS:
        assert mod in _imports(modules[target], top=True), f"{target} does not import {mod}: no cycle"
