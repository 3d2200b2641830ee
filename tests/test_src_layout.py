"""Layout guards: every top-level function and class in src/semlink, and
every method and property of its classes, has a caller, every import of src/semlink sits at the top of its module, every
parameter default of src/semlink is one that some caller overrides,
harness._write_csv is the one place that writes a text file, and importing
the CLI loads no package but numpy outside the standard library.

A definition counts as used when its name appears somewhere in src/semlink
outside its own definition, or in a non-test file of bench/ (the benchmark
traces functions by name). A class member (dunders aside) counts as used when
an attribute access or a string constant names it there. Code that only tests
call belongs in tests/. An
import made further down is allowed only where a top-level one would close
an import cycle.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

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


def _unused_members() -> set[tuple[str, str]]:
    """(module, "Class.member") of each non-dunder method or property of a
    src/ class that no attribute access or string constant in src/, or in a
    non-test file of bench/, names."""
    paths = sorted(SRC.glob("*.py"))
    paths += [p for p in sorted(BENCH.glob("*.py")) if not p.name.startswith("test_")]
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return {
        (path.stem, f"{cls.name}.{member.name}")
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (member.name.startswith("__") and member.name.endswith("__"))
        and member.name not in named
    }


def test_every_src_definition_has_a_caller_outside_tests():
    unused = _unused_definitions() | _unused_members()
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


# cli.main's argv is set by whoever calls the console script, and
# channel.apply's noise_seed by the unit tests: apply is the full-grid noise
# oracle, kept in src/ while the benchmark traces it by name.
DEFAULT_EXEMPT = {("cli", "main", "argv"), ("channel", "apply", "noise_seed")}


def _defaulted_parameters() -> set[tuple[str, str, str, int | None]]:
    """(module, function, parameter, position) of every parameter with a
    default; position counts from the first argument a caller passes, and is
    None for a keyword-only parameter."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args]
            params = params[1:] if params[:1] in (["self"], ["cls"]) else params
            for pos in range(len(params) - len(a.defaults), len(params)):
                out.add((path.stem, node.name, params[pos], pos))
            for p, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    out.add((path.stem, node.name, p.arg, None))
    return out


def _calls() -> list[ast.Call]:
    paths = sorted(SRC.glob("*.py"))
    paths += [p for p in sorted(BENCH.glob("*.py")) if not p.name.startswith("test_")]
    return [n for p in paths for n in ast.walk(ast.parse(p.read_text())) if isinstance(n, ast.Call)]


def _sets(call: ast.Call, name: str, pos: int | None) -> bool:
    """Whether call may pass a value for parameter `name` at position `pos`."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return pos is not None and (starred or pos < len(call.args))


def test_every_default_is_set_by_a_caller():
    # a default that no call in src/ or bench/ overrides is a constant; make
    # it one, so the signature lists only what callers choose
    by_name = {}
    for call in _calls():
        f = call.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        by_name.setdefault(name, []).append(call)
    unset = {
        (mod, fn, param)
        for mod, fn, param, pos in _defaulted_parameters()
        if not any(_sets(call, param, pos) for call in by_name.get(fn, []))
    }
    assert DEFAULT_EXEMPT <= unset, "an exempt default is now set by a caller; drop its exemption"
    assert unset == DEFAULT_EXEMPT, f"defaults no caller sets: {sorted(unset - DEFAULT_EXEMPT)}"


# Every table a run writes goes through one writer and its one cell rule;
# binary writers (checkpoints, the rank corpus) open their files "wb".
TEXT_WRITERS = {("harness", "_write_csv")}


def _opens_for_text_writing(call: ast.Call) -> bool:
    """Whether a call is open(...) or x.open(...) with a mode that writes text.
    A mode that is not a literal counts, since it may."""
    f = call.func
    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
    if name != "open":
        return False
    pos = 0 if isinstance(f, ast.Attribute) else 1  # Path.open(mode) vs open(path, mode)
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None and len(call.args) > pos:
        mode = call.args[pos]
    if mode is None:
        return False  # the default mode reads
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return "b" not in mode.value and any(c in mode.value for c in "wax+")


def _text_writers(src: Path = SRC) -> set[tuple[str, str]]:
    """(module, top-level definition) of every text-mode write in src/semlink,
    with "<module>" for one outside any definition."""
    out = set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    f = node.func
                    if _opens_for_text_writing(node) or (
                        isinstance(f, ast.Attribute) and f.attr == "write_text"
                    ):
                        out.add((path.stem, owner))
    return out


def test_text_files_are_written_only_by_the_csv_writer():
    writers = _text_writers()
    assert TEXT_WRITERS <= writers, "the CSV writer no longer opens a file; update TEXT_WRITERS"
    assert writers == TEXT_WRITERS, f"text written outside harness._write_csv: {sorted(writers - TEXT_WRITERS)}"


@pytest.mark.parametrize(
    "code,writes",
    [('open(p, "w")', True), ('open(p, mode="a", encoding="utf-8")', True),
     ('p.open("w")', True), ("open(p, m)", True), ('p.write_text("x")', True),
     ('open(p, "wb")', False), ('open(p, "rb")', False), ("open(p)", False),
     ('p.open()', False)],
)
def test_text_writer_guard_sees_each_form(tmp_path, code, writes):
    (tmp_path / "mod.py").write_text(f"def f(p, m):\n    return {code}\n")
    assert _text_writers(tmp_path) == ({("mod", "f")} if writes else set())


def test_importing_the_cli_loads_numpy_alone():
    # numpy is the one runtime dependency; any other package would add its
    # import time to every semlink process
    code = "import sys; before = set(sys.modules); import semlink.cli; print(*set(sys.modules) - before)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=SRC.parent, check=True
    )
    top = {name.split(".")[0] for name in proc.stdout.split() if not name.startswith("_")}
    assert top - set(sys.stdlib_module_names) == {"semlink", "numpy"}
