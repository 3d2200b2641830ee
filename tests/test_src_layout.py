"""Layout guards: every top-level function and class in src/semlink, and
every method and property of its classes, has a caller, every attribute
that a src/semlink class sets is read somewhere, every import of
src/semlink sits at the top of its module and is named in it, every
parameter default of src/semlink is one that some caller overrides,
harness._write_csv is the one place that writes a text file, the bundle
writer the only one that writes a binary file, codec training draws random
numbers in codec.step_draws alone, and importing the CLI loads no package
but numpy outside the standard library.

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

import numpy as np
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


def _unread_attributes(src: Path = SRC, bench: Path = BENCH) -> set[tuple[str, str]]:
    """(module, "Class.attr") of each attribute that a `self.attr = ...` in a
    src/ class sets and that no attribute read or string constant in src/,
    or in a non-test file of bench/, names."""
    paths = sorted(src.glob("*.py"))
    paths += [p for p in sorted(bench.glob("*.py")) if not p.name.startswith("test_")]
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)  # getattr(obj, "attr")
    out = set()
    for path in sorted(src.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                targets = node.targets if isinstance(node, ast.Assign) else (
                    [node.target] if isinstance(node, ast.AnnAssign) else [])
                out |= {
                    (path.stem, f"{cls.name}.{t.attr}")
                    for target in targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                    and t.value.id == "self" and t.attr not in read
                }
    return out


def test_src_attributes_are_read():
    # an attribute that nothing reads is what a deletion leaves behind
    assert not _unread_attributes(), f"set but never read: {sorted(_unread_attributes())}"


@pytest.mark.parametrize(
    "body,unread",
    [("self.a = 1", {"a"}), ("self.a = 1\n        print(self.a)", set()),
     ("self.a, b = 1, 2", {"a"}), ("self.a: int = 1", {"a"}),
     ("self.a = self.b = 1\n        print(self.b)", {"a"}),
     ("self.a = 1\n\ndef f(c):\n    return c.a", set()),
     ('self.a = 1\n\ndef f(c):\n    return getattr(c, "a")', set())],
    ids=["unread", "read", "tuple", "annotated", "chained", "read-elsewhere", "getattr"],
)
def test_unread_attribute_guard_sees_each_form(tmp_path, body, unread):
    (tmp_path / "mod.py").write_text(f"class C:\n    def __init__(self):\n        {body}\n")
    assert _unread_attributes(tmp_path, tmp_path) == {("mod", f"C.{name}") for name in unread}


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


def _unused_imports(src: Path = SRC) -> set[tuple[str, str]]:
    """(module, name) of each name that a top-level import of a src/ module
    binds and nothing else in that module names; __init__ re-exports, and
    __future__ imports are directives."""
    out = set()
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    out.add((path.stem, bound))
    return out


def test_src_imports_are_used():
    # an import that nothing names is what a deletion leaves behind
    assert not _unused_imports(), f"imported but never named: {sorted(_unused_imports())}"


@pytest.mark.parametrize(
    "code,unused",
    [("import os\nx = 1", {"os"}), ("import os.path\nx = os.path.sep", set()),
     ("from a import b as c\nx = c", set()), ("from a import b, c\nx = b", {"c"}),
     ("from __future__ import annotations\nx = 1", set()), ("import a as b\nx: b.T = 1", set()),
     ("def f():\n    import os\n    return os", set())],
    ids=["unused", "dotted", "alias", "one-of-two", "future", "annotation", "local"],
)
def test_unused_import_guard_sees_each_form(tmp_path, code, unused):
    (tmp_path / "mod.py").write_text(code + "\n")
    (tmp_path / "__init__.py").write_text("import os\n")
    assert _unused_imports(tmp_path) == {("mod", name) for name in unused}


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


# Every table a run writes goes through one writer and its one cell rule, and
# the checkpoint format has one home: the bundle writer is the one place that
# writes a binary file.
TEXT_WRITERS = {("harness", "_write_csv")}
BINARY_WRITERS = {("harness", "_write_bundle")}


def _write_kinds(call: ast.Call) -> set[str]:
    """The kinds of file a call may write: "text", "binary", both or neither.
    open(...) or x.open(...) counts by its mode, and a mode that is not a
    literal as both, since it may be either; x.write_text(...) writes text
    and x.write_bytes(...) binary."""
    f = call.func
    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
    if isinstance(f, ast.Attribute) and name in ("write_text", "write_bytes"):
        return {"text" if name == "write_text" else "binary"}
    if name != "open":
        return set()
    pos = 0 if isinstance(f, ast.Attribute) else 1  # Path.open(mode) vs open(path, mode)
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None and len(call.args) > pos:
        mode = call.args[pos]
    if mode is None:
        return set()  # the default mode reads
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return {"text", "binary"}
    if not any(c in mode.value for c in "wax+"):
        return set()
    return {"binary" if "b" in mode.value else "text"}


def _writers(kind: str, src: Path = SRC) -> set[tuple[str, str]]:
    """(module, top-level definition) of every write of a `kind` file in
    src/semlink, with "<module>" for one outside any definition."""
    out = set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            if any(kind in _write_kinds(n) for n in ast.walk(stmt) if isinstance(n, ast.Call)):
                out.add((path.stem, owner))
    return out


def test_text_files_are_written_only_by_the_csv_writer():
    writers = _writers("text")
    assert TEXT_WRITERS <= writers, "the CSV writer no longer opens a file; update TEXT_WRITERS"
    assert writers == TEXT_WRITERS, f"text written outside harness._write_csv: {sorted(writers - TEXT_WRITERS)}"


# The name is kept from when the rank corpus had a writer too, so that the
# test's id stays stable.
def test_binary_files_are_written_only_by_the_bundle_and_corpus_writers():
    writers = _writers("binary")
    assert BINARY_WRITERS <= writers, "a binary writer no longer opens a file; update BINARY_WRITERS"
    assert writers == BINARY_WRITERS, f"binary written elsewhere: {sorted(writers - BINARY_WRITERS)}"


@pytest.mark.parametrize(
    "code,writes",
    [('open(p, "w")', True), ('open(p, mode="a", encoding="utf-8")', True),
     ('p.open("w")', True), ("open(p, m)", True), ('p.write_text("x")', True),
     ('open(p, "wb")', False), ('open(p, "rb")', False), ("open(p)", False),
     ('p.open()', False)],
)
def test_text_writer_guard_sees_each_form(tmp_path, code, writes):
    (tmp_path / "mod.py").write_text(f"def f(p, m):\n    return {code}\n")
    assert _writers("text", tmp_path) == ({("mod", "f")} if writes else set())


@pytest.mark.parametrize(
    "code,writes",
    [('open(p, "wb")', True), ('p.open("wb")', True), ('p.write_bytes(b"x")', True),
     ('open(p, mode="ab")', True), ("open(p, m)", True), ('open(p, "w")', False),
     ('open(p, "rb")', False), ('p.write_text("x")', False), ('p.open()', False)],
)
def test_binary_writer_guard_sees_each_form(tmp_path, code, writes):
    (tmp_path / "mod.py").write_text(f"def f(p, m):\n    return {code}\n")
    assert _writers("binary", tmp_path) == ({("mod", "f")} if writes else set())


# Training's random draws have one home, codec.step_draws, which also calls
# the surrogate channel's draws for pair 2's frozen-pair target: no other
# codec function draws, so the draw schedule cannot fork again.
CODEC_DRAWERS = {"step_draws", "surrogate_roundtrip"}
_GENERATOR_METHODS = {name for name in dir(np.random.Generator) if not name.startswith("_")}


def _drawing_functions(path: Path) -> set[str]:
    """Top-level functions and class methods ("Class.method") of a module
    that draw random numbers: call a numpy Generator method on anything but
    the numpy module itself (np.power is no draw), or name np.random."""

    def draws(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                on_numpy = isinstance(sub.func.value, ast.Name) and sub.func.value.id in ("np", "numpy")
                if sub.func.attr in _GENERATOR_METHODS and not on_numpy:
                    return True
            if isinstance(sub, ast.Attribute) and sub.attr == "random" and isinstance(sub.value, ast.Name):
                return True
        return False

    out = set()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and draws(stmt):
            out.add(stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            out |= {f"{stmt.name}.{m.name}" for m in stmt.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and draws(m)}
    return out


def test_codec_draws_random_numbers_in_step_draws_alone():
    drawing = _drawing_functions(SRC / "codec.py")
    assert drawing == CODEC_DRAWERS, f"codec functions that draw: {sorted(drawing)}"


@pytest.mark.parametrize(
    "code,drawing",
    [("def f(rng):\n    return rng.standard_normal(3)", {"f"}),
     ("def f(n):\n    return np.random.default_rng(n)", {"f"}),
     ("def f(r, n):\n    return r.permutation(n)", {"f"}),
     ("def f(x):\n    def g():\n        return x.uniform()\n    return g", {"f"}),
     ("class C:\n    def m(self):\n        return self.rng.integers(4)", {"C.m"}),
     ("def f(x):\n    return x.sum()", set()), ("def f(x):\n    return np.power(x, 2)", set())],
    ids=["method", "np.random", "permutation", "nested", "class", "none", "np.power"],
)
def test_drawing_guard_sees_each_form(tmp_path, code, drawing):
    (tmp_path / "mod.py").write_text(code + "\n")
    assert _drawing_functions(tmp_path / "mod.py") == drawing


# The full-grid oracle's whole-row noise has one caller, channel.apply: the
# link draws only the cells its receiver reads (channel.noise_cells), so it
# cannot fall back to full-width noise.
WHOLE_ROW_NOISE_USERS = {("channel", "apply")}


def _users(name: str, src: Path = SRC) -> set[tuple[str, str]]:
    """(module, user) of each place in src/ that names `name`: a top-level
    function, a class method ("Class.method") or, for any other top-level
    statement, "<module>". A definition does not use its own name, and an
    import that keeps the name only binds it; one that renames it is a use."""
    out = set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and all(a.asname is None for a in stmt.names):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parts = [(stmt.name, stmt)]
            elif isinstance(stmt, ast.ClassDef):
                methods = [m for m in stmt.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
                parts = [(f"{stmt.name}.{m.name}", m) for m in methods]
                parts += [("<module>", m) for m in stmt.body if m not in methods]
            else:
                parts = [("<module>", stmt)]
            out |= {(path.stem, user) for user, node in parts if user != name and name in _names(node)}
    return out


def test_whole_row_noise_is_drawn_by_the_oracle_channel_alone():
    assert _users("_noise_rows") == WHOLE_ROW_NOISE_USERS


@pytest.mark.parametrize(
    "code,users",
    [("def f(s):\n    return _noise_rows(s, [0], 8)", {("mod", "f")}),
     ("def f(s):\n    return chan._noise_rows(s, [0], 8)", {("mod", "f")}),
     ("class C:\n    def m(self):\n        return chan._noise_rows(1, [0], 8)", {("mod", "C.m")}),
     ("draw = chan._noise_rows", {("mod", "<module>")}),
     ("class C:\n    draw = chan._noise_rows", {("mod", "<module>")}),
     ("from .channel import _noise_rows as draw", {("mod", "<module>")}),
     ("def _noise_rows(s, rows, n):\n    return rows", set()),
     ("def f(s):\n    return chan.noise_cells(s, 0, 8)", set())],
    ids=["call", "attribute", "method", "alias", "class-attribute", "import-as", "definition", "other"],
)
def test_noise_guard_sees_each_form(tmp_path, code, users):
    (tmp_path / "mod.py").write_text(code + "\n")
    assert _users("_noise_rows", tmp_path) == users


# The ACK decision has one home: a semantic reception's verdict is made where
# it is scored, and every session, cache and sweep reads Reception.acked. No
# second caller can judge a row at another threshold than its rounds were
# cut at.
ACK_DECIDERS = {("harq", "SemanticSource.receptions")}


def test_the_ack_decision_is_made_by_the_semantic_reception_scorer_alone():
    assert _users("ack_decide") == ACK_DECIDERS


@pytest.mark.parametrize(
    "code,users",
    [("def f(s, b):\n    return ack_decide(s, b)", {("mod", "f")}),
     ("def f(s, b):\n    return det.ack_decide(s, b)", {("mod", "f")}),
     ("class C:\n    def m(self, s):\n        return ack_decide(s, 0.5)", {("mod", "C.m")}),
     ("decide = det.ack_decide", {("mod", "<module>")}),
     ("from .detector import ack_decide", set()),
     ("import ack_decide", set()),
     ("from .detector import ack_decide as decide", {("mod", "<module>")}),
     ("def ack_decide(s, b):\n    return s > b", set())],
    ids=["call", "attribute", "method", "alias", "from-import", "import", "import-as", "definition"],
)
def test_ack_guard_sees_each_form(tmp_path, code, users):
    (tmp_path / "mod.py").write_text(code + "\n")
    assert _users("ack_decide", tmp_path) == users


# harness sends every session round through the link's two entries, so the
# benchmark's pin on them (bench/test_bench.py checks that
# harness.transmit_symbols is link.transmit_symbols) holds, and a traced link
# span times what sessions run. No harness code names the link's core, its
# cell function or how it fills its draws, or imports any of them.
LINK_ENTRIES = {"transmit_symbols", "transmit_with_state"}
LINK_INNARDS = ("receive_cells", "_transmit", "_fill", "_fill_chunk", "_clean_rows", "_estimate")


def _link_reach(module: str, src: Path = SRC) -> set[str]:
    """The link innards that `module` names, and the link functions other
    than its two entries that it imports from .link."""
    named = {name for name in LINK_INNARDS if any(m == module for m, _ in _users(name, src))}
    tree = ast.parse((src / f"{module}.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "link"
        for alias in node.names
        if alias.name[:1].islower() or alias.name.startswith("_")
    }
    return named | (imported - LINK_ENTRIES)


def test_harness_reaches_the_link_through_its_two_entries_alone():
    assert _link_reach("harness") == set()


@pytest.mark.parametrize(
    "code,reach",
    [("from .link import LinkSeeds, RoundDraws, transmit_symbols, transmit_with_state", set()),
     ("from .link import receive_cells", {"receive_cells"}),
     ("from .link import _transmit as send", {"_transmit"}),
     ("def f(x):\n    return link.receive_cells(x, 1, 2)", {"receive_cells"}),
     ("class C:\n    def m(self, x):\n        return link._transmit(x)", {"_transmit"}),
     ("send = link._fill", {"_fill"}),
     ("def f(x):\n    return link.transmit_symbols(x)", set())],
    ids=["entries", "import", "import-as", "call", "method", "alias", "entry-call"],
)
def test_link_reach_guard_sees_each_form(tmp_path, code, reach):
    (tmp_path / "mod.py").write_text(code + "\n")
    assert _link_reach("mod", tmp_path) == reach


def test_importing_the_cli_loads_numpy_alone():
    # numpy is the one runtime dependency; any other package would add its
    # import time to every semlink process
    code = "import sys; before = set(sys.modules); import semlink.cli; print(*set(sys.modules) - before)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=SRC.parent, check=True
    )
    top = {name.split(".")[0] for name in proc.stdout.split() if not name.startswith("_")}
    assert top - set(sys.stdlib_module_names) == {"semlink", "numpy"}
