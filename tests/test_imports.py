"""Every module of the package uses each name it imports, reads each
attribute it stores, and names each public function it defines.

No linter ships with the project, so this parses each `src/rrrt` module with
`ast`. A name counts as used when it appears as a name anywhere in the module;
one used only inside a quoted annotation is reported (`from __future__ import
annotations` makes the quotes unneeded). `__init__.py` imports only to
re-export and is skipped.
"""

import ast
import os
import pathlib
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))

import tracer  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rrrt"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
# Public functions the package never names, each with the reason it stays.
UNNAMED_ALLOWED = {
    # Faults reach a run only from tests until scenario files can declare them.
    "NetworkRuntime.inject_fault",
    # `rrrt run --out` writes the trace's text blocks one at a time; the tests
    # and the benchmark take the whole text.
    "SimulationTrace.serialize",
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line, `from __future__` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_the_package_has_modules_to_check():
    assert "nodes.py" in MODULES and "kernel.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{module}:{line} {name}" for name, line in imported_names(tree).items()
              if name not in used]
    assert unused == []


def test_package_reads_every_attribute_it_stores():
    """No state is tracked but never read.

    A store is `x.a = ...`, `x.a += ...` or an annotated field in a class body;
    a read is any `x.a` load in the package. `errors.py` is exempt: callers
    outside the package read its exception attributes. Names are matched
    without their owner, so an attribute stored on one class and read on
    another under the same name passes: this is a floor, not a proof that
    every stored value is read.
    """
    stores, loads = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
        checked = path.name != "errors.py"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.attr)
                elif isinstance(node.ctx, ast.Store) and checked:
                    stores.setdefault(node.attr, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ClassDef) and checked:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        stores.setdefault(stmt.target.id, f"{path.name}:{stmt.lineno}")
    unread = [f"{where} {name}" for name, where in stores.items() if name not in loads]
    assert unread == []


def test_package_names_every_public_function_it_defines():
    """No public function or method is dead code.

    A module-level function or a method whose name has no leading underscore
    must be named (called, referenced or registered) somewhere in the package,
    be exported by `__init__.py`, or be a function the benchmark's tracer
    wraps. As above, names are matched without their owner: this is a floor.
    """
    named, exported, defined = set(), set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
        if path.name == "__init__.py":
            exported.update(alias.name for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) for alias in node.names)
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        defined[f"{node.name}.{stmt.name}"] = f"{path.name}:{stmt.lineno}"
    hooked = {name.partition(":")[2] for name in tracer.TARGETS + [tracer.REGISTER]}
    unnamed = [f"{where} {qualname}" for qualname, where in defined.items()
               if not qualname.rpartition(".")[2].startswith("_")
               and qualname.rpartition(".")[2] not in named
               and qualname not in exported | hooked | UNNAMED_ALLOWED]
    assert unnamed == []
