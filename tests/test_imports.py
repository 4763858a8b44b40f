"""Every module of the package uses each name it imports, and reads each
attribute it stores.

No linter ships with the project, so this parses each `src/rrrt` module with
`ast`. A name counts as used when it appears as a name anywhere in the module;
one used only inside a quoted annotation is reported (`from __future__ import
annotations` makes the quotes unneeded). `__init__.py` imports only to
re-export and is skipped.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rrrt"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


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
