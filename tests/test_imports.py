"""Every module-level import of the package is read in its module."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "zdsys")
MODULES = sorted(
    p
    for p in glob.glob(os.path.join(SRC, "*.py"))
    if os.path.basename(p) != "__init__.py"
)


def unread_imports(source):
    """Names bound by the module-level imports of source (other than
    __future__ imports) that no expression in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_unread_imports_scanner():
    src = "import os.path\nimport sys as system\nfrom . import a, b\nb.c\n"
    assert unread_imports(src) == ["os", "system", "a"]
    assert unread_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_imports_are_read(path):
    with open(path) as f:
        assert unread_imports(f.read()) == []
