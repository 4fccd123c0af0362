"""Every module-level import of the package is read in its module, and
every error class of the package is raised somewhere in it."""

import ast
import glob
import os

import pytest

from zdsys import errors

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


def raised_names(source):
    """Names of the exceptions that the raise statements of source
    raise, as `raise X` or `raise X(...)`, by name or attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def test_raised_names_scanner():
    src = "raise A\nraise B('x')\nraise errors.C(1) from None\nraise\n"
    assert raised_names(src) == {"A", "B", "C"}


def test_every_error_class_is_raised():
    subclasses = sorted(
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.ZdsysError)
        and obj is not errors.ZdsysError
    )
    assert subclasses
    raised = set()
    for path in MODULES:
        with open(path) as f:
            raised |= raised_names(f.read())
    assert [name for name in subclasses if name not in raised] == []
