"""Every module-level import of the package and of the tests is read
in its module, no module imports numpy or scipy, at module level or
inside a function, no CLI job loads either, every error class of the
package is raised somewhere in it, every function and method of the
package is reached from its module code or the CLI, the annotations of
every value class resolve, and importing the CLI loads neither
dataclasses, inspect nor typing."""

import ast
import glob
import json
import os
import subprocess
import sys
import typing

import pytest

import zdsys
from zdsys import errors, space

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "zdsys")
MODULES = sorted(
    p
    for p in glob.glob(os.path.join(SRC, "*.py"))
    if os.path.basename(p) != "__init__.py"
)
TESTS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py")))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


# the basenames of the package's modules and of the tests' differ
@pytest.mark.parametrize("path", MODULES + TESTS, ids=os.path.basename)
def test_module_imports_are_read(path):
    with open(path) as f:
        assert unread_imports(f.read()) == []


def _packages(nodes):
    out = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def imported_packages(source):
    """Top-level packages named by the absolute imports of source, at
    module level or inside functions."""
    return _packages(ast.walk(ast.parse(source)))


def _outside_functions(node):
    """The nodes under node that run when it runs as module code: all
    but function definitions and what they hold."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, FUNCTIONS):
            yield child
            yield from _outside_functions(child)


def import_time_packages(source):
    """Top-level packages named by the absolute imports that run when
    source is imported: those outside every function body, in class
    bodies and in `if` and `try` blocks too."""
    return _packages(_outside_functions(ast.parse(source)))


def test_imported_packages_scanner():
    src = (
        "import numpy as np, os.path\n"
        "from . import a\n"
        "from .b import c\n"
        "def f():\n    import scipy.linalg\n"
        "    from json import dumps\n"
    )
    assert imported_packages(src) == {"numpy", "os", "scipy", "json"}


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_module_does_not_import_scipy(path):
    with open(path) as f:
        assert "scipy" not in imported_packages(f.read())


def test_import_time_packages_scanner():
    src = (
        "import os.path\n"
        "from . import numeric\n"
        "try:\n    import json\nexcept ImportError:\n    pass\n"
        "class A:\n    from numpy import linalg\n"
        "    def m(self):\n        import scipy\n"
        "def f():\n    import numpy as np\n"
        "async def g():\n    import sys\n"
    )
    assert import_time_packages(src) == {"os", "json", "numpy"}


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_module_does_not_import_numpy_at_import_time(path):
    # nor anywhere else: numpy is a test dependency only, and no function
    # of the package imports it either
    with open(path) as f:
        assert "numpy" not in imported_packages(f.read())


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_module_does_not_import_dataclasses_or_typing(path):
    # the value classes derive from space.Record; dataclasses (which
    # loads inspect) and typing would add about 12 ms to every start
    with open(path) as f:
        assert import_time_packages(f.read()) & {"dataclasses", "typing"} == set()


# Lists the modules that `import zdsys.cli` loads among those it must
# not: no CLI job needs numpy, and dataclasses, inspect and typing
# cost about 12 ms of every process start.
START_PATH_PROBE = """
import json, sys
before = set(sys.modules)
import zdsys.cli
new = set(sys.modules) - before
print(json.dumps(sorted(new & {"dataclasses", "inspect", "typing", "numpy"})))
"""


def test_cli_start_path_is_lean():
    # -S keeps site, whose .pth files may import typing, out of the
    # snapshot
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.abspath(SRC)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", START_PATH_PROBE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize(
    "spec, depth",
    [
        ({"family": "compactified_shift"}, "2"),
        ({"family": "quotient_product",
          "fiber": {"family": "compactified_shift"}}, "2"),
    ],
    ids=["shift", "quotient-shift"],
)
def test_berg_jobs_load_neither_numpy_nor_scipy(tmp_path, spec, depth):
    # a berg job reads the corner's root off its closed form and runs
    # the operator norms and the cutdown check; its corner unitary is a
    # permutation and its norm blocks have at most two rows, so it needs
    # neither
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    script = (
        "import sys\n"
        "from zdsys import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "loaded = {'numpy', 'scipy'} & set(sys.modules)\n"
        "if loaded:\n"
        "    sys.exit('imported: %s' % sorted(loaded))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.abspath(SRC)))
    proc = subprocess.run(
        [sys.executable, "-c", script, "berg", "--spec", str(path),
         "--depth", depth, "--N", "8"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["pass"] and report["norm_w_minus_1"] > 0


# Run in a fresh process with `import numpy` made to fail: every golden
# job, berg on every family included, compared as test_golden compares
# it, and --help of every command.
_NUMPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import test_golden as golden
from zdsys import cli

failed = []
for job in golden.JOBS:
    got = golden.run_job(job)
    want = golden._RECORDED[job["name"]]
    if got["exit"] != want["exit"] or any(
        golden.first_difference(got[s], want[s]) for s in ("stdout", "stderr")
    ):
        failed.append(job["name"])
for command in sorted(cli.COMMANDS):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([command, "--help"])
    except SystemExit as e:
        if e.code == 0:
            continue
    failed.append(command + " --help")
print(json.dumps(failed))
"""


def test_golden_jobs_run_with_numpy_blocked():
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.dirname(os.path.abspath(SRC)), tests]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_BLOCKED],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


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


def unreferenced_functions(sources):
    """"module.name" of the module-level functions and
    "module.Class.name" of the methods of sources, a dict {module:
    source} of the modules of one package, that no code reached from
    the package's roots reads.  The roots are every module's code
    outside functions and cli.main.  Reached code reaches what it reads:
    a bare name, or an attribute of a module bound by `from . import
    module`, reaches that module's function or class, through
    `from .module import name` too; any other attribute `.x` reaches the
    method x of every reached class.  The dunder methods of a reached
    class are reached with it, and so are all the methods of one with a
    base outside the package, which that base may call."""
    defs = {}  # (module, name) or (module, class, name) -> (module, node)
    methods = {}  # (module, class) -> {name: key of the method}
    scopes = {}  # module -> (names, modules) bound by relative imports
    bases = []  # (module, class key, base expression)
    todo = []  # (module, nodes to read)
    for module, source in sources.items():
        tree = ast.parse(source)
        names, modules = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        modules[bound] = alias.name
                    else:
                        names[bound] = (node.module, alias.name)
        scopes[module] = names, modules
        for top in tree.body:
            if isinstance(top, FUNCTIONS):
                defs[(module, top.name)] = module, top
            elif isinstance(top, ast.ClassDef):
                cls = methods[(module, top.name)] = {}
                for node in top.body:
                    if isinstance(node, FUNCTIONS):
                        cls[node.name] = (module, top.name, node.name)
                        defs[cls[node.name]] = module, node
                bases += [(module, (module, top.name), b) for b in top.bases]
        todo.append((module, _outside_functions(tree)))

    def read(module, node):
        """(key of a module-level name, None) or (None, attribute)."""
        names, modules = scopes[module]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return names.get(node.id, (module, node.id)), None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                return (modules[node.value.id], node.attr), None
            return None, node.attr
        return None, None

    outside = {key for module, key, b in bases
               if read(module, b)[0] not in methods}
    reached, attrs = set(), set()

    def reach(key):
        if key in reached:
            return
        reached.add(key)
        if key in defs:
            todo.append((defs[key][0], ast.walk(defs[key][1])))
        for name, method in methods.get(key, {}).items():
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or key in outside or name in attrs:
                reach(method)

    reach(("cli", "main"))
    while todo:
        module, nodes = todo.pop()
        for node in nodes:
            key, attr = read(module, node)
            if key is not None:
                reach(key)
            elif attr is not None and attr not in attrs:
                attrs.add(attr)
                for cls, own in methods.items():
                    if cls in reached and attr in own:
                        reach(own[attr])
    return [".".join(key) for key in defs if key not in reached]


def test_unreferenced_functions_scanner():
    a = (
        "from . import b\n"
        "from .b import g as gee\n"
        "def f():\n    return f()\n"  # only calls itself
        "def h():\n    pass\n"
        "TABLE = {'h': h}\n"
        "def run():\n    return b.k() + gee()\n"
        "def unrun():\n    return b.k()\n"
    )
    # b.h shares its name with the reached a.h
    b = "def g():\n    pass\ndef k():\n    pass\ndef h():\n    pass\n"
    cli = "from . import a\ndef main():\n    return a.run()\n"
    sources = {"a": a, "b": b, "cli": cli}
    assert unreferenced_functions(sources) == ["a.f", "a.unrun", "b.h"]
    # a function and a method that read only each other, and a method
    # of a reached class that no reached code names; the dunder method
    # and the method read as an attribute are reached, and so are the
    # methods of the class with a base outside the package
    c = (
        "import argparse\n"
        "def p(x):\n    return x.q()\n"
        "class C:\n"
        "    def q(self):\n        return p(self)\n"
        "    def __repr__(self):\n        return self.r()\n"
        "    def r(self):\n        pass\n"
        "    def unused(self):\n        pass\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        pass\n"
        "def main():\n    return C(), Parser\n"
    )
    assert unreferenced_functions({"cli": c}) == [
        "cli.p", "cli.C.q", "cli.C.unused"
    ]


def test_every_function_is_used_or_public():
    # no exemption: a function that only the tests call lives in the
    # tests (oracles, genutil), not in the package
    sources = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as f:
            sources[os.path.basename(path)[:-3]] = f.read()
    assert unreferenced_functions(sources) == []


def test_value_class_annotations_resolve():
    # typing.get_type_hints evaluates every annotation in its module, so
    # a name bound only inside functions, such as numpy, fails here
    checked = 0
    for name in zdsys.__all__:
        module = getattr(zdsys, name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, space.Record)
                and obj.__module__ == module.__name__
                and obj is not space.Record
            ):
                typing.get_type_hints(obj)
                checked += 1
    assert checked >= 10
