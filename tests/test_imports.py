"""Every module-level import of the package is read in its module,
no module imports scipy, numpy is loaded only by a berg job, every
error class of the package is raised somewhere in it, every
module-level function is used in it or is public API, the
annotations of every value class resolve, and importing the CLI loads
neither dataclasses, inspect nor typing."""

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


def import_time_packages(source):
    """Top-level packages named by the absolute imports that run when
    source is imported: those outside every function body, in class
    bodies and in `if` and `try` blocks too."""

    def outside_functions(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child
                yield from outside_functions(child)

    return _packages(outside_functions(ast.parse(source)))


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
    # only berg needs numpy, and numeric imports it inside its functions
    with open(path) as f:
        assert "numpy" not in import_time_packages(f.read())


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_module_does_not_import_dataclasses_or_typing(path):
    # the value classes derive from space.Record; dataclasses (which
    # loads inspect) and typing would add about 12 ms to every start
    with open(path) as f:
        assert import_time_packages(f.read()) & {"dataclasses", "typing"} == set()


# Lists the modules that `import zdsys.cli` loads among those it must
# not: numpy is for berg alone, and dataclasses, inspect and typing
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


def test_berg_job_does_not_load_scipy(tmp_path):
    # numpy is the only runtime dependency; a berg job runs the unitary
    # root, the operator norms and the cutdown check, and loads numpy
    spec = tmp_path / "shift.json"
    spec.write_text(json.dumps({"family": "compactified_shift"}))
    script = (
        "import sys\n"
        "from zdsys import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "if 'scipy' in sys.modules:\n"
        "    sys.exit('scipy was imported')\n"
        "if 'numpy' not in sys.modules:\n"
        "    sys.exit('numpy was not imported')\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.abspath(SRC)))
    proc = subprocess.run(
        [sys.executable, "-c", script, "berg", "--spec", str(spec),
         "--depth", "1", "--N", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"]


# Run in a fresh process with `import numpy` made to fail: every golden
# job other than berg, compared as test_golden compares it, plus
# error-berg-N0, which fails in argument checking before any numeric
# work, and --help of every command.
_NUMPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import test_golden as golden
from zdsys import cli

failed = []
for job in golden.JOBS:
    if job["args"][0] == "berg" and job["name"] != "error-berg-N0":
        continue
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


def test_jobs_other_than_berg_run_with_numpy_blocked():
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


# Module-level functions that nothing in the package calls, kept as
# documented, tested API for library users.
PUBLIC_API = {
    # the inverse of cpalgebra.to_dict, which identity-suite reports use
    "cpalgebra.from_dict",
    # the restriction of an element to one fiber, a *-homomorphism
    "cpalgebra.fiber_restrict",
    # the odometer cylinder of a word, the basic odometer set
    "space.cylinder",
    # the paper's finer-system relation between two return systems
    "towers.finer_system_criterion",
    # the inverse of system_to_dict, which the tower report writes
    "towers.system_from_dict",
}


def unreferenced_functions(sources):
    """"module.name" of the module-level functions of sources, a dict
    {module: source} of the modules of one package, that no code of the
    package reads outside the function's own body.  A read is a bare
    name in the function's module, or in a module that imports it with
    `from .module import name`, or an attribute of the module bound by
    `from . import module`."""
    defs = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        names = {}  # bare name -> (module, name) imported under it
        modules = {}  # name -> module bound by `from . import module`
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        modules[bound] = alias.name
                    else:
                        names[bound] = (node.module, alias.name)
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = (module, top.name)
                defs.append(owner)
            for n in ast.walk(top):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    ref = names.get(n.id, (module, n.id))
                elif (
                    isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name)
                    and n.value.id in modules
                ):
                    ref = (modules[n.value.id], n.attr)
                else:
                    continue
                if ref != owner:
                    used.add(ref)
    return ["%s.%s" % d for d in defs if d not in used]


def test_unreferenced_functions_scanner():
    a = (
        "from . import b\n"
        "from .b import g as gee\n"
        "def f():\n    return f()\n"  # only calls itself
        "def h():\n    pass\n"
        "TABLE = {'h': h}\n"
        "def run():\n    return b.k() + gee()\n"
    )
    # b.h shares its name with the used a.h
    b = "def g():\n    pass\ndef k():\n    pass\ndef h():\n    pass\n"
    assert unreferenced_functions({"a": a, "b": b}) == ["a.f", "a.run", "b.h"]


def test_every_function_is_used_or_public():
    sources = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as f:
            sources[os.path.basename(path)[:-3]] = f.read()
    assert sorted(set(unreferenced_functions(sources)) - PUBLIC_API) == []
    # the list names only functions that exist
    defined = {
        "%s.%s" % (module, top.name)
        for module, source in sources.items()
        for top in ast.parse(source).body
        if isinstance(top, ast.FunctionDef)
    }
    assert sorted(PUBLIC_API - defined) == []


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
