"""Every name a hesslab module or a test module imports is used there or,
in a hesslab module, listed in __all__; every parameter of a hesslab
function is read; every hesslab definition is reached from the CLI or the
benchmark; and hesslab leaves out the scipy subpackages whose import costs
more than the few routines it would take from them."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from hesslab import errors

SRC = Path(errors.__file__).parent
TESTS = Path(__file__).parent
BENCH = TESTS.parent / "hessbench"


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
    # an attribute chain such as np.linalg.norm starts with the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def _unused_parameters(source):
    """function(parameter) for each parameter that its function's body never
    reads; self, cls and _-prefixed names are exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        found += [f"{name}({p})" for p in params
                  if p not in read and p not in ("self", "cls")
                  and not p.startswith("_")]
    return found


def test_detector():
    source = (
        "import os\nimport numpy as np\nfrom math import pi, tau\n"
        "from .errors import OutOfDomain\n"
        "__all__ = ['OutOfDomain']\nx = np.zeros(1) * pi\n"
    )
    assert _unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_parameter_detector():
    source = (
        "def f(a, b, *args, c=1, _d=2, **kw):\n"
        "    def g(x):\n        return b\n"
        "    a = 3\n    del c\n    return lambda y: g(0)\n"
        "class A:\n    def m(self, u):\n        return self\n"
    )
    assert _unused_parameters(source) == [
        "f(a)", "f(c)", "f(args)", "f(kw)", "g(x)", "m(u)", "<lambda>(y)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert _unused_parameters(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_tests_have_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _loads(tree):
    """(line, key) of every Name and Attribute load: ("name", id),
    ("attr", attr) and, for an attribute of a plain name, ("qual", name,
    attr)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.lineno, ("name", node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.lineno, ("attr", node.attr)
            if isinstance(node.value, ast.Name):
                yield node.lineno, ("qual", node.value.id, node.attr)


def _unreached(modules, readers, entry=()):
    """module.name of each top-level def or class, and module.Class.name of
    each method, in the sources `modules` ({module: source}) that nothing
    reaches, dunders and the names in `entry` exempt.

    A definition is reached when a load outside its own body reads it: a
    function or class by its name or as module.name, a method as an
    attribute.  Loads in the sources `readers` count, and so do loads in
    `modules` unless they lie in the body of a definition that nothing
    reaches, so a chain of definitions that only read each other is
    unreached as a whole."""
    defs = []  # (qualname, keys that read it, source index, first, last line)
    events = []  # (source index, line, key)
    for i, (module, source) in enumerate(modules.items()):
        tree = ast.parse(source)
        events += [(i, line, key) for line, key in _loads(tree)]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node, node.name, {("name", node.name),
                                          ("qual", module, node.name)})]
            if isinstance(node, ast.ClassDef):
                members += [(m, f"{node.name}.{m.name}", {("attr", m.name)})
                            for m in node.body if isinstance(m, ast.FunctionDef)]
            defs += [(f"{module}.{qual}", keys, i, d.lineno, d.end_lineno)
                     for d, qual, keys in members
                     if not (d.name.startswith("__") and d.name.endswith("__"))]
    for j, source in enumerate(readers, start=len(modules)):
        events += [(j, line, key) for line, key in _loads(ast.parse(source))]
    # for each key, the sets of definitions that enclose a load of it
    enclosing = {}
    for i, line, key in events:
        enclosing.setdefault(key, []).append(frozenset(
            d for d, (_, _, f, first, last) in enumerate(defs)
            if f == i and first <= line <= last))
    dead = set()
    while True:
        now = {d for d, (qual, keys, *_) in enumerate(defs)
               if qual not in entry and not any(
                   d not in enc and not enc & dead
                   for key in keys for enc in enclosing.get(key, ()))}
        if now == dead:
            return sorted(defs[d][0] for d in dead)
        dead = now


def test_reachability_detector():
    modules = {
        "m": (
            "import os\n"
            "def used():\n    return helper()\n"
            "def helper():\n    return os.sep\n"
            "def oracle():\n    return chained() + oracle()\n"
            "def chained():\n    return 1\n"
            "def main():\n    return used()\n"
            "class A:\n"
            "    def __init__(self):\n        self.x = 0\n"
            "    def read(self):\n        return self.x\n"
            "    def unread(self):\n        return self.read()\n"
            "    def _private(self):\n        return 0\n"
        ),
        "n": "from .m import A\ndef go():\n    return A().read(), m.helper\n",
    }
    assert _unreached(modules, ["from hesslab import n\nn.go()\n"],
                      entry=("m.main",)) == [
        "m.A._private", "m.A.unread", "m.chained", "m.oracle",
    ]


def test_every_definition_is_reached():
    """src/ holds what the CLI and the benchmark run: each definition is
    read from the console script cli.main or a hessbench module; the
    referees that only tests read live in tests/oracles.py."""
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    assert _unreached(modules, readers, entry=("cli.main",)) == []


#: scipy subpackages that hesslab must not import, directly or through
#: another: the splines, quadratures and special functions it needs are
#: its own (surfaces._ClampedSpline, solver._Bicubic,
#: surfaces._simpson_weights).
HEAVY = ("scipy.interpolate", "scipy.integrate", "scipy.special", "scipy.optimize")


def _heavy_imports(source):
    """The HEAVY packages that the import statements of source reach, at
    any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(h for h in HEAVY for m in names
                     if m == h or m.startswith(h + "."))
    return sorted(found)


def test_heavy_import_detector():
    source = (
        "import scipy.linalg\nfrom scipy import integrate, sparse\n"
        "def f():\n    from scipy.interpolate import CubicSpline\n"
        "    import scipy.special._ufuncs\n"
    )
    assert _heavy_imports(source) == [
        "scipy.integrate", "scipy.interpolate", "scipy.special",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_heavy_scipy_imports(path):
    assert _heavy_imports(path.read_text()) == []


def test_cli_import_footprint():
    probe = ("import sys, hesslab.cli; "
             f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=SRC.parent,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
