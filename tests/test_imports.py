"""Every name a hesslab module or a test module imports is used there or,
in a hesslab module, listed in __all__; every parameter of a hesslab
function is read, and every default of one is overridden by some call;
every hesslab definition is reached from the CLI or the benchmark; hesslab
leaves out the scipy subpackages whose import costs more than the few
routines it would take from them; and it loads scipy at all only for the
LAPACK band LU of a Newton Jacobian, never scipy.sparse."""

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


def _calls(sources):
    """{name: [(positional count, keywords), ...]} of every call in the
    sources, by the called function or attribute name; a *args passes every
    position and a **kwargs every keyword (as the keyword None)."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            passed = (float("inf") if starred else len(node.args),
                      {kw.arg for kw in node.keywords})
            calls.setdefault(name, []).append(passed)
    return calls


def _unset_defaults(source, calls):
    """function(parameter) for each defaulted parameter of a function in
    source that no call of its name in `calls` (see _calls) passes, by
    keyword or by position; dunders are exempt.  Positions of a method
    other than a staticmethod start after self or cls."""
    found = []

    def visit(node, in_class):
        for fn in ast.iter_child_nodes(node):
            is_def = isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(fn, isinstance(fn, ast.ClassDef))
            if not is_def or fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            if in_class and "staticmethod" not in [getattr(d, "id", None)
                                                   for d in fn.decorator_list]:
                positional = positional[1:]
            first = len(positional) - len(a.defaults)
            defaulted = [(i, p) for i, p in enumerate(positional) if i >= first]
            defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            found.extend(f"{fn.name}({p})" for i, p in defaulted
                         if not any(p in kws or None in kws or (i is not None and n > i)
                                    for n, kws in calls.get(fn.name, ())))

    visit(ast.parse(source), False)
    return found


def test_default_detector():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
        "def g(x=0):\n    return x\n"
        "def __h__(y=0):\n    return y\n"
        "class A:\n"
        "    def m(self, u=0, v=1):\n        return u\n"
        "    @staticmethod\n    def s(w=0):\n        return w\n"
    )
    calls = _calls([source, "f(0, 1, d=5)\nA().m(2)\nA.s(1)\ng(**{})\n"])
    assert _unset_defaults(source, calls) == ["f(c)", "f(e)", "m(v)"]


def test_every_default_is_overridden():
    """A default that no call in src/, hessbench/ or tests/ overrides is a
    knob nobody turns: its value belongs inline."""
    calls = _calls([p.read_text() for d in (SRC, BENCH, TESTS)
                    for p in sorted(d.glob("*.py"))])
    for path in sorted(SRC.glob("*.py")):
        assert _unset_defaults(path.read_text(), calls) == [], path.name


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
#: its own (surfaces._ClampedSpline, the column splines of
#: solver.ExteriorField._columns, surfaces._simpson_weights).
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


#: The only definition in src/ that imports scipy, and the one module it
#: takes: the Newton Jacobian is a LAPACK band factored by dgbtrf and
#: back-solved by dgbtrs.  The post-solve pipeline (checkpoints, splines,
#: ghost rows, F, ledger, certification) and the matrix battery run on
#: numpy alone.
NEWTON_FACTOR = ("solver._ChordFactor.refactor", "scipy.linalg.lapack")


def _scipy_imports(module, source):
    """(where, name) for each scipy module or name that an import statement
    of source binds, where being module.qualname of the innermost enclosing
    def or class, or the module at top level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                names = []
            found.extend((where, m) for m in names
                         if m == "scipy" or m.startswith("scipy."))
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def _scipy_misplaced(module, source):
    """The scipy imports of source other than scipy.linalg.lapack, or its
    names, in the definition NEWTON_FACTOR names."""
    where_ok, lapack = NEWTON_FACTOR
    return [(where, m) for where, m in _scipy_imports(module, source)
            if where != where_ok or not (m == lapack or m.startswith(lapack + "."))]


def test_scipy_import_detector():
    source = (
        "import numpy as np\nfrom scipy import linalg\n"
        "def _linearization():\n    from scipy.sparse import csc_matrix\n"
        "class _ChordFactor:\n"
        "    def refactor(self):\n"
        "        from scipy.sparse.linalg import splu\n"
        "        import scipy.linalg.lapack\n"
        "        from scipy.linalg.lapack import dgbtrf, dgbtrs\n"
        "        from scipy.linalg import lu_factor\n"
        "    def step(self):\n        import scipy.linalg.lapack\n"
    )
    assert _scipy_imports("solver", source) == [
        ("solver", "scipy.linalg"),
        ("solver._linearization", "scipy.sparse.csc_matrix"),
        ("solver._ChordFactor.refactor", "scipy.sparse.linalg.splu"),
        ("solver._ChordFactor.refactor", "scipy.linalg.lapack"),
        ("solver._ChordFactor.refactor", "scipy.linalg.lapack.dgbtrf"),
        ("solver._ChordFactor.refactor", "scipy.linalg.lapack.dgbtrs"),
        ("solver._ChordFactor.refactor", "scipy.linalg.lu_factor"),
        ("solver._ChordFactor.step", "scipy.linalg.lapack"),
    ]
    assert _scipy_misplaced("solver", source) == [
        ("solver", "scipy.linalg"),
        ("solver._linearization", "scipy.sparse.csc_matrix"),
        ("solver._ChordFactor.refactor", "scipy.sparse.linalg.splu"),
        ("solver._ChordFactor.refactor", "scipy.linalg.lu_factor"),
        ("solver._ChordFactor.step", "scipy.linalg.lapack"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_scipy_only_in_newton_factor(path):
    assert _scipy_misplaced(path.stem, path.read_text()) == []


def _scipy_loaded_after(code):
    """The scipy modules in sys.modules after a fresh interpreter runs code."""
    probe = code + (
        "\nimport sys\nprint(' '.join(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], cwd=SRC.parent,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1].split()


def test_cli_import_loads_no_scipy():
    assert _scipy_loaded_after("import hesslab.cli") == []


def test_matrix_suite_loads_no_scipy():
    code = ("from hesslab import cli\n"
            "assert cli.run(['matrix-suite', '--trials', '50']) == 0\n")
    assert _scipy_loaded_after(code) == []


def test_post_solve_loads_no_scipy(prolate_field_half, tmp_path):
    # a reloaded field: its splined body, the ghost rows, the column
    # splines of its jets, the margin and F(t)
    path = tmp_path / "prolate.txt"
    prolate_field_half.save_checkpoint(path)
    code = (
        "from hesslab.monotone import F_eval, ProblemSpec\n"
        "from hesslab.solver import ExteriorField, admissibility_margin\n"
        f"field = ExteriorField.load_checkpoint({str(path)!r})\n"
        "assert admissibility_margin(field) > -1e-12\n"
        "F_eval(field, -0.5, ProblemSpec(n=3, k=1, a=1.0))\n"
    )
    assert _scipy_loaded_after(code) == []


def test_newton_solve_loads_lapack_not_sparse():
    code = (
        "from hesslab.monotone import ProblemSpec\n"
        "from hesslab.solver import solve_exterior\n"
        "from hesslab.surfaces import RevolutionBody\n"
        "solve_exterior(RevolutionBody.sphere(1.0, n=3),"
        " ProblemSpec(n=3, k=1, a=1.0), N_s=32, N_theta=16)\n"
    )
    loaded = _scipy_loaded_after(code)
    assert "scipy.linalg.lapack" in loaded
    assert [m for m in loaded if m == "scipy.sparse" or m.startswith("scipy.sparse.")] == []
