"""Every name a hesslab module or a test module imports is used there or,
in a hesslab module, listed in __all__; every parameter of a hesslab
function is read."""

import ast
from pathlib import Path

import pytest

from hesslab import errors

SRC = Path(errors.__file__).parent
TESTS = Path(__file__).parent


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
