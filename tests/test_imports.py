"""Every name a hesslab module or a test module imports is used there or,
in a hesslab module, listed in __all__."""

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


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_tests_have_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
