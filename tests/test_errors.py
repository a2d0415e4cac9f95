import ast
import inspect
from pathlib import Path

import hesslab
from hesslab import errors

SRC = Path(errors.__file__).parent


def _error_types():
    return {
        name
        for name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, errors.HesslabError) and obj is not errors.HesslabError
    }


def _raised_names():
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_type_is_raised():
    assert _error_types() - _raised_names() == set()


def test_package_exports_every_error_type():
    assert set(hesslab.__all__) == _error_types()
