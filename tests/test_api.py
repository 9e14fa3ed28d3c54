import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import modnls

MODULES = sorted(info.name for info in pkgutil.iter_modules(modnls.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    # a name left in __all__ after its definition is deleted fails here
    namespace = {}
    exec(f"from modnls.{name} import *", namespace)
    exported = getattr(importlib.import_module(f"modnls.{name}"), "__all__", [])
    assert set(exported) <= set(namespace)


def test_no_assert_statements_in_src():
    # python -O strips assert statements: an invariant of the package raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(modnls.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
