import importlib
import pkgutil

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
