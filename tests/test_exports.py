import importlib
import pkgutil

import pytest

import conemodes

MODULES = ["conemodes"] + [f"conemodes.{m.name}"
                           for m in pkgutil.iter_modules(conemodes.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [item for item in exported if not hasattr(module, item)] == []
