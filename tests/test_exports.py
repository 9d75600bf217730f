"""Every ``__all__`` lists names that exist, each once, so a name removed from
a module cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import thetaquad

MODULES = ["thetaquad"] + [
    f"thetaquad.{info.name}" for info in pkgutil.iter_modules(thetaquad.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from thetaquad import *", namespace)
    assert set(thetaquad.__all__) <= set(namespace)
