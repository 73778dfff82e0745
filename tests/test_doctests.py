import doctest
import importlib
import pkgutil

import pytest

import symchar

MODULES = ["symchar"] + [f"symchar.{m.name}" for m in pkgutil.iter_modules(symchar.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    failed, _ = doctest.testmod(importlib.import_module(name))
    assert failed == 0
