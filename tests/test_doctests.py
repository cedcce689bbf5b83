"""Run the doctests of every zodom module that has any."""

import doctest
import importlib.util
import pkgutil

import pytest

import zodom

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(zodom.__path__, "zodom.")
    if ">>>" in importlib.util.find_spec(info.name).loader.get_source(info.name)
)


def test_some_module_has_doctests():
    assert "zodom.linalg" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
