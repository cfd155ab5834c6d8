"""The ``>>>`` examples in the package's docstrings run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import twotower

MODULES = sorted(
    m.name
    for m in pkgutil.iter_modules(twotower.__path__, "twotower.")
    if m.name != "twotower.__main__"  # importing it runs the command line
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_metrics_examples_are_collected():
    assert doctest.testmod(importlib.import_module("twotower.metrics")).attempted >= 4
