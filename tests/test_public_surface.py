"""Public-surface guard: every name a module exports must exist, so a
deleted function cannot linger in an __all__."""

import importlib
import pkgutil

import pytest

import abwkb

MODULES = ["abwkb"] + [f"abwkb.{m.name}" for m in pkgutil.iter_modules(abwkb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from abwkb import *", namespace)
    assert set(abwkb.__all__) <= set(namespace)
