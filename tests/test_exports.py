"""The package's export lists name only objects that exist."""

import importlib
import pkgutil

import pytest

import cycletree

MODULES = ["cycletree"] + [f"cycletree.{m.name}" for m in pkgutil.iter_modules(cycletree.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
