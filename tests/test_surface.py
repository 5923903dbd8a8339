"""The public surface: every name a module exports exists.

A stale ``__all__`` entry breaks only ``from infoloss.<module> import *``,
which no other test runs.
"""

import importlib
import pkgutil

import pytest

import infoloss

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(infoloss.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"infoloss.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from infoloss.{name} import *", {})
