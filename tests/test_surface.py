"""The public surface: every name a module exports exists.

A stale ``__all__`` entry breaks only ``from infoloss.<module> import *``,
which no other test runs.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_loads_no_thread_pool_machinery():
    # concurrent.futures (and the logging it imports) is loaded only when
    # a pass runs on more than one worker, not by every ``import infoloss``
    src = os.path.dirname(os.path.dirname(infoloss.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import infoloss; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'logging')))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
