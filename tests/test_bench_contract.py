"""The benchmark's layer tracer must find every function it wraps.

``perfbench/tracer.py`` names the functions and methods it times by
"module:attribute" strings.  A rename or deletion inside ``infoloss``
would make ``perfbench/run.py --trace 1`` fail, so tier 1 checks that
every target still resolves.  The tracer is imported from its file and
is not changed here.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load_tracer()


@pytest.mark.parametrize("name, target", sorted(
    {**tracer.SPANS, **tracer.COUNT_ONLY}.items()))
def test_tracer_target_resolves(name, target):
    _, _, original = tracer._resolve(target)
    assert callable(original), (name, target)
