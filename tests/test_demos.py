"""Every demo script runs to the end.

The demos call public functions that no other caller uses (for example
``differential_entropy_mc`` and ``expected_log_jacdet``), so running
them keeps those functions exercised.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    # an empty glob would leave the parametrized test below with no case
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    res = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         capture_output=True, text=True, env=env, cwd=ROOT,
                         timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout.strip()
