"""Byte-identity table of ``infoloss report`` over every preset.

For each shipped preset this runs

    python -m infoloss report <preset> --n N --seed S --workers W

at ``--workers 1`` and ``2`` (``--n 300000 --seed 5`` by default) in a
fresh interpreter on this checkout's ``src/`` and prints the first 16
hex digits of the sha256 of its stdout, one preset a line:

    <preset> <digest at workers 1> <digest at workers 2>

A change that must keep the report's bytes prints the same table before
and after.  Exits 1 if a report fails or if the two worker counts give
different bytes for some preset.

    python3 scripts/report_digests.py [--n N] [--seed S]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
WORKERS = (1, 2)


def presets() -> list[str]:
    names = sorted(p.stem for p in (SRC / "infoloss" / "presets").glob("*.json"))
    if not names:
        raise SystemExit(f"no presets under {SRC}")
    return names


def digest(name: str, n: int, seed: int, workers: int) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run(
        [sys.executable, "-m", "infoloss", "report", name, "--n", str(n),
         "--seed", str(seed), "--workers", str(workers)],
        capture_output=True, env=env)
    if res.returncode != 0:
        sys.stderr.write(res.stderr.decode(errors="replace"))
        raise SystemExit(f"{name} --workers {workers}: exit {res.returncode}")
    return hashlib.sha256(res.stdout).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=300_000)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args(argv)
    status = 0
    for name in presets():
        row = [digest(name, args.n, args.seed, w) for w in WORKERS]
        print(name, *row, flush=True)
        if len(set(row)) != 1:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
