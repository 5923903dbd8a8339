"""Byte-identity table of ``infoloss report`` over every preset.

For each shipped preset this runs

    python -m infoloss report <preset> --n N --seed S --workers W

at ``--workers 1`` and ``2`` (``--n 300000 --seed 5`` by default) in a
fresh interpreter on this checkout's ``src/`` and prints the first 16
hex digits of the sha256 of its stdout, and of the same report with
every standard error masked, one preset a line:

    <preset> <digest at workers 1> <digest at workers 2> <masked at 1> <masked at 2>

The masked report replaces each number under a key that contains
``stderr`` (``stderr_bits``, ``h_Y_stderr``, ``stderrs``,
``stderrs_bits``, ...) with null and is printed as the CLI prints a
report.  A change that must keep the report's bytes prints the same
table before and after; a change that may move only standard errors
keeps the masked columns.  Exits 1 if a report fails or if the two
worker counts give different bytes for some preset.

With ``--expect FILE`` each printed line is also compared with the
``report_digests.change`` table of a recorded ``BENCH_*.json``; every
preset whose line differs from the table's, or that only one of them
has, is named on stderr and the exit status is 1.

    python3 scripts/report_digests.py [--n N] [--seed S] [--expect FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def mask_stderrs(obj, masked: bool = False):
    """``obj`` with every number under a key containing ``stderr`` set
    to None."""
    if isinstance(obj, dict):
        return {k: mask_stderrs(v, masked or "stderr" in k)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [mask_stderrs(v, masked) for v in obj]
    if masked and isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return None
    return obj


def digest(name: str, n: int, seed: int, workers: int) -> tuple[str, str]:
    """Digests of the report's stdout and of its stderr-masked form."""
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
    masked = mask_stderrs(json.loads(res.stdout))
    text = json.dumps(masked, sort_keys=True, indent=2) + "\n"
    return _short(res.stdout), _short(text.encode())


def expected_lines(path: str) -> dict[str, str]:
    """The recorded table of a ``BENCH_*.json``, one line per preset."""
    table = json.loads(Path(path).read_text())["report_digests"]["change"]
    return {line.split()[0]: line for line in table}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=300_000)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--expect", metavar="FILE",
                    help="BENCH_*.json whose report_digests.change table "
                         "the printed lines must equal")
    args = ap.parse_args(argv)
    expect = expected_lines(args.expect) if args.expect else None
    status = 0
    for name in presets():
        full, masked = zip(*(digest(name, args.n, args.seed, w)
                             for w in WORKERS))
        line = " ".join((name, *full, *masked))
        print(line, flush=True)
        if len(set(full)) != 1 or len(set(masked)) != 1:
            status = 1
        if expect is not None and expect.pop(name, None) != line:
            print(f"differs from {args.expect}: {name}", file=sys.stderr)
            status = 1
    for name in expect or ():
        print(f"differs from {args.expect}: {name} (not printed)",
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
