"""Repository benchmark for infoloss.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  The workloads and metrics
are listed in ``BENCHMARK.json``; ``spec.py`` names the preset each
workload runs.  With ``--trace 0`` the run measures the end-to-end
metrics: the workload runs in a process of its own for about
``--seconds``, and set-up time (import infoloss, load the workload's
preset) is the median of three fresh processes before it and three
after it.  With ``--trace 1`` the run makes one traced pass at workers 1
instead and reports per-layer metrics; the spans go to
``perfbench/out/``.

The end-to-end metrics, per run:

- ``setup_s``: median of the six set-up probes.
- ``report_s``, ``report_workers2_s``, ``loss_eq5_mc_s``: mean wall time
  of the run's ``build_report`` calls at workers 1, at workers 2, and of
  its ``loss_eq5_mc`` calls.
- ``peak_rss_mb``: peak resident memory of the workload process.
- ``queries_per_s``: single-point calls completed per second of the
  query stream's wall time (one caller, closed loop).
- ``query_p50_us``: a windowed median latency of a single-point call:
  each operation's calls are cut into windows of 20 consecutive calls,
  and the window medians are averaged, first within each of the five
  operations, then over the five (see ``Queries.metrics``).
- ``query_p99_us``: the 99th percentile latency of all single-point
  calls pooled.
- ``ok_ratio``: 1 - failed_ratio, the share of operations that neither
  raised nor failed a check (``failed_ratio`` itself is printed, but a
  gated metric may not be 0).

Workload processes run with OMP, OpenBLAS and MKL limited to one thread.
The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the environment and each metric with its unit.  The exit code is 0
when a result is printed; a checkout without ``src/infoloss`` or a
program that cannot start gives another exit code and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, PRESETS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3   # before the workload, and as many after it
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

PROBE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import infoloss
infoloss.load_config_file(infoloss.preset_path({preset!r}))
print(repr(time.perf_counter() - t0))
"""


class BenchError(RuntimeError):
    pass


def _run(cmd, env, deadline) -> str:
    """Standard output of ``cmd``; it is killed at ``deadline``."""
    try:
        res = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{cmd[1]} did not finish in time") from err
    if res.returncode != 0:
        raise BenchError(f"{cmd[1]} exited with code {res.returncode}")
    return res.stdout


def setup_probes(preset, env, deadline) -> list[float]:
    """Times for fresh processes to import infoloss and load ``preset``."""
    code = PROBE.format(src=str(ROOT / "src"), preset=preset)
    return [float(_run([sys.executable, "-c", code], env, deadline).split()[-1])
            for _ in range(SETUP_PROBES)]


def time_limit(seconds: float) -> float:
    """Wall-time limit of a whole run: the measured ``seconds``, plus the
    set-up probes, the last report call that may overrun them and the
    final checks; a traced run makes five report calls instead."""
    return 1.5 * seconds + 60.0


def measure(workload: str, seed: int, seconds: int, trace: bool,
            n: int | None = None) -> dict:
    """The workload's result with its metrics in output form.  ``n``
    overrides the preset's sample budget, for quick checks of the
    benchmark itself; such figures are not comparable."""
    deadline = time.monotonic() + time_limit(seconds)
    env = {**os.environ, **THREAD_ENV}
    preset = PRESETS[workload]
    probes = [] if trace else setup_probes(preset, env, deadline)
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
           str(seconds), "1" if trace else "0"]
    out = _run(cmd + ([str(n)] if n else []), env, deadline)
    raw = json.loads(out.strip().splitlines()[-1])
    metrics = raw["metrics"]
    if not trace:
        probes += setup_probes(preset, env, deadline)
        metrics["setup_s"] = statistics.median(probes)
        metrics["ok_ratio"] = 1.0 - raw["failed"] / raw["attempted"]
    table = PER_LAYER if trace else END_TO_END
    raw["metrics"] = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in table.items()}
    return raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "infoloss" / "__init__.py").is_file():
        print(f"no infoloss source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        raw = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print("env " + json.dumps(raw["env"], sort_keys=True))
    for name, m in raw["metrics"].items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':<36} {raw['failed'] / raw['attempted']:.6g} "
          f"({raw['failed']} of {raw['attempted']} operations)")
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": raw["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
