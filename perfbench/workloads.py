"""Run one benchmark workload in this process and print its raw result.

    python3 perfbench/workloads.py WORKLOAD SEED SECONDS TRACE [N]

``run.py`` starts this script with the BLAS and OpenMP thread counts
pinned to 1, so ``workers=2`` is the only parallelism.  The last line of
standard output is one JSON object: operations attempted and failed, the
raw metrics and the environment.  Every operation is timed from outside
the program and its output checked; a failed check counts the operation
as failed and the run goes on.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spec import PRESETS
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
TRACE_DIR = Path(__file__).resolve().parent / "out"

# Closed-form loss in bits, and the report routes checked against it.
EXPECTED_LOSS = {
    "ex6_m1": (0.75, ("eq5_mc", "corollary1", "branch_posterior")),  # 1 - m^2/a^2
    "ex3_exp_sawtooth": (1.5013432665422346, ("eq5_mc",)),           # H(W)
}
# At n = 1e6 every checked route has a standard error of at most 1.4e-3
# bits, so 0.01 bits is about 7 standard errors; a smaller n widens the
# tolerance by sqrt(1e6 / n) to keep that margin.
LOSS_TOL_BITS = 0.01
LOSS_TOL_N = 1_000_000

MIN_QUERY_POINTS = 200   # 1000 queries: ten beyond the 99th percentile
QUERY_SHARE = 0.35       # share of a run's time given to the queries
P50_WINDOW = 20          # calls of one operation per query_p50_us window
TRACE_POINTS = 100       # query points of a traced run (a fixed count)
QUERY_OPS = ("forward_eval", "jac_abs_det_at", "output_density",
             "branch_posterior", "preimage")


# --- query points -------------------------------------------------------------
#
# Points come from the benchmark's own generators, together with the
# output each preset's map gives them.  Both maps are piecewise
# isometries, so |det J| = 1 at every point.

def _fold3(rng, count):
    x1 = rng.uniform(-1.0, 3.0, count)
    x = np.column_stack([x1, rng.uniform(-3.0, -x1)])
    return x, np.abs(x)


def _sawtooth(rng, count):
    # Exp(1.5) truncated to the support [0, 25], by inverse CDF
    u = rng.random(count)
    x = -np.log1p(u * np.expm1(-1.5 * 25.0)) / 1.5
    k = np.floor(1.5 * x) + 1
    return x[:, None], (x - (k - 1) / 1.5)[:, None]


POINTS = {"ex6_m1": _fold3, "ex3_exp_sawtooth": _sawtooth}


def _point_stream(preset: str, seed: int, block: int = 1024):
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        xs, ys = POINTS[preset](rng, block)
        yield from zip(xs, ys)


# --- the program --------------------------------------------------------------

class Program:
    """The infoloss modules, looked up at call time so that a tracer's
    patches take effect."""

    def __init__(self):
        src = str(ROOT / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        mod = importlib.import_module
        self.cli = mod("infoloss.cli")
        self.config = mod("infoloss.config")
        self.loss = mod("infoloss.loss")
        self.model = mod("infoloss.model")
        self.transform = mod("infoloss.transform")

    def load(self, preset: str):
        return self.config.load_config_file(self.config.preset_path(preset))


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def _timed(tally: Tally, what: str, fn):
    """(seconds, result or None); an exception counts as a failure."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception:  # noqa: BLE001 - a failed operation must not end the run
        dt = time.perf_counter() - t0
        tally.fail(f"{what} raised:\n{traceback.format_exc(limit=3)}")
        return dt, None
    return time.perf_counter() - t0, result


def payload_bytes(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, indent=2).encode()


# --- reports --------------------------------------------------------------------

def check_report(preset: str, payload, n: int) -> list[str]:
    """Closed-form checks of one report payload."""
    expected, routes = EXPECTED_LOSS[preset]
    tol = LOSS_TOL_BITS * math.sqrt(max(1.0, LOSS_TOL_N / n))
    problems = []
    for route in routes:
        got = payload["loss"][route]["loss_bits"]
        if not abs(got - expected) <= tol:
            problems.append(f"{preset} {route}: {got!r} bits, expected "
                            f"{expected!r} within {tol:g}")
    return problems


class Reports:
    """``build_report`` and ``loss_eq5_mc`` on one preset, each call timed
    and checked.  Every payload must match the first one byte for byte,
    and the first one must pass the closed-form checks."""

    OPS = {"report_s": 1, "report_workers2_s": 2, "loss_eq5_mc_s": None}

    def __init__(self, prog, tally: Tally, setup, n: int, seed: int):
        self.prog, self.tally, self.setup = prog, tally, setup
        self.n, self.seed = n, seed
        self.times: dict[str, list[float]] = {op: [] for op in self.OPS}
        self.reference = None

    def report(self, workers: int) -> float:
        a = self.setup.analysis
        dt, payload = _timed(self.tally, f"build_report workers={workers}",
                             lambda: self.prog.cli.build_report(
                                 self.setup, self.n, self.seed,
                                 a.nodes_per_dim, a.depths, workers))
        if payload is not None:
            if self.reference is None:
                self.reference = payload
                problems = check_report(self.setup.name, payload, self.n)
            elif payload_bytes(payload) != payload_bytes(self.reference):
                problems = [f"{self.setup.name} report bytes differ "
                            f"(workers={workers})"]
            else:
                problems = []
            if problems:
                self.tally.fail("; ".join(problems))
        return dt

    def eq5(self) -> float:
        s, a = self.setup, self.setup.analysis
        dt, rep = _timed(self.tally, "loss_eq5_mc",
                         lambda: self.prog.loss.loss_eq5_mc(
                             s.pmap, s.density, self.n, self.seed,
                             tol=a.tol, k_max=a.k_max))
        if rep is not None and self.reference is not None:
            want = self.reference["loss"]["eq5_mc"]
            if (rep.loss_bits, rep.stderr_bits) != (want["loss_bits"],
                                                   want["stderr_bits"]):
                self.tally.fail(f"{s.name} loss_eq5_mc {rep.loss_bits!r} "
                                f"differs from the report's {want['loss_bits']!r}")
        return dt

    def run(self, op: str) -> float:
        workers = self.OPS[op]
        dt = self.eq5() if workers is None else self.report(workers)
        self.times[op].append(dt)
        return dt


# --- single-point queries -------------------------------------------------------

class Queries:
    """Closed-loop stream of single-point calls on one preset, one caller;
    each point gets every call of QUERY_OPS in turn."""

    def __init__(self, prog, tally: Tally, setup, seed: int):
        self.prog, self.tally, self.setup = prog, tally, setup
        self.stream = _point_stream(setup.name, seed)
        self.points = 0
        self.busy_s = 0.0     # wall time of the stream, checks included
        self.latencies_ns: dict[str, list[int]] = {op: [] for op in QUERY_OPS}
        self.densities: tuple[list, list] = ([], [])   # y, scalar f_Y

    def run(self, points: int = 0, until: float = 0.0) -> None:
        """At least ``points`` more points, and on until ``until``."""
        stop = self.points + points
        t0 = time.perf_counter()
        while self.points < stop or time.perf_counter() < until:
            self._point(*next(self.stream))
            self.points += 1
        self.busy_s += time.perf_counter() - t0

    def metrics(self) -> dict[str, float]:
        """Throughput and per-call latency of the stream.

        ``queries_per_s`` is calls completed per second of the stream's
        wall time.  ``query_p50_us`` is a windowed median: each
        operation's calls are cut into windows of P50_WINDOW consecutive
        calls, the window medians are averaged, and the five operations'
        averages are averaged.  The median of all calls pooled would fall
        in the gap between the cheap scalar calls and the costly
        candidate-table calls; and the machine's speed drifts between
        states that last seconds, so a median over the whole run is a
        majority vote between them, while the mean of short windows'
        medians moves in proportion to the time spent in each.
        ``query_p99_us`` is the 99th percentile of all calls pooled.
        """
        lat = {op: np.asarray(v, dtype=float) / 1e3
               for op, v in self.latencies_ns.items()}
        calls = sum(v.size for v in lat.values())
        return {
            "queries_per_s": calls / self.busy_s,
            "query_p50_us": statistics.fmean(
                statistics.fmean(np.median(w) for w in np.array_split(
                    v, max(1, v.size // P50_WINDOW))) for v in lat.values()),
            "query_p99_us": float(np.percentile(np.concatenate(list(lat.values())), 99)),
        }

    def _point(self, x, y) -> None:
        model, transform, tally = self.prog.model, self.prog.transform, self.tally
        s = self.setup
        preset = s.name
        m, d, tol, k_max = s.pmap, s.density, s.analysis.tol, s.analysis.k_max
        calls = (lambda: model.forward_eval(m, x),
                 lambda: model.jac_abs_det_at(m, x),
                 lambda: transform.output_density(m, d, y, tol, k_max),
                 lambda: transform.branch_posterior(m, d, y, tol, k_max),
                 lambda: transform.preimage(m, d, y, tol, k_max))
        clock = time.perf_counter_ns
        results = []
        for op, call in zip(QUERY_OPS, calls):
            tally.attempted += 1
            t0 = clock()
            try:
                r = call()
            except Exception:  # noqa: BLE001 - counted, the stream goes on
                self.latencies_ns[op].append(clock() - t0)
                tally.fail(f"{preset} {op} at x={x.tolist()} raised:\n"
                           f"{traceback.format_exc(limit=3)}")
                r = None
            else:
                self.latencies_ns[op].append(clock() - t0)
            results.append(r)
        fwd, jac, fy, post, pre = results
        where = f"{preset} at x={x.tolist()}"
        if fwd is not None and not np.allclose(fwd, y, rtol=1e-12, atol=1e-12):
            tally.fail(f"forward_eval {where}: {fwd.tolist()} != {y.tolist()}")
        if jac is not None and not math.isclose(jac, 1.0, rel_tol=1e-12):
            tally.fail(f"jac_abs_det_at {where}: {jac!r} != 1")
        if fy is not None:
            self.densities[0].append(y)
            self.densities[1].append(fy)
        if post is not None and not math.isclose(
                math.fsum(p for _, p in post.probs), 1.0, abs_tol=1e-12):
            tally.fail(f"branch_posterior {where} does not sum to 1")
        if pre is not None and fy is not None and not math.isclose(
                math.fsum(e.weight for e in pre.elements), fy, rel_tol=1e-12):
            tally.fail(f"preimage weights {where} do not sum to f_Y = {fy!r}")

    def check_densities(self) -> None:
        """Each scalar f_Y must match the batch candidate table at its point."""
        ys, fys = self.densities
        if not ys:
            return
        s = self.setup
        batch = self.prog.transform.build_candidates(
            s.pmap, s.density, np.array(ys), s.analysis.tol, s.analysis.k_max).f_y
        for y, fy, fb in zip(ys, fys, batch):
            if not math.isclose(fy, float(fb), rel_tol=1e-9, abs_tol=1e-300):
                self.tally.fail(f"output_density {s.name} at y={y.tolist()}: "
                                f"scalar {fy!r} != batch {float(fb)!r}")


# --- the run loop ------------------------------------------------------------------

# The report calls and query bursts interleave, so every metric samples
# the whole run rather than one stretch of it.  The machine's speed
# drifts between a fast and a slow state that last seconds; a metric taken
# from one stretch, or as a majority vote over few samples, would jump
# with it.  loss_eq5_mc is cheap, so it gets several samples per cycle.
SCHEDULE = ("report_s", "loss_eq5_mc_s", None, "loss_eq5_mc_s",
            "report_workers2_s", "loss_eq5_mc_s", None, "loss_eq5_mc_s")


def run_interleaved(reports: Reports, queries: Queries, seconds: float) -> None:
    """Cycle through SCHEDULE until ``seconds`` are spent.

    A report call starts only while its slowest call so far would end in
    time (each runs at least once).  A query burst (None) runs long
    enough to give the queries QUERY_SHARE of the time since the
    previous burst.  Whatever time is left at the end goes to queries.
    """
    deadline = time.perf_counter() + seconds
    times = reports.times
    since_burst = 0.0
    for step in itertools.cycle(SCHEDULE):
        now = time.perf_counter()
        if step is None:
            queries.run(until=min(deadline, now + since_burst * QUERY_SHARE
                                  / (1 - QUERY_SHARE)))
            since_burst = 0.0
        elif not times[step] or now + max(times[step]) <= deadline:
            since_burst += reports.run(step)
        elif all(t and now + max(t) > deadline for t in times.values()):
            break
    queries.run(points=max(0, MIN_QUERY_POINTS - queries.points), until=deadline)


# --- the workload ------------------------------------------------------------

def environment(workload: str, seed: int) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n: int | None = None, trace_path: Path | None = None) -> dict:
    """Run one workload; ``n`` overrides the preset's sample budget (for
    quick checks only: such figures are not comparable)."""
    preset = PRESETS[name]
    prog = Program()
    tally = Tally()
    out = {"env": environment(name, seed)}
    if trace:
        out["metrics"], tracer = _traced(prog, tally, preset, seed, n)
        path = trace_path or TRACE_DIR / f"trace_{name}_seed{seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**out, "counters": tracer.counters,
                                    "spans": tracer.spans}))
    else:
        setup = prog.load(preset)
        reports = Reports(prog, tally, setup, n or setup.analysis.n, seed)
        queries = Queries(prog, tally, setup, seed)
        run_interleaved(reports, queries, seconds)
        queries.check_densities()
        out["metrics"] = {
            **{op: statistics.fmean(t) for op, t in reports.times.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **queries.metrics(),
        }
    out.update(attempted=tally.attempted, failed=tally.failed,
               reasons=tally.reasons)
    return out


def _traced(prog, tally, preset, seed, n):
    """Per-layer metrics from one traced pass at workers 1, and the tracer.

    An untraced warm-up report comes first, then a traced and an
    untraced report, then an untraced and a traced one, so neither side
    always runs first.  Every payload must match the warm-up's
    bytes.  The tracer's overhead is the median over the pairs of the
    traced minus the untraced time, over the untraced time.  Spans and
    counters come from the first traced report and the query stream."""
    tracer = Tracer()
    with tracer:
        setup = prog.load(preset)
    reports = Reports(prog, tally, setup, n or setup.analysis.n, seed)
    queries = Queries(prog, tally, setup, seed)
    reports.report(1)
    with tracer:
        traced_s = [reports.report(1)]
        queries.run(points=TRACE_POINTS)
    plain_s = [reports.report(1), reports.report(1)]
    with Tracer():
        traced_s.append(reports.report(1))
    queries.check_densities()
    overhead = statistics.median((t - p) / p for t, p in zip(traced_s, plain_s))
    return tracer.layer_metrics(overhead), tracer


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, *n = argv
    out = run_workload(name, int(seed), float(seconds), trace == "1",
                       int(n[0]) if n else None)
    for reason in out["reasons"]:
        print(reason, file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
