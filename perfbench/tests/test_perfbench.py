"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

The smoke runs use a small sample budget, so they check what the
benchmark emits, not how fast the program is.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import spec
import workloads
from tracer import REPEATABLE, Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SMOKE_N = 20_000


def _fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_nested_fake_span_self_time():
    tr = Tracer(clock=_fake_clock(0, 10, 12, 20, 25, 40, 70, 100))
    leaf = tr.wrap("leaf", lambda: None)     # 12 .. 20
    a = tr.wrap("a", lambda: leaf())         # 10 .. 25
    b = tr.wrap("b", lambda: None)           # 40 .. 70
    tr.wrap("outer", lambda: (a(), b()))()   # 0 .. 100
    incl, own, calls = tr.totals()
    assert incl == {"outer": 100, "a": 15, "leaf": 8, "b": 30}
    assert own["outer"] == incl["outer"] - incl["a"] - incl["b"] == 55
    assert own["a"] == incl["a"] - incl["leaf"] == 7
    assert own["leaf"] == 8 and own["b"] == 30
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 0]


def test_reentrant_call_records_one_span():
    tr = Tracer(clock=_fake_clock(0, 5))

    def fact(k):
        return 1 if k <= 1 else k * wrapped(k - 1)

    wrapped = tr.wrap("fact", fact)
    assert wrapped(5) == 120
    assert [s[:3] for s in tr.spans] == [["fact", 0, 5]]


def _infoloss_bindings():
    """Every attribute of every loaded infoloss module and patched class."""
    model = importlib.import_module("infoloss.model")
    geometry = importlib.import_module("infoloss.geometry")
    owners = [m for k, m in sys.modules.items()
              if k == "infoloss" or k.startswith("infoloss.")]
    owners += [model.PiecewiseMap, model.InputDensity, geometry.Region]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_run_patches_importers_and_restores_everything(tmp_path):
    prog = workloads.Program()
    before = _infoloss_bindings()
    originals = {
        "eval_array": ("exprlang", ("model", "transform")),
        "build_candidates": ("transform", ("loss", "bounds")),
        "run_chunks": ("numerics", ("loss", "bounds")),
        "tensor_quadrature": ("numerics", ("loss", "model")),
        "classify": ("classify", ("loss", "bounds", "cli")),
        "atom_scan": ("classify", ("cli",)),
        "validate": ("model", ("cli",)),
    }
    mods = {name: sys.modules[f"infoloss.{name}"] for name in (
        "exprlang", "model", "transform", "loss", "bounds", "numerics",
        "classify", "cli")}
    with Tracer():
        for attr, (home, importers) in originals.items():
            orig = before[(id(mods[home]), attr)]
            for imp in (home, *importers):
                assert getattr(mods[imp], attr) is not orig, (imp, attr)
                assert getattr(mods[imp], attr).__wrapped__ is orig, (imp, attr)
        assert hasattr(prog.model.PiecewiseMap.dispatch_batch, "__wrapped__")
    out = workloads.run_workload("report_fold3", 5, 1, True, n=SMOKE_N,
                                 trace_path=tmp_path / "trace.json")
    assert out["failed"] == 0, out["reasons"]
    after = _infoloss_bindings()
    assert after.keys() == before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert not changed
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert {"cli.build_report", "transform.build_candidates"} <= {s[0] for s in spans}


def test_tracer_restores_attributes_when_the_block_raises():
    before = _infoloss_bindings()
    with pytest.raises(RuntimeError), Tracer():
        raise RuntimeError("boom")
    after = _infoloss_bindings()
    assert all(after[k] is v for k, v in before.items())


def test_query_p50_averages_window_medians_per_operation():
    q = workloads.Queries(None, workloads.Tally(), SimpleNamespace(name="ex6_m1"), 1)
    w = workloads.P50_WINDOW
    # each operation: one window at k us and one at 3k us, k = 1..5
    q.latencies_ns = {op: [1000 * k] * w + [3000 * k] * w
                      for k, op in enumerate(workloads.QUERY_OPS, start=1)}
    q.busy_s = 0.5
    m = q.metrics()
    assert m["query_p50_us"] == pytest.approx(6.0)   # mean of 2k over k = 1..5
    assert m["queries_per_s"] == pytest.approx(5 * 2 * w / 0.5)


def test_failed_check_counts_and_the_run_goes_on(monkeypatch):
    prog = workloads.Program()
    setup = prog.load("ex6_m1")
    monkeypatch.setitem(workloads.EXPECTED_LOSS, "ex6_m1",
                        (0.5, ("eq5_mc",)))
    tally = workloads.Tally()
    reports = workloads.Reports(prog, tally, setup, SMOKE_N, 1)
    for op in reports.OPS:
        reports.run(op)
    assert tally.attempted == 3 and tally.failed == 1
    assert "eq5_mc" in tally.reasons[0]
    assert all(len(t) == 1 for t in reports.times.values())


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_smoke_run_emits_every_metric(workload):
    for trace, table in ((False, spec.END_TO_END), (True, spec.PER_LAYER)):
        res = run.measure(workload, 7, 1, trace, n=SMOKE_N)
        assert res["failed"] == 0, res["reasons"]
        assert res["attempted"] >= 1
        assert list(res["metrics"]) == list(table)
        for name, m in res["metrics"].items():
            assert m["unit"] == table[name]
            assert math.isfinite(m["value"]), name
        if not trace:
            assert res["failed"] / res["attempted"] == 0.0
            assert all(m["value"] > 0 for m in res["metrics"].values())
        assert res["env"]["seed"] == 7 and res["env"]["nproc"] >= 1


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = (run.measure(workload, 11, 1, True, n=SMOKE_N)["metrics"]
                     for _ in range(2))
    for name in REPEATABLE:
        assert first[name]["value"] == second[name]["value"], name
    assert first["numerics.chunk_passes"]["value"] == 5


def test_every_workload_has_a_preset():
    assert set(spec.PRESETS) == set(spec.WORKLOADS)


def test_run_without_source_tree_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_fold3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert "{" not in res.stdout


def test_query_points_repeat_for_a_seed():
    for preset in workloads.POINTS:
        def draw(seed):
            stream = workloads._point_stream(preset, seed)
            return [next(stream) for _ in range(5)]
        assert all((x == x2).all() and (y == y2).all()
                   for (x, y), (x2, y2) in zip(draw(3), draw(3)))
        assert not all((x == x2).all() for (x, _), (x2, _) in zip(draw(3), draw(4)))
