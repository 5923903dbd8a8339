"""Pass-scoped chunk buffers (``numerics.PassBuffers``).

Inside a chunk pass each worker thread lends its candidate table and
sampler arrays to every chunk it runs, as views of one buffer per name;
outside a pass every table and sample is a new array.  These tests pin
that the buffers are reused inside a pass and only there, that a second
request within a chunk is not aliased, that a pass which raises leaves
nothing behind, and that reuse changes no report byte.
"""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import infoloss
from infoloss import loss, numerics, report, transform
from infoloss.config import load_config
from infoloss.errors import ZeroDensityError
from infoloss.numerics import CHUNK_SIZE, PassBuffers, chunk_buffer, run_chunks
from infoloss.transform import build_candidates

TABLE = ("x", "valid", "weight")


def _outputs(setup, rows, seed=3):
    """g(x) at ``rows`` sample points: query points in the image."""
    m, x = setup.pmap, setup.density.sample(rows, seed)
    return m.forward_batch(x, *m.dispatch_batch(x))


def _shares(a, b) -> bool:
    return any(np.shares_memory(getattr(a, f), getattr(b, f)) for f in TABLE)


def _same_bytes(a, b) -> bool:
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in (*TABLE, "f_y", "truncated"))


@pytest.mark.parametrize("name", ["ex6_m1", "ex3_exp_sawtooth"])
def test_consecutive_chunks_of_a_pass_share_the_table(setups, name):
    s = setups[name]
    m, d = s.pmap, s.density
    y = _outputs(s, 300)
    plan = [(0, 300), (1, 300), (2, 120)]  # the last chunk is short

    def chunk(c, rows):
        # returns its table on purpose, to look at the memory it uses
        return build_candidates(m, d, y[:rows]), d.sample(rows, c)

    got = run_chunks(chunk, plan, 1)
    tables = [t for t, _ in got]
    for a, b in zip(tables, tables[1:]):
        assert all(np.shares_memory(getattr(a, f), getattr(b, f))
                   for f in TABLE)
    if name == "ex6_m1":  # rejection-sampled: the sample is a pass buffer
        assert np.shares_memory(got[0][1], got[1][1])
    # the last chunk's table is a view of the larger buffer, and its bytes
    # are those of a table built outside any pass
    assert _same_bytes(got[-1][0], build_candidates(m, d, y[:120]))


def test_a_second_table_in_one_chunk_is_its_own(setups):
    s = setups["ex6_m1"]
    m, d = s.pmap, s.density
    y = _outputs(s, 200)

    def chunk(c, rows):
        return build_candidates(m, d, y[:rows]), build_candidates(m, d, y[100:])

    (first, second), = run_chunks(chunk, [(0, 200)], 1)
    assert not _shares(first, second)
    assert _same_bytes(first, build_candidates(m, d, y))
    assert _same_bytes(second, build_candidates(m, d, y[100:]))


def test_tables_outside_a_pass_never_alias_pass_buffers(setups, monkeypatch):
    s = setups["ex3_exp_sawtooth"]
    m, d = s.pmap, s.density
    y = _outputs(s, 64)
    pass_tables = run_chunks(lambda c, rows: build_candidates(m, d, y[:rows]),
                             [(0, 64), (1, 64)], 1)
    built = []

    def recording(*args, **kwargs):
        built.append(build_candidates(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(transform, "build_candidates", recording)
    for point in ([0.3], [0.01]):
        transform.output_density(m, d, point)
        transform.branch_posterior(m, d, point)
        transform.preimage(m, d, point)
    built += [build_candidates(m, d, y), build_candidates(m, d, y)]
    assert len(built) == 8
    for i, t in enumerate(built):
        assert not any(_shares(t, p) for p in pass_tables)
        assert not any(_shares(t, u) for u in built[i + 1:])
    assert chunk_buffer("table_x", (3,)).base is None  # a new array


def _wrong_inverse():
    """The identity on [0, 1] with an inverse that misses x above 1/2:
    f_Y is zero at every point there, so each pass over it raises."""
    box = [[0.0, 1.0]]
    return load_config({
        "dim": 1,
        "density": {"form": "uniform_box",
                    "support": {"predicate": "x1 >= 0 and x1 <= 1",
                                "bbox": box}},
        "parts": [{"type": "branch", "name": "all", "kind": "bijective",
                   "region": {"predicate": "x1 >= 0 and x1 <= 1",
                              "bbox": box},
                   "forward": ["x1"], "inverse": ["y1 + 0.25*(y1 > 0.5)"],
                   "jac_abs_det": "1"}],
    })


_FRESH = """
import sys
sys.path.insert(0, sys.argv[1])
from infoloss import config, loss
s = config.load_config_file(config.preset_path("ex6_m1"))
m, d, a = s.pmap, s.density, s.analysis
print(repr(loss.loss_eq5_mc(m, d, 2 * 65536 + 17, 5, tol=a.tol,
                            k_max=a.k_max).to_dict()))
print(repr(loss.loss_eq5_quadrature(m, d, 128, tol=a.tol,
                                    k_max=a.k_max).to_dict()))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_a_pass_that_raises_leaves_the_next_as_a_fresh_process(setups,
                                                               workers):
    bad = _wrong_inverse()
    with pytest.raises(ZeroDensityError):
        loss.loss_eq5_mc(bad.pmap, bad.density, 2 * CHUNK_SIZE, 1,
                         workers=workers)
    with pytest.raises(ZeroDensityError):
        loss.loss_eq5_quadrature(bad.pmap, bad.density, 512)
    assert getattr(numerics._local, "buffers", None) is None
    s = setups["ex6_m1"]
    m, d, a = s.pmap, s.density, s.analysis
    here = [repr(loss.loss_eq5_mc(m, d, 2 * CHUNK_SIZE + 17, 5, tol=a.tol,
                                  k_max=a.k_max, workers=workers).to_dict()),
            repr(loss.loss_eq5_quadrature(m, d, 128, tol=a.tol,
                                          k_max=a.k_max).to_dict())]
    src = os.path.dirname(os.path.dirname(infoloss.__file__))
    fresh = subprocess.run([sys.executable, "-c", _FRESH, src], check=True,
                           capture_output=True, text=True, timeout=300)
    assert fresh.stdout.splitlines() == here


def test_a_chunk_that_raises_gives_its_buffers_up():
    # a worker runs on after a chunk fails; the error keeps its chunk's
    # buffer, which the worker's later chunks must not overwrite
    ran: dict[int, int] = {}

    class Failed(Exception):
        def __init__(self, view):
            super().__init__("chunk 0")
            self.view = view

    def chunk(c, rows):
        ran[c] = threading.get_ident()
        buf = chunk_buffer("b", (rows,))
        buf[:] = c
        if c == 0:
            raise Failed(buf)
        time.sleep(0.02)
        return float(buf.sum())

    with pytest.raises(Failed) as err:
        run_chunks(chunk, [(c, 4) for c in range(8)], 2)
    assert sorted(ran) == list(range(8))
    assert list(ran.values()).count(ran[0]) > 1  # its worker went on
    assert err.value.view.tolist() == [0.0] * 4


def test_pass_buffers_close_and_nest():
    with PassBuffers() as outer:
        a = outer.run(chunk_buffer, "b", (8,))
        with PassBuffers() as inner:
            b = inner.run(chunk_buffer, "b", (8,))
            assert not np.shares_memory(a, b)
        assert np.shares_memory(outer.run(chunk_buffer, "b", (4,)), a)
        with pytest.raises(ValueError):
            outer.run(lambda: chunk_buffer("b", (8,)) + np.ones(2))
        # the failed chunk gave the buffer up: the next one gets a new one
        assert not np.shares_memory(outer.run(chunk_buffer, "b", (8,)), a)
    assert getattr(numerics._local, "buffers", None) is None
    assert chunk_buffer("b", (8,)).base is None


N_REPORT = 3 * CHUNK_SIZE + 17  # every worker reuses; the last chunk is short


@pytest.mark.parametrize("name", ["ex3_exp_sawtooth", "ex6_m1"])
def test_report_bytes_with_reused_buffers(setups, monkeypatch, name):
    s = setups[name]
    a = s.analysis

    def report_bytes(workers):
        return json.dumps(report.build_report(
            s, N_REPORT, 11, a.nodes_per_dim, a.depths, workers),
            sort_keys=True)

    got = {w: report_bytes(w) for w in (1, 2, 3)}
    # the reference takes a new array for every request, as a build
    # outside any pass does
    monkeypatch.setattr(PassBuffers, "take",
                        lambda self, name, shape, dtype, order:
                        np.empty(shape, dtype, order=order))
    expected = report_bytes(1)
    assert got == {w: expected for w in (1, 2, 3)}


# the arrays every chunk of a pass takes: the samplers' and the table's
PASS_NAMES = {"proposal", "proposal_f", "sample",
              "table_x", "table_valid", "table_weight"}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["ex3_exp_sawtooth", "ex6_m1"])
def test_a_reports_pass_lends_no_sweep_array(setups, monkeypatch, name,
                                             workers):
    # the sweep runs on only the first chunks of a report's pass, so a
    # buffer it took would outlive it for the rest of the pass
    s = setups[name]
    take, asked = PassBuffers.take, []

    def recording(self, buf, *args):
        asked.append(buf)
        return take(self, buf, *args)

    monkeypatch.setattr(PassBuffers, "take", recording)
    rep = report.build_report(s, CHUNK_SIZE + 1000, 11, 16, s.analysis.depths,
                              workers)
    assert rep["sweep"]["n_samples"] == CHUNK_SIZE + 1000
    table = {"table_x", "table_valid", "table_weight"}
    assert table <= set(asked) <= PASS_NAMES
