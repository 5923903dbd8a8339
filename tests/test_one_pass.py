"""The report's one pass over the sample stream.

``build_report`` runs every Monte-Carlo estimator on one walk of the
chunk plan, while each public selector runs its estimator on its own.
These tests pin that both give the same bytes, that the report builds
each chunk once, and that a selector builds only the pipeline stages
its estimator reads.  The quadrature builds its chunks from grid blocks;
the quadrature's own tests compare it with its former private integrand.
"""

import json
from functools import cached_property

import pytest

from infoloss import cli, loss, report, transform
from infoloss.bounds import bounds_report
from infoloss.classify import classify
from infoloss.model import InputDensity
from infoloss.numerics import CHUNK_SIZE, chunk_plan

N = CHUNK_SIZE + 464          # one full chunk and a partial one
SWEEP_CAP = CHUNK_SIZE + 64   # the sweep reads chunk 0, then its own partial
SEED = 7
NODES = 8                     # quadrature is not compared; keep it cheap
STAGES = {"dispatch", "ok", "y", "jac", "fx", "table"}


def _bytes(obj) -> str:
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["ex1_fold_square", "ex6_m1",
                                  "ex3_exp_sawtooth"])
def test_report_equals_standalone_selectors(setups, monkeypatch, name, workers):
    monkeypatch.setattr(report, "_REPORT_SWEEP_CAP", SWEEP_CAP)
    setup = setups[name]
    m, d, a = setup.pmap, setup.density, setup.analysis
    rep = cli.build_report(setup, N, SEED, NODES, a.depths, workers)
    kw = dict(tol=a.tol, k_max=a.k_max, workers=workers,
              classification=classify(m, d, min(N, 200_000), SEED))
    alone = {
        "eq5_mc": loss.loss_eq5_mc(m, d, N, SEED, **kw),
        "corollary1": loss.loss_corollary1(m, d, N, SEED, **kw),
        "branch_posterior": loss.loss_branch_posterior(m, d, N, SEED, **kw),
    }
    for route, lr in alone.items():
        assert _bytes(rep["loss"][route]) == _bytes(lr.to_dict()), route
    assert _bytes(rep["bounds"]) == _bytes(
        bounds_report(m, d, N, SEED, **kw).to_dict())
    assert _bytes(rep["sweep"]) == _bytes(loss.partition_sweep(
        m, d, a.depths, SWEEP_CAP, SEED, **kw).to_dict())


def _record_chunks(monkeypatch) -> tuple[list, list]:
    """Every chunk built, and every sample drawn (``InputDensity.sample``).
    A chunk that evaluates its own fx stage is marked ``fx_evaluated``."""
    chunks, samples = [], []
    chunk = loss._Chunk

    class Recording(chunk):
        fx_evaluated = False

        def __init__(self, *args):
            super().__init__(*args)
            chunks.append(self)

        @cached_property
        def fx(self):
            self.fx_evaluated = True
            return chunk.fx.func(self)

    sample = InputDensity.sample

    def recording_sample(self, n, seed):
        x = sample(self, n, seed)
        samples.append(x)
        return x

    monkeypatch.setattr(loss, "_Chunk", Recording)
    monkeypatch.setattr(InputDensity, "sample", recording_sample)
    return chunks, samples


def _sampled(chunks: list, samples: list) -> list:
    """The chunks whose points are a sample drawn (not a grid block)."""
    return [ch for ch in chunks if any(ch.x is x for x in samples)]


def test_report_builds_each_chunk_once(setups, monkeypatch):
    monkeypatch.setattr(report, "_REPORT_SWEEP_CAP", SWEEP_CAP)
    chunks, samples = _record_chunks(monkeypatch)
    setup = setups["ex1_fold_square"]
    cli.build_report(setup, N, SEED, NODES, setup.analysis.depths, 1)
    main, sweep = chunk_plan(N), chunk_plan(SWEEP_CAP)
    unmatched = [cm for cm in sweep if cm not in main]
    assert len(unmatched) == 1
    walked = _sampled(chunks, samples)
    assert len(walked) == len(main) + len(unmatched)
    assert sorted(ch.x.shape[0] for ch in walked) == sorted(
        [mlen for _, mlen in main] + [mlen for _, mlen in unmatched])
    # the other chunks are the quadrature's grid blocks (NODES**2 points)
    assert [ch.x.shape[0] for ch in chunks if ch not in walked] == [NODES ** 2]


@pytest.mark.parametrize("run, built", [
    (lambda m, d, cls: bounds_report(m, d, 5000, SEED, classification=cls),
     {"dispatch", "ok", "y", "table"}),
    (lambda m, d, cls: loss.differential_entropy_mc(d, 5000, SEED), {"fx"}),
    (lambda m, d, cls: loss.expected_log_jacdet(m, d, 5000, SEED),
     {"dispatch", "ok", "jac"}),
    (lambda m, d, cls: loss.loss_eq5_mc(m, d, 5000, SEED, classification=cls),
     STAGES),
    # the grid chunks' fx stage is the pdf the integrand already computed
    (lambda m, d, cls: loss.loss_eq5_quadrature(m, d, 300, classification=cls),
     STAGES),
], ids=["bounds_report", "differential_entropy_mc", "expected_log_jacdet",
        "loss_eq5_mc", "loss_eq5_quadrature"])
def test_selectors_build_only_the_stages_they_read(setups, monkeypatch, run,
                                                   built):
    setup = setups["ex6_m1"]
    m, d = setup.pmap, setup.density
    cls = classify(m, d, 10_000, SEED)
    chunks, samples = _record_chunks(monkeypatch)
    run(m, d, cls)
    assert chunks
    for ch in chunks:
        assert STAGES & set(vars(ch)) == built
    grid = [ch for ch in chunks if ch not in _sampled(chunks, samples)]
    if grid:  # the quadrature: grid chunks only, seeded fx, no sample drawn
        assert grid == chunks and not samples
        assert not any(ch.fx_evaluated for ch in chunks)
    else:     # a Monte-Carlo selector: one sample drawn per chunk
        assert len(samples) == len(chunks)
        assert all(ch.fx_evaluated for ch in chunks) == ("fx" in built)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["ex3_exp_sawtooth", "ex1_fold_square",
                                  "ex6_m1"])
def test_report_bytes_do_not_depend_on_tile_or_block_sizes(setups, monkeypatch,
                                                          name, workers):
    # sweep tiles of 7 columns and one family member per evaluation give
    # the bytes of the default sizes; at n = 5000 the default sweep walks
    # two tiles, and the quadrature's 8 rows take 64 members per block
    setup = setups[name]
    a = setup.analysis
    n = 5000
    default = _bytes(cli.build_report(setup, n, SEED, NODES, a.depths, workers))
    monkeypatch.setattr(loss, "_SWEEP_TILE", 7)
    monkeypatch.setattr(transform, "_MEMBER_BLOCK", 1)
    assert _bytes(cli.build_report(setup, n, SEED, NODES, a.depths,
                                   workers)) == default
