"""Deterministic sampling, MC aggregation, quadrature."""

import math
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoloss.errors import BoundViolationError, DimensionTooHighError
from infoloss.exprlang import parse
from infoloss.geometry import Box, Region
from infoloss.model import InputDensity
from infoloss.numerics import (
    MCResult,
    chunk_moments,
    chunk_plan,
    derived_seed,
    exponential_sample,
    gaussian_iid_sample,
    make_generator,
    merge_moments,
    rejection_sample,
    run_chunks,
    tensor_quadrature,
    uniform_box_sample,
)


def unit_source(seed, m):
    rng = make_generator(seed)
    return rng.random((m, 1))


def mc_expectation(integrand, n, seed, workers=1):
    """Chunked Monte-Carlo mean of ``integrand`` over uniform points on
    [0, 1), merged the way the estimators merge their chunks."""
    def one(c, m):
        return chunk_moments(integrand(unit_source(derived_seed(seed, c), m)))

    return merge_moments(run_chunks(one, chunk_plan(n), workers))


def test_constant_integrand():
    res = mc_expectation(lambda p: np.full(p.shape[0], 2.5), n=10_000, seed=4)
    assert res.mean == 2.5
    assert res.stderr == 0.0
    assert res.n == 10_000


def test_uniform_mean():
    res = mc_expectation(lambda p: p[:, 0], n=200_000, seed=9)
    assert abs(res.mean - 0.5) < 3 * res.stderr


def test_worker_counts_give_identical_results():
    kw = dict(n=200_000, seed=13)
    a = mc_expectation(lambda p: np.sin(7 * p[:, 0]), **kw, workers=1)
    b = mc_expectation(lambda p: np.sin(7 * p[:, 0]), **kw, workers=8)
    assert a == b


def test_chunk_decomposition_is_seeded_per_chunk():
    # chunk c of a long run equals a fresh run with the derived seed
    base = 77
    long = unit_source(derived_seed(base, 3), 1000)
    again = unit_source(derived_seed(base, 3), 1000)
    assert np.array_equal(long, again)
    assert chunk_plan(200_000)[:2] == [(0, 1 << 16), (1, 1 << 16)]


def test_running_stat_merge_order_independent():
    rng = np.random.default_rng(0)
    moments = [chunk_moments(rng.normal(size=100)) for _ in range(5)]
    assert merge_moments(moments) == merge_moments(reversed(moments))


def test_merge_moments_of_no_chunks_is_empty():
    got = merge_moments([])
    assert math.isnan(got.mean) and math.isnan(got.stderr) and got.n == 0


def test_merge_moments_of_one_value_has_infinite_stderr():
    got = merge_moments([chunk_moments(np.array([])),
                         chunk_moments(np.array([2.5]))])
    assert got == MCResult(2.5, math.inf, 1)


def test_gaussian_sampler_moments():
    rng = make_generator(1)
    x = gaussian_iid_sample(0.0, 1.0, 1, 1_000_000, rng)
    assert abs(x.var() - 1.0) < 3 * math.sqrt(2 / 1_000_000)
    assert np.all(np.abs(x) < 8.5)


def test_exponential_sampler_mean():
    rng = make_generator(2)
    lam = 1.5
    x = exponential_sample(lam, 1, 1_000_000, rng)
    assert abs(x.mean() - 1 / lam) < 3 * (1 / lam) / 1000
    assert x.min() >= 0.0


def test_rejection_acceptance_rate_unit_disc():
    rng = make_generator(3)
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])

    def pdf(p):
        return (p[:, 0] ** 2 + p[:, 1] ** 2 <= 1.0) / math.pi

    def accept(p, rng):
        return rng.random(p.shape[0]) / math.pi < pdf(p)

    pts, rate = rejection_sample(accept, lo, hi, 50_000, rng)
    assert abs(rate - math.pi / 4) < 0.02
    assert np.all(pdf(pts) > 0)


def test_rejection_bound_violation():
    # the pdf 2 x1 exceeds the declared bound 1 on (1/2, 1]
    d = InputDensity(1, "expression",
                     Region(parse("x1 >= 0 and x1 <= 1"), Box((0.0,), (1.0,))),
                     pdf_expr=parse("2*x1"), pdf_bound=1.0)
    with pytest.raises(BoundViolationError) as err:
        d.sample(100, 4)
    assert err.value.x[0] > 0.5


def test_quadrature_linear_exact():
    val = tensor_quadrature(Box((0.0,), (1.0,)), lambda p: p[:, 0], 512)
    assert abs(val - 0.5) < 1e-12  # midpoint is exact on linear integrands


def test_quadrature_2d_normalization():
    box = Box((-2.0, -2.0), (2.0, 2.0))
    val = tensor_quadrature(box, lambda p: np.full(p.shape[0], 1 / 16.0), 128)
    assert abs(val - 1.0) < 1e-12


def test_quadrature_dimension_guard():
    with pytest.raises(DimensionTooHighError):
        tensor_quadrature(Box((0.0,) * 3, (1.0,) * 3),
                          lambda p: p[:, 0], 8)


def test_quadrature_integrable_singularity():
    # chi-square(1) output density: midpoint stays finite at the y=0 edge
    # and converges O(sqrt(h)); node counts chosen to show the trend
    def chi2_pdf(p):
        y = p[:, 0]
        return np.exp(-y / 2) / np.sqrt(2 * math.pi * y)

    box = Box((0.0,), (40.0,))
    coarse = tensor_quadrature(box, chi2_pdf, 4096)
    fine = tensor_quadrature(box, chi2_pdf, 4_000_000)
    assert abs(fine - 1.0) < 1e-3
    assert abs(coarse - 1.0) < 0.03
    assert abs(fine - 1.0) < abs(coarse - 1.0)


def test_running_stat_merges_chunk_moments_exactly():
    # multiples of 1/8 below 2**10 sum exactly in any order, so merging
    # the chunks' moments must equal the moments of their concatenation
    rng = np.random.default_rng(1)
    chunks = [rng.integers(-8192, 8192, size=n) / 8.0 for n in (100, 37, 1)]
    a = _merged(chunks)
    assert a == _merged([np.concatenate(chunks)])
    assert a.n == 138


def _merged(chunks) -> MCResult:
    return merge_moments(chunk_moments(c) for c in chunks)


@st.composite
def offset_chunks(draw):
    """Values offset + sd * z split at random points into chunks: offsets
    0 to 1e12, sd from 1e-9 to 1 of the offset (or of 1 at offset 0), so
    the values sit up to 1e9 of their spread away from zero."""
    offset = draw(st.sampled_from([0.0, 1.0, 1e6, 1e8, 1e12])
                  | st.floats(0.0, 1e12))
    ratio = 10.0 ** draw(st.floats(0.0, 9.0))  # max(offset, 1) / sd
    n = draw(st.integers(2, 300))
    z = np.random.default_rng(draw(st.integers(0, 2 ** 32))).normal(size=n)
    values = offset + max(offset, 1.0) / ratio * z
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    return offset, ratio, np.split(values, cuts)


@settings(max_examples=300, deadline=None)
@given(offset_chunks())
def test_running_stat_variance_far_from_zero(case):
    offset, ratio, chunks = case
    values = np.concatenate(chunks)
    got = _merged(chunks)
    assert got.n == values.size
    assert got.mean == math.fsum(float(np.sum(c)) for c in chunks) / values.size
    # x - offset is exact here, and the variance is shift invariant
    truth = np.var(values - offset, ddof=1)
    # the chunk means carry a few ulps of the offset, which moves the
    # merged variance by a few hundred eps * offset / sd at most; the sum
    # of squares minus n mean**2 loses eps * (offset / sd)**2
    rel = 1e-12 + 256 * np.finfo(float).eps * ratio
    assert got.stderr ** 2 * got.n == pytest.approx(truth, rel=rel, abs=0.0)
    assert _merged(chunks[::-1]) == got


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_running_stat_stderr_of_offset_report_sized_chunks(offset):
    # 16 chunks of 65,536 values with sd 1e-3: the sum of squares minus
    # n mean**2 gave 1.1e-5 at 1e6 and 0.0 at 1e8 for a true 9.76e-7
    rng = np.random.default_rng(6)
    chunks = [offset + 1e-3 * rng.normal(size=1 << 16) for _ in range(16)]
    values = np.concatenate(chunks)
    truth = math.sqrt(np.var(values - offset, ddof=1) / values.size)
    assert _merged(chunks).stderr == pytest.approx(truth, rel=1e-6)


_SCIPY_PROBE = """
import sys
import infoloss
from infoloss import cli
setup = infoloss.load_config_file(infoloss.preset_path({preset!r}))
cli.build_report(setup, 2000, 1, 16, (0, 1), 1)
print("scipy.special" in sys.modules)
"""


@pytest.mark.parametrize("preset, loaded", [("ex6_m1", False),
                                            ("ex2_square_gaussian", True)])
def test_scipy_special_is_imported_only_to_sample_a_gaussian(preset, loaded):
    res = subprocess.run([sys.executable, "-c", _SCIPY_PROBE.format(preset=preset)],
                         capture_output=True, text=True, check=True)
    assert res.stdout.split()[-1] == str(loaded)


@pytest.mark.parametrize("workers", [2, 3])
def test_run_chunks_order_errors_and_the_calling_thread(workers):
    plan = chunk_plan(10 * 1000, 1000)
    ran, threads = [], set()

    def fn(c, m):
        time.sleep(0.01)
        ran.append(c)
        threads.add(threading.get_ident())
        if c in (7, 3):
            raise RuntimeError(f"chunk {c}")
        return c * m

    with pytest.raises(RuntimeError, match="chunk 3"):
        run_chunks(fn, plan, workers)
    assert sorted(ran) == list(range(10))  # every chunk runs
    assert threading.get_ident() in threads and len(threads) <= workers
    assert run_chunks(lambda c, m: (c, m), plan, workers) == plan


def test_run_chunks_stress_hands_out_each_chunk_once():
    plan = chunk_plan(3000, 1)
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = time.monotonic()
        out = run_chunks(lambda c, m: calls.append(c) or c, plan, 8)
        assert time.monotonic() - t0 < 60
    finally:
        sys.setswitchinterval(interval)
    assert out == list(range(3000))
    assert sorted(calls) == list(range(3000))
