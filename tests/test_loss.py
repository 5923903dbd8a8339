"""Loss estimators and the partition sweep (module-level checks;
full-tolerance runs live in the acceptance suite)."""

import json
import math

import numpy as np
import pytest

from infoloss.classify import classify
from infoloss.config import load_config
from infoloss.errors import DimensionTooHighError, InfiniteLossError
from infoloss.loss import (
    LossReport,
    differential_entropy_mc,
    estimate,
    expected_log_jacdet,
    loss_branch_posterior,
    loss_corollary1,
    loss_eq5_mc,
    loss_eq5_quadrature,
    partition_sweep,
)
from infoloss.numerics import tensor_quadrature
from infoloss.transform import build_candidates

GAUSSIAN_DIFFENT_BITS = 2.047095585180641   # 0.5*log2(2*pi*e)
EX2_E_LOGJAC_BITS = 0.08362691136156641     # (ln2/2 - gamma/2)*log2(e)


def scaling_map():
    cfg = {
        "dim": 1,
        "density": {
            "form": "uniform_box",
            "support": {"predicate": "x1 >= 0 and x1 <= 1", "bbox": [[0.0, 1.0]]},
            "exact_diffent_bits": 0.0,
        },
        "parts": [
            {"type": "branch", "name": "all", "kind": "bijective",
             "region": {"predicate": "x1 >= 0 and x1 <= 1", "bbox": [[0.0, 1.0]]},
             "forward": ["2*x1"], "inverse": ["y1/2"], "jac_abs_det": "2"},
        ],
    }
    return load_config(cfg)


def cube_identity():
    pred = " and ".join(f"x{i} >= 0 and x{i} <= 1" for i in (1, 2, 3))
    cfg = {
        "dim": 3,
        "density": {"form": "uniform_box",
                    "support": {"predicate": pred, "bbox": [[0.0, 1.0]] * 3}},
        "parts": [
            {"type": "branch", "name": "all", "kind": "bijective",
             "region": {"predicate": pred, "bbox": [[0.0, 1.0]] * 3},
             "forward": ["x1", "x2", "x3"], "inverse": ["y1", "y2", "y3"],
             "jac_abs_det": "1"},
        ],
    }
    return load_config(cfg)


# --- identity: exact zeros --------------------------------------------------------

def test_identity_routes_exact_zero(setups):
    setup = setups["identity"]
    m, d = setup.pmap, setup.density
    assert loss_eq5_mc(m, d, 20_000, 1).loss_bits == 0.0
    assert loss_eq5_mc(m, d, 20_000, 1).stderr_bits == 0.0
    assert loss_branch_posterior(m, d, 20_000, 1).loss_bits == 0.0
    r = loss_corollary1(m, d, 20_000, 1)
    assert r.loss_bits == 0.0
    q = loss_eq5_quadrature(m, d, 256)
    assert abs(q.loss_bits) < 1e-12
    sw = partition_sweep(m, d, [0, 3, 6], 20_000, 1)
    assert all(abs(v) < 1e-12 for v in sw.losses_bits)


# --- building blocks ---------------------------------------------------------------

def test_diffent_uniform_unit_box(setups):
    res = differential_entropy_mc(setups["identity"].density, 50_000, 2)
    assert abs(res.mean) < 1e-3
    assert res.stderr == 0.0


def test_diffent_uniform_square(setups):
    res = differential_entropy_mc(setups["ex1_fold_square"].density, 50_000, 2)
    assert res.mean == pytest.approx(4.0, abs=0.01)


def test_diffent_gaussian(setups):
    res = differential_entropy_mc(setups["ex2_square_gaussian"].density,
                                  1_000_000, 2)
    assert res.mean == pytest.approx(GAUSSIAN_DIFFENT_BITS, abs=0.01)


def test_expected_log_jacdet_scaling_map():
    setup = scaling_map()
    res = expected_log_jacdet(setup.pmap, setup.density, 10_000, 1)
    assert res.mean == 1.0
    assert res.stderr == 0.0


def test_expected_log_jacdet_fold_square(setups):
    setup = setups["ex1_fold_square"]
    res = expected_log_jacdet(setup.pmap, setup.density, 10_000, 1)
    assert res.mean == 0.0


def test_expected_log_jacdet_square_gaussian(setups):
    setup = setups["ex2_square_gaussian"]
    res = expected_log_jacdet(setup.pmap, setup.density, 1_000_000, 1)
    assert res.mean == pytest.approx(EX2_E_LOGJAC_BITS, abs=3 * res.stderr)


def test_scaling_map_loss_zero():
    setup = scaling_map()
    assert loss_eq5_mc(setup.pmap, setup.density, 10_000, 1).loss_bits == 0.0


# --- route sanity at moderate n -----------------------------------------------------

def test_fold_square_all_routes(setups):
    setup = setups["ex1_fold_square"]
    m, d = setup.pmap, setup.density
    eq5 = loss_eq5_mc(m, d, 200_000, 1)
    post = loss_branch_posterior(m, d, 200_000, 1)
    cor = loss_corollary1(m, d, 200_000, 1)
    for r in (eq5, post, cor):
        assert r.loss_bits == pytest.approx(0.5, abs=0.01)
    # stored corollary identity: loss = h_X - h_Y + E[log jac], exactly
    c = cor.components
    assert cor.loss_bits == c["h_X_bits"] - c["h_Y_bits"] + c["e_logjac_bits"]


def test_even_symmetry_square_law_uniform():
    cfg = {
        "dim": 1,
        "density": {
            "form": "uniform_box",
            "support": {"predicate": "x1 >= -1 and x1 <= 1", "bbox": [[-1.0, 1.0]]},
            "exact_diffent_bits": 1.0,
        },
        "parts": [
            {"type": "branch", "name": "neg", "kind": "bijective",
             "region": {"predicate": "x1 <= 0 and x1 >= -1", "bbox": [[-1.0, 0.0]]},
             "forward": ["x1^2"], "inverse": ["-sqrt(y1)"], "jac_abs_det": "2*abs(x1)"},
            {"type": "branch", "name": "pos", "kind": "bijective",
             "region": {"predicate": "x1 > 0 and x1 <= 1", "bbox": [[0.0, 1.0]]},
             "forward": ["x1^2"], "inverse": ["sqrt(y1)"], "jac_abs_det": "2*abs(x1)"},
        ],
    }
    setup = load_config(cfg)
    r = loss_eq5_mc(setup.pmap, setup.density, 50_000, 3)
    assert r.loss_bits == pytest.approx(1.0, abs=1e-12)


# --- partition sweep ------------------------------------------------------------------

def test_sweep_depth_zero_is_zero(setups):
    setup = setups["ex1_fold_square"]
    sw = partition_sweep(setup.pmap, setup.density, [0], 20_000, 1)
    assert abs(sw.losses_bits[0]) < 1e-12


def test_sweep_monotone_and_below_loss(setups):
    setup = setups["ex1_fold_square"]
    sw = partition_sweep(setup.pmap, setup.density, range(9), 100_000, 1)
    eq5 = loss_eq5_mc(setup.pmap, setup.density, 100_000, 1)
    for a, b, sa, sb in zip(sw.losses_bits, sw.losses_bits[1:],
                            sw.stderrs_bits, sw.stderrs_bits[1:]):
        assert b >= a - 3 * (sa + sb)
    assert max(sw.losses_bits) <= eq5.loss_bits + 3 * (
        max(sw.stderrs_bits) + eq5.stderr_bits)
    assert sw.losses_bits[-1] == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("name, deepest", [("ex3_exp_sawtooth", 62),
                                           ("ex1_fold_square", 31)])
def test_sweep_refuses_cell_indices_beyond_int64(setups, name, deepest):
    # a cell index has depth * dim bits; past 62 it used to wrap around
    # and merge cells into a silently wrong loss
    setup = setups[name]
    m, d = setup.pmap, setup.density
    sw = partition_sweep(m, d, [deepest], 2_000, 1)
    assert sw.depths == (deepest,) and math.isfinite(sw.losses_bits[0])
    with pytest.raises(ValueError, match="depth \\* dim"):
        partition_sweep(m, d, [0, deepest + 1], 2_000, 1)


@pytest.mark.parametrize("depths", [[1.5, 2.9], [True, 2], [2.0], ["2"]],
                         ids=["fractions", "bool", "integral_float", "string"])
@pytest.mark.parametrize("route", ["partition_sweep", "estimate"])
def test_sweep_refuses_depths_that_are_not_integers(setups, route, depths):
    # int() used to truncate these: [1.5, 2.9] ran depths (1, 2)
    s = setups["ex6_m1"]
    with pytest.raises(ValueError, match="depths must be integers"):
        if route == "partition_sweep":
            partition_sweep(s.pmap, s.density, depths, 2_000, 1)
        else:
            estimate(s.pmap, s.density, 2_000, 1, ("sweep",), depths=depths)


def test_sweep_takes_numpy_integer_depths(setups):
    s = setups["ex6_m1"]
    plain = partition_sweep(s.pmap, s.density, [1, 2], 2_000, 1)
    for depths in (np.array([1, 2]), [np.int32(1), np.uint8(2)]):
        sw = partition_sweep(s.pmap, s.density, depths, 2_000, 1)
        assert sw == plain and all(type(v) is int for v in sw.depths)


# --- quadrature --------------------------------------------------------------------

def test_quadrature_dimension_guard():
    setup = cube_identity()
    with pytest.raises(DimensionTooHighError):
        loss_eq5_quadrature(setup.pmap, setup.density, 8)


def test_quadrature_square_gaussian_exact_one(setups):
    setup = setups["ex2_square_gaussian"]
    q = loss_eq5_quadrature(setup.pmap, setup.density, 512)
    assert q.loss_bits == pytest.approx(1.0, abs=1e-6)


def test_quadrature_triangle_fold(setups):
    # boundary cells sit exactly on the grid's anti-diagonal, so the
    # O(1/nodes) cut-cell error needs 1024 nodes to drop below 0.005
    setup = setups["ex6_m0"]
    q = loss_eq5_quadrature(setup.pmap, setup.density, 1024)
    assert q.loss_bits == pytest.approx(1.0, abs=0.005)


QUADRATURE_GRID = {
    # preset -> (nodes, tolerance for the deterministic quadrature error)
    "identity": (256, 1e-12),
    "ex1_fold_square": (512, 0.003),
    "ex2_square_gaussian": (512, 1e-6),
    "ex3_exp_sawtooth": (8192, 0.002),
    "ex4_polar_unitdisc": (512, 1e-9),
    "ex6_m0": (1024, 0.005),
    "ex6_m1": (1024, 0.005),
    "ex6_m2": (1024, 0.005),
}


def test_quadrature_agrees_with_mc(setups):
    for name, (nodes, qtol) in QUADRATURE_GRID.items():
        setup = setups[name]
        mc = loss_eq5_mc(setup.pmap, setup.density, 200_000, 1)
        quad = loss_eq5_quadrature(setup.pmap, setup.density, nodes)
        assert abs(quad.loss_bits - mc.loss_bits) <= \
            3 * mc.stderr_bits + qtol, name


def reference_quadrature(m, d, nodes_per_dim, tol, k_max, seed=0):
    """``loss_eq5_quadrature`` as it was written before it read the chunk
    pipeline: its own bijective mask and direct stage calls, with the
    table built on the bijective rows only (no Infinite gate)."""
    bij = np.array([p.kind == "bijective" for p in m.parts], dtype=bool)
    truncated = False

    def integrand(pts):
        nonlocal truncated
        out = np.zeros(pts.shape[0])
        fx = d.pdf_batch(pts)
        live = fx > 0.0
        if not np.any(live):
            return out
        xs = pts[live]
        part_idx, k = m.dispatch_batch(xs)
        ok = bij[part_idx]
        if not np.any(ok):
            return out
        y = m.forward_batch(xs[ok], part_idx[ok], k[ok])
        jac = m.jac_batch(xs[ok], part_idx[ok], k[ok])
        table = build_candidates(m, d, y, tol, k_max)
        truncated |= bool(table.truncated.any())
        fxl = fx[live][ok]
        v = np.zeros(xs.shape[0])
        v[ok] = fxl * np.log2(np.maximum(table.f_y, 1e-300) * jac / fxl)
        out[live] = v
        return out

    total = tensor_quadrature(d.support.bbox, integrand, nodes_per_dim)
    return LossReport(total, 0.0, "eq5_quadrature", nodes_per_dim ** m.dim,
                      seed, truncated=truncated)


@pytest.mark.parametrize("nodes", [64, 512])
@pytest.mark.parametrize("name", ["ex1_fold_square", "ex2_square_gaussian",
                                  "ex3_exp_sawtooth", "ex4_polar_unitdisc",
                                  "ex6_m1"])
def test_quadrature_equals_its_former_integrand(setups, name, nodes):
    setup = setups[name]
    m, d, a = setup.pmap, setup.density, setup.analysis
    got = loss_eq5_quadrature(m, d, nodes, tol=a.tol, k_max=a.k_max,
                              classification=classify(m, d, 10_000, 1))
    want = reference_quadrature(m, d, nodes, a.tol, a.k_max)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_posterior_route_sawtooth_series(setups):
    # the subdomain posterior of the sawtooth is the same geometric law at
    # every output, so the estimate is exact up to family truncation
    k = np.arange(1, 400)
    p = (1 - math.exp(-1.0)) * np.exp(-(k - 1.0))
    oracle = float(-(p * np.log2(p)).sum())
    setup = setups["ex3_exp_sawtooth"]
    r = loss_branch_posterior(setup.pmap, setup.density, 200_000, 1)
    assert abs(r.loss_bits - oracle) <= 3 * r.stderr_bits + 1e-9
    assert r.truncated


# --- infinite gate -----------------------------------------------------------------

def test_routes_refuse_infinite_maps(setups):
    for name in ("quantizer_uniform", "ex5_radius_only", "limiter_gaussian"):
        setup = setups[name]
        m, d = setup.pmap, setup.density
        with pytest.raises(InfiniteLossError):
            loss_eq5_mc(m, d, 1_000, 1)
        with pytest.raises(InfiniteLossError):
            loss_branch_posterior(m, d, 1_000, 1)
        with pytest.raises(InfiniteLossError):
            loss_corollary1(m, d, 1_000, 1)
        with pytest.raises(InfiniteLossError):
            loss_eq5_quadrature(m, d, 64)
        with pytest.raises(InfiniteLossError):
            partition_sweep(m, d, [0, 2], 1_000, 1)


def test_truncation_flag_reported(setups):
    setup = setups["ex3_exp_sawtooth"]
    r = loss_eq5_mc(setup.pmap, setup.density, 20_000, 1)
    assert r.truncated
