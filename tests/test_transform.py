"""Preimage sets, output density, branch posterior."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import PRESET_NAMES
from infoloss.config import load_config
from infoloss.errors import ZeroDensityError
from infoloss.loss import loss_eq5_mc
from infoloss.model import forward_eval, jac_abs_det_at
from infoloss.numerics import tensor_quadrature
from infoloss.geometry import Box
from infoloss.transform import (
    branch_posterior,
    build_candidates,
    output_density,
    preimage,
)

# frozen oracle: chi-square(1) density at y=1, from scipy.stats.chi2(1).pdf(1)
CHI2_PDF_AT_1 = 0.24197072451914337


def square_gaussian(setups):
    return setups["ex2_square_gaussian"]


def exp_square():
    """y = x^2 with an exponential input: only the positive root survives."""
    cfg = {
        "dim": 1,
        "density": {"form": "exponential", "params": {"lambda": 1.0}},
        "parts": [
            {"type": "branch", "name": "pos", "kind": "bijective",
             "region": {"predicate": "x1 >= 0 and x1 <= 37", "bbox": [[0.0, 37.0]]},
             "forward": ["x1^2"], "inverse": ["sqrt(y1)"]},
        ],
    }
    return load_config(cfg)


# --- preimage -------------------------------------------------------------------

def test_preimage_two_square_roots(setups):
    setup = square_gaussian(setups)
    ps = preimage(setup.pmap, setup.density, (4.0,))
    roots = sorted(e.x[0] for e in ps.elements)
    assert roots == pytest.approx([-2.0, 2.0])
    assert not ps.truncation_flag


def test_preimage_fold_square_support_exclusion(setups):
    setup = setups["ex1_fold_square"]
    ps = preimage(setup.pmap, setup.density, (1.0, 2.0))
    assert len(ps.elements) == 1  # the mirror point (1, 3) leaves the square
    assert ps.elements[0].x == pytest.approx((1.0, -1.0))


def test_preimage_sawtooth_family(setups):
    setup = setups["ex3_exp_sawtooth"]
    ps = preimage(setup.pmap, setup.density, (0.5,))
    assert ps.truncation_flag
    xs = [e.x[0] for e in ps.elements]
    for i, x in enumerate(xs):
        assert x == pytest.approx(0.5 + i / 1.5, abs=1e-12)
    # the dropped tail is below 1e-12 of the total, by the geometric series
    lam = 1.5
    total = lam * math.exp(-lam * 0.5) / (1 - math.exp(-1.0))
    kept = sum(e.weight for e in ps.elements)
    assert (total - kept) / total < 1e-12


def test_preimage_bounded_family_enumeration(setups):
    # a bounded member range is exhausted without the truncation flag;
    # the k_max cap truncates it and says so
    doc = json.loads(
        (Path(__file__).parents[1] / "src/infoloss/presets/ex3_exp_sawtooth.json")
        .read_text())
    doc["parts"][0]["k_range"] = [1, 5]
    setup = load_config(doc)
    ps = preimage(setup.pmap, setup.density, (0.5,))
    assert len(ps.elements) == 5
    assert not ps.truncation_flag
    ps = preimage(setup.pmap, setup.density, (0.5,), k_max=3)
    assert len(ps.elements) == 3
    assert ps.truncation_flag


def test_preimage_empty_off_image(setups):
    setup = square_gaussian(setups)
    ps = preimage(setup.pmap, setup.density, (-1.0,))
    assert ps.elements == ()


def test_preimage_merges_boundary_duplicates(setups):
    setup = setups["ex1_fold_square"]
    # on the fold line the two branch inverses return the same point
    ps = preimage(setup.pmap, setup.density, (0.75, 0.0))
    assert len(ps.elements) == 1


# --- output_density -------------------------------------------------------------

def test_output_density_chi_square_oracle(setups):
    setup = square_gaussian(setups)
    val = output_density(setup.pmap, setup.density, (1.0,))
    assert val == pytest.approx(CHI2_PDF_AT_1, rel=1e-12)


def test_output_density_identity_is_input_pdf(setups):
    setup = setups["identity"]
    assert output_density(setup.pmap, setup.density, (0.42,)) == pytest.approx(1.0)
    assert output_density(setup.pmap, setup.density, (1.7,)) == 0.0


def test_output_density_fold_square_value_and_histogram(setups):
    setup = setups["ex1_fold_square"]
    assert output_density(setup.pmap, setup.density, (1.0, 2.0)) == \
        pytest.approx(1 / 16, rel=1e-12)
    # cross-check by a 2-D histogram of mapped samples around y = (1, 2)
    n = 1_000_000
    x = setup.density.sample(n, seed=99)
    part_idx, k = setup.pmap.dispatch_batch(x)
    y = setup.pmap.forward_batch(x, part_idx, k)
    box = (np.abs(y[:, 0] - 1.0) <= 0.1) & (np.abs(y[:, 1] - 2.0) <= 0.1)
    density = box.sum() / (n * 0.2 * 0.2)
    assert density == pytest.approx(1 / 16, rel=0.06)


def test_output_density_normalizes_identity_and_disc(setups):
    setup = setups["identity"]
    val = tensor_quadrature(
        Box((0.0,), (1.0,)),
        lambda p: np.array([output_density(setup.pmap, setup.density, row)
                            for row in p]),
        512)
    assert abs(val - 1.0) < 1e-6

    s4 = setups["ex4_polar_unitdisc"]
    table = build_candidates(s4.pmap, s4.density,
                             np.array([[0.5, 1.0], [0.9, -2.0]]))
    assert np.allclose(table.f_y, [0.5 / math.pi, 0.9 / math.pi])


# --- branch_posterior -------------------------------------------------------------

def test_posterior_triangle_equal_split(setups):
    setup = setups["ex6_m1"]
    y = forward_eval(setup.pmap, (-0.5, -1.5))
    post = branch_posterior(setup.pmap, setup.density, y)
    probs = sorted(p for _, p in post.probs)
    assert probs == pytest.approx([0.5, 0.5])


def test_posterior_identity_degenerate(setups):
    setup = setups["identity"]
    post = branch_posterior(setup.pmap, setup.density, (0.3,))
    assert post.probs[0][1] == 1.0


def test_posterior_support_exclusion_single_root():
    setup = exp_square()
    post = branch_posterior(setup.pmap, setup.density, (4.0,))
    assert len(post.probs) == 1
    assert post.probs[0][1] == 1.0


def test_posterior_zero_density_raises(setups):
    setup = square_gaussian(setups)
    with pytest.raises(ZeroDensityError):
        branch_posterior(setup.pmap, setup.density, (-2.0,))


def test_posterior_sums_to_one_everywhere(setups):
    for name in ("ex1_fold_square", "ex3_exp_sawtooth", "ex6_m1"):
        setup = setups[name]
        x = setup.density.sample(512, seed=13)
        part_idx, k = setup.pmap.dispatch_batch(x)
        y = setup.pmap.forward_batch(x, part_idx, k)
        table = build_candidates(setup.pmap, setup.density, y)
        sums = (table.weight / table.f_y).sum(axis=0)
        assert np.all(np.abs(sums - 1.0) <= 1e-12), name
        assert np.all((table.weight >= 0) & (table.weight <= table.f_y * (1 + 1e-12)))


def test_preimage_contains_original_point(setups):
    for name in ("identity", "ex1_fold_square", "ex2_square_gaussian",
                 "ex3_exp_sawtooth", "ex4_polar_unitdisc", "ex6_m1"):
        setup = setups[name]
        x = setup.density.sample(1_000, seed=31)
        part_idx, k = setup.pmap.dispatch_batch(x)
        y = setup.pmap.forward_batch(x, part_idx, k)
        table = build_candidates(setup.pmap, setup.density, y)
        dists = np.where(table.valid,
                         np.max(np.abs(table.x - x[None, :, :]), axis=2),
                         np.inf)
        best = dists.min(axis=0)
        assert np.all(best < 1e-8 * (1 + np.max(np.abs(x), axis=1))), name


# preimage elements and the sha256 (first 16 hex digits) of their |det J|
# bytes followed by their weight bytes, recorded when the candidate table
# still held a |det J| buffer that preimage read
PREIMAGE_DIGESTS = {
    "identity": (32, "e31bedb0d9a84d33"),
    "ex1_fold_square": (48, "1e637b20b9912326"),
    "ex2_square_gaussian": (64, "b5f2f8cccb32995c"),
    "ex3_exp_sawtooth": (960, "6e8414caf2e5af52"),
    "ex4_polar_unitdisc": (31, "6a0a5258fb5f4f4f"),
    "ex5_radius_only": (0, "e3b0c44298fc1c14"),
    "ex6_m0": (63, "62b919727972d058"),
    "ex6_m1": (60, "041634299a3c7e44"),
    "ex6_m2": (32, "53fb698e8e7f8752"),
    "quantizer_uniform": (0, "e3b0c44298fc1c14"),
    "limiter_gaussian": (24, "ce844c4022ed5800"),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preimage_jacobian_and_weight_bytes_are_pinned(setups, name):
    # 24 seeded samples mapped forward, and 8 of them rounded to a
    # quarter grid, which puts some on shared region boundaries
    m, d = setups[name].pmap, setups[name].density
    x = d.sample(24, 7)
    x = np.concatenate([x, np.round(x[:8] * 4.0) / 4.0])
    jac, weight = [], []
    for xi in x:
        for e in preimage(m, d, forward_eval(m, xi)).elements:
            jac.append(e.jac)
            weight.append(e.weight)
    data = np.array(jac).tobytes() + np.array(weight).tobytes()
    assert (len(jac), hashlib.sha256(data).hexdigest()[:16]) == \
        PREIMAGE_DIGESTS[name]


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda m, d, tol: build_candidates(m, d, np.array([[0.5], [2.0]]), tol),
    lambda m, d, tol: preimage(m, d, [0.5], tol),
    lambda m, d, tol: output_density(m, d, [0.5], tol),
    lambda m, d, tol: branch_posterior(m, d, [0.5], tol),
    lambda m, d, tol: loss_eq5_mc(m, d, 2000, 1, tol=tol),
], ids=["build_candidates", "preimage", "output_density", "branch_posterior",
        "loss_eq5_mc"])
def test_map_back_tolerance_must_be_finite_and_positive(setups, entry, tol):
    # at 0 every candidate whose round trip is not bit-exact is dropped;
    # a negative or NaN tolerance drops every candidate
    s = setups["ex3_exp_sawtooth"]
    with pytest.raises(ValueError, match="finite tol > 0"):
        entry(s.pmap, s.density, tol)


SCALAR_QUERIES = {
    "forward_eval": lambda s, p: forward_eval(s.pmap, p),
    "jac_abs_det_at": lambda s, p: jac_abs_det_at(s.pmap, p),
    "preimage": lambda s, p: preimage(s.pmap, s.density, p),
    "output_density": lambda s, p: output_density(s.pmap, s.density, p),
    "branch_posterior": lambda s, p: branch_posterior(s.pmap, s.density, p),
    "density_pdf": lambda s, p: s.density.pdf(p),
    "region_contains": lambda s, p: s.density.support.contains(p),
}


@pytest.mark.parametrize("name, point", [
    ("ex3_exp_sawtooth", [0.1, 0.2]),
    ("ex3_exp_sawtooth", [[0.1], [0.2]]),
    ("ex3_exp_sawtooth", []),
    ("ex6_m1", [0.5, 0.25, 0.125]),
    ("ex6_m1", [0.5]),
    ("ex6_m1", []),
], ids=["1d_two_coordinates", "1d_column_of_two", "1d_empty",
        "2d_three_coordinates", "2d_one_coordinate", "2d_empty"])
@pytest.mark.parametrize("op", list(SCALAR_QUERIES))
def test_scalar_queries_need_a_point_of_dim_coordinates(setups, op, name, point):
    # a point of another length used to be cut, padded into an unbound
    # variable or an IndexError; every scalar query refuses it alike
    s = setups[name]
    with pytest.raises(ValueError, match=f"dim = {s.pmap.dim} coordinates"):
        SCALAR_QUERIES[op](s, point)


@pytest.mark.parametrize("op", list(SCALAR_QUERIES))
def test_scalar_queries_take_dim_coordinates_in_any_shape(setups, op):
    s = setups["ex3_exp_sawtooth"]
    results = [repr(SCALAR_QUERIES[op](s, p))
               for p in (0.3, [0.3], [[0.3]], np.array([0.3]))]
    assert len(set(results)) == 1
