"""Preimage sets, output density, branch posterior."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from infoloss.config import load_config
from infoloss.errors import ZeroDensityError
from infoloss.model import forward_eval
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
