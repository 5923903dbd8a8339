"""Regions, boxes, uniform box sampling."""

import numpy as np
import pytest

from infoloss.exprlang import Num, parse, substitute
from infoloss.geometry import Box, Region, box_volume
from infoloss.model import Branch
from infoloss.numerics import make_generator, uniform_box_sample


def sample_uniform(b: Box, n: int, seed: int) -> np.ndarray:
    lo, hi = b.arrays()
    return uniform_box_sample(lo, hi, n, make_generator(seed))


def square(pred="x1 > x2"):
    return Region(parse(pred), Box((-2.0, -2.0), (2.0, 2.0)))


def test_contains_half_square():
    r = square()
    assert r.contains((1.0, -1.0)) is True
    assert r.contains((-1.0, 1.0)) is False


def test_contains_unit_disc_boundary_point():
    r = Region(parse("x1^2 + x2^2 <= 1"), Box((-1.0, -1.0), (1.0, 1.0)))
    assert r.contains((0.6, 0.8)) is True  # 0.36 + 0.64 = 1 exactly
    assert r.contains((0.8, 0.8)) is False


def test_box_volume():
    assert box_volume(Box((0.0,), (1.0,))) == 1.0
    assert box_volume(Box((-2.0, -2.0), (2.0, 2.0))) == 16.0


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (1.0, 0.0))


def test_sample_uniform_reproducible():
    b = Box((0.0,), (1.0,))
    a = sample_uniform(b, 3, seed=7)
    c = sample_uniform(b, 3, seed=7)
    assert np.array_equal(a, c)
    assert np.all((a >= 0) & (a < 1))


def test_sample_uniform_mean():
    b = Box((-2.0, -2.0), (2.0, 2.0))
    pts = sample_uniform(b, 100_000, seed=3)
    sigma = 4 / np.sqrt(12) / np.sqrt(100_000)  # per-coordinate std of the mean
    assert np.all(np.abs(pts.mean(axis=0)) < 3 * sigma)


def test_half_square_acceptance_fraction():
    b = Box((-2.0, -2.0), (2.0, 2.0))
    pts = sample_uniform(b, 100_000, seed=11)
    frac = square().contains_batch(pts).mean()
    assert abs(frac - 0.5) < 0.01


def test_strict_and_complement_fractions_sum_to_one():
    b = Box((-2.0, -2.0), (2.0, 2.0))
    pts = sample_uniform(b, 50_000, seed=5)
    strict = square("x1 > x2").contains_batch(pts)
    complement = square("x1 <= x2").contains_batch(pts)
    assert np.all(strict ^ complement)  # exactly one of the two, per point


def test_bbox_soundness_sampled(setups):
    # membership implies membership of the bounding box, for every preset part
    for name, setup in setups.items():
        lo, hi = setup.density.support.bbox.arrays()
        pts = sample_uniform(setup.density.support.bbox, 10_000, seed=23)
        for part in setup.pmap.parts:
            if not hasattr(part, "region"):
                continue
            inside = part.region.contains_batch(pts)
            assert np.all(part.region.bbox.contains_points(pts[inside])), name


def member_region(family, k: int) -> Region:
    """The region of member ``k`` of a branch family."""
    return Region(substitute(family.region_of_k, {"k": Num(float(k))}),
                  family.bbox)


def preset_regions(setup):
    yield "support", setup.density.support
    for part in setup.pmap.parts:
        if isinstance(part, Branch):
            yield part.name, part.region
        else:
            for k in range(part.k_lo, part.k_lo + 4):
                yield f"{part.name}[k={k}]", member_region(part, k)


def test_contains_matches_contains_batch_on_every_preset_region(setups):
    seen = set()
    for name, setup in setups.items():
        pts = sample_uniform(setup.density.support.bbox, 200, seed=31)
        for where, region in preset_regions(setup):
            batch = region.contains_batch(pts)
            seen.update(batch.tolist())
            for x, want in zip(pts, batch):
                assert region.contains(x) is bool(want), (name, where, x)
    assert seen == {True, False}
