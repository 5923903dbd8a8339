"""Piecewise map model: dispatch, forward, Jacobians, validation, densities."""

import math

import numpy as np
import pytest

from infoloss.config import load_config
from infoloss.errors import (
    AmbiguousBranchError,
    BoundViolationError,
    NoBranchError,
    SingularJacobianError,
)
from infoloss.loss import expected_log_jacdet, loss_eq5_mc, loss_eq5_quadrature
from infoloss.model import (
    JAC_SINGULAR_TOL,
    Branch,
    InputDensity,
    PiecewiseMap,
    forward_eval,
    jac_abs_det_at,
    postcompose_affine,
    validate,
)
from infoloss.numerics import make_generator, uniform_box_sample
from infoloss.transform import build_candidates


def square_map():
    """y = x^2 on a standard Gaussian, split at the origin."""
    cfg = {
        "dim": 1,
        "density": {"form": "gaussian_iid", "params": {"mu": 0.0, "sigma": 1.0}},
        "parts": [
            {"type": "branch", "name": "neg", "kind": "bijective",
             "region": {"predicate": "x1 <= 0 and x1 >= -8.5", "bbox": [[-8.5, 0.0]]},
             "forward": ["x1^2"], "inverse": ["-sqrt(y1)"]},
            {"type": "branch", "name": "pos", "kind": "bijective",
             "region": {"predicate": "x1 > 0 and x1 <= 8.5", "bbox": [[0.0, 8.5]]},
             "forward": ["x1^2"], "inverse": ["sqrt(y1)"]},
        ],
    }
    return load_config(cfg)


def overlap_model():
    cfg = {
        "dim": 1,
        "density": {
            "form": "uniform_box",
            "support": {"predicate": "x1 >= -2 and x1 <= 2", "bbox": [[-2.0, 2.0]]},
        },
        "parts": [
            {"type": "branch", "name": "a", "kind": "bijective",
             "region": {"predicate": "x1 > 0", "bbox": [[-2.0, 2.0]]},
             "forward": ["x1"], "inverse": ["y1"]},
            {"type": "branch", "name": "b", "kind": "bijective",
             "region": {"predicate": "x1 > -1", "bbox": [[-2.0, 2.0]]},
             "forward": ["x1"], "inverse": ["y1"]},
        ],
    }
    return load_config(cfg)


# --- dispatch_batch on one row ---------------------------------------------

def dispatch_one(m, x):
    part_idx, k = m.dispatch_batch(np.asarray(x, dtype=float).reshape(1, -1))
    return int(part_idx[0]), int(k[0])


def test_dispatch_one_row_fold_square(setups):
    m = setups["ex1_fold_square"].pmap
    i, k = dispatch_one(m, (1.0, -1.0))
    assert m.parts[i].name == "below_diagonal"
    assert k == 0


def test_dispatch_one_row_sawtooth_member(setups):
    _, k = dispatch_one(setups["ex3_exp_sawtooth"].pmap, (1.2,))
    assert k == 2  # 1.2 lies in [2/3, 4/3)


def test_dispatch_one_row_identity(setups):
    assert dispatch_one(setups["identity"].pmap, (0.37,)) == (0, 0)


def test_dispatch_one_row_errors():
    setup = overlap_model()
    with pytest.raises(AmbiguousBranchError):
        dispatch_one(setup.pmap, (0.5,))
    with pytest.raises(NoBranchError):
        dispatch_one(setup.pmap, (-1.5,))


# --- forward_eval -------------------------------------------------------------

def test_forward_fold_square(setups):
    y = forward_eval(setups["ex1_fold_square"].pmap, (1.0, -1.0))
    assert np.allclose(y, (1.0, 2.0))


def test_forward_square():
    y = forward_eval(square_map().pmap, (-2.0,))
    assert y[0] == 4.0


def test_forward_sawtooth(setups):
    y = forward_eval(setups["ex3_exp_sawtooth"].pmap, (1.2,))
    assert y[0] == pytest.approx(1.2 - math.floor(1.8) / 1.5, abs=1e-15)


# --- jac_abs_det_at -------------------------------------------------------------

def test_jac_fold_square_is_unity(setups):
    m = setups["ex1_fold_square"].pmap
    for x in ((1.3, -0.7), (-1.0, 0.5), (0.2, 1.9)):
        assert jac_abs_det_at(m, x) == 1.0


def test_jac_square_finite_difference():
    # no jac expression declared: central differences take over
    assert jac_abs_det_at(square_map().pmap, (3.0,)) == pytest.approx(6.0, rel=1e-9)


def test_jac_triangle_fold_unity(setups):
    m = setups["ex6_m1"].pmap
    assert jac_abs_det_at(m, (0.5, -1.0)) == 1.0
    assert jac_abs_det_at(m, (-0.5, 0.2)) == 1.0


def test_jac_nan_expression_is_singular():
    # sqrt of a negative is NaN in the batch evaluator; a NaN |det J| is
    # a typed singular-Jacobian failure, never a silent NaN
    cfg = {
        "dim": 1,
        "density": {
            "form": "uniform_box",
            "support": {"predicate": "x1 >= -1 and x1 <= 1", "bbox": [[-1.0, 1.0]]},
        },
        "parts": [
            {"type": "branch", "name": "only", "kind": "bijective",
             "region": {"predicate": "x1 >= -1 and x1 <= 1", "bbox": [[-1.0, 1.0]]},
             "forward": ["x1"], "inverse": ["y1"], "jac_abs_det": "sqrt(x1)"},
        ],
    }
    m = load_config(cfg).pmap
    assert jac_abs_det_at(m, (0.25,)) == 0.5
    with pytest.raises(SingularJacobianError):
        jac_abs_det_at(m, (-0.5,))


# --- one singularity rule on every route -------------------------------------------

def scaled_identity(jac: float):
    """y = jac * x on the unit interval, declaring the constant |det J|."""
    cfg = {
        "dim": 1,
        "density": {
            "form": "uniform_box",
            "support": {"predicate": "x1 >= 0 and x1 <= 1", "bbox": [[0.0, 1.0]]},
        },
        "parts": [
            {"type": "branch", "name": "only", "kind": "bijective",
             "region": {"predicate": "x1 >= 0 and x1 <= 1", "bbox": [[0.0, 1.0]]},
             "forward": [f"{jac!r} * x1"], "inverse": [f"y1 / {jac!r}"],
             "jac_abs_det": repr(jac)},
        ],
    }
    return load_config(cfg)


_SINGULAR_ROUTES = {
    "jac_abs_det_at": lambda m, d: jac_abs_det_at(m, (0.5,)),
    "expected_log_jacdet": lambda m, d: expected_log_jacdet(m, d, 1000, 0),
    "loss_eq5_mc": lambda m, d: loss_eq5_mc(m, d, 1000, 0),
    "loss_eq5_quadrature": lambda m, d: loss_eq5_quadrature(m, d, 16),
    "build_candidates": lambda m, d: build_candidates(
        m, d, np.array([[0.5 * JAC_SINGULAR_TOL]])),
}


@pytest.mark.parametrize("route", list(_SINGULAR_ROUTES))
def test_jacobian_at_the_tolerance_is_singular_on_every_route(route):
    setup = scaled_identity(JAC_SINGULAR_TOL)
    assert setup.pmap.parts[0].code.jac_const == JAC_SINGULAR_TOL
    with pytest.raises(SingularJacobianError) as err:
        _SINGULAR_ROUTES[route](setup.pmap, setup.density)
    assert err.value.value == JAC_SINGULAR_TOL


def test_validate_counts_a_jacobian_at_the_tolerance_as_singular():
    setup = scaled_identity(JAC_SINGULAR_TOL)
    rep = validate(setup.pmap, setup.density, n_probe=500)
    assert rep.part_reports[0]["jac_nonpositive"] == 500
    assert any("not positive" in f for f in rep.failures)


def test_jacobian_just_above_the_tolerance_is_regular():
    above = float(np.nextafter(JAC_SINGULAR_TOL, 1.0))
    setup = scaled_identity(above)
    m, d = setup.pmap, setup.density
    assert jac_abs_det_at(m, (0.5,)) == above
    assert build_candidates(m, d, np.array([[0.5 * above]])).valid.all()
    assert validate(m, d, n_probe=500).part_reports[0]["jac_nonpositive"] == 0


# --- validate -------------------------------------------------------------------

def test_validate_fold_square(setups):
    setup = setups["ex1_fold_square"]
    rep = validate(setup.pmap, setup.density, 10_000, seed=0)
    assert rep.ok
    masses = {r["name"]: r["mass"] for r in rep.part_reports}
    assert abs(masses["below_diagonal"] - 0.5) < 0.02
    assert abs(masses["above_diagonal"] - 0.5) < 0.02
    assert abs(sum(masses.values()) - 1.0) < 1e-12


def test_validate_identity(setups):
    setup = setups["identity"]
    rep = validate(setup.pmap, setup.density, 5_000, seed=0)
    assert rep.ok
    assert rep.part_reports[0]["mass"] == 1.0


def test_validate_reports_overlap():
    setup = overlap_model()
    rep = validate(setup.pmap, setup.density, 5_000, seed=0)
    assert not rep.ok
    assert rep.overlaps > 0
    assert any("overlap" in f for f in rep.failures)
    assert rep.coverage_gaps > 0  # x <= -1 is uncovered too


def test_validate_inverse_consistency_all_presets(setups):
    for name, setup in setups.items():
        rep = validate(setup.pmap, setup.density, 1_000, seed=42)
        for part in rep.part_reports:
            if "inverse_max_rel_err" in part:
                assert part["inverse_max_rel_err"] < 1e-9, (name, part)


def test_validate_masses_sum_with_stderr(setups):
    for name, setup in setups.items():
        rep = validate(setup.pmap, setup.density, 10_000, seed=7)
        total = sum(r["mass"] for r in rep.part_reports)
        stderr = math.sqrt(sum(r["mass_stderr"] ** 2 for r in rep.part_reports))
        assert abs(total - 1.0) <= max(3 * stderr, 1e-12), name


def test_validate_kind_cross_checks(setups):
    rep = validate(setups["ex5_radius_only"].pmap,
                   setups["ex5_radius_only"].density, 2_000, seed=0)
    assert rep.ok
    assert rep.part_reports[0]["rank_deficient_fraction"] >= 0.99
    rep = validate(setups["limiter_gaussian"].pmap,
                   setups["limiter_gaussian"].density, 5_000, seed=0)
    assert rep.ok
    consts = [r for r in rep.part_reports if r["kind"] == "constant_point"]
    assert all(r.get("forward_variance", 0.0) < 1e-18 for r in consts)


def test_validate_flags_wrong_jacobian_expression():
    cfg = {
        "dim": 1,
        "density": {"form": "gaussian_iid", "params": {"mu": 0.0, "sigma": 1.0}},
        "parts": [
            {"type": "branch", "name": "neg", "kind": "bijective",
             "region": {"predicate": "x1 <= 0 and x1 >= -8.5", "bbox": [[-8.5, 0.0]]},
             "forward": ["x1^2"], "inverse": ["-sqrt(y1)"],
             "jac_abs_det": "abs(x1)"},  # off by the factor 2
            {"type": "branch", "name": "pos", "kind": "bijective",
             "region": {"predicate": "x1 > 0 and x1 <= 8.5", "bbox": [[0.0, 8.5]]},
             "forward": ["x1^2"], "inverse": ["sqrt(y1)"],
             "jac_abs_det": "2*abs(x1)"},
        ],
    }
    setup = load_config(cfg)
    rep = validate(setup.pmap, setup.density, 2_000, seed=0)
    assert not rep.ok
    assert any("neg" in f and "finite differences" in f for f in rep.failures)


def test_validate_flags_wrong_kind():
    cfg = {
        "dim": 1,
        "density": {
            "form": "uniform_box",
            "support": {"predicate": "x1 >= 0 and x1 <= 1", "bbox": [[0.0, 1.0]]},
        },
        "parts": [
            {"type": "branch", "name": "p", "kind": "constant_point",
             "region": {"predicate": "x1 >= 0 and x1 <= 1", "bbox": [[0.0, 1.0]]},
             "forward": ["x1"]},
        ],
    }
    setup = load_config(cfg)
    rep = validate(setup.pmap, setup.density, 2_000, seed=0)
    assert not rep.ok
    assert any("constant_point" in f for f in rep.failures)


# --- densities --------------------------------------------------------------------

def test_density_pdf_values(setups):
    d = setups["ex1_fold_square"].density
    assert d.pdf((0.5, 0.5)) == pytest.approx(1 / 16)
    assert d.pdf((3.0, 0.0)) == 0.0
    d4 = setups["ex4_polar_unitdisc"].density
    assert d4.pdf((0.1, 0.2)) == pytest.approx(1 / math.pi)
    d2 = setups["ex2_square_gaussian"].density
    assert d2.pdf((0.0,)) == pytest.approx(1 / math.sqrt(2 * math.pi))


def test_uniform_region_volume_estimated_when_missing():
    cfg = {
        "dim": 2,
        "density": {
            "form": "uniform_region",
            "support": {"predicate": "x1^2 + x2^2 <= 1",
                        "bbox": [[-1.0, 1.0], [-1.0, 1.0]]},
        },
        "parts": [
            {"type": "branch", "name": "disc", "kind": "bijective",
             "region": {"predicate": "x1^2 + x2^2 <= 1",
                        "bbox": [[-1.0, 1.0], [-1.0, 1.0]]},
             "forward": ["x1", "x2"], "inverse": ["y1", "y2"]},
        ],
    }
    setup = load_config(cfg)
    assert setup.density.params["volume"] == pytest.approx(math.pi, rel=5e-3)


def test_sampler_rates(setups):
    _, rate = setups["ex4_polar_unitdisc"].density.sample_with_rate(20_000, 1)
    assert rate == pytest.approx(math.pi / 4, abs=0.02)
    _, rate = setups["identity"].density.sample_with_rate(100, 1)
    assert rate == 1.0


def reference_region_sample(d, n, seed):
    """The uniform_region sampler as it was written before it shared
    the accept-reject loop of the expression form."""
    rng = make_generator(seed)
    lo, hi = d.support.bbox.arrays()
    out = np.empty((n, d.dim))
    got = proposed = accepted = 0
    batch = max(n, 4096)
    while got < n:
        pts = uniform_box_sample(lo, hi, batch, rng)
        ok = d.support.contains_batch(pts)
        proposed += batch
        hits = int(np.count_nonzero(ok))
        accepted += hits
        take = min(n - got, hits)
        out[got:got + take] = pts[ok][:take]
        got += take
    return out, accepted / proposed


def reference_expression_sample(d, n, seed):
    """The expression-pdf rejection sampler with its bound check, as it
    was written before it shared the loop of the region form."""
    rng = make_generator(seed)
    lo, hi = d.support.bbox.arrays()
    bound = float(d.pdf_bound)
    dim = lo.size
    out = np.empty((n, dim))
    got = proposed = accepted = 0
    batch = max(n, 4096)
    while got < n:
        x = lo + rng.random((batch, dim)) * (hi - lo)
        f = np.asarray(d.pdf_batch(x), dtype=float)
        proposed += batch
        bad = f > bound * (1.0 + 1e-12)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise BoundViolationError(x[i], float(f[i]), bound)
        accept = rng.random(batch) * bound < f
        hits = int(np.count_nonzero(accept))
        accepted += hits
        take = min(n - got, hits)
        out[got:got + take] = x[accept][:take]
        got += take
    return out, accepted / proposed


def expression_disc_density():
    """(2/pi)(1 - |x|^2) on the unit disc, under the bound 0.7."""
    cfg = {
        "dim": 2,
        "density": {
            "form": "expression",
            "pdf": "2/pi*(1 - x1^2 - x2^2)",
            "pdf_bound": 0.7,
            "support": {"predicate": "x1^2 + x2^2 <= 1",
                        "bbox": [[-1.0, 1.0], [-1.0, 1.0]]},
        },
        "parts": [
            {"type": "branch", "name": "disc", "kind": "bijective",
             "region": {"predicate": "x1^2 + x2^2 <= 1",
                        "bbox": [[-1.0, 1.0], [-1.0, 1.0]]},
             "forward": ["x1", "x2"], "inverse": ["y1", "y2"]},
        ],
    }
    return load_config(cfg).density


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 4095, 4096, 70_000])
@pytest.mark.parametrize("form", ["uniform_region", "expression"])
def test_rejection_samplers_keep_the_reference_bytes(setups, form, n, seed):
    if form == "uniform_region":
        d, reference = setups["ex6_m1"].density, reference_region_sample
    else:
        d, reference = expression_disc_density(), reference_expression_sample
    assert d.form == form
    pts, rate = d.sample_with_rate(n, seed)
    expected, expected_rate = reference(d, n, seed)
    assert pts.tobytes() == expected.tobytes()
    assert rate == expected_rate


@pytest.mark.parametrize("name", ["ex6_m1", "identity"])
def test_zero_sample_size_raises_in_sample_with_rate(setups, name):
    with pytest.raises(ValueError, match="need n >= 1"):
        setups[name].density.sample_with_rate(0, 1)


@pytest.mark.parametrize("name", ["ex6_m1", "identity"])
def test_zero_sample_size_raises_in_validate(setups, name):
    s = setups[name]
    with pytest.raises(ValueError, match="need n >= 1"):
        validate(s.pmap, s.density, n_probe=0)


# --- output relabeling ---------------------------------------------------------

def test_postcompose_affine_consistency(setups):
    m = setups["ex1_fold_square"].pmap
    m2 = postcompose_affine(m, 3.0, 1.0)
    x = (0.7, -0.4)
    assert np.allclose(forward_eval(m2, x), 3 * forward_eval(m, x) + 1)
    assert jac_abs_det_at(m2, x) == pytest.approx(9.0)  # scale^dim
    rep = validate(m2, setups["ex1_fold_square"].density, 2_000, seed=0)
    assert rep.ok
