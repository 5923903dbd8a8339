"""Rows that carry no loss, and the one eq. 5 integrand.

Rows outside bijective parts carry no loss.  Every reducer computes its
term on every row and ``loss._loss_rows`` overwrites the terms of those
rows; the references below are the former reducers, which gathered the
bijective rows and scattered their terms, and the new ones must give the
same bytes.  No preset's own classification lets its loss-free rows into
an estimator, so the tests pass a Finite verdict by hand.
"""

import json
import warnings
from unittest.mock import patch

import numpy as np
import pytest

from conftest import PRESET_NAMES
from infoloss import loss
from infoloss.classify import Classification
from infoloss.cli import build_report
from infoloss.cli import main as cli_main
from infoloss.config import load_config
from infoloss.errors import ZeroDensityError
from infoloss.loss import (
    ESTIMATORS,
    LossReport,
    _Chunk,
    estimate,
    loss_eq5_mc,
    loss_eq5_quadrature,
)
from infoloss.model import DEFAULT_K_MAX
from infoloss.numerics import derived_seed, take_rows, tensor_quadrature
from infoloss.transform import DEFAULT_TOL, posterior_entropy_bits

FINITE = Classification("Finite", "none", ())

# presets with parts that are not bijective: the limiter's rails and the
# polar map's rim and origin beside bijective parts, the quantizer's
# cells and the radius map's disc alone
ROW_PRESETS = ["limiter_gaussian", "quantizer_uniform", "ex4_polar_unitdisc",
               "ex5_radius_only"]


# --- the former gather-and-scatter reducers ------------------------------------

def _ref_log_jac(ch):
    v = np.zeros(ch.x.shape[0])
    v[ch.ok] = np.log2(ch.jac[ch.ok])
    return v


def _ref_eq5(ch):
    fy = ch.f_y_checked()
    v = np.zeros(ch.x.shape[0])
    ok = ch.ok
    v[ok] = np.log2(fy[ok] * ch.jac[ok] / ch.fx[ok])
    return loss.chunk_moments(v)


def _ref_corollary1(ch):
    fy = ch.f_y_checked()
    ok = ch.ok
    mlen = ok.shape[0]
    neg_log_fx = np.zeros(mlen)
    neg_log_fx[ok] = -np.log2(ch.fx[ok])
    neg_log_fy = np.zeros(mlen)
    neg_log_fy[ok] = -np.log2(fy[ok])
    log_jac = _ref_log_jac(ch)
    exact_hx = ch.d.exact_diffent_bits
    hx_term = np.full(mlen, exact_hx) if exact_hx is not None else neg_log_fx
    v = hx_term - neg_log_fy + log_jac
    return tuple(loss.chunk_moments(a)
                 for a in (v, neg_log_fx, neg_log_fy, log_jac))


def _ref_branch_posterior(ch):
    ch.f_y_checked()
    h = posterior_entropy_bits(ch.table)
    return loss.chunk_moments(np.where(ch.ok, h, 0.0))


def _ref_cardinality(ch):
    card = ch.table.cardinality.astype(float)
    bad = ch.ok & ~(card > 0)
    if np.any(bad):
        raise ZeroDensityError(ch.y[int(np.argmax(bad))])
    card = np.where(ch.ok, card, 1.0)
    return (loss.chunk_moments(np.log2(card)), loss.chunk_moments(card),
            int(card.max()), loss._code_counts(ch))


REFERENCE_REDUCERS = {"eq5_mc": _ref_eq5, "corollary1": _ref_corollary1,
                      "branch_posterior": _ref_branch_posterior,
                      "bounds": _ref_cardinality}


def _ref_quadrature(m, d, nodes):
    """The former quadrature: its own eq. 5 with f_Y floored at 1e-300."""
    truncated = False

    def integrand(pts):
        nonlocal truncated
        out = np.zeros(pts.shape[0])
        fx = d.pdf_batch(pts)
        live = np.flatnonzero(fx > 0.0)
        if not live.size:
            return out
        ch = _Chunk(m, d, take_rows(pts, live), DEFAULT_TOL, DEFAULT_K_MAX)
        ch.fx = fx[live]
        ok = ch.ok
        if not np.any(ok):
            return out
        jac = ch.jac
        t = ch.table
        truncated |= bool(t.truncated.any())
        with np.errstate(divide="ignore", invalid="ignore"):
            v = ch.fx * np.log2(np.maximum(t.f_y, 1e-300) * jac / ch.fx)
        np.copyto(v, 0.0, where=~ok)
        out[live] = v
        return out

    total = tensor_quadrature(d.support.bbox, integrand, nodes)
    return LossReport(total, 0.0, "eq5_quadrature", nodes ** m.dim, 0,
                      truncated=truncated)


# --- loss-free rows ---------------------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ROW_PRESETS)
def test_loss_free_rows_match_the_gathered_reducers(setups, name):
    s = setups[name]
    m, d = s.pmap, s.density

    def run():
        # two chunks, the second short
        return estimate(m, d, 70_000, 3, ESTIMATORS, depths=(0, 3, 6),
                        sweep_n=20_000, classification=FINITE)

    got = run()
    with patch.dict(loss._REDUCERS, REFERENCE_REDUCERS):
        want = run()
    assert sorted(got) == sorted(ESTIMATORS)
    # repr tells every float apart by its bits (-0.0 from 0.0 too)
    assert repr(got) == repr(want)
    if m.dim <= 2:
        assert repr(loss_eq5_quadrature(m, d, 64, classification=FINITE)) \
            == repr(_ref_quadrature(m, d, 64))


def test_excluded_fraction_is_the_rails_share(setups):
    s = setups["limiter_gaussian"]
    m, d = s.pmap, s.density
    n, seed = 20_000, 5  # one chunk
    x = d.sample(n, derived_seed(seed, 0))
    share = np.count_nonzero(np.abs(x[:, 0]) >= 1.0) / n
    assert share == pytest.approx(0.3173, abs=0.01)  # 2 (1 - Phi(1))
    res = estimate(m, d, n, seed, ESTIMATORS, depths=(0, 4),
                   classification=FINITE)
    for route in ("eq5_mc", "corollary1", "branch_posterior"):
        assert res[route].excluded_fraction == share
    # the rails count 0, and the linear part loses nothing
    assert res["eq5_mc"].loss_bits == 0.0
    assert res["branch_posterior"].loss_bits == 0.0
    assert res["sweep"].losses_bits == (0.0, 0.0)
    ch = _Chunk(m, d, x, DEFAULT_TOL, DEFAULT_K_MAX)
    terms = loss._eq5_terms(ch)
    assert not np.any(ch.ok[np.abs(x[:, 0]) >= 1.0])
    assert np.count_nonzero(terms) == 0 and np.all(np.isfinite(terms))


# --- the quadrature's eq. 5 --------------------------------------------------------

def wrong_inverse_doc():
    """The identity on [0, 1] with an inverse that misses x above 1/2:
    f_Y is zero at every bijective point there."""
    box = [[0.0, 1.0]]
    return {
        "dim": 1,
        "density": {"form": "uniform_box",
                    "support": {"predicate": "x1 >= 0 and x1 <= 1",
                                "bbox": box}},
        "parts": [{"type": "branch", "name": "all", "kind": "bijective",
                   "region": {"predicate": "x1 >= 0 and x1 <= 1",
                              "bbox": box},
                   "forward": ["x1"], "inverse": ["y1 + 0.25*(y1 > 0.5)"],
                   "jac_abs_det": "1"}],
    }


def test_quadrature_refuses_zero_output_density():
    s = load_config(wrong_inverse_doc())
    m, d = s.pmap, s.density
    # as the Monte-Carlo route does, not a finite number from a floor
    with pytest.raises(ZeroDensityError):
        loss_eq5_mc(m, d, 2_000, 1)
    with pytest.raises(ZeroDensityError) as err:
        loss_eq5_quadrature(m, d, 512)
    assert float(err.value.y[0]) > 0.5


def test_cli_quadrature_zero_output_density_exit_4(tmp_path, capsys):
    p = tmp_path / "wrong_inverse.json"
    p.write_text(json.dumps(wrong_inverse_doc()))
    for method in ("eq5_mc", "eq5_quadrature"):
        assert cli_main(["loss", str(p), "--n", "2000",
                         "--method", method]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "output density is zero" in captured.err


# --- every row evaluated, no warning -----------------------------------------------

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_report_raises_no_runtime_warning(setups, name):
    # each part is evaluated on every row, and each reducer takes its
    # term on every row: what the rows outside a part give must not
    # surface as a warning
    s = setups[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        build_report(s, 20_000, 1, 8, s.analysis.depths, 1)
