"""Cardinality bounds and the subdomain-index entropy."""

import math

import numpy as np
import pytest

from infoloss.bounds import bounds_report
from infoloss.errors import InfiniteLossError
from infoloss.loss import loss_eq5_mc

# frozen series oracle: entropy of the geometric subdomain masses
# p_k = (1 - e^-1) e^-(k-1); recomputed in-test to machine precision
SAWTOOTH_HW_BITS = 1.5013432665422346

# triangle fold at m=1, a=2: entropy of the three subdomain masses
# (1/16, 6/16, 9/16), matching the closed-form expression
TRIANGLE_HW_BITS = 1.2475562489182659


def series_oracle():
    k = np.arange(1, 400)
    p = (1 - math.exp(-1.0)) * np.exp(-(k - 1.0))
    return float(-(p * np.log2(p)).sum())


def triangle_mass_oracle(m, a):
    p = np.array([(a - m) ** 2 / (4 * a * a),
                  (a - m) * (a + m) / (2 * a * a),
                  (a + m) ** 2 / (4 * a * a)])
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def closed_form_hw(m, a):
    return (m * m / (2 * a * a) + 1.5 - math.log2((a * a - m * m) / (a * a))
            + (m / a) * math.log2((a - m) / (a + m)))


def test_frozen_oracles_agree():
    assert series_oracle() == pytest.approx(SAWTOOTH_HW_BITS, abs=1e-14)
    assert triangle_mass_oracle(1, 2) == pytest.approx(TRIANGLE_HW_BITS, abs=1e-14)
    assert closed_form_hw(1, 2) == pytest.approx(TRIANGLE_HW_BITS, abs=1e-12)


def test_identity_bounds_all_zero(setups):
    setup = setups["identity"]
    b = bounds_report(setup.pmap, setup.density, 20_000, 1)
    assert b.e_log_card_bits == 0.0
    assert b.log_e_card_bits == 0.0
    assert b.max_log_card_bits == 0.0
    assert b.h_W_bits == 0.0
    assert not any(b.infinite_flags.values())


def test_triangle_bound_chain(setups):
    setup = setups["ex6_m1"]
    b = bounds_report(setup.pmap, setup.density, 200_000, 1)
    assert b.e_log_card_bits == pytest.approx(0.75, abs=0.01)
    assert b.log_e_card_bits == pytest.approx(math.log2(1.75), abs=0.01)
    assert b.max_log_card_bits == 1.0
    assert b.h_W_bits == pytest.approx(TRIANGLE_HW_BITS, abs=0.01)
    assert b.e_log_card_bits <= b.log_e_card_bits <= b.max_log_card_bits


def test_sawtooth_flags_infinite_cardinality(setups):
    setup = setups["ex3_exp_sawtooth"]
    b = bounds_report(setup.pmap, setup.density, 200_000, 1)
    assert b.infinite_flags["e_log_card"]
    assert b.infinite_flags["log_e_card"]
    assert b.infinite_flags["max_log_card"]
    assert not b.infinite_flags["h_W"]
    assert b.h_W_bits == pytest.approx(SAWTOOTH_HW_BITS, abs=3 * b.stderrs["h_W"] + 1e-3)


def test_entropy_w_values(setups):
    def h_w(name, n):
        b = bounds_report(setups[name].pmap, setups[name].density, n, 1)
        return b.h_W_bits, b.stderrs["h_W"]

    assert h_w("identity", 20_000)[0] == 0.0
    assert h_w("ex1_fold_square", 100_000)[0] == pytest.approx(1.0, abs=0.01)
    h, stderr = h_w("ex6_m1", 200_000)
    assert h == pytest.approx(closed_form_hw(1, 2), abs=3 * stderr + 1e-3)


def test_jensen_ordering_and_dominance(setups):
    for name in ("ex1_fold_square", "ex2_square_gaussian", "ex6_m0",
                 "ex6_m1", "ex6_m2", "ex4_polar_unitdisc"):
        setup = setups[name]
        b = bounds_report(setup.pmap, setup.density, 100_000, 1)
        se = b.stderrs
        assert b.e_log_card_bits <= b.log_e_card_bits + 3 * (
            se["e_log_card"] + se["log_e_card"]), name
        assert b.log_e_card_bits <= b.max_log_card_bits + 3 * se["log_e_card"], name
        loss = loss_eq5_mc(setup.pmap, setup.density, 100_000, 1)
        slack = 3 * (loss.stderr_bits + max(se.values())) + 1e-12
        for bound in (b.e_log_card_bits, b.log_e_card_bits,
                      b.max_log_card_bits, b.h_W_bits):
            assert bound >= loss.loss_bits - slack, name


def test_bounds_refuse_infinite(setups):
    with pytest.raises(InfiniteLossError):
        bounds_report(setups["limiter_gaussian"].pmap,
                      setups["limiter_gaussian"].density, 1_000, 1)


def test_branch_masses_reported(setups):
    setup = setups["ex6_m1"]
    b = bounds_report(setup.pmap, setup.density, 100_000, 1)
    assert set(b.branch_masses) == {"left_top", "left_bottom", "right_bottom"}
    assert sum(b.branch_masses.values()) == pytest.approx(1.0, abs=1e-12)
    assert b.branch_masses["left_top"] == pytest.approx(1 / 16, abs=0.005)
