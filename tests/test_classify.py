"""Finite/Infinite classification and the atom scan."""

import importlib
import math

import pytest

from infoloss import cli
from infoloss.classify import Classification, atom_scan, classify

# the package's ``classify`` attribute is the function, not the module
classify_module = importlib.import_module("infoloss.classify")

GAUSSIAN_TAIL_AT_1 = 0.15865525393145707  # frozen from scipy.stats.norm.sf(1)


def test_verdicts(setups):
    finite = ["identity", "ex1_fold_square", "ex2_square_gaussian",
              "ex3_exp_sawtooth", "ex4_polar_unitdisc",
              "ex6_m0", "ex6_m1", "ex6_m2"]
    for name in finite:
        c = classify(setups[name].pmap, setups[name].density, 50_000, 1)
        assert c.verdict == "Finite", name
        assert c.reason == "none"

    c = classify(setups["quantizer_uniform"].pmap,
                 setups["quantizer_uniform"].density, 50_000, 1)
    assert (c.verdict, c.reason) == ("Infinite", "discrete_atom")

    c = classify(setups["ex5_radius_only"].pmap,
                 setups["ex5_radius_only"].density, 50_000, 1)
    assert (c.verdict, c.reason) == ("Infinite", "rank_deficient_mass")

    c = classify(setups["limiter_gaussian"].pmap,
                 setups["limiter_gaussian"].density, 50_000, 1)
    assert (c.verdict, c.reason) == ("Infinite", "mixed_limiter")


def test_zero_mass_collapsing_parts_stay_finite(setups):
    c = classify(setups["ex4_polar_unitdisc"].pmap,
                 setups["ex4_polar_unitdisc"].density, 50_000, 1)
    assert c.verdict == "Finite"
    assert {e["part"] for e in c.evidence} == {"rim", "origin"}
    assert all(e["mass"] == 0.0 for e in c.evidence)


def test_atom_scan_limiter(setups):
    atoms = atom_scan(setups["limiter_gaussian"].pmap,
                      setups["limiter_gaussian"].density, 200_000, 1)
    assert [y for y, _ in atoms] == [(-1.0,), (1.0,)]
    for _, mass in atoms:
        assert mass == pytest.approx(GAUSSIAN_TAIL_AT_1, abs=0.003)


def test_atom_scan_quantizer(setups):
    atoms = atom_scan(setups["quantizer_uniform"].pmap,
                      setups["quantizer_uniform"].density, 200_000, 1)
    assert [y for y, _ in atoms] == [(0.0,), (1.0,), (2.0,), (3.0,)]
    for _, mass in atoms:
        assert mass == pytest.approx(0.25, abs=0.005)


def test_atom_scan_identity_empty(setups):
    assert atom_scan(setups["identity"].pmap,
                     setups["identity"].density, 20_000, 1) == []


def test_atom_masses_sum_to_constant_part_mass(setups):
    setup = setups["limiter_gaussian"]
    n = 200_000
    atoms = atom_scan(setup.pmap, setup.density, n, 1)
    c = classify(setup.pmap, setup.density, n, 1)
    const_mass = sum(e["mass"] for e in c.evidence
                     if e["kind"] == "constant_point")
    stderr = math.sqrt(sum(e["stderr"] ** 2 for e in c.evidence))
    assert sum(mass for _, mass in atoms) == pytest.approx(
        const_mass, abs=3 * stderr + 1e-12)


def test_atom_scan_reads_the_sample_of_the_preceding_classify(setups,
                                                             monkeypatch):
    setup = setups["limiter_gaussian"]
    m, d = setup.pmap, setup.density
    fresh = atom_scan(m, d, 20_000, 3)
    c = classify(m, d, 20_000, 3)
    draws = []
    real = classify_module._part_masses
    monkeypatch.setattr(classify_module, "_part_masses",
                        lambda *args: draws.append(args) or real(*args))
    # the classification carries its sample: the scan draws nothing
    assert atom_scan(m, d, classification=c) == fresh
    assert draws == []
    # one built from its verdict, reason and evidence alone compares
    # equal, and a scan given it draws its own sample
    bare = Classification(c.verdict, c.reason, c.evidence)
    assert bare == c
    assert atom_scan(m, d, 20_000, 3, classification=bare) == fresh
    assert len(draws) == 1
    draws.clear()
    rep = cli.build_report(setup, 20_000, 3, 8, setup.analysis.depths, 1)
    assert len(draws) == 1
    assert rep["atoms"] == [{"y": list(y), "mass": mass} for y, mass in fresh]


@pytest.mark.parametrize("name", ["ex6_m1", "identity"])
def test_zero_sample_size_raises_in_classify(setups, name):
    with pytest.raises(ValueError, match="need n >= 1"):
        classify(setups[name].pmap, setups[name].density, 0, 1)


@pytest.mark.parametrize("name", ["ex6_m1", "identity"])
def test_zero_sample_size_raises_in_atom_scan(setups, name):
    with pytest.raises(ValueError, match="need n >= 1"):
        atom_scan(setups[name].pmap, setups[name].density, 0, 1)
