"""Config schema, preset resolution, and the command-line interface."""

import copy
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoloss.classify import atom_scan
from infoloss.cli import main as cli_main
from infoloss.config import (
    list_presets,
    load_config,
    load_config_file,
    preset_path,
    resolve_config_path,
    triangle_abs_config,
)
from infoloss.errors import ConfigError

ALL_PRESETS = ["ex1_fold_square", "ex2_square_gaussian", "ex3_exp_sawtooth",
               "ex4_polar_unitdisc", "ex5_radius_only", "ex6_m0", "ex6_m1",
               "ex6_m2", "identity", "limiter_gaussian", "quantizer_uniform"]


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "infoloss", *args],
                          capture_output=True, text=True, **kw)


# --- schema ------------------------------------------------------------------

def test_all_presets_load():
    assert list_presets() == ALL_PRESETS
    for name in ALL_PRESETS:
        setup = load_config_file(preset_path(name))
        assert setup.name == name
        assert len(setup.digest) == 64


def test_digest_is_stable():
    a = load_config_file(preset_path("identity")).digest
    b = load_config_file(preset_path("identity")).digest
    assert a == b


def test_triangle_builder_matches_shipped_preset():
    built = load_config(triangle_abs_config(1, 2))
    shipped = load_config_file(preset_path("ex6_m1"))
    assert built.density.params["volume"] == shipped.density.params["volume"]
    assert [p.name for p in built.pmap.parts] == \
        [p.name for p in shipped.pmap.parts]


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("dim"), "dim"),
    (lambda d: d.update(dim=0), "dim"),
    (lambda d: d.update(dim=True), "dim: must be a positive integer"),
    (lambda d: d["parts"][0].update(type="family", k_range=[True, None]),
     "parts[0].k_range"),
    (lambda d: d.update(parts=[]), "parts"),
    (lambda d: d["parts"][0].update(forward=["x1 +"]), "offset"),
    (lambda d: d["parts"][0].update(forward=["sinh(x1)"]), "unknown function"),
    (lambda d: d["parts"][0].update(forward=["x9"]), "unknown variable"),
    (lambda d: d["parts"][0].update(forward=["x1", "x2"]), "expected 1"),
    (lambda d: d["parts"][0].pop("inverse"), "inverse"),
    (lambda d: d["density"].update(form="cauchy"), "unknown form"),
    (lambda d: d["parts"][0]["region"].update(bbox=[[1.0, 0.0]]), "box"),
    (lambda d: d["density"].update(params=[1, 2]), "density.params"),
    (lambda d: d["density"].update(exact_diffent_bits="1 bit"),
     "density.exact_diffent_bits"),
    (lambda d: d["analysis"].update(n="many"), "analysis.n: expected"),
    (lambda d: d["analysis"].update(seed=[1]), "analysis.seed"),
    (lambda d: d["analysis"].update(nodes_per_dim=None), "analysis.nodes_per_dim"),
    (lambda d: d["analysis"].update(k_max={}), "analysis.k_max"),
    (lambda d: d["analysis"].update(tol="small"), "analysis.tol: expected"),
    (lambda d: d["analysis"].update(depths="0:8"), "analysis.depths: expected"),
    (lambda d: d["parts"][0].update(name=["a"]), "parts[0].name: expected"),
    (lambda d: d["parts"][0].update(name={"a": 1}), "parts[0].name"),
    (lambda d: d["analysis"].update(n=-5), "analysis.n must be at least 1"),
    (lambda d: d["analysis"].update(tol=-1), "analysis.tol: must be"),
    (lambda d: d["analysis"].update(depths=[0, -1]), "analysis.depths must"),
    (lambda d: d["analysis"].update(depths=[0, 63]), "depth * dim <= 62"),
    (lambda d: d["parts"][0]["forward"].__setitem__(0, "(" * 3000 + "x1" + ")" * 3000),
     "nests too deeply"),
    (lambda d: d["analysis"].update(tol=0), "analysis.tol: must be positive"),
    *[(lambda d, v=v: d.update(name=v), "name: expected a string")
      for v in (True, 7, None, ["a"])],
    *[(lambda d, v=v: d["density"].update(support=v), "density.support")
      for v in (False, 0, "", [], {})],
])
def test_schema_rejections(mutate, fragment):
    doc = json.loads(preset_path("identity").read_text())
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert fragment.lower() in str(err.value).lower()


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=12)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)


@pytest.mark.parametrize("name", ALL_PRESETS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_load_config_fuzz_ends_in_config_error(name, data):
    # any finite JSON value at any path of a preset either loads or is a
    # ConfigError (exit 2), never another exception type
    doc = json.loads(preset_path(name).read_text())
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(JSON_VALUES, label="value")
    if path:
        target = copy.deepcopy(doc)
        node = target
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        target = value
    try:
        load_config(target)
    except ConfigError:
        pass


def test_inverse_vars_use_y_names():
    doc = json.loads(preset_path("identity").read_text())
    doc["parts"][0]["inverse"] = ["x1"]
    with pytest.raises(ConfigError):
        load_config(doc)


def test_preset_dir_override(tmp_path, monkeypatch):
    src = preset_path("identity").read_text()
    (tmp_path / "mymodel.json").write_text(src)
    monkeypatch.setenv("INFOLOSS_PRESET_DIR", str(tmp_path))
    assert list_presets() == ["mymodel"]
    assert resolve_config_path("mymodel") == tmp_path / "mymodel.json"


def test_resolve_plain_path(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(preset_path("identity").read_text())
    assert resolve_config_path(str(p)) == p


# --- CLI ---------------------------------------------------------------------

def test_cli_validate_ok():
    res = run_cli("validate", "identity", "--n", "2000")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["ok"] is True


def test_cli_validate_overlap_exit_2(tmp_path):
    doc = json.loads(preset_path("identity").read_text())
    doc["parts"].append({
        "type": "branch", "name": "extra", "kind": "bijective",
        "region": {"predicate": "x1 > 0.5", "bbox": [[0.0, 1.0]]},
        "forward": ["x1"], "inverse": ["y1"]})
    p = tmp_path / "overlap.json"
    p.write_text(json.dumps(doc))
    res = run_cli("validate", str(p), "--n", "2000")
    assert res.returncode == 2
    assert json.loads(res.stdout)["overlaps"] > 0


def test_cli_bad_expression_exit_2(tmp_path):
    doc = json.loads(preset_path("identity").read_text())
    doc["parts"][0]["forward"] = ["x1 +"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    res = run_cli("validate", str(p))
    assert res.returncode == 2
    assert "offset" in res.stderr


@pytest.mark.parametrize("argv", [
    ["report", "ex1_fold_square", "--n", "-5"],
    ["report", "ex1_fold_square", "--n", "0"],
    ["validate", "ex1_fold_square", "--n", "0"],
    ["report", "ex1_fold_square", "--workers", "-3"],
    ["report", "ex1_fold_square", "--workers", "0"],
    ["loss", "ex1_fold_square", "--method", "eq5_quadrature", "--nodes", "0"],
    ["report", "ex1_fold_square", "--depths", "3:x"],
    ["sweep", "ex1_fold_square", "--depths", "1,,2"],
    ["sweep", "ex1_fold_square", "--depths=-1:2"],
    ["sweep", "ex1_fold_square", "--depths", "2,-3"],
    ["sweep", "ex3_exp_sawtooth", "--depths", "8,63"],
    ["sweep", "ex1_fold_square", "--depths", "30:32"],
    ["sweep", "ex6_m1", "--n", "2000", "--depths", "3:1"],
], ids=["n_negative", "n_zero", "validate_n_zero", "workers_negative",
        "workers_zero", "nodes_zero", "depths_unparsable_range",
        "depths_unparsable_list", "depths_negative_range",
        "depths_negative_list", "depth_63_at_dim_1", "depth_32_at_dim_2",
        "depths_reversed_range"])
def test_cli_bad_numeric_argument_exit_2(argv, capsys):
    # rejected as a config error before any sampling starts
    assert cli_main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_reversed_depth_range_names_the_option(capsys):
    # an empty range used to print only the CSV header and exit 0
    assert cli_main(["sweep", "ex6_m1", "--n", "2000", "--depths", "3:1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--depths" in out.err and "'3:1'" in out.err


@pytest.mark.parametrize("mutate", [
    lambda d: d["parts"][0].update(forward=["-" * 3000 + "x1"]),
    lambda d: d["analysis"].update(tol=-1),
    lambda d: d["analysis"].update(n=-5),
    lambda d: d["analysis"].update(tol=0),
], ids=["deep_forward", "tol_negative", "n_negative", "tol_zero"])
def test_cli_malformed_config_exit_2(tmp_path, capsys, mutate):
    doc = json.loads(preset_path("identity").read_text())
    mutate(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["loss", str(p), "--n", "2000"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("name, depth", [("ex3_exp_sawtooth", 62),
                                         ("ex1_fold_square", 31)])
def test_cli_sweep_runs_at_the_deepest_allowed_depth(name, depth, capsys):
    # the sweep's cell index has depth * dim bits, at most 62; one level
    # deeper is a config error (the test above), not a wrapped-around index
    assert cli_main(["sweep", name, "--n", "2000",
                     "--depths", f"8,{depth}"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["8", str(depth)]


def test_cli_loss_identity():
    res = run_cli("loss", "identity", "--n", "5000", "--seed", "1")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["loss_bits"] == 0.0
    assert payload["method"] == "eq5_mc"


def test_cli_loss_quadrature_method():
    res = run_cli("loss", "ex2_square_gaussian", "--method", "eq5_quadrature",
                  "--nodes", "256")
    assert res.returncode == 0
    assert abs(json.loads(res.stdout)["loss_bits"] - 1.0) < 1e-6


def test_cli_loss_infinite_exit_3():
    res = run_cli("loss", "quantizer_uniform", "--n", "2000")
    assert res.returncode == 3
    assert res.stdout == ""
    assert "Infinite" in res.stderr


def test_cli_classify():
    res = run_cli("classify", "ex5_radius_only", "--n", "20000")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "Infinite"
    assert payload["reason"] == "rank_deficient_mass"


def test_cli_classify_prints_the_atoms_of_a_fresh_scan():
    res = run_cli("classify", "limiter_gaussian", "--n", "20000", "--seed", "3")
    assert res.returncode == 0
    setup = load_config_file(preset_path("limiter_gaussian"))
    atoms = atom_scan(setup.pmap, setup.density, 20_000, 3)
    assert len(atoms) == 2
    assert json.loads(res.stdout)["atoms"] == [
        {"y": list(y), "mass": mass} for y, mass in atoms]


def test_cli_bounds():
    res = run_cli("bounds", "ex6_m1", "--n", "50000")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert abs(payload["e_log_card_bits"] - 0.75) < 0.02


def test_cli_sweep_csv():
    res = run_cli("sweep", "identity", "--n", "5000", "--depths", "0:3")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "depth,loss_bits,stderr_bits"
    assert len(lines) == 5
    assert lines[1].startswith("0,")


def test_cli_report_json_roundtrip():
    res = run_cli("report", "identity", "--n", "20000")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    for key in ("name", "model_digest", "validation", "classification",
                "loss", "bounds", "sweep", "warnings"):
        assert key in payload
    assert payload["loss"]["eq5_mc"]["loss_bits"] == 0.0
    assert "wall_time_s" not in payload  # deterministic payload by default


def test_cli_report_sawtooth_flags():
    res = run_cli("report", "ex3_exp_sawtooth", "--n", "50000")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    flags = payload["bounds"]["infinite_flags"]
    assert flags["e_log_card"] and flags["log_e_card"] and flags["max_log_card"]
    assert not flags["h_W"]
    assert abs(payload["loss"]["eq5_mc"]["loss_bits"]
               - payload["bounds"]["h_W_bits"]) < 0.02
    assert "truncated" in " ".join(payload["warnings"])


def test_cli_report_text_and_timing():
    res = run_cli("report", "quantizer_uniform", "--n", "20000", "--out", "text")
    assert res.returncode == 0
    assert "Infinite" in res.stdout
    assert "atom" in res.stdout
    res = run_cli("report", "identity", "--n", "5000", "--timing")
    assert "wall_time_s" in json.loads(res.stdout)


def test_cli_presets_listing():
    res = run_cli("presets")
    names = [line.split("\t")[0] for line in res.stdout.strip().splitlines()]
    assert names == ALL_PRESETS
