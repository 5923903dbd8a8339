"""The command line prints the report's own sections.

``loss``, ``bounds`` and ``sweep`` each run one estimator of the
report's shared pass, so at the same ``--n``, ``--seed`` and ``--nodes``
each prints exactly the matching section of ``report``: the same JSON
bytes, or for the sweep the report's depths, losses and stderrs as CSV.
"""

import contextlib
import inspect
import io
import json

import pytest

import infoloss
from infoloss import cli, report
from infoloss.cli import main as cli_main

OPTS = ("--n", "40000", "--seed", "3")
NODES = ("--nodes", "64")  # loss and report only
PRESETS = ["ex1_fold_square", "ex6_m1", "ex3_exp_sawtooth"]
METHODS = ["eq5_mc", "eq5_quadrature", "corollary1", "branch_posterior"]


def _run(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue()


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.fixture(scope="module")
def reports():
    cache = {}

    def get(name: str) -> dict:
        if name not in cache:
            cache[name] = json.loads(_run("report", name, *OPTS, *NODES))
        return cache[name]
    return get


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", PRESETS)
def test_loss_prints_the_reports_loss_section(reports, name, method):
    assert _run("loss", name, "--method", method, *OPTS, *NODES) == _json(
        reports(name)["loss"][method])


@pytest.mark.parametrize("name", PRESETS)
def test_bounds_prints_the_reports_bounds_section(reports, name):
    assert _run("bounds", name, *OPTS) == _json(reports(name)["bounds"])


def _sweep_csv(sweep: dict) -> str:
    rows = zip(sweep["depths"], sweep["losses_bits"], sweep["stderrs_bits"])
    want = ["depth,loss_bits,stderr_bits",
            *(f"{depth},{lb!r},{se!r}" for depth, lb, se in rows)]
    return "\n".join(want) + "\n"


@pytest.mark.parametrize("name", PRESETS)
def test_sweep_prints_the_reports_sweep_section_as_csv(reports, name):
    assert _run("sweep", name, *OPTS) == _sweep_csv(reports(name)["sweep"])


def test_sweep_above_the_reports_sample_cap_prints_its_section():
    # the report's sweep reads at most _REPORT_SWEEP_CAP samples of a
    # larger --n, and so does sweep
    opts = ("--n", str(report._REPORT_SWEEP_CAP + 100_000), "--seed", "5",
            "--depths", "2,6")
    sweep = json.loads(_run("report", "ex6_m1", *opts, *NODES))["sweep"]
    assert sweep["n_samples"] == report._REPORT_SWEEP_CAP
    assert _run("sweep", "ex6_m1", *opts) == _sweep_csv(sweep)


@pytest.mark.parametrize("command", ["bounds", "sweep"])  # loss: test_config_cli
def test_bounds_and_sweep_refuse_an_infinite_loss_with_exit_3(command, capsys):
    assert cli_main([command, "quantizer_uniform", "--n", "2000"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "Infinite" in out.err


def _at(obj, key: str):
    for part in key.split("."):
        obj = obj[int(part)] if isinstance(obj, list) else obj[part]
    return obj


def _leaves(obj) -> int:
    if isinstance(obj, dict):
        return sum(map(_leaves, obj.values()))
    if isinstance(obj, list):
        return sum(map(_leaves, obj))
    return 1


def test_report_csv_is_one_sorted_dotted_key_per_leaf(reports):
    name = "ex1_fold_square"
    rep = reports(name)
    lines = _run("report", name, *OPTS, *NODES, "--out", "csv").splitlines()
    assert lines[0] == "key,value"
    rows = [line.split(",", 1) for line in lines[1:]]
    keys = [key for key, _ in rows]
    # dict keys in sorted order, list items in index order, at every level
    assert keys == sorted(keys, key=lambda k: [
        (0, int(s), "") if s.isdigit() else (1, 0, s) for s in k.split(".")])
    assert len(rows) == _leaves(rep)
    for key, text in rows:
        value = _at(rep, key)
        assert text == (repr(value) if isinstance(value, str) else str(value))
    row = dict(rows)
    assert row["name"] == "'ex1_fold_square'"
    assert row["loss.eq5_mc.loss_bits"] == repr(
        rep["loss"]["eq5_mc"]["loss_bits"])
    assert row["classification.verdict"] == "'Finite'"


def test_build_report_is_the_librarys_and_takes_no_timing():
    assert cli.build_report is report.build_report is infoloss.build_report
    assert "timing" not in inspect.signature(report.build_report).parameters
