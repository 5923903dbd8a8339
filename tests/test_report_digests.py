"""The report digest gate, ``scripts/report_digests.py``.

The script is loaded from its file, and ``main`` runs in process with
the per-preset report replaced by fixed digests, so no report and no
subprocess runs here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT_PATH = (Path(__file__).resolve().parents[1] / "scripts"
               / "report_digests.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPT_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


digests = _load_script()


def test_mask_stderrs_on_nested_dicts_lists_and_bools():
    doc = {
        "loss": {"eq5_mc": {"loss_bits": 1.5, "stderr_bits": 0.01,
                            "truncated": False, "n_samples": 10}},
        "sweep": {"losses_bits": [1.0, 2.0], "stderrs_bits": [0.1, 0.2]},
        "bounds": {"stderrs": {"e_log_card": 0.3, "flags": [True, 2, "x"],
                               "rows": [{"se": 0.5}]}},
        "h_Y_stderr": 7,
        "ok": True,
    }
    assert digests.mask_stderrs(doc) == {
        "loss": {"eq5_mc": {"loss_bits": 1.5, "stderr_bits": None,
                            "truncated": False, "n_samples": 10}},
        "sweep": {"losses_bits": [1.0, 2.0], "stderrs_bits": [None, None]},
        "bounds": {"stderrs": {"e_log_card": None, "flags": [True, None, "x"],
                               "rows": [{"se": None}]}},
        "h_Y_stderr": None,
        "ok": True,
    }
    assert doc["h_Y_stderr"] == 7  # the input is left as it was


def _line(name: str) -> str:
    # the line main prints: digests at workers 1 and 2, then masked ones
    return f"{name} {name}-full {name}-full {name}-masked {name}-masked"


@pytest.fixture
def gate(monkeypatch, tmp_path, capsys):
    """Run ``main(["--expect", FILE])`` on presets a and b against a
    recorded table; returns (exit status, stdout, stderr)."""
    monkeypatch.setattr(digests, "presets", lambda: ["a", "b"])
    monkeypatch.setattr(digests, "digest", lambda name, n, seed, workers:
                        (f"{name}-full", f"{name}-masked"))

    def run(table: list[str]):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"report_digests": {"change": table}}))
        status = digests.main(["--expect", str(path)])
        out, err = capsys.readouterr()
        return status, out, err

    return run


def test_gate_passes_an_equal_table(gate):
    status, out, err = gate([_line("a"), _line("b")])
    assert status == 0
    assert out.splitlines() == [_line("a"), _line("b")]
    assert err == ""


def test_gate_names_a_changed_line(gate):
    status, _, err = gate([_line("a"), _line("b").replace("b-masked", "b-other", 1)])
    assert status == 1
    assert "b" in err.split() and "a" not in err.split()


@pytest.mark.parametrize("table, missing", [
    ([_line("a")], "b"),                           # printed, not recorded
    ([_line("a"), _line("b"), _line("c")], "c"),   # recorded, not printed
])
def test_gate_names_a_preset_only_one_side_has(gate, table, missing):
    status, _, err = gate(table)
    assert status == 1
    assert missing in err.split() and "a" not in err.split()
