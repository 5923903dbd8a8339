"""The benchmark's definition.

Workload and metric names, units and bounds live in ``BENCHMARK.json``
at the repository root; this module reads them from there and adds the
one thing the file does not say: the shipped preset each workload runs.
It imports nothing heavy, so the parent process of a run stays small.
"""

from __future__ import annotations

import json
from pathlib import Path

_DOC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))

WORKLOADS = [w["name"] for w in _DOC["workloads"]]
# metric -> unit; end-to-end metrics are measured with tracing off,
# per-layer metrics come from the traced run at workers 1
END_TO_END = {m["name"]: m["unit"] for m in _DOC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DOC["per_layer"]}

# workload -> the preset every call of the workload uses.  Each workload
# interleaves report calls on its preset with a stream of single-point
# calls on the same preset, so every workload emits every end-to-end
# metric and per-call overhead is measured on a fold and on a family.
PRESETS = {
    # 2-D, three plain branches, rejection-sampled region density:
    # per-chunk pipeline, duplicate merge and 512^2 quadrature dominate
    "report_fold3": "ex6_m1",
    # 1-D countable family, 30 member slots per row: family enumeration
    # and the partition sweep dominate
    "report_sawtooth": "ex3_exp_sawtooth",
}
