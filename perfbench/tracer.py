"""Outside-in layer tracer for the repository benchmark.

For the length of a ``with`` block the tracer replaces public functions
and methods of the ``infoloss`` modules by wrappers.  Each outermost
call of a wrapped function records one span ``[name, start_ns, end_ns,
parent]``; a few wrappers also add counters computed from the call's
arguments and result.  Leaving the block puts every original object
back.  Nothing inside the program changes, so the traced numbers are
the numbers of the untraced program plus the wrappers' own cost.

A name bound with ``from .x import y`` is a separate attribute of every
importing module, so a patched function is rebound in every loaded
``infoloss`` module (the package namespace included) whose attribute is
the original object.  Methods are patched on their class.

Spans are kept in memory; the caller writes them out when the run ends.
Parents come from a per-thread stack, so spans are exact for the
single-threaded (``workers=1``) runs the benchmark traces.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from collections import defaultdict

import numpy as np

# span name -> "module:attribute" of the wrapped object
SPANS = {
    "numerics.tensor_quadrature": "infoloss.numerics:tensor_quadrature",
    "model.sample": "infoloss.model:InputDensity.sample_with_rate",
    "model.pdf_batch": "infoloss.model:InputDensity.pdf_batch",
    "model.dispatch_batch": "infoloss.model:PiecewiseMap.dispatch_batch",
    "model.forward_batch": "infoloss.model:PiecewiseMap.forward_batch",
    "model.jac_batch": "infoloss.model:PiecewiseMap.jac_batch",
    "model.part_jac": "infoloss.model:PiecewiseMap.part_jac",
    "model.validate": "infoloss.model:validate",
    "model.forward_eval": "infoloss.model:forward_eval",
    "model.jac_abs_det_at": "infoloss.model:jac_abs_det_at",
    "exprlang.eval_array": "infoloss.exprlang:eval_array",
    "exprlang.evaluate": "infoloss.exprlang:evaluate",
    "geometry.contains_batch": "infoloss.geometry:Region.contains_batch",
    "geometry.contains": "infoloss.geometry:Region.contains",
    "transform.build_candidates": "infoloss.transform:build_candidates",
    "transform.posterior_entropy": "infoloss.transform:posterior_entropy_bits",
    "loss.eq5_mc": "infoloss.loss:loss_eq5_mc",
    "loss.eq5_quadrature": "infoloss.loss:loss_eq5_quadrature",
    "loss.corollary1": "infoloss.loss:loss_corollary1",
    "loss.branch_posterior": "infoloss.loss:loss_branch_posterior",
    "loss.partition_sweep": "infoloss.loss:partition_sweep",
    "bounds.bounds_report": "infoloss.bounds:bounds_report",
    "classify.classify": "infoloss.classify:classify",
    "classify.atom_scan": "infoloss.classify:atom_scan",
    "config.load_config_file": "infoloss.config:load_config_file",
    "cli.build_report": "infoloss.cli:build_report",
}

# Counted but not timed: a span here would take the chunk work away
# from the self time of the estimator that drives the pass.
COUNT_ONLY = {
    "numerics.run_chunks": "infoloss.numerics:run_chunks",
}

# counters that are pure functions of the seed and the program's work;
# two traced runs with one seed must give them identical values
REPEATABLE = (
    "numerics.chunk_passes",
    "numerics.chunks",
    "transform.slot_rows",
    "transform.valid_slots",
    "transform.truncated_rows",
    "numerics.quad_points",
    "exprlang.eval_array_calls",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _count_run_chunks(c, args, kwargs, result):
    c["numerics.chunk_passes"] += 1
    c["numerics.chunks"] += len(_arg(args, kwargs, 1, "plan"))


def _count_quadrature(c, args, kwargs, result):
    box = _arg(args, kwargs, 0, "box")
    c["numerics.quad_points"] += int(_arg(args, kwargs, 2, "nodes_per_dim")) ** len(box.lo)


def _count_sample(c, args, kwargs, result):
    x, rate = result
    c["model.sample_rows"] += x.shape[0]
    c["model.sample_proposed"] += x.shape[0] / rate


def _counter_of_rows(key):
    def count(c, args, kwargs, result):
        c[key] += _rows(args[1] if len(args) > 1 else kwargs["x"])
    return count


def _count_candidates(c, args, kwargs, result):
    from infoloss.model import BranchFamily

    m, t = args[0] if args else kwargs["m"], result
    c["transform.candidate_rows"] += t.f_y.size
    c["transform.slot_rows"] += t.valid.size
    c["transform.valid_slots"] += int(np.count_nonzero(t.valid))
    c["transform.truncated_rows"] += int(np.count_nonzero(t.truncated))
    c["transform.family_slots"] += sum(
        isinstance(m.parts[i], BranchFamily) for i in t.part_of_slot.tolist())
    nbytes = sum(a.nbytes for a in (t.x, t.valid, t.weight, t.jac, t.f_y,
                                    t.truncated))
    c["transform.table_mb_computed"] = max(c["transform.table_mb_computed"],
                                           nbytes / 2**20)


COUNTERS = {
    "numerics.run_chunks": _count_run_chunks,
    "numerics.tensor_quadrature": _count_quadrature,
    "model.sample": _count_sample,
    "model.dispatch_batch": _counter_of_rows("model.dispatch_rows"),
    "model.pdf_batch": _counter_of_rows("model.pdf_rows"),
    "geometry.contains_batch": _counter_of_rows("geometry.contains_rows"),
    "transform.build_candidates": _count_candidates,
}


def _resolve(target: str):
    """(owner, attribute, original) for "module:attr" or "module:Class.attr"."""
    modname, _, qual = target.partition(":")
    owner = importlib.import_module(modname)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Spans and counters of the calls into ``infoloss`` made inside
    ``with tracer:``.  The block may be entered any number of times;
    spans and counters accumulate."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack, st.active = [], set()
        return st

    def _open(self, name: str):
        st = self._state()
        rec = [name, 0, 0, st.stack[-1] if st.stack else -1]
        st.stack.append(len(self.spans))
        st.active.add(name)
        self.spans.append(rec)
        rec[1] = self.clock()
        return rec

    def _close(self, rec) -> None:
        rec[2] = self.clock()
        st = self._state()
        st.stack.pop()
        st.active.discard(rec[0])

    def wrap(self, name: str, fn, count=None, timed: bool = True):
        """``fn`` recording a span per outermost call (when ``timed``)
        and passing ``(counters, args, kwargs, result)`` to ``count``.
        Calls made while ``fn`` is already running in this thread, such
        as the recursion of the scalar evaluator, pass straight through.
        """
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not timed:
                result = fn(*args, **kwargs)
            elif name in self._state().active:
                return fn(*args, **kwargs)
            else:
                rec = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(rec)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        targets = [(n, t, True) for n, t in SPANS.items()]
        targets += [(n, t, False) for n, t in COUNT_ONLY.items()]
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "infoloss" or key.startswith("infoloss.")]
        try:
            for name, target, timed in targets:
                owner, attr, orig = _resolve(target)
                wrapped = self.wrap(name, orig, COUNTERS.get(name), timed)
                owners = [owner]
                if isinstance(owner, types.ModuleType):
                    owners += [m for m in modules if m is not owner
                               and m.__dict__.get(attr) is orig]
                for o in owners:
                    self._saved.append((o, attr, orig))
                    setattr(o, attr, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- reduction ---------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the part of it child spans cover."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0, start
            for cs, ce in sorted(children.get(i, ())):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out.append(end - start - covered)
        return out

    def totals(self):
        """(inclusive ns, self ns, calls) per span name."""
        incl, excl, calls = defaultdict(int), defaultdict(int), defaultdict(int)
        for (name, start, end, _), own in zip(self.spans, self.self_ns()):
            incl[name] += end - start
            excl[name] += own
            calls[name] += 1
        return incl, excl, calls

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters: the
        inclusive time ``<span>_s`` of every span name, and the counts,
        ratios and self times that ``BENCHMARK.json`` names."""
        incl, excl, calls = self.totals()
        c = self.counters
        out = {f"{name}_s": incl[name] / 1e9 for name in SPANS}
        out.update({
            "numerics.chunk_passes": c["numerics.chunk_passes"],
            "numerics.chunks": c["numerics.chunks"],
            "numerics.quad_points": c["numerics.quad_points"],
            "model.sample_rows": c["model.sample_rows"],
            "model.sampler_acceptance":
                c["model.sample_rows"] / c["model.sample_proposed"]
                if c["model.sample_proposed"] else 0.0,
            "model.dispatch_rows": c["model.dispatch_rows"],
            "model.pdf_rows": c["model.pdf_rows"],
            "model.scalar_s": out["model.forward_eval_s"] + out["model.jac_abs_det_at_s"],
            "exprlang.eval_array_calls": calls["exprlang.eval_array"],
            "exprlang.evaluate_calls": calls["exprlang.evaluate"],
            "geometry.contains_rows": c["geometry.contains_rows"],
            "geometry.contains_calls": calls["geometry.contains"],
            "transform.candidate_rows": c["transform.candidate_rows"],
            "transform.slot_rows": c["transform.slot_rows"],
            "transform.valid_slots": c["transform.valid_slots"],
            "transform.candidate_yield":
                c["transform.valid_slots"] / c["transform.slot_rows"]
                if c["transform.slot_rows"] else 0.0,
            "transform.family_slots": c["transform.family_slots"],
            "transform.truncated_rows": c["transform.truncated_rows"],
            "transform.table_mb_computed": c["transform.table_mb_computed"],
            "transform.build_candidates_self_s":
                excl["transform.build_candidates"] / 1e9,
            "loss.partition_sweep_self_s": excl["loss.partition_sweep"] / 1e9,
            "bounds.bounds_report_self_s": excl["bounds.bounds_report"] / 1e9,
            "trace.overhead_frac": overhead_frac,
        })
        return {key: float(value) for key, value in out.items()}
