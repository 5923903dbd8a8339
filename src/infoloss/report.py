"""The full analysis report of one model, ``build_report``: the paper's
results side by side in one document.  It carries no wall time, so for
a fixed seed its JSON, printed with sorted keys, is the same bytes at
every worker count."""

from __future__ import annotations

from . import loss as loss_mod
from .classify import atom_scan, classify
from .config import ModelSetup
from .model import validate

__all__ = ["build_report"]

_CLASSIFY_CAP = 200_000      # samples classify and atom_scan read at most
_REPORT_SWEEP_CAP = 200_000  # samples the report's sweep reads at most


def build_report(setup: ModelSetup, n: int, seed: int, nodes: int,
                 depths, workers: int) -> dict:
    """Validation, the verdict with its atoms, then (finite maps only) all
    loss routes, the bounds with H(W) and the partition sweep.  The
    Monte-Carlo estimators share one pass over the sample stream."""
    m, d, a = setup.pmap, setup.density, setup.analysis
    warnings: list[str] = []
    vrep = validate(m, d, seed=seed)
    if not vrep.ok:
        warnings.extend(vrep.failures)
    n_classify = min(n, _CLASSIFY_CAP)
    cls = classify(m, d, n_classify, seed)
    atoms = atom_scan(m, d, n_classify, seed, classification=cls)
    out = {
        "name": setup.name,
        "model_digest": setup.digest,
        "analysis": {"n": n, "seed": seed, "nodes_per_dim": nodes,
                     "depths": list(depths), "k_max": a.k_max, "tol": a.tol},
        "validation": vrep.to_dict(),
        "classification": cls.to_dict(),
        "atoms": [{"y": list(y), "mass": mass} for y, mass in atoms],
        "loss": None,
        "bounds": None,
        "sweep": None,
    }
    if cls.verdict == "Infinite":
        warnings.append("loss is infinite; finite estimators were skipped")
    else:
        est = loss_mod.estimate(
            m, d, n, seed, loss_mod.ESTIMATORS, depths=depths,
            sweep_n=min(n, _REPORT_SWEEP_CAP), tol=a.tol, k_max=a.k_max,
            workers=workers, classification=cls)
        losses = {"eq5_mc": est["eq5_mc"].to_dict()}
        if est["eq5_mc"].truncated:
            warnings.append("family enumeration truncated in eq5_mc")
        if m.dim <= 2:
            losses["eq5_quadrature"] = loss_mod.loss_eq5_quadrature(
                m, d, nodes, tol=a.tol, k_max=a.k_max,
                classification=cls, seed=seed).to_dict()
        else:
            warnings.append("quadrature skipped: dimension exceeds 2")
        losses["corollary1"] = est["corollary1"].to_dict()
        losses["branch_posterior"] = est["branch_posterior"].to_dict()
        out["loss"] = losses
        out["bounds"] = est["bounds"].to_dict()
        out["sweep"] = est["sweep"].to_dict()
    out["warnings"] = warnings
    return out
