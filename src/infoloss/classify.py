"""Finite / Infinite information-loss classification.

A map loses an infinite amount of information as soon as a positive-mass
set of outputs has uncountable preimages.  Two constructive causes are
detected structurally from the declared (and numerically cross-checked)
part kinds:

* ``constant_point`` parts of positive mass put a probability atom on
  their output point (discrete output component);
* ``rank_deficient`` parts of positive mass collapse dimensions
  (singular continuous output component).

Zero-mass collapsing parts (a circle mapped to one point, say) do not
trigger the verdict: they cannot carry probability to the output.
Detection is a property of the model, not of any finite sample, so no
attempt is made to detect divergence numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InputDensity, PiecewiseMap

__all__ = ["Classification", "classify", "atom_scan"]


@dataclass(frozen=True)
class Classification:
    verdict: str                 # Finite | Infinite | Unknown
    reason: str                  # none | discrete_atom | rank_deficient_mass | mixed_limiter
    evidence: tuple[dict, ...]   # per non-bijective part: name, kind, mass, stderr

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason,
                "evidence": list(self.evidence)}


def _part_masses(m: PiecewiseMap, d: InputDensity, n: int, seed: int):
    """(part, mass, stderr) per part, from one sample of n points, and the
    sample rows (x, k) of every positive-mass constant_point part."""
    x = d.sample(n, seed)
    masses, atom_rows = [], {}
    for i, (p, (mask, k)) in enumerate(zip(m.parts, m.membership_masks(x))):
        cnt = int(np.count_nonzero(mask))
        mass = cnt / n
        stderr = math.sqrt(max(mass * (1 - mass), 0.0) / n)
        masses.append((p, mass, stderr))
        if p.kind == "constant_point" and mass != 0.0:
            atom_rows[i] = (x[mask], k[mask])
    return masses, atom_rows


# The sample summary of the last ``classify`` call, handed to the next
# ``atom_scan`` call if that asks for the same (m, d, n, seed), as the
# report and the classify command do: the two then read one sample.
# It is taken at most once, so it never replaces a later draw; a miss
# draws the same sample again, so the hand-off changes no result.
_handoff = None


def classify(m: PiecewiseMap, d: InputDensity, n: int = 100_000,
             seed: int = 0) -> Classification:
    """Estimate the probability mass of every non-bijective part and decide.

    Any non-bijective part with mass clearly above sampling noise forces
    the Infinite verdict; all masses clearly at zero give Finite; the
    (practically unreachable) borderline gives Unknown.
    """
    global _handoff
    masses, atom_rows = _part_masses(m, d, n, seed)
    _handoff = (m, d, n, seed, masses, atom_rows)
    evidence = []
    infinite_kinds = []
    borderline = False
    bijective_mass = 0.0
    for p, mass, stderr in masses:
        if p.kind == "bijective":
            bijective_mass += mass
            continue
        evidence.append({"part": p.name, "kind": p.kind,
                         "mass": mass, "stderr": stderr})
        if mass > 3 * stderr:
            infinite_kinds.append(p.kind)
        elif not (mass == 0.0 or mass < 3 * stderr):
            borderline = True

    if infinite_kinds:
        if bijective_mass > 0.0:
            reason = "mixed_limiter"
        elif "constant_point" in infinite_kinds:
            reason = "discrete_atom"
        else:
            reason = "rank_deficient_mass"
        return Classification("Infinite", reason, tuple(evidence))
    if borderline:
        return Classification("Unknown", "none", tuple(evidence))
    return Classification("Finite", "none", tuple(evidence))


def atom_scan(m: PiecewiseMap, d: InputDensity, n: int = 100_000,
              seed: int = 0, tol: float = 1e-9) -> list[tuple[tuple[float, ...], float]]:
    """Output atoms: the constant output point of every positive-mass
    constant_point part, with its estimated probability mass.  Parts
    mapping to the same point (within tol) are clustered."""
    global _handoff
    last, _handoff = _handoff, None
    if (last is not None and last[0] is m and last[1] is d
            and last[2:4] == (n, seed)):
        masses, atom_rows = last[4:]
    else:
        masses, atom_rows = _part_masses(m, d, n, seed)
    atoms: list[tuple[np.ndarray, float]] = []
    for i, (xb, kb) in atom_rows.items():
        mass = masses[i][1]
        part_idx = np.full(xb.shape[0], i, dtype=np.int64)
        ys = m.forward_batch(xb, part_idx, kb)
        y_star = ys[0]
        merged = False
        for j, (y0, m0) in enumerate(atoms):
            if np.max(np.abs(y0 - y_star)) <= tol * (1.0 + np.max(np.abs(y0))):
                atoms[j] = (y0, m0 + mass)
                merged = True
                break
        if not merged:
            atoms.append((y_star, mass))
    out = [(tuple(float(v) for v in y), float(mass)) for y, mass in atoms]
    out.sort(key=lambda item: item[0])
    return out
