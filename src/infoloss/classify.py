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
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import InputDensity, PiecewiseMap
from .transform import DEFAULT_TOL

__all__ = ["Classification", "classify", "atom_scan"]


@dataclass(frozen=True)
class Classification:
    verdict: str                 # Finite | Infinite | Unknown
    reason: str                  # none | discrete_atom | rank_deficient_mass | mixed_limiter
    evidence: tuple[dict, ...]   # per non-bijective part: name, kind, mass, stderr
    # the output atoms (point, mass) of the sample the verdict was read
    # from, which ``atom_scan`` returns; not part of the verdict
    atoms: tuple[tuple[tuple[float, ...], float], ...] = field(
        default=(), compare=False, repr=False)

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["atoms"]
        return out


def _part_masses(m: PiecewiseMap, d: InputDensity, n: int, seed: int):
    """(part, mass, stderr) per part from one sample of n points, and the
    output atoms of that sample: per positive-mass constant_point part,
    the output of its first sampled row with the part's mass, points
    within ``DEFAULT_TOL`` clustered, sorted by point."""
    x = d.sample(n, seed)
    masses, atoms = [], []
    for i, (p, (mask, k)) in enumerate(zip(m.parts, m.membership_masks(x))):
        cnt = int(np.count_nonzero(mask))
        mass = cnt / n
        stderr = math.sqrt(max(mass * (1 - mass), 0.0) / n)
        masses.append((p, mass, stderr))
        if p.kind != "constant_point" or mass == 0.0:
            continue
        r = int(np.argmax(mask))
        y_star = m.forward_batch(x[r:r + 1], np.array([i]), k[r:r + 1])[0]
        for j, (y0, m0) in enumerate(atoms):
            if np.max(np.abs(y0 - y_star)) <= DEFAULT_TOL * (1.0 + np.max(np.abs(y0))):
                atoms[j] = (y0, m0 + mass)
                break
        else:
            atoms.append((y_star, mass))
    out = [(tuple(float(v) for v in y), float(mass)) for y, mass in atoms]
    out.sort(key=lambda item: item[0])
    return masses, tuple(out)


def classify(m: PiecewiseMap, d: InputDensity, n: int = 100_000,
             seed: int = 0) -> Classification:
    """Estimate the probability mass of every non-bijective part and decide.

    Any non-bijective part with mass clearly above sampling noise forces
    the Infinite verdict; all masses clearly at zero give Finite; the
    (practically unreachable) borderline gives Unknown.  The output
    atoms of the same sample come with the verdict.
    """
    masses, atoms = _part_masses(m, d, n, seed)
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

    verdict, reason = "Unknown" if borderline else "Finite", "none"
    if infinite_kinds:
        verdict = "Infinite"
        if bijective_mass > 0.0:
            reason = "mixed_limiter"
        elif "constant_point" in infinite_kinds:
            reason = "discrete_atom"
        else:
            reason = "rank_deficient_mass"
    return Classification(verdict, reason, tuple(evidence), atoms)


def atom_scan(m: PiecewiseMap, d: InputDensity, n: int = 100_000,
              seed: int = 0,
              classification: Classification | None = None
              ) -> list[tuple[tuple[float, ...], float]]:
    """Output atoms: the constant output point of every positive-mass
    constant_point part, with its estimated probability mass.  Parts
    mapping to the same point (within ``DEFAULT_TOL``) are clustered.

    These are the atoms of ``classification``, the ``classify(m, d, n,
    seed)`` result, when it is given; else of ``classify(m, d, n,
    seed)``."""
    if classification is None:
        classification = classify(m, d, n, seed)
    return list(classification.atoms)
