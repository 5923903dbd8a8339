"""Preimage enumeration, output density, and branch posterior.

For a query point y the candidate preimage under each bijective part is
the branch inverse evaluated at y; a candidate is kept iff it lies in
the part's region, carries positive input density, and maps forward
back to y within tolerance.  The output density is then

    f_Y(y) = sum over kept candidates of  f_X(x_i) / |det J(x_i)|

and the posterior over parts is that sum normalized termwise.
Candidates produced by different parts that coincide (shared region
boundaries) are merged so boundary points are not double counted.

Family parts enumerate members k = k_lo, k_lo+1, ... and stop at
``k_max`` members or once two consecutive members contribute less than
1e-12 of the running density sum everywhere in the batch; stopping an
enumeration that the member range did not exhaust sets the truncation
flag.

Everything here is built on one vectorized candidate table so the Monte
Carlo and quadrature engines share the exact code path of the scalar
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularJacobianError, ZeroDensityError
from .exprlang import eval_array
from .model import (
    DEFAULT_K_MAX,
    JAC_SINGULAR_TOL,
    Branch,
    BranchFamily,
    InputDensity,
    PartRef,
    PiecewiseMap,
)
from .numerics import row_all, row_max

__all__ = [
    "PreimageElement",
    "PreimageSet",
    "BranchPosterior",
    "CandidateTable",
    "build_candidates",
    "preimage",
    "output_density",
    "branch_posterior",
    "posterior_entropy_bits",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-9
_TAIL_REL = 1e-12


@dataclass(frozen=True)
class PreimageElement:
    part: PartRef
    x: tuple[float, ...]
    jac: float
    weight: float  # f_X(x) / jac


@dataclass(frozen=True)
class PreimageSet:
    elements: tuple[PreimageElement, ...]
    truncation_flag: bool


@dataclass(frozen=True)
class BranchPosterior:
    probs: tuple[tuple[str, float], ...]  # (part label, probability)


@dataclass
class CandidateTable:
    """Slot-major candidate arrays for a batch of query points.

    Slots enumerate bijective branches plus enumerated family members.
    ``weight`` is f_X/|det J| (zero where invalid), ``code`` a unique
    integer subdomain id, ``f_y`` the summed output density, and
    ``truncated`` marks rows whose family enumeration was cut short.
    """

    x: np.ndarray          # (S, m, N)
    valid: np.ndarray      # (S, m) bool
    weight: np.ndarray     # (S, m)
    jac: np.ndarray        # (S, m)
    code: np.ndarray       # (S,) int64
    part_of_slot: np.ndarray  # (S,) int64
    k_of_slot: np.ndarray  # (S,) int64
    f_y: np.ndarray        # (m,)
    truncated: np.ndarray  # (m,) bool

    @property
    def cardinality(self) -> np.ndarray:
        return np.count_nonzero(self.valid, axis=0)


def _slot_for_part(m: PiecewiseMap, d: InputDensity, part_index: int,
                   y: np.ndarray, k: Optional[int], tol: float):
    """Candidate, validity, density and Jacobian of one part/member."""
    p = m.parts[part_index]
    rows = y.shape[0]
    binding = {f"y{dd + 1}": y[:, dd] for dd in range(m.dim)}
    if k is not None:
        binding["k"] = float(k)
    xc = np.column_stack([
        np.broadcast_to(eval_array(inv, binding), (rows,))
        for inv in p.inverse]).astype(float)
    finite = row_all(np.isfinite(xc))
    xc = np.where(finite[:, None], xc, 0.0)

    if isinstance(p, BranchFamily):
        in_region = p.member_region(k).contains_batch(xc)
    else:
        in_region = p.region.contains_batch(xc)
    fx = d.pdf_batch(xc)
    karr = np.full(rows, float(k)) if k is not None else None

    xbind = {f"x{dd + 1}": xc[:, dd] for dd in range(m.dim)}
    if karr is not None:
        xbind["k"] = karr
    y_back = np.column_stack([
        np.broadcast_to(eval_array(fe, xbind), (rows,))
        for fe in p.forward])
    with np.errstate(invalid="ignore"):
        maps_back = row_max(np.abs(y_back - y)) <= tol * (
            1.0 + row_max(np.abs(y)))
        maps_back &= row_all(np.isfinite(y_back))

    valid = finite & in_region & (fx > 0.0) & maps_back
    jac = m.part_jac(part_index, xc, karr)
    bad = valid & ~(jac > JAC_SINGULAR_TOL)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SingularJacobianError(xc[i], float(jac[i]))
    jac = np.where(valid, jac, 1.0)
    weight = np.where(valid, fx / jac, 0.0)
    return xc, valid, weight, jac


def build_candidates(m: PiecewiseMap, d: InputDensity, y: np.ndarray,
                     tol: float = DEFAULT_TOL,
                     k_max: int = DEFAULT_K_MAX) -> CandidateTable:
    """Vectorized candidate table for a batch of query points y (m, N).

    Non-bijective parts contribute no countable preimage elements and
    are skipped; they are only legal in loss integrals when they carry
    zero probability mass (the classifier enforces that).
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    rows = y.shape[0]
    xs, valids, weights, jacs = [], [], [], []
    codes, slot_part, slot_k = [], [], []
    truncated = np.zeros(rows, dtype=bool)

    for i, p in enumerate(m.parts):
        if p.kind != "bijective":
            continue
        if isinstance(p, Branch):
            xc, valid, weight, jac = _slot_for_part(m, d, i, y, None, tol)
            xs.append(xc)
            valids.append(valid)
            weights.append(weight)
            jacs.append(jac)
            codes.append(m.part_code(i))
            slot_part.append(i)
            slot_k.append(0)
            continue
        # family: enumerate members with the tail stopping rule
        running = np.zeros(rows)
        any_valid_seen = False
        small_streak = 0
        k = p.k_lo
        members = 0
        more_members = False
        while p.k_hi is None or k <= p.k_hi:
            if members >= k_max:
                more_members = True  # member k itself was not examined
                break
            xc, valid, weight, jac = _slot_for_part(m, d, i, y, k, tol)
            xs.append(xc)
            valids.append(valid)
            weights.append(weight)
            jacs.append(jac)
            codes.append(m.part_code(i, k))
            slot_part.append(i)
            slot_k.append(k)
            running += weight
            members += 1
            if np.any(valid):
                any_valid_seen = True
            if any_valid_seen:
                tiny = np.all(weight <= _TAIL_REL * np.maximum(running, 1e-300))
                small_streak = small_streak + 1 if tiny else 0
                if small_streak >= 2:
                    more_members = p.k_hi is None or k < p.k_hi
                    break
            k += 1
        if more_members:
            truncated |= True

    if not xs:
        # no bijective parts at all (for example a pure quantizer)
        return CandidateTable(
            x=np.zeros((0, rows, m.dim)), valid=np.zeros((0, rows), dtype=bool),
            weight=np.zeros((0, rows)), jac=np.ones((0, rows)),
            code=np.zeros(0, dtype=np.int64),
            part_of_slot=np.zeros(0, dtype=np.int64),
            k_of_slot=np.zeros(0, dtype=np.int64),
            f_y=np.zeros(rows), truncated=truncated)

    x = np.stack(xs)
    valid = np.stack(valids)
    weight = np.stack(weights)
    jac = np.stack(jacs)
    part_arr = np.asarray(slot_part, dtype=np.int64)

    # merge duplicates produced by different parts (shared boundaries);
    # members of one family are disjoint by the model invariant
    S = x.shape[0]
    for a in range(S):
        for b in range(a + 1, S):
            if part_arr[a] == part_arr[b]:
                continue
            both = valid[a] & valid[b]
            if not np.any(both):
                continue
            close = row_max(np.abs(x[a] - x[b])) <= tol * (
                1.0 + row_max(np.abs(x[a])))
            dup = both & close
            valid[b] &= ~dup
            weight[b] = np.where(dup, 0.0, weight[b])

    return CandidateTable(
        x=x, valid=valid, weight=weight, jac=jac,
        code=np.asarray(codes, dtype=np.int64),
        part_of_slot=part_arr,
        k_of_slot=np.asarray(slot_k, dtype=np.int64),
        f_y=weight.sum(axis=0), truncated=truncated)


# --- scalar operations -------------------------------------------------------

def preimage(m: PiecewiseMap, d: InputDensity, y, tol: float = DEFAULT_TOL,
             k_max: int = DEFAULT_K_MAX) -> PreimageSet:
    """All preimage candidates of y that survive the region, support and
    map-back checks.  An empty set is valid: y lies outside the image."""
    if tol <= 0:
        raise ValueError("need tol > 0")
    ya = np.asarray(y, dtype=float).reshape(1, -1)
    t = build_candidates(m, d, ya, tol, k_max)
    elems = []
    for s in range(t.x.shape[0]):
        if not t.valid[s, 0]:
            continue
        i = int(t.part_of_slot[s])
        p = m.parts[i]
        ref = PartRef(i, p.name,
                      int(t.k_of_slot[s]) if isinstance(p, BranchFamily) else None)
        elems.append(PreimageElement(
            part=ref, x=tuple(float(v) for v in t.x[s, 0]),
            jac=float(t.jac[s, 0]), weight=float(t.weight[s, 0])))
    return PreimageSet(tuple(elems), bool(t.truncated[0]))


def output_density(m: PiecewiseMap, d: InputDensity, y,
                   tol: float = DEFAULT_TOL, k_max: int = DEFAULT_K_MAX) -> float:
    """f_Y(y) by summing f_X/|det J| over the preimage; 0 off the image."""
    ya = np.asarray(y, dtype=float).reshape(1, -1)
    return float(build_candidates(m, d, ya, tol, k_max).f_y[0])


def branch_posterior(m: PiecewiseMap, d: InputDensity, y,
                     tol: float = DEFAULT_TOL,
                     k_max: int = DEFAULT_K_MAX) -> BranchPosterior:
    """Posterior probability of each subdomain given the output y."""
    ps = preimage(m, d, y, tol, k_max)
    total = sum(e.weight for e in ps.elements)
    if total <= 0.0:
        raise ZeroDensityError(np.asarray(y, dtype=float))
    return BranchPosterior(tuple(
        (e.part.label(), e.weight / total) for e in ps.elements))


def posterior_entropy_bits(table: CandidateTable) -> np.ndarray:
    """Shannon entropy (bits) of the preimage posterior, per batch row.

    Rows with zero output density get entropy 0 (nothing to condition on).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = table.weight / np.maximum(table.f_y, 1e-300)
        plogp = np.where(p > 0.0, p * np.log2(np.maximum(p, 1e-300)), 0.0)
    return -plogp.sum(axis=0)
