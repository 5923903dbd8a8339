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
flag.  Members are evaluated in blocks of ``_MEMBER_BLOCK // rows``
(at least one, at most what ``k_max`` and the member range leave): the
block's rows are the query rows repeated once per member, with ``k``
bound per row, so a few query points take a whole family in one pass
while a large batch still takes one member at a time.  The stop rule
then walks the block member by member, adding each member's weights to
the running sum in order; the members after the stop are dropped, and
only the members kept are checked for a singular Jacobian, so the table
and the first error raised are those of a one-member-at-a-time walk.

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
_MEMBER_BLOCK = 4096  # family rows (members x query rows) per evaluation


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


def _check_jacobian(xc: np.ndarray, jac: np.ndarray, bad: np.ndarray):
    """Raise for the first row of one slot with a singular Jacobian."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SingularJacobianError(xc[i], float(jac[i]))


def _slot_for_part(m: PiecewiseMap, d: InputDensity, part_index: int,
                   y: np.ndarray, ks: Optional[np.ndarray], tol: float):
    """Candidate, validity, density, Jacobian and singular-Jacobian mask
    of one part as (slots, rows[, N]) arrays: one slot for a branch
    (``ks`` None), one per member of the family block ``ks``.  A block's
    rows are evaluated in one pass, member-major, with ``k`` bound per
    row; the caller raises for singular rows of the slots it keeps."""
    p = m.parts[part_index]
    rows = y.shape[0]
    slots = 1 if ks is None else ks.size
    yb = y if slots == 1 else np.tile(y, (slots, 1))
    n = yb.shape[0]
    binding = {f"y{dd + 1}": yb[:, dd] for dd in range(m.dim)}
    karr = kb = None
    if ks is not None:
        karr = np.repeat(ks.astype(float), rows)
        # one member binds k to its inverse and region as a number: the
        # same values, without an array pass per operation on k
        kb = karr if slots > 1 else float(ks[0])
        binding["k"] = kb
    xc = np.column_stack([
        np.broadcast_to(eval_array(inv, binding), (n,))
        for inv in p.inverse]).astype(float)
    finite = row_all(np.isfinite(xc))
    xc = np.where(finite[:, None], xc, 0.0)

    if ks is None:
        in_region = p.region.contains_batch(xc)
    else:
        in_region = p.member_region(kb).contains_batch(xc)
    fx = d.pdf_batch(xc)

    xbind = {f"x{dd + 1}": xc[:, dd] for dd in range(m.dim)}
    if karr is not None:
        xbind["k"] = karr
    y_back = np.column_stack([
        np.broadcast_to(eval_array(fe, xbind), (n,))
        for fe in p.forward])
    # a singular row's weight may divide by zero: it is never kept
    with np.errstate(invalid="ignore", divide="ignore"):
        maps_back = row_max(np.abs(y_back - yb)) <= tol * (
            1.0 + row_max(np.abs(yb)))
        maps_back &= row_all(np.isfinite(y_back))

        valid = finite & in_region & (fx > 0.0) & maps_back
        jac = m.part_jac(part_index, xc, karr)
        bad = valid & ~(jac > JAC_SINGULAR_TOL)
        jac = np.where(valid, jac, 1.0)
        weight = np.where(valid, fx / jac, 0.0)
    return (xc.reshape(slots, rows, m.dim), valid.reshape(slots, rows),
            weight.reshape(slots, rows), jac.reshape(slots, rows),
            bad.reshape(slots, rows))


def _family_slots(m: PiecewiseMap, d: InputDensity, part_index: int,
                  y: np.ndarray, tol: float, k_max: int):
    """Members k_lo, k_lo + 1, ... of one family as table slots
    (x, valid, weight, jac, part index, k), and whether the enumeration
    stopped before the member range ended.  Members are evaluated in
    blocks of ``_MEMBER_BLOCK // rows``; the stop rule then walks the
    block one member at a time and drops the members after the stop."""
    p = m.parts[part_index]
    rows = y.shape[0]
    block = max(1, _MEMBER_BLOCK // rows)
    slots = []
    running = np.zeros(rows)
    any_valid_seen = False
    small_streak = 0
    k = p.k_lo
    while p.k_hi is None or k <= p.k_hi:
        count = min(block, k_max - len(slots))
        if p.k_hi is not None:
            count = min(count, p.k_hi - k + 1)
        if count <= 0:
            return slots, True  # k_max reached: member k was not examined
        xc, valid, weight, jac, bad = _slot_for_part(
            m, d, part_index, y, np.arange(k, k + count), tol)
        for j in range(count):
            _check_jacobian(xc[j], jac[j], bad[j])
            slots.append((xc[j], valid[j], weight[j], jac[j], part_index,
                          k + j))
            running += weight[j]
            if np.any(valid[j]):
                any_valid_seen = True
            if any_valid_seen:
                tiny = np.all(
                    weight[j] <= _TAIL_REL * np.maximum(running, 1e-300))
                small_streak = small_streak + 1 if tiny else 0
                if small_streak >= 2:
                    return slots, p.k_hi is None or k + j < p.k_hi
        k += count
    return slots, False


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
    slots = []  # (x, valid, weight, jac, part index, k) per slot
    truncated = np.zeros(rows, dtype=bool)

    for i, p in enumerate(m.parts):
        if p.kind != "bijective":
            continue
        if isinstance(p, Branch):
            xc, valid, weight, jac, bad = _slot_for_part(m, d, i, y, None, tol)
            _check_jacobian(xc[0], jac[0], bad[0])
            slots.append((xc[0], valid[0], weight[0], jac[0], i, 0))
            continue
        members, cut = _family_slots(m, d, i, y, tol, k_max)
        slots += members
        if cut:
            truncated |= True

    if not slots:
        # no bijective parts at all (for example a pure quantizer)
        return CandidateTable(
            x=np.zeros((0, rows, m.dim)), valid=np.zeros((0, rows), dtype=bool),
            weight=np.zeros((0, rows)), jac=np.ones((0, rows)),
            code=np.zeros(0, dtype=np.int64),
            part_of_slot=np.zeros(0, dtype=np.int64),
            k_of_slot=np.zeros(0, dtype=np.int64),
            f_y=np.zeros(rows), truncated=truncated)

    xs, valids, weights, jacs, slot_part, slot_k = zip(*slots)
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
        code=np.asarray([m.part_code(i, k) for i, k in zip(slot_part, slot_k)],
                        dtype=np.int64),
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
