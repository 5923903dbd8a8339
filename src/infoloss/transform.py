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

The table is written once: its arrays are allocated at their capacity
(one slot per branch, plus ``k_max`` or the member range, whichever is
smaller, per family), each part writes its slots, or a family its
member blocks, straight into the next free rows, and the table's fields
are views of the rows written.  After the build only the duplicate
merge writes to them.

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
from .numerics import column_tiles, row_all, row_max

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

    Slots enumerate bijective branches plus enumerated family members;
    ``part_of_slot`` and ``k_of_slot`` name each slot's part and family
    member (0 for a branch).  ``weight`` is f_X/|det J| (zero where
    invalid), ``f_y`` the summed output density, and ``truncated`` marks
    rows whose family enumeration was cut short.
    The slot arrays are leading ``[:S]`` views of buffers allocated at
    the table's capacity; after ``build_candidates`` has written the
    slots, only its duplicate merge writes to them.
    """

    x: np.ndarray          # (S, m, N)
    valid: np.ndarray      # (S, m) bool
    weight: np.ndarray     # (S, m)
    jac: np.ndarray        # (S, m)
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
                   y: np.ndarray, ks: Optional[np.ndarray], y_tol: np.ndarray,
                   out: tuple[np.ndarray, ...]) -> np.ndarray:
    """Evaluate one part at the query rows ``y`` and write the candidate,
    validity, density and Jacobian into ``out`` = (x, valid, weight, jac),
    table rows of shape (n, N), (n,), (n,), (n,): one slot for a branch
    (``ks`` None), one per member of the family block ``ks``, member-major
    with ``k`` bound per row.  Returns the singular-Jacobian mask; the
    caller raises for the singular rows of the slots it keeps."""
    p = m.parts[part_index]
    xc, valid, weight, jac = out
    rows, n = y.shape[0], xc.shape[0]
    yb = y if n == rows else np.tile(y, (n // rows, 1))
    binding = {f"y{dd + 1}": yb[:, dd] for dd in range(m.dim)}
    karr = kb = None
    if ks is None:
        region = p.region
    else:
        karr = np.repeat(ks.astype(float), rows)
        # one member binds k to its inverse and region as a number: the
        # same values, without an array pass per operation on k
        kb = karr if ks.size > 1 else float(ks[0])
        binding["k"] = kb
        region = p.member_region(kb)
    for dd, inv in enumerate(p.inverse):
        xc[:, dd] = eval_array(inv, binding)
    finite = row_all(np.isfinite(xc))
    np.copyto(xc, 0.0, where=~finite[:, None])

    in_region = region.contains_batch(xc)
    fx = d.pdf_batch(xc)

    xbind = {f"x{dd + 1}": xc[:, dd] for dd in range(m.dim)}
    if karr is not None:
        xbind["k"] = karr
    # a singular row's weight may divide by zero: it is never kept
    with np.errstate(invalid="ignore", divide="ignore"):
        # the map-back test |g(x) - y| <= tol (1 + |y|) in the max norm,
        # folded over the output coordinates as ``row_max`` folds them
        for dd, fe in enumerate(p.forward):
            y_back = np.broadcast_to(eval_array(fe, xbind), (n,))
            dev_dd = np.abs(y_back - yb[:, dd])
            if dd == 0:
                dev, back_finite = dev_dd, np.isfinite(y_back)
            else:
                np.maximum(dev, dev_dd, out=dev)
                back_finite &= np.isfinite(y_back)

        np.logical_and(finite, in_region, out=valid)
        valid &= fx > 0.0
        valid &= dev <= (y_tol if n == rows else np.tile(y_tol, n // rows))
        valid &= back_finite
        jac[:] = m.part_jac(part_index, xc, karr)
        bad = valid & ~(jac > JAC_SINGULAR_TOL)
        invalid = ~valid
        np.copyto(jac, 1.0, where=invalid)
        np.divide(fx, jac, out=weight)
        np.copyto(weight, 0.0, where=invalid)
    return bad


def _family_slots(m: PiecewiseMap, d: InputDensity, part_index: int,
                  y: np.ndarray, y_tol: np.ndarray, k_max: int,
                  table: tuple[np.ndarray, ...], pos: int) -> tuple[int, bool]:
    """Write members k_lo, k_lo + 1, ... of one family into the rows
    ``pos``, ``pos + 1``, ... of ``table`` = (x, valid, weight, jac).
    Returns how many members are kept and whether the enumeration
    stopped before the member range ended.  Members are evaluated in
    blocks of ``_MEMBER_BLOCK // rows``; the stop rule then walks the
    block one member at a time, and the rows of the members after the
    stop are left for the next part to overwrite."""
    p = m.parts[part_index]
    x, valid, weight, jac = table
    rows = y.shape[0]
    block = max(1, _MEMBER_BLOCK // rows)
    running = np.zeros(rows)
    any_valid_seen = False
    small_streak = 0
    k = p.k_lo
    kept = 0
    while p.k_hi is None or k <= p.k_hi:
        count = min(block, k_max - kept)
        if p.k_hi is not None:
            count = min(count, p.k_hi - k + 1)
        if count <= 0:
            return kept, True  # k_max reached: member k was not examined
        s0 = pos + kept
        blk = slice(s0, s0 + count)
        bad = _slot_for_part(
            m, d, part_index, y, np.arange(k, k + count), y_tol,
            (x[blk].reshape(-1, m.dim), valid[blk].reshape(-1),
             weight[blk].reshape(-1), jac[blk].reshape(-1)))
        for j in range(count):
            s = s0 + j
            _check_jacobian(x[s], jac[s], bad[j * rows:(j + 1) * rows])
            kept += 1
            running += weight[s]
            if np.any(valid[s]):
                any_valid_seen = True
            if any_valid_seen:
                tiny = np.all(
                    weight[s] <= _TAIL_REL * np.maximum(running, 1e-300))
                small_streak = small_streak + 1 if tiny else 0
                if small_streak >= 2:
                    return kept, p.k_hi is None or k + j < p.k_hi
        k += count
    return kept, False


def _slot_capacity(m: PiecewiseMap, k_max: int) -> int:
    """Table rows the build may write: one per branch, and per family
    ``k_max`` or its member range, whichever is smaller."""
    cap = 0
    for p in m.parts:
        if p.kind != "bijective":
            continue
        if isinstance(p, Branch):
            cap += 1
        else:
            span = k_max if p.k_hi is None else min(k_max, p.k_hi - p.k_lo + 1)
            cap += max(span, 0)
    return cap


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
    y_tol = tol * (1.0 + row_max(np.abs(y)))  # map-back tolerance per row
    cap = _slot_capacity(m, k_max)
    x = np.empty((cap, rows, m.dim))
    valid = np.empty((cap, rows), dtype=bool)
    weight = np.empty((cap, rows))
    jac = np.empty((cap, rows))
    slot_part: list[int] = []  # part index per slot
    slot_k: list[int] = []     # family member per slot, 0 for a branch
    truncated = np.zeros(rows, dtype=bool)

    for i, p in enumerate(m.parts):
        if p.kind != "bijective":
            continue
        S = len(slot_part)
        if isinstance(p, Branch):
            bad = _slot_for_part(m, d, i, y, None, y_tol,
                                 (x[S], valid[S], weight[S], jac[S]))
            _check_jacobian(x[S], jac[S], bad)
            slot_part.append(i)
            slot_k.append(0)
            continue
        kept, cut = _family_slots(m, d, i, y, y_tol, k_max,
                                  (x, valid, weight, jac), S)
        slot_part += [i] * kept
        slot_k += range(p.k_lo, p.k_lo + kept)
        if cut:
            truncated |= True
    S = len(slot_part)
    x, valid, weight, jac = x[:S], valid[:S], weight[:S], jac[:S]

    # merge duplicates produced by different parts (shared boundaries);
    # members of one family are disjoint by the model invariant
    for a in range(S):
        for b in range(a + 1, S):
            if slot_part[a] == slot_part[b]:
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
        part_of_slot=np.asarray(slot_part, dtype=np.int64),
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
    The table is walked in the column tiles of ``column_tiles`` through
    two reused buffers; per row the slots' terms are summed one at a
    time, as over the full width.
    """
    weight, f_y = table.weight, table.f_y
    slots, rows = weight.shape
    tiles = column_tiles(rows)
    h = np.empty(rows)
    size = slots * max((c.stop - c.start for c in tiles), default=0)
    p_buf, term_buf = np.empty(size), np.empty(size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for cols in tiles:
            shape = (slots, cols.stop - cols.start)
            p = p_buf[:shape[0] * shape[1]].reshape(shape)
            term = term_buf[:p.size].reshape(shape)
            np.divide(weight[:, cols], np.maximum(f_y[cols], 1e-300), out=p)
            # p * log2 p, 0 where p is not positive
            np.log2(np.maximum(p, 1e-300, out=term), out=term)
            np.multiply(p, term, out=term)
            np.copyto(term, 0.0, where=~(p > 0.0))
            h[cols] = -term.sum(axis=0)
    return h
