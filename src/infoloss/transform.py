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
then runs once per block (``_tail_stop``): the running sums add the
members' weights in member order, by one accumulate down the block when
it has fewer rows than members and by one full-width add per member
otherwise, so every sum has the bytes of a one-member-at-a-time walk;
whether a member is tiny is decided on row 0 first and over all rows
only for the members row 0 does not settle; and the running sum,
whether a valid member was seen and the tiny streak carry from block to
block.  The members after the stop are dropped, and only the members
kept are checked for a singular Jacobian, so the table and the first
error raised are those of a one-member-at-a-time walk.

The table is written once: its arrays are taken at their capacity
(one slot per branch, plus ``k_max`` or the member range, whichever is
smaller, per family) by ``numerics.chunk_buffer``, so inside a chunk
pass each chunk's table reuses the pass's buffers and elsewhere each
build allocates its own; each part writes its slots, or a family its
member blocks, straight into the next free rows, and the table's fields
are views of the rows written.  After the build only the duplicate
merge writes to them.  The candidate points are stored coordinate-major,
an (N, S, m) buffer read through its (S, m, N) transpose, so each
coordinate of a slot, or of a family's member block (whose member-major
reshape stays a view), is one contiguous column.  A slot's weight is
f_X divided by |det J| as ``part_jac`` returns it, and the rows a slot
does not keep are zeroed by one indexed write.  The table keeps that
|det J| per slot: one number where it is constant, else the slot's row
of the values.  Its ``jac`` and ``preimage`` read them, so |det J| is
evaluated once per build.

Everything here is built on one vectorized candidate table so the Monte
Carlo and quadrature engines share the exact code path of the scalar
operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ZeroDensityError
# eval_array stays bound here: the benchmark's layer tracer
# (perfbench/tracer.py) rebinds it in every importing module and its
# tests expect it in this one
from .exprlang import eval_array  # noqa: F401
from .model import (
    DEFAULT_K_MAX,
    Branch,
    BranchFamily,
    InputDensity,
    PartRef,
    PiecewiseMap,
    bind_columns,
    check_jacobian,
)
from .numerics import (
    chunk_buffer,
    column_tiles,
    point_row,
    row_all,
    row_max,
)

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
    The slot arrays are leading ``[:S]`` views of buffers taken at the
    table's capacity; after ``build_candidates`` has written the slots,
    only its duplicate merge writes to them.  A table built inside a
    chunk pass lives as long as its chunk: the pass's next chunk on the
    thread writes its own table into the same buffers.

    ``jac_of_slot`` holds |det J| per slot as the build's ``part_jac``
    call returned it: one float where it is constant over the slot's
    rows, else the slot's row of values (a view of its member block's).
    ``jac``, |det J| per slot and row with 1 where the slot is not valid
    (a row the duplicate merge dropped included), is assembled from it
    on first read.  No estimator reads it.
    """

    x: np.ndarray          # (S, m, N), a view of an (N, S, m) buffer
    valid: np.ndarray      # (S, m) bool
    weight: np.ndarray     # (S, m)
    part_of_slot: np.ndarray  # (S,) int64
    k_of_slot: np.ndarray  # (S,) int64
    f_y: np.ndarray        # (m,)
    truncated: np.ndarray  # (m,) bool
    jac_of_slot: list = field(repr=False, compare=False)

    @property
    def cardinality(self) -> np.ndarray:
        return np.count_nonzero(self.valid, axis=0)

    @cached_property
    def jac(self) -> np.ndarray:
        out = np.empty(self.weight.shape)
        for s, c in enumerate(self.jac_of_slot):
            out[s] = c
        return np.where(self.valid, out, 1.0)


def _slot_for_part(m: PiecewiseMap, d: InputDensity, part_index: int,
                   y: np.ndarray, ks: Optional[np.ndarray], y_tol: np.ndarray,
                   out: tuple[np.ndarray, ...]):
    """Evaluate one part at the query rows ``y`` and write the candidate,
    validity and weight into ``out`` = (x, valid, weight), table rows of
    shape (n, N), (n,), (n,): one slot for a branch
    (``ks`` None), one per member of the family block ``ks``, member-major
    with ``k`` bound per row.  Returns |det J| as ``part_jac`` gives it,
    one number or one value per row; the caller checks it on the valid
    rows of the slots it keeps."""
    p = m.parts[part_index]
    code = p.code
    xc, valid, weight = out
    rows, n = y.shape[0], xc.shape[0]
    # a block of members repeats the query rows once per member; one
    # query row broadcasts against the per-row k instead
    tiled = n != rows and rows > 1
    yb = np.tile(y, (n // rows, 1)) if tiled else y
    k = None
    if ks is not None:
        # one member binds k as a number: the same values, without an
        # array pass per operation on k
        k = np.repeat(ks.astype(float), rows) if ks.size > 1 else float(ks[0])
    binding = bind_columns(yb, k, "y")
    # a singular row's weight may divide by zero: it is never kept
    with np.errstate(all="ignore"):
        for dd, inv in enumerate(code.inverse):
            xc[:, dd] = inv.value(binding)
        finite = row_all(np.isfinite(xc))
        np.copyto(xc, 0.0, where=~finite[:, None])

        xbind = bind_columns(xc, k)
        in_region = code.region.test(xbind)
        fx = d.pdf_batch(xc)

        # the map-back test |g(x) - y| <= tol (1 + |y|) in the max norm,
        # folded over the output coordinates as ``row_max`` folds them
        for dd, fe in enumerate(code.forward):
            y_back = np.broadcast_to(fe.value(xbind), (n,))
            dev_dd = np.abs(y_back - yb[:, dd])
            if dd == 0:
                dev, back_finite = dev_dd, np.isfinite(y_back)
            else:
                np.maximum(dev, dev_dd, out=dev)
                back_finite &= np.isfinite(y_back)

        np.logical_and(finite, in_region, out=valid)
        valid &= fx > 0.0
        valid &= dev <= (np.tile(y_tol, n // rows) if tiled else y_tol)
        valid &= back_finite
        c = m.part_jac(part_index, xc, k)
        np.divide(fx, c, out=weight)
        # the same bytes as a masked fill, without its walk over short runs
        weight[(~valid).nonzero()[0]] = 0.0
    return c


def _tail_stop(weight: np.ndarray, valid: np.ndarray, sums: np.ndarray,
               running: np.ndarray, seen: bool, streak: bool):
    """The family stop rule over one member block: ``weight`` and
    ``valid`` are the block's (members, rows) table rows and ``sums``
    the (members + 1, rows) buffer of running sums.  ``running``,
    ``seen`` and ``streak`` are what the blocks before left: the running
    sum, whether any member had a valid row, whether the last member was
    tiny.  A member is tiny once a member up to it had a valid row and
    its weight is at most ``_TAIL_REL`` of the running sum through it
    on every row; the rule stops at the second tiny member in a row.

    The sums add the members in order, as a walk would: by one
    ``np.add.accumulate`` down the member axis when the block has fewer
    rows than members, else by one full-width ``np.add`` per member.
    Row 0 is tested first for every member, and the whole row only for
    the members whose row 0 is tiny, in member order up to the stop.
    Returns (members kept, whether the rule stopped, running, seen,
    streak), ``running`` a row of ``sums``."""
    count, rows = weight.shape
    if rows < count:
        sums[0] = running
        sums[1:count + 1] = weight
        np.add.accumulate(sums[:count + 1], axis=0, out=sums[:count + 1])
    else:
        for j in range(count):
            np.add(running if j == 0 else sums[j], weight[j], out=sums[j + 1])
    sums = sums[1:count + 1]
    tiny = weight[:, 0] <= _TAIL_REL * np.maximum(sums[:, 0], 1e-300)
    seen_at = None
    if not seen:
        seen_at = np.logical_or.accumulate(valid.any(axis=1))
        tiny &= seen_at
    if rows > 1:
        for j in tiny.nonzero()[0].tolist():
            tiny[j] = np.all(
                weight[j] <= _TAIL_REL * np.maximum(sums[j], 1e-300))
            if tiny[j] and (tiny[j - 1] if j else streak):
                break
    stop = tiny.copy()
    stop[0] &= streak
    stop[1:] &= tiny[:-1]
    stopped = bool(stop.any())
    walked = int(stop.argmax()) + 1 if stopped else count
    if seen_at is not None:
        seen = bool(seen_at[walked - 1])
    return walked, stopped, sums[walked - 1], seen, bool(tiny[walked - 1])


def _family_slots(m: PiecewiseMap, d: InputDensity, part_index: int,
                  y: np.ndarray, y_tol: np.ndarray, k_max: int,
                  table: tuple[np.ndarray, ...], pos: int,
                  jac_of_slot: list) -> tuple[int, bool]:
    """Write members k_lo, k_lo + 1, ... of one family into the rows
    ``pos``, ``pos + 1``, ... of ``table`` = (x, valid, weight), and
    their |det J| onto ``jac_of_slot``.
    Returns how many members are kept and whether the enumeration
    stopped before the member range ended.  Members are evaluated in
    blocks of ``_MEMBER_BLOCK // rows``; ``_tail_stop`` then applies the
    stop rule to the whole block, carrying the running sum, whether a
    valid member was seen and the tiny streak from block to block.  The
    members up to the stop are kept and checked for a singular Jacobian;
    the rows of the members after it are left for the next part to
    overwrite."""
    p = m.parts[part_index]
    x, valid, weight = table
    rows = y.shape[0]
    block = max(1, _MEMBER_BLOCK // rows)
    sums = np.zeros((max(min(block, k_max), 0) + 1, rows))
    running, seen, streak = sums[0], False, False
    k = p.k_lo
    kept = 0
    while p.k_hi is None or k <= p.k_hi:
        count = min(block, k_max - kept)
        if p.k_hi is not None:
            count = min(count, p.k_hi - k + 1)
        if count <= 0:
            return kept, True  # k_max reached: member k was not examined
        blk = slice(pos + kept, pos + kept + count)
        xb, vb = x[blk].reshape(-1, m.dim), valid[blk].reshape(-1)
        c = _slot_for_part(m, d, part_index, y, np.arange(k, k + count),
                           y_tol, (xb, vb, weight[blk].reshape(-1)))
        walked, stopped, running, seen, streak = _tail_stop(
            weight[blk], valid[blk], sums, running, seen, streak)
        # the members walked are kept; the first singular row among them
        # is the one a member-by-member check would meet first
        n = walked * rows
        check_jacobian(xb[:n], c if np.ndim(c) == 0 else c[:n], vb[:n])
        jac_of_slot += ([c] * walked if np.ndim(c) == 0
                        else list(c[:n].reshape(walked, rows)))
        kept += walked
        if stopped:
            return kept, p.k_hi is None or k + walked - 1 < p.k_hi
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
    zero probability mass (the classifier enforces that).  The map-back
    tolerance ``tol`` must be finite and positive: at 0 every candidate
    whose round trip is not bit-exact would be dropped.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"need a finite tol > 0, got {tol!r}")
    y = np.atleast_2d(np.asarray(y, dtype=float))
    rows = y.shape[0]
    y_tol = tol * (1.0 + row_max(np.abs(y)))  # map-back tolerance per row
    cap = _slot_capacity(m, k_max)
    # coordinate-major: (S, m, N) indexing over an (N, S, m) buffer
    x = chunk_buffer("table_x", (m.dim, cap, rows)).transpose(1, 2, 0)
    valid = chunk_buffer("table_valid", (cap, rows), bool)
    weight = chunk_buffer("table_weight", (cap, rows))
    slot_part: list[int] = []  # part index per slot
    slot_k: list[int] = []     # family member per slot, 0 for a branch
    part_end: list[int] = []   # per slot, the first slot of the next part
    jac_of_slot: list = []     # |det J| per slot, as part_jac returned it
    truncated = np.zeros(rows, dtype=bool)

    for i, p in enumerate(m.parts):
        if p.kind != "bijective":
            continue
        S = len(slot_part)
        if isinstance(p, Branch):
            c = _slot_for_part(m, d, i, y, None, y_tol,
                               (x[S], valid[S], weight[S]))
            check_jacobian(x[S], c, valid[S])
            jac_of_slot.append(c)
            slot_part.append(i)
            slot_k.append(0)
        else:
            kept, cut = _family_slots(m, d, i, y, y_tol, k_max,
                                      (x, valid, weight), S, jac_of_slot)
            slot_part += [i] * kept
            slot_k += range(p.k_lo, p.k_lo + kept)
            if cut:
                truncated |= True
        part_end += [len(slot_part)] * (len(slot_part) - S)
    S = len(slot_part)
    x, valid, weight = x[:S], valid[:S], weight[:S]

    # merge duplicates produced by different parts (shared boundaries);
    # members of one family are disjoint by the model invariant, and a
    # part's slots are contiguous, so slot a meets the slots of the
    # parts after its own
    for a in range(S):
        for b in range(part_end[a], S):
            both = valid[a] & valid[b]
            if not np.any(both):
                continue
            close = row_max(np.abs(x[a] - x[b])) <= tol * (
                1.0 + row_max(np.abs(x[a])))
            dup = both & close
            valid[b] &= ~dup
            weight[b, dup.nonzero()[0]] = 0.0

    return CandidateTable(
        x=x, valid=valid, weight=weight,
        part_of_slot=np.asarray(slot_part, dtype=np.int64),
        k_of_slot=np.asarray(slot_k, dtype=np.int64),
        f_y=weight.sum(axis=0), truncated=truncated, jac_of_slot=jac_of_slot)


# --- scalar operations -------------------------------------------------------

def _kept_slots(m: PiecewiseMap, t: CandidateTable):
    """The slots a one-row table keeps, and their parts as ``PartRef``s."""
    kept = t.valid[:, 0].nonzero()[0]
    refs = []
    for i, k in zip(t.part_of_slot[kept].tolist(), t.k_of_slot[kept].tolist()):
        p = m.parts[i]
        refs.append(PartRef(i, p.name, k if isinstance(p, BranchFamily) else None))
    return kept, refs


def preimage(m: PiecewiseMap, d: InputDensity, y, tol: float = DEFAULT_TOL,
             k_max: int = DEFAULT_K_MAX) -> PreimageSet:
    """All preimage candidates of y that survive the region, support and
    map-back checks, with |det J| as the build evaluated it.  An empty
    set is valid: y lies outside the image."""
    t = build_candidates(m, d, point_row(y, m.dim), tol, k_max)
    kept, refs = _kept_slots(m, t)
    jac = [t.jac_of_slot[s] for s in kept.tolist()]
    jac = [float(c) if isinstance(c, float) else float(c[0]) for c in jac]
    elems = tuple(
        PreimageElement(part=ref, x=tuple(x), jac=jac, weight=weight)
        for ref, x, jac, weight in zip(
            refs, t.x[kept, 0].tolist(), jac, t.weight[kept, 0].tolist()))
    return PreimageSet(elems, bool(t.truncated[0]))


def output_density(m: PiecewiseMap, d: InputDensity, y,
                   tol: float = DEFAULT_TOL, k_max: int = DEFAULT_K_MAX) -> float:
    """f_Y(y) by summing f_X/|det J| over the preimage; 0 off the image."""
    return float(build_candidates(m, d, point_row(y, m.dim), tol, k_max).f_y[0])


def branch_posterior(m: PiecewiseMap, d: InputDensity, y,
                     tol: float = DEFAULT_TOL,
                     k_max: int = DEFAULT_K_MAX) -> BranchPosterior:
    """Posterior probability of each subdomain given the output y: the
    kept slots' weights, read from the one-row table, over their sum."""
    t = build_candidates(m, d, point_row(y, m.dim), tol, k_max)
    kept, refs = _kept_slots(m, t)
    weights = t.weight[kept, 0].tolist()
    total = sum(weights)
    if total <= 0.0:
        raise ZeroDensityError(np.asarray(y, dtype=float))
    return BranchPosterior(tuple(
        (ref.label(), w / total) for ref, w in zip(refs, weights)))


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
            term.reshape(-1)[np.flatnonzero(~(p > 0.0))] = 0.0
            h[cols] = -term.sum(axis=0)
    return h
