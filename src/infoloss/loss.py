"""Information-loss estimators.

The loss of a piecewise-bijective map equals the conditional entropy of
the input given the output, and is computed here by three routes plus a
partition sweep:

* ``loss_eq5_mc`` / ``loss_eq5_quadrature`` average the exact pointwise
  integrand  log2( f_Y(g(x)) |det J(x)| / f_X(x) )  over x ~ f_X, by
  Monte Carlo or by a midpoint tensor grid (N <= 2);
* ``loss_corollary1`` assembles  h(X) - h(Y) + E[log2 |det J|]  from
  separately estimated terms (using the exact differential entropy of
  the input when the model declares it);
* ``loss_branch_posterior`` averages the Shannon entropy of the
  subdomain posterior at y = g(x), i.e. the uncertainty about which
  branch produced the output;
* ``partition_sweep`` quantizes x on dyadic grids of growing depth and
  reports the (nondecreasing, converging) quantized-input losses.

All entropies are in bits.  Estimators refuse maps classified Infinite,
raising :class:`InfiniteLossError` instead of returning a number.
Sampling follows the chunked deterministic contract of the numerics
module, so repeated runs and different worker counts give bit-identical
reports.

Every Monte-Carlo estimate here and in the bounds module runs on one
chunk engine, ``estimate``: it walks the sample stream once, builds
each chunk's pipeline stages only as far as the requested estimators
read them, and hands the chunk to each estimator's reducer.  The report
requests all estimators in one call, so they share one pass over the
sample stream; the public functions select one estimator each and give
the same numbers as the shared pass.  The quadrature reads the same
chunk stages on the blocks of its grid, so one pipeline turns points
into the dispatch, forward map, Jacobian, density and candidate table
of every route.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from typing import Optional, Sequence

import numpy as np

from .classify import Classification, classify
from .errors import InfiniteLossError, ZeroDensityError
from .model import DEFAULT_K_MAX, InputDensity, PiecewiseMap, check_jacobian
from .numerics import (
    MCResult,
    TILE_COLUMNS,
    chunk_moments,
    chunk_plan,
    column_tiles,
    derived_seed,
    merge_moments,
    run_chunks,
    take_rows,
    tensor_quadrature,
)
from .transform import DEFAULT_TOL, build_candidates, posterior_entropy_bits

__all__ = [
    "LossReport",
    "PartitionSweep",
    "BoundsReport",
    "ESTIMATORS",
    "MAX_DEPTH_BITS",
    "estimate",
    "loss_eq5_mc",
    "loss_eq5_quadrature",
    "loss_corollary1",
    "loss_branch_posterior",
    "partition_sweep",
    "differential_entropy_mc",
    "expected_log_jacdet",
]

# a sweep cell index has depth * dim bits and must fit an int64
MAX_DEPTH_BITS = 62
_SWEEP_TILE = TILE_COLUMNS  # table columns (sample rows) per sweep tile


def check_depths(where: str, depths: Sequence[int],
                 dim: int) -> tuple[int, ...]:
    """``depths`` as ints if each is an integer (a Python or numpy
    integer, not a bool or a float), nonnegative, and its sweep cell
    index, of depth * dim bits, fits an int64, else a ValueError naming
    ``where``."""
    depths = tuple(depths)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in depths):
        raise ValueError(f"{where} must be integers, got {list(depths)}")
    depths = tuple(int(v) for v in depths)
    if any(v < 0 or v * dim > MAX_DEPTH_BITS for v in depths):
        raise ValueError(f"{where} must be nonnegative with depth * dim <= "
                         f"{MAX_DEPTH_BITS} (dim {dim}), got {list(depths)}")
    return depths


@dataclass(frozen=True)
class LossReport:
    loss_bits: float
    stderr_bits: float
    method: str        # eq5_mc | eq5_quadrature | corollary1 | branch_posterior
    n_samples: int
    seed: int
    components: Optional[dict] = None
    truncated: bool = False
    excluded_fraction: float = 0.0

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.components is None:
            del out["components"]
        return out


@dataclass(frozen=True)
class PartitionSweep:
    depths: tuple[int, ...]
    losses_bits: tuple[float, ...]
    stderrs_bits: tuple[float, ...]
    n_samples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundsReport:
    """The upper bounds on the loss and H(W), with their stderrs; see
    the bounds module."""

    e_log_card_bits: float     # E[log2 |preimage|]
    log_e_card_bits: float     # log2 E[|preimage|]
    max_log_card_bits: float   # log2 max sampled |preimage|
    h_W_bits: float            # plug-in entropy of the subdomain index
    stderrs: dict
    infinite_flags: dict
    branch_masses: dict
    n_samples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _gate(m: PiecewiseMap, d: InputDensity, seed: int,
          classification: Optional[Classification]) -> Classification:
    if classification is None:
        classification = classify(m, d, seed=derived_seed(seed, 101))
    if classification.verdict == "Infinite":
        # the estimators enumerate bijective branches only: for maps with
        # atoms or collapses they would report misleading finite numbers
        raise InfiniteLossError(classification)
    return classification


class _Chunk:
    """A block of points x, with the pipeline stages built on first use
    and then shared by every estimator that reads the block: dispatch,
    forward map, Jacobian, input density and the preimage candidate
    table at g(x).  The Monte-Carlo walk passes one chunk of the sample
    stream, the quadrature one grid block's points of positive density."""

    def __init__(self, m: Optional[PiecewiseMap], d: InputDensity,
                 x: np.ndarray, tol: float, k_max: int):
        self.m, self.d, self.x, self.tol, self.k_max = m, d, x, tol, k_max

    @cached_property
    def dispatch(self) -> tuple[np.ndarray, np.ndarray]:
        """(part index, family member k) per row."""
        return self.m.dispatch_batch(self.x)

    @cached_property
    def ok(self) -> np.ndarray:
        """Rows in bijective parts; the other rows carry no loss."""
        bij = np.array([p.kind == "bijective" for p in self.m.parts],
                       dtype=bool)
        return bij[self.dispatch[0]]

    @cached_property
    def y(self) -> np.ndarray:
        return self.m.forward_batch(self.x, *self.dispatch)

    @cached_property
    def jac(self) -> np.ndarray:
        """|det J| per row, checked on the bijective rows; the reducers
        overwrite the terms of the other rows (``_loss_rows``)."""
        jac = self.m.jac_batch(self.x, *self.dispatch)
        check_jacobian(self.x, jac, self.ok)
        return jac

    @cached_property
    def fx(self) -> np.ndarray:
        return self.d.pdf_batch(self.x)

    @cached_property
    def table(self):
        return build_candidates(self.m, self.d, self.y, self.tol, self.k_max)

    def f_y_checked(self) -> np.ndarray:
        """f_Y at g(x), refusing bijective rows of zero output density.
        The sample's own Jacobian is checked before the table is built."""
        self.jac  # a singular sample Jacobian is reported as such
        fy = self.table.f_y
        bad = self.ok & ~(fy > 0.0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ZeroDensityError(self.y[i])
        return fy


# --- per-chunk reducers: a _Chunk in, a small per-chunk summary out ----------

def _flags(ch: _Chunk) -> tuple[bool, int]:
    """Truncated family enumeration and rows outside bijective parts."""
    return bool(ch.table.truncated.any()), int(np.count_nonzero(~ch.ok))


def _loss_rows(ch: _Chunk, v: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """``v``, a reducer's terms on every row (rows on its last axis), with
    ``fill`` written in place on the rows that carry no loss."""
    np.copyto(v, fill, where=~ch.ok)
    return v


def _log_jac(ch: _Chunk) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return _loss_rows(ch, np.log2(ch.jac))


def _eq5_terms(ch: _Chunk) -> np.ndarray:
    """The eq. 5 integrand per row, 0 on the rows that carry no loss."""
    fy = ch.f_y_checked()
    with np.errstate(divide="ignore", invalid="ignore"):
        return _loss_rows(ch, np.log2(fy * ch.jac / ch.fx))


def _eq5(ch: _Chunk):
    return chunk_moments(_eq5_terms(ch))


def _corollary1(ch: _Chunk):
    fy = ch.f_y_checked()
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_log_fx = _loss_rows(ch, -np.log2(ch.fx))
        neg_log_fy = _loss_rows(ch, -np.log2(fy))
    log_jac = _log_jac(ch)
    exact_hx = ch.d.exact_diffent_bits
    hx_term = neg_log_fx if exact_hx is None else np.full_like(fy, exact_hx)
    v = hx_term - neg_log_fy + log_jac
    return tuple(chunk_moments(a) for a in (v, neg_log_fx, neg_log_fy, log_jac))


def _branch_posterior(ch: _Chunk):
    ch.f_y_checked()
    return chunk_moments(_loss_rows(ch, posterior_entropy_bits(ch.table)))


def _code_counts(ch: _Chunk) -> dict[int, int]:
    uniq, cnts = np.unique(ch.m.codes_batch(*ch.dispatch), return_counts=True)
    return dict(zip(uniq.tolist(), cnts.tolist()))


def _cardinality(ch: _Chunk):
    card = ch.table.cardinality.astype(float)
    bad = ch.ok & ~(card > 0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ZeroDensityError(ch.y[i])
    _loss_rows(ch, card, 1.0)
    return (chunk_moments(np.log2(card)), chunk_moments(card),
            int(card.max()), _code_counts(ch))


def _dyadic_cells(u: np.ndarray, depths: Sequence[int]):
    """Yield, for each depth d of ``depths``, the int64 index of the
    dyadic cell of side 2**-d holding each point of ``u`` (..., N), the
    points scaled to the unit box: per axis floor(u * 2**d) clipped to
    [0, 2**d - 1], that bound rounded to float64 as ``np.clip`` takes
    it, combined axis by axis as cell * 2**d + axis.

    Each axis is scaled, floored and clipped once, at the deepest depth
    D, clipping at 2**D; depth d is then that index shifted right by
    D - d.  Scaling by a power of two is exact and floor(floor(2**s z) /
    2**s) = floor(z), so the shift gives the per-depth index, except
    that u >= 1 shifts to 2**d, which the per-depth clip bound caps.
    ``u`` must be finite.  Every yielded array is new and C-contiguous.
    """
    deepest = max(depths, default=0)
    top = float(1 << deepest)
    axes = []
    for dd in range(u.shape[-1]):
        a = np.floor(u[..., dd] * top)
        axes.append(np.clip(a, 0.0, top, out=a).astype(np.int64))
    edge = bool(np.any(u >= 1.0))
    for depth in depths:
        ncells = 1 << depth
        cap = int(float(ncells - 1))
        cell = None
        for a in axes:
            c = a >> (deepest - depth)
            if edge:
                np.minimum(c, cap, out=c)
            if cell is None:
                cell = c
            else:
                cell *= ncells
                cell += c
        yield cell


def _sweep_depths(ch: _Chunk, depths: Sequence[int]):
    """Quantized-input entropy per row at each depth, walking the slot
    table in the column tiles of ``column_tiles`` (``_SWEEP_TILE`` sample
    rows) so that one tile's working set is reused by every depth while
    it is in cache.  Per tile the cells of every depth come from one
    scaling at the deepest depth (``_dyadic_cells``), the posterior
    weights are normalized once, the invalid slots are found once, and
    the running sums of the normalized weights are shared by every depth
    whose cells are presorted (``_RunningSums``)."""
    ch.f_y_checked()
    t = ch.table
    lo, hi = ch.d.support.bbox.arrays()
    h = np.empty((len(depths), t.f_y.shape[0]))
    for cols in column_tiles(t.f_y.shape[0], _SWEEP_TILE):
        u = (t.x[:, cols] - lo) / (hi - lo)
        invalid = np.flatnonzero(~t.valid[:, cols])  # flat (slot, column)
        wn = t.weight[:, cols] / np.maximum(t.f_y[cols], 1e-300)
        sums = _RunningSums(wn)
        for j, cell in enumerate(_dyadic_cells(u, depths)):
            cell.reshape(-1)[invalid] = -1  # a view: the cells are C-contiguous
            h[j, cols] = _grouped_entropy_bits(cell, wn, sums)
    _loss_rows(ch, h)
    return tuple(chunk_moments(hj) for hj in h)


def _neg_log_fx(ch: _Chunk):
    fx = ch.fx
    if np.any(fx <= 0.0):
        i = int(np.argmax(fx <= 0.0))
        raise ZeroDensityError(ch.x[i])
    return chunk_moments(-np.log2(fx))


_REDUCERS = {"eq5_mc": _eq5, "corollary1": _corollary1,
             "branch_posterior": _branch_posterior, "bounds": _cardinality}
ESTIMATORS = (*_REDUCERS, "sweep")


# --- the chunk engine ---------------------------------------------------------

def _walk(m, d, seed: int, jobs: dict, tol: float, k_max: int,
          workers: int) -> dict[str, list]:
    """Build every chunk of ``jobs`` once and hand it to its reducers.

    ``jobs`` maps (chunk index, chunk length) to {name: reducer}.
    Returns, per reducer name, its per-chunk summaries in job order.
    """
    def one(c, mlen):
        ch = _Chunk(m, d, d.sample(mlen, derived_seed(seed, c)), tol, k_max)
        return [(name, reduce(ch)) for name, reduce in jobs[c, mlen].items()]

    out: dict[str, list] = {}
    for summaries in run_chunks(one, list(jobs), workers):
        for name, summary in summaries:
            out.setdefault(name, []).append(summary)
    return out


def _one_estimator(m, d, n: int, seed: int, reduce, workers: int) -> MCResult:
    jobs = {cm: {"v": reduce} for cm in chunk_plan(n)}
    return merge_moments(
        _walk(m, d, seed, jobs, DEFAULT_TOL, DEFAULT_K_MAX, workers)["v"])


def _merge_counts(per_chunk) -> dict[int, int]:
    counts: dict[int, int] = {}
    for cnts in per_chunk:
        for code, cnt in cnts.items():
            counts[code] = counts.get(code, 0) + cnt
    return counts


def _plugin_entropy(counts: dict[int, int], n: int) -> tuple[float, float]:
    p = np.array([c / n for c in counts.values()])
    logp = np.log2(p)
    h = float(-(p * logp).sum())
    # delta method: Var(H_hat) ~ Var(-log2 p(W)) / n, taken about its
    # mean h: E[x**2] - h**2 cancels when the index is nearly certain
    dev = logp + h
    var = float((p * dev * dev).sum())
    return h, math.sqrt(var / n)


def _bounds_report(m: PiecewiseMap, per_chunk, n: int, seed: int,
                   truncated: bool) -> BoundsReport:
    logs, cards, maxes, per_chunk_counts = zip(*per_chunk)
    e_log, e_card = merge_moments(logs), merge_moments(cards)
    counts = _merge_counts(per_chunk_counts)
    h_w, h_w_stderr = _plugin_entropy(counts, n)
    return BoundsReport(
        e_log_card_bits=e_log.mean,
        log_e_card_bits=math.log2(e_card.mean),
        max_log_card_bits=math.log2(max(maxes)),
        h_W_bits=h_w,
        stderrs={"e_log_card": e_log.stderr,
                 "log_e_card": e_card.stderr / (e_card.mean * math.log(2)),
                 "max_log_card": 0.0, "h_W": h_w_stderr},
        infinite_flags={"e_log_card": truncated, "log_e_card": truncated,
                        "max_log_card": truncated, "h_W": False},
        branch_masses={m.code_label(code): counts[code] / n
                       for code in sorted(counts)},
        n_samples=n, seed=seed)


def _corollary1_report(d: InputDensity, per_chunk, n: int, seed: int,
                       truncated: bool, excluded: float) -> LossReport:
    total, hx_mc, hy, ejac = (merge_moments(col) for col in zip(*per_chunk))
    exact_hx = d.exact_diffent_bits
    if exact_hx is not None:
        h_x, h_x_stderr = float(exact_hx), 0.0
    else:
        h_x, h_x_stderr = hx_mc.mean, hx_mc.stderr
    components = {
        "h_X_bits": h_x, "h_X_stderr": h_x_stderr,
        "h_Y_bits": hy.mean, "h_Y_stderr": hy.stderr,
        "e_logjac_bits": ejac.mean, "e_logjac_stderr": ejac.stderr,
    }
    loss_bits = h_x - hy.mean + ejac.mean  # stored identity, exact in floats
    return LossReport(loss_bits, total.stderr, "corollary1", n, seed,
                      components=components, truncated=truncated,
                      excluded_fraction=excluded)


def estimate(m: PiecewiseMap, d: InputDensity, n: int, seed: int,
             estimators: Sequence[str], depths: Sequence[int] = (),
             sweep_n: Optional[int] = None,
             tol: float = DEFAULT_TOL, k_max: int = DEFAULT_K_MAX,
             workers: int = 1,
             classification: Optional[Classification] = None) -> dict:
    """Run the requested estimators over one pass of the sample stream.

    ``estimators`` names any of ``ESTIMATORS``.  The loss routes come
    back as :class:`LossReport`, ``"bounds"`` as a
    :class:`BoundsReport` and ``"sweep"`` as a
    :class:`PartitionSweep` over the first ``sweep_n`` samples (default
    ``n``) at ``depths``.  Chunk c is a pure function of
    ``derived_seed(seed, c)``, so each chunk is built once and every
    estimator reads the same arrays it would read on its own.  A sweep
    chunk with the index and length of a main chunk is that chunk; a
    shorter one (the sweep's last) is built on its own, never cut from
    the longer chunk, because the rejection sampler's batch depends on
    the chunk length.
    """
    _gate(m, d, seed, classification)
    main = {name: _REDUCERS[name] for name in estimators if name != "sweep"}
    if main:
        main["flags"] = _flags  # last: the reducers' checks come first
    jobs = {cm: dict(main) for cm in chunk_plan(n)} if main else {}
    if "sweep" in estimators:
        depths = check_depths("depths", depths, m.dim)
        sweep = partial(_sweep_depths, depths=depths)
        sweep_n = n if sweep_n is None else sweep_n
        for cm in chunk_plan(sweep_n):
            jobs.setdefault(cm, {})["sweep"] = sweep

    out = _walk(m, d, seed, jobs, tol, k_max, workers)
    res: dict = {}
    if main:
        truncated = any(t for t, _ in out["flags"])
        excluded = sum(e for _, e in out["flags"]) / n
    for route in ("eq5_mc", "branch_posterior"):
        if route in out:
            r = merge_moments(out[route])
            res[route] = LossReport(r.mean, r.stderr, route, n, seed,
                                    truncated=truncated,
                                    excluded_fraction=excluded)
    if "corollary1" in out:
        res["corollary1"] = _corollary1_report(d, out["corollary1"], n, seed,
                                               truncated, excluded)
    if "bounds" in out:
        res["bounds"] = _bounds_report(m, out["bounds"], n, seed, truncated)
    if "sweep" in out:
        results = [merge_moments(col) for col in zip(*out["sweep"])]
        res["sweep"] = PartitionSweep(depths,
                                      tuple(r.mean for r in results),
                                      tuple(r.stderr for r in results),
                                      sweep_n, seed)
    return res


def loss_eq5_mc(m: PiecewiseMap, d: InputDensity, n: int, seed: int,
                tol: float = DEFAULT_TOL, k_max: int = DEFAULT_K_MAX,
                workers: int = 1,
                classification: Optional[Classification] = None) -> LossReport:
    """Monte-Carlo mean of the exact loss integrand over x ~ f_X."""
    return estimate(m, d, n, seed, ("eq5_mc",), tol=tol, k_max=k_max,
                    workers=workers, classification=classification)["eq5_mc"]


def loss_eq5_quadrature(m: PiecewiseMap, d: InputDensity,
                        nodes_per_dim: int = 512,
                        tol: float = DEFAULT_TOL, k_max: int = DEFAULT_K_MAX,
                        classification: Optional[Classification] = None,
                        seed: int = 0) -> LossReport:
    """Midpoint tensor-grid evaluation of the loss integral (N <= 2).

    Cells whose midpoint carries zero input density are skipped; cells
    straddling region boundaries contribute via their midpoint's branch.
    The integrand is ``eq5_mc``'s, zero output density refused alike.
    """
    _gate(m, d, seed, classification)
    truncated = False

    def integrand(pts: np.ndarray) -> np.ndarray:
        nonlocal truncated
        out = np.zeros(pts.shape[0])
        fx = d.pdf_batch(pts)
        live = np.flatnonzero(fx > 0.0)
        if not live.size:
            return out
        ch = _Chunk(m, d, take_rows(pts, live), tol, k_max)
        ch.fx = fx[live]  # the fx stage, already computed
        out[live] = ch.fx * _eq5_terms(ch)
        truncated |= bool(ch.table.truncated.any())
        return out

    total = tensor_quadrature(d.support.bbox, integrand, nodes_per_dim)
    return LossReport(total, 0.0, "eq5_quadrature", nodes_per_dim ** m.dim,
                      seed, truncated=truncated)


def loss_corollary1(m: PiecewiseMap, d: InputDensity, n: int, seed: int,
                    tol: float = DEFAULT_TOL, k_max: int = DEFAULT_K_MAX,
                    workers: int = 1,
                    classification: Optional[Classification] = None) -> LossReport:
    """h(X) - h(Y) + E[log2 |det J|], each term estimated on one sample
    stream; h(X) is taken exactly from the model when declared."""
    return estimate(m, d, n, seed, ("corollary1",), tol=tol, k_max=k_max,
                    workers=workers,
                    classification=classification)["corollary1"]


def loss_branch_posterior(m: PiecewiseMap, d: InputDensity, n: int, seed: int,
                          tol: float = DEFAULT_TOL, k_max: int = DEFAULT_K_MAX,
                          workers: int = 1,
                          classification: Optional[Classification] = None
                          ) -> LossReport:
    """Mean Shannon entropy (bits) of the subdomain posterior at y = g(x)."""
    return estimate(m, d, n, seed, ("branch_posterior",), tol=tol,
                    k_max=k_max, workers=workers,
                    classification=classification)["branch_posterior"]


# --- partition sweep ---------------------------------------------------------

def _accumulate_rows(op, a: np.ndarray, reverse: bool = False) -> np.ndarray:
    """``op.accumulate(a, axis=0)`` in place (from the last row up with
    ``reverse``), as one full-width ``op`` call per row.  Each step is the
    accumulate's own ``op(previous result, current row)``, so the bits
    are the same, without its strided walk down every column."""
    step = 1 if reverse else -1
    rows = range(a.shape[0] - 2, -1, -1) if reverse else range(1, a.shape[0])
    for s in rows:
        op(a[s + step], a[s], out=a[s])
    return a


class _RunningSums:
    """The running sums of the (S, m) weights ``ww`` down the slot axis,
    each built on first use and then kept: ``csum``, the running sum one
    slot at a time; ``base``, ``csum - ww``, the running sum before each
    slot; ``nonpositive``, the flat (slot, column) positions where ww is
    not positive; and ``monotone``, whether a running maximum of
    ``base`` and a running minimum of ``csum`` (from the last slot up)
    would leave every bit of them as it is.  Nothing writes to ``ww`` or
    to the sums."""

    def __init__(self, ww: np.ndarray):
        self.ww = ww

    @cached_property
    def csum(self) -> np.ndarray:
        return _accumulate_rows(np.add, self.ww.copy())

    @cached_property
    def base(self) -> np.ndarray:
        # C-contiguous, as the csum copy is, whatever the layout of ww
        return np.subtract(self.csum, self.ww, out=np.empty_like(self.csum))

    @cached_property
    def nonpositive(self) -> np.ndarray:
        return np.flatnonzero(~(self.ww > 0.0))

    @cached_property
    def monotone(self) -> bool:
        """Both sums nondecreasing down every column (NaN fails), with
        no -0.0 in either.  Equal values then have equal bits, so each
        step of the running maximum or minimum returns the current
        slot's own value.  A sum of two floats is -0.0 only when both
        are, so ``csum`` has a -0.0 only below a first slot of -0.0,
        and ``base`` (x - y is -0.0 only for x = -0.0, y = +0.0) none;
        a sign bit on the first slot is refused, negatives with it."""
        csum, base = self.csum, self.base
        return bool(not np.signbit(csum[0]).any()
                    and np.all(csum[1:] >= csum[:-1])
                    and np.all(base[1:] >= base[:-1]))


def _grouped_entropy_bits(cells: np.ndarray, wn: np.ndarray,
                          sums: Optional[_RunningSums] = None) -> np.ndarray:
    """Entropy per row of posterior weights aggregated over equal cells.

    cells: (S, m) int codes (-1 for invalid slots, whose weight is 0);
    wn: (S, m) posterior weights, normalized as
    ``weight / np.maximum(f_y, 1e-300)`` with f_y the column sums of the
    unnormalized weights (the sweep normalizes a tile once for all its
    depths).  ``wn`` is not written to.  ``sums``, the ``_RunningSums``
    of ``wn``, lets the depths of one tile share its running sums, which
    the kernel reads and never writes, when every column of ``cells`` is
    presorted (the running sums depend only on the slot order, the
    identity there); otherwise it builds its own for the sorted weights.

    Arithmetic contract, which the report's bytes depend on and any
    other kernel must keep: the slots of each column are taken in their
    stable sort order by cell; the normalized weights are summed down
    that order one slot at a time; a cell's weight is the running sum at
    its run's end (filled up the run by a running minimum) minus
    (running sum minus weight) at its run's start (filled down the run by
    a running maximum); the entropy terms are summed over slots in sorted
    order, one slot at a time.  Grouping by ``bincount``, ``np.unique``,
    a flat composite key or a pairwise sum rounds differently.

    Where no slot continues a run (no two neighbours share a cell) and
    ``_RunningSums.monotone`` holds, the running maximum and minimum
    would change no bit, and the group weight is ``csum - base`` as it
    is.  A nondecreasing ``csum - ww`` is not given: normalized weights
    0.1, 1e-21, 0.7 give 0, 0.12500000000000003, 0.125 by rounding.
    Masked fills are written by flat index, which gives the same bytes.

    Columns are independent, so any column tiling of the table keeps the
    bytes, with one exception: numpy sums the slots of a one-column
    table pairwise, not one at a time, so a one-column tile cut from a
    wider table rounds differently from it (a one-column table of its
    own, such as a chunk of one row, is summed pairwise either way).
    """
    if cells.shape[0] == 0:
        return np.zeros(cells.shape[1])
    if np.all(cells[1:] >= cells[:-1]):
        # every column in order: the stable sort order is the identity
        c, ww = cells, wn
        rs = _RunningSums(wn) if sums is None else sums
    else:
        order = np.argsort(cells, axis=0, kind="stable")
        c = np.take_along_axis(cells, order, axis=0)
        ww = np.take_along_axis(wn, order, axis=0)
        rs = _RunningSums(ww)
    same = c[1:] == c[:-1]  # row s + 1 continues the run of row s
    if not same.any() and rs.monotone:
        group = rs.csum - rs.base
    else:
        runs = np.flatnonzero(same)
        # cumulative sum just before each run, forward-filled down the run
        base = rs.base.copy()
        base[1:].reshape(-1)[runs] = -np.inf
        _accumulate_rows(np.maximum, base)
        # cumulative sum at each run's end, backward-filled up the run
        group = rs.csum.copy()
        group[:-1].reshape(-1)[runs] = np.inf
        _accumulate_rows(np.minimum, group, reverse=True)
        group -= base
    # the entropy terms ww * log2(group), 0 where ww is not positive
    contrib = np.log2(np.maximum(group, 1e-300, out=group), out=group)
    np.multiply(ww, contrib, out=contrib)
    contrib.reshape(-1)[rs.nonpositive] = 0.0
    return -contrib.sum(axis=0)


def partition_sweep(m: PiecewiseMap, d: InputDensity, depths: Sequence[int],
                    n: int, seed: int,
                    tol: float = DEFAULT_TOL, k_max: int = DEFAULT_K_MAX,
                    workers: int = 1,
                    classification: Optional[Classification] = None
                    ) -> PartitionSweep:
    """Quantized-input loss H(X_hat | Y) on dyadic grids over the support
    box, one entry per depth (2**depth cells per axis).  The sequence is
    nondecreasing in depth and converges to the full loss."""
    return estimate(m, d, n, seed, ("sweep",), depths=depths, tol=tol,
                    k_max=k_max, workers=workers,
                    classification=classification)["sweep"]


# --- single-estimator building blocks -------------------------------------------

def differential_entropy_mc(d: InputDensity, n: int, seed: int,
                            workers: int = 1) -> MCResult:
    """Plug-in differential entropy of the input, -E[log2 f_X(X)], in bits."""
    return _one_estimator(None, d, n, seed, _neg_log_fx, workers)


def expected_log_jacdet(m: PiecewiseMap, d: InputDensity, n: int, seed: int,
                        workers: int = 1) -> MCResult:
    """E[log2 |det J(X)|] over x ~ f_X, in bits."""
    return _one_estimator(m, d, n, seed,
                          lambda ch: chunk_moments(_log_jac(ch)), workers)
