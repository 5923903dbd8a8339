"""Deterministic sampling, Monte-Carlo aggregation and tensor quadrature.

All randomness flows through numpy's Philox generator, a 64-bit
counter-based generator whose bit stream is fixed by its key alone, so
the value of draw ``i`` of chunk ``c`` under base seed ``s`` is a pure
function of ``(s, c, i)`` on every platform.  Estimators split their
sample budget into fixed chunks of ``CHUNK_SIZE`` draws; chunk ``c``
uses the derived key ``(s + c) mod 2**64``.  Each chunk is reduced to
its (sum, M2, count) moments, and ``merge_moments`` merges them with
exact summation (``math.fsum``), so results are bit identical no matter
how many workers execute the chunks.

Every (m, N) array of points that the samplers return, and every grid
block of the quadrature, is column-contiguous (Fortran order): each
coordinate ``x[:, d]`` that a region test, support test or expression
reads is one contiguous run, not a stride-N view.  Only the layout
differs from a row-major array; the fill order of the draws and every
value are the same.  ``take_rows`` keeps the layout where rows are
selected.

A chunk pass owns one set of working buffers per worker thread
(``PassBuffers``): ``run_chunks`` opens a set around each worker's loop,
and the quadrature of the loss module around its block loop.  The large
arrays every chunk of a pass needs afresh, the samplers' proposals and
accepted rows and the candidate table, come from ``chunk_buffer``,
which inside a pass lends each named buffer once per chunk as a
contiguous leading view, instead of a new array whose pages a freed
predecessor has just given back to the kernel.  The next chunk on the
thread overwrites them, so a chunk's result, what ``fn`` returns to
``run_chunks``, must not be a view of them.  Outside a pass
``chunk_buffer`` is ``np.empty``.  The partition sweep runs on only the
first chunks of a report's pass, so it allocates its arrays per chunk
rather than hold them for the whole pass.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionTooHighError

__all__ = [
    "CHUNK_SIZE",
    "MCResult",
    "make_generator",
    "derived_seed",
    "chunk_plan",
    "run_chunks",
    "PassBuffers",
    "chunk_buffer",
    "merge_moments",
    "chunk_moments",
    "row_max",
    "row_all",
    "row_prod",
    "take_rows",
    "TILE_COLUMNS",
    "column_tiles",
    "tensor_quadrature",
]

CHUNK_SIZE = 1 << 16
EMPTY_SUPPORT_PROPOSALS = 1 << 20  # box points all rejected: empty support
TILE_COLUMNS = 4096  # table columns (sample rows) per cache-sized tile; >= 2
_MASK64 = (1 << 64) - 1


def derived_seed(base_seed: int, chunk_index: int) -> int:
    return (int(base_seed) + int(chunk_index)) & _MASK64


def make_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


@dataclass(frozen=True)
class MCResult:
    """Monte-Carlo mean with its standard error."""

    mean: float
    stderr: float
    n: int


def merge_moments(moments: Iterable[tuple[float, float, int]]) -> MCResult:
    """Merge per-chunk (sum, M2, count) triples exactly into one mean
    and standard error.

    M2 is the chunk's sum of squared deviations from its own mean.  The
    mean is ``fsum(sums) / n``; the variance is the merge of Chan, Golub
    and LeVeque (1979), ``fsum`` over the chunks of
    ``M2_c + n_c (mean_c - mean)**2``, over n - 1, which stays accurate
    when the values sit far from zero (the sum of squares minus
    n mean**2 cancels there).  ``math.fsum`` is correctly rounded, so
    the result does not depend on the order of the chunks.
    """
    chunks = list(moments)
    n = sum(n_c for _, _, n_c in chunks)
    if n == 0:
        return MCResult(math.nan, math.nan, 0)
    mean = math.fsum(s for s, _, _ in chunks) / n
    if n > 1:
        m2 = math.fsum(term for s, m2_c, n_c in chunks if n_c
                       for term in (m2_c, n_c * (s / n_c - mean) ** 2))
        stderr = math.sqrt(m2 / (n - 1) / n)
    else:
        stderr = math.inf
    return MCResult(mean, stderr, n)


def chunk_moments(values: np.ndarray) -> tuple[float, float, int]:
    """(sum, sum of squared deviations from the chunk mean, count) of
    one chunk's values, the part of a chunk that ``merge_moments`` reads."""
    v = np.asarray(values, dtype=float)
    s = float(np.sum(v))
    if v.size == 0:
        return s, 0.0, 0
    dev = v - s / v.size
    dev *= dev
    return s, float(np.sum(dev)), v.size


def row_max(a: np.ndarray) -> np.ndarray:
    """``np.max(a, axis=1)`` of an (m, N) array, as a fold of
    ``np.maximum`` over the N columns.

    The row-wise reduction walks each short row on its own; the fold
    makes one full-length elementwise call per column.  The maximum is
    exact and NaN propagates through both, so the values are the same.
    The result is a new array, never a view of ``a``.
    """
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(out, a[:, j], out=out)
    return out


def row_all(a: np.ndarray) -> np.ndarray:
    """``np.all(a, axis=1)`` of an (m, N) array, as a fold of logical and
    over the N columns (see ``row_max``).  The result is a new array."""
    out = a[:, 0].astype(bool)
    for j in range(1, a.shape[1]):
        np.logical_and(out, a[:, j], out=out)
    return out


def row_prod(a: np.ndarray) -> np.ndarray:
    """``np.prod(a, axis=1)`` of an (m, N) array, as a fold of
    ``np.multiply`` over the N columns (see ``row_max``).  The row-wise
    product multiplies each row left to right, as the fold does, so the
    values are the same.  The result is a new array."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.multiply(out, a[:, j], out=out)
    return out


def point_row(point, dim: int) -> np.ndarray:
    """The point of a scalar query as one (1, ``dim``) row of floats.
    A point must have exactly ``dim`` coordinates, whatever its shape:
    any other count raises ValueError."""
    a = np.asarray(point, dtype=float)
    if a.size != dim:
        raise ValueError(f"need a point of dim = {dim} coordinates, "
                         f"got {a.size} in shape {a.shape}")
    return a.reshape(1, -1)


def take_rows(a: np.ndarray, idx: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``idx`` of the (m, N) array ``a`` as a column-contiguous
    array, taken one column at a time (into ``out`` when it is given).
    A boolean gather ``a[mask]`` returns a row-major array and tests the
    mask row by row for every column; callers take
    ``np.flatnonzero(mask)`` once instead."""
    if out is None:
        out = np.empty((idx.size, a.shape[1]), order="F")
    for d in range(a.shape[1]):
        np.take(a[:, d], idx, out=out[:, d])
    return out


def column_tiles(width: int, tile: int = TILE_COLUMNS) -> list[slice]:
    """Slices of ``tile`` columns covering a table ``width`` columns wide.

    A last tile of one column joins the tile before it: numpy sums the
    rows of a one-column table pairwise, not one at a time, so a
    one-column tile cut from a wider table would round differently from
    it (a one-column table of its own is summed pairwise either way).
    """
    edges = [*range(0, width, tile), width]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def chunk_plan(n: int) -> list[tuple[int, int]]:
    """(chunk index, chunk length) pairs covering ``n`` samples, in
    chunks of ``CHUNK_SIZE``."""
    if n < 1:
        raise ValueError("need n >= 1")
    full, rem = divmod(n, CHUNK_SIZE)
    plan = [(c, CHUNK_SIZE) for c in range(full)]
    if rem:
        plan.append((full, rem))
    return plan


_local = threading.local()  # .buffers: the PassBuffers open on this thread


class PassBuffers:
    """The working buffers of one chunk pass on one thread.

    While it is open (``with PassBuffers() as bufs``), ``chunk_buffer``
    on this thread lends each named buffer at most once per chunk, as a
    contiguous ``[:size]`` view of one flat array grown to the largest
    request seen, so the pass touches the pages of each buffer once
    rather than once per chunk.  ``bufs.run(fn, ...)`` runs one chunk;
    a second request for a name within a chunk gets a new array.
    Closing the set, also when the pass raises, drops every buffer and
    restores the set that was open before, if any.
    """

    def __init__(self):
        self._flat: dict = {}   # (name, dtype) -> 1-D buffer
        self._lent: set = set()  # the keys lent in the current chunk
        self._outer = None

    def __enter__(self) -> "PassBuffers":
        self._outer = getattr(_local, "buffers", None)
        _local.buffers = self
        return self

    def __exit__(self, *exc) -> None:
        _local.buffers = self._outer
        self._flat.clear()

    def run(self, fn: Callable, *args):
        """``fn(*args)`` as the next chunk: every buffer may be lent again.
        A chunk that raises gives its buffers up, since the error may hold
        a view of them (the point it names)."""
        self._lent.clear()
        try:
            return fn(*args)
        except BaseException:
            self._flat.clear()
            raise

    def take(self, name: str, shape: tuple, dtype, order: str) -> np.ndarray:
        key = (name, np.dtype(dtype))
        if key in self._lent:
            return np.empty(shape, dtype, order=order)
        self._lent.add(key)
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size, dtype)
        return flat[:size].reshape(shape, order=order)


def chunk_buffer(name: str, shape: tuple, dtype=float,
                 order: str = "C") -> np.ndarray:
    """An uninitialised array, ``np.empty(shape, dtype, order=order)``;
    inside an open ``PassBuffers``, a view of its buffer ``name``."""
    bufs = getattr(_local, "buffers", None)
    if bufs is None:
        return np.empty(shape, dtype, order=order)
    return bufs.take(name, shape, dtype, order)


def run_chunks(fn: Callable[[int, int], object],
               plan: Sequence[tuple[int, int]],
               workers: int = 1) -> list[object]:
    """Evaluate ``fn(chunk_index, chunk_len)`` for every chunk.

    Results come back in chunk order whatever ``workers`` is; ``fn``
    must be pure apart from reading shared immutable state.  At most one
    thread runs per chunk: the calling thread takes chunks too, beside
    ``min(workers, len(plan)) - 1`` pool threads, so a pass starts one
    thread fewer and the caller's heap, warm from earlier passes, serves
    its chunks instead of a new thread's.  The error of the first
    failing chunk in plan order is raised: with more than one worker
    after every chunk has run, at one worker as soon as it fails, so the
    chunks after it do not run.

    Each thread runs its chunks inside its own ``PassBuffers``, open for
    the pass: the buffers ``fn`` takes by ``chunk_buffer`` are reused by
    the thread's next chunk, so what ``fn`` returns must not be a view
    of them.
    """
    workers = min(workers, len(plan))
    if workers <= 1:
        with PassBuffers() as bufs:
            return [bufs.run(fn, c, m) for c, m in plan]
    # imported here: concurrent.futures brings logging with it, which
    # ``import infoloss`` would otherwise pay for on every run
    from concurrent.futures import ThreadPoolExecutor

    jobs = iter(enumerate(plan))
    lock = threading.Lock()
    results: list = [None] * len(plan)
    errors: list = [None] * len(plan)
    stop = False

    def work():
        with PassBuffers() as bufs:
            while not stop:
                with lock:
                    job = next(jobs, None)
                if job is None:
                    return
                i, (c, m) = job
                try:
                    results[i] = bufs.run(fn, c, m)
                except Exception as err:  # noqa: BLE001 - raised in plan order
                    errors[i] = err

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        try:
            work()
        except BaseException:
            stop = True  # an interrupt: the pool finishes its chunk only
            raise
        for helper in helpers:
            helper.result()
    for err in errors:
        if err is not None:
            raise err
    return results


# --- density samplers ---------------------------------------------------------
#
# Builtin forms sample by per-coordinate inverse CDF; region-uniform and
# expression densities by rejection from the support box.  Each sampler
# draws its (n, N) uniforms row-major, as Philox fills them, and returns
# a column-contiguous array of the same values.  The uniform box and
# rejection samplers take their proposals and accepted rows from
# ``chunk_buffer``.

def _box_buffers(n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The row-major array Philox fills with ``n`` box proposals, and its
    column-contiguous copy: the same array where the layouts agree."""
    u = chunk_buffer("proposal", (n, dim))
    if u.flags.f_contiguous:
        return u, u
    return u, chunk_buffer("proposal_f", (n, dim), order="F")


def _fill_box(lo: np.ndarray, hi: np.ndarray, rng: np.random.Generator,
              u: np.ndarray, f: np.ndarray) -> np.ndarray:
    rng.random(out=u)
    if f is not u:
        np.copyto(f, u)
    f *= hi - lo
    f += lo  # lo + u * (hi - lo), without two temporaries
    return f


def uniform_box_sample(lo: np.ndarray, hi: np.ndarray, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    return _fill_box(lo, hi, rng, *_box_buffers(n, lo.size))


def gaussian_iid_sample(mu: float, sigma: float, dim: int, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    # imported here: scipy.special takes longer to import than numpy, and
    # only Gaussian inputs need it
    from scipy.special import ndtri

    u = np.asfortranarray(rng.random((n, dim)))
    # keep ndtri finite at the (never observed in practice) endpoints
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return mu + sigma * ndtri(u)


def exponential_sample(lam: float, dim: int, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    u = np.asfortranarray(rng.random((n, dim)))
    return -np.log1p(-u) / lam


def rejection_sample(accept: Callable[[np.ndarray, np.random.Generator],
                                      np.ndarray],
                     lo: np.ndarray, hi: np.ndarray, n: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Accept-reject from the uniform proposal on [lo, hi].

    Proposals come in batches of ``max(n, 4096)`` rows, drawn as
    ``uniform_box_sample`` draws them into one pair of buffers that
    every batch reuses; ``accept(x, rng)`` returns the mask of the rows
    kept, and may draw from ``rng`` after the batch.  Returns the first
    n rows kept, column-contiguous, plus the observed acceptance rate;
    a ConfigError once ``EMPTY_SUPPORT_PROPOSALS`` accept none.
    """
    out = chunk_buffer("sample", (n, lo.size), order="F")
    got = 0
    proposed = 0
    accepted = 0
    batch = max(n, 4096)
    box = _box_buffers(batch, lo.size)
    while got < n:
        x = _fill_box(lo, hi, rng, *box)
        ok = accept(x, rng)
        proposed += batch
        idx = np.flatnonzero(ok)
        accepted += idx.size
        if not accepted and proposed >= EMPTY_SUPPORT_PROPOSALS:
            raise ConfigError(f"density: none of {proposed} proposals "
                              "accepted; the support or pdf is empty")
        take = min(n - got, idx.size)
        take_rows(x, idx[:take], out[got:got + take])
        got += take
    return out, accepted / proposed


# --- quadrature ----------------------------------------------------------------

def tensor_quadrature(box, f: Callable[[np.ndarray], np.ndarray],
                      nodes_per_dim: int) -> float:
    """Midpoint rule on a tensor grid over ``box`` (N <= 2).

    ``f`` maps a column-contiguous (m, N) array of points to m values
    (a 2-D block holds whole grid rows, the second axis varying
    fastest).  The midpoint rule needs no endpoint evaluations, which
    keeps integrable edge singularities (such as 1/sqrt(y) output
    densities) finite.
    """
    lo = np.asarray(box.lo, dtype=float)
    hi = np.asarray(box.hi, dtype=float)
    dim = lo.size
    if dim > 2:
        raise DimensionTooHighError(dim)
    if nodes_per_dim < 1:
        raise ValueError("need nodes_per_dim >= 1")
    h = (hi - lo) / nodes_per_dim
    cell = float(np.prod(h))
    axes = [lo[d] + (np.arange(nodes_per_dim) + 0.5) * h[d] for d in range(dim)]

    # evaluate blocks of whole grid rows, at most 2^16 points each, to
    # bound memory; a 1-D grid is rows of one point
    width = nodes_per_dim if dim == 2 else 1
    rows_per_block = max(1, (1 << 16) // width)
    partials: list[float] = []
    for r0 in range(0, nodes_per_dim, rows_per_block):
        a = axes[0][r0:r0 + rows_per_block]
        pts = np.empty((a.size * width, dim), order="F")
        pts[:, 0] = np.repeat(a, width)
        if dim == 2:
            pts[:, 1] = np.tile(axes[1], a.size)
        vals = np.asarray(f(pts), dtype=float)
        partials.append(float(np.sum(vals)))
    return math.fsum(partials) * cell
