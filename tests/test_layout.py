"""Column-contiguous points in the chunk pipeline, and dispatch and
forward without gathers.

The samplers, the chunk's forward map and the candidate table keep every
(m, N) array of points column-contiguous, so each coordinate ``x[:, d]``
is one contiguous run.  ``dispatch_batch`` and ``forward_batch`` no
longer gather or scatter rows per part; the references below are the
former per-part gather code, and the new code must give the same bytes
and raise the same error at the same row.
"""

import numpy as np
import pytest

from conftest import PRESET_NAMES
from infoloss.config import load_config
from infoloss.errors import AmbiguousBranchError, NoBranchError
from infoloss.loss import _Chunk
from infoloss.model import DEFAULT_K_MAX, BranchFamily, bind_columns
from infoloss.transform import DEFAULT_TOL, build_candidates, preimage


def _columns_contiguous(a: np.ndarray) -> bool:
    return all(a[:, d].flags.c_contiguous for d in range(a.shape[1]))


def shifted_cells():
    """A 2-D family: unit cells along x1, each shifted onto [0, 1)."""
    return load_config({
        "dim": 2,
        "density": {
            "form": "uniform_box",
            "support": {"predicate": "x1 >= 0 and x1 <= 4 and x2 >= 0 "
                                     "and x2 <= 1",
                        "bbox": [[0.0, 4.0], [0.0, 1.0]]},
        },
        "parts": [{
            "type": "family", "name": "cell", "index_of": "floor(x1)",
            "k_range": [0, 4],
            "region_of_k": "x1 >= k and x1 < k + 1 and x2 >= 0 and x2 <= 1",
            "bbox": [[0.0, 4.0], [0.0, 1.0]],
            "forward": ["x1 - k", "x2"], "inverse": ["y1 + k", "y2"],
            "jac_abs_det": "1",
        }],
    })


# --- layout contract ------------------------------------------------------------

@pytest.mark.parametrize("name", ["ex6_m1", "ex1_fold_square"])
def test_pipeline_arrays_have_contiguous_columns(setups, name):
    s = setups[name]
    m, d = s.pmap, s.density
    x = d.sample(3000, 7)
    assert x.shape == (3000, m.dim) and _columns_contiguous(x)
    ch = _Chunk(m, d, x, DEFAULT_TOL, DEFAULT_K_MAX)
    assert ch.y.shape == x.shape and _columns_contiguous(ch.y)
    t = build_candidates(m, d, ch.y)
    slots = t.part_of_slot.size
    assert t.x.shape == (slots, 3000, m.dim)
    assert all(_columns_contiguous(t.x[s_]) for s_ in range(slots))


@pytest.mark.parametrize("name", ["ex6_m1", "ex1_fold_square"])
def test_candidate_table_indexes_slot_row_coordinate(setups, name):
    # t.x[s, i] is slot s's candidate for query row i: the candidate of a
    # one-row table at y[i], and the part's inverse at y[i]
    s = setups[name]
    m, d = s.pmap, s.density
    x = d.sample(200, 3)
    y = m.forward_batch(x, *m.dispatch_batch(x))
    t = build_candidates(m, d, y)
    for i in range(0, 200, 17):
        kept = [s_ for s_ in range(t.x.shape[0]) if t.valid[s_, i]]
        assert [e.x for e in preimage(m, d, y[i]).elements] == [
            tuple(float(v) for v in t.x[s_, i]) for s_ in kept]
        binding = bind_columns(y[i:i + 1], None, "y")
        for s_ in kept:
            p = m.parts[int(t.part_of_slot[s_])]
            assert list(t.x[s_, i]) == [
                float(np.broadcast_to(c.value(binding), (1,))[0])
                for c in p.code.inverse]


def test_family_member_blocks_are_written_through_views():
    # a 2-D family evaluates several members per block; the block's
    # member-major reshape must write into the table, not into a copy
    s = shifted_cells()
    m, d = s.pmap, s.density
    y = np.asfortranarray([[0.25, 0.5], [0.75, 0.125]])
    t = build_candidates(m, d, y)
    assert list(t.k_of_slot) == [0, 1, 2, 3, 4]
    assert all(_columns_contiguous(t.x[s_]) for s_ in range(5))
    for s_, k in enumerate(t.k_of_slot):
        assert np.array_equal(t.x[s_], y + [k, 0.0])
    assert t.valid[:4].all() and not t.valid[4].any()
    assert list(t.f_y) == [1.0, 1.0]


# --- dispatch and forward parity ----------------------------------------------

def _reference_dispatch(m, x):
    """The former dispatch: a scatter of each part's fresh rows."""
    masks = m.membership_masks(x)
    count = np.zeros(x.shape[0], dtype=np.int64)
    part_idx = np.full(x.shape[0], -1, dtype=np.int64)
    k = np.zeros(x.shape[0], dtype=np.int64)
    for i, (mask, kk) in enumerate(masks):
        count += mask
        fresh = mask & (part_idx < 0)
        part_idx[fresh] = i
        k[fresh] = kk[fresh]
    if np.any(count == 0):
        raise NoBranchError(x[int(np.argmax(count == 0))])
    if np.any(count > 1):
        j = int(np.argmax(count > 1))
        raise AmbiguousBranchError(x[j], [m.parts[i].name for i, (mask, _)
                                          in enumerate(masks) if mask[j]])
    return part_idx, k


def _reference_forward(m, x, part_idx, k):
    """The former forward map: gather each part's rows, scatter its y."""
    y = np.full(x.shape, np.nan)
    for i, p in enumerate(m.parts):
        rows = part_idx == i
        if not np.any(rows):
            continue
        xb = x[rows]
        binding = bind_columns(
            xb, k[rows] if isinstance(p, BranchFamily) else None)
        with np.errstate(all="ignore"):
            for dd, fe in enumerate(p.code.forward):
                y[rows, dd] = np.broadcast_to(fe.value(binding),
                                              (xb.shape[0],))
    return y


def _outcome(fn, *args):
    """The arrays ``fn`` returns, or its error's type, point and text."""
    try:
        return fn(*args)
    except (NoBranchError, AmbiguousBranchError) as err:
        return type(err), str(err)


def _probe_points(s, seed):
    """Random draws, uniform points on a box twice the support's, and
    grid points of step 1/6 on it (0, 1/3, 1/2, 2/3, ... lie on the
    presets' region boundaries), half of them moved onto x2 = -x1."""
    m, d = s.pmap, s.density
    rng = np.random.default_rng(seed)
    lo, hi = d.support.bbox.arrays()
    mid, half = (lo + hi) / 2, hi - lo
    wide = mid + (rng.random((400, m.dim)) - 0.5) * 2 * half
    grid = np.round(wide * 6) / 6
    if m.dim == 2:
        grid[::2, 1] = -grid[::2, 0]
    return {"sample": d.sample(2000, seed), "outside": wide,
            "boundary": grid}


# every preset but the two whose parts are all non-bijective
BIJECTIVE_PRESETS = [n for n in PRESET_NAMES
                     if n not in ("ex5_radius_only", "quantizer_uniform")]


@pytest.mark.parametrize("name", BIJECTIVE_PRESETS)
def test_dispatch_and_forward_match_the_gathered_reference(setups, name):
    s = setups[name]
    m = s.pmap
    assert any(p.kind == "bijective" for p in m.parts)
    for kind, x in _probe_points(s, 11).items():
        got = _outcome(m.dispatch_batch, x)
        want = _outcome(_reference_dispatch, m, x)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want, (name, kind)
        else:
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        # forward on the rows that exactly one part claims
        count = sum(mask.astype(int) for mask, _ in m.membership_masks(x))
        xs = np.asfortranarray(x[count == 1])
        part_idx, k = m.dispatch_batch(xs)
        y = m.forward_batch(xs, part_idx, k)
        ref = _reference_forward(m, xs, part_idx, k)
        assert np.array_equal(y, ref, equal_nan=True), (name, kind)
        # a row-major copy of the points gives the same bytes
        assert np.array_equal(
            m.forward_batch(np.ascontiguousarray(xs), part_idx, k), ref,
            equal_nan=True)


def test_sawtooth_dispatch_names_the_member(setups):
    m = setups["ex3_exp_sawtooth"].pmap
    x = np.array([[0.0], [0.5], [2 / 3], [1.2], [4.0], [24.9]])
    part_idx, k = m.dispatch_batch(x)
    assert list(part_idx) == [0] * 6
    assert list(k) == [1, 1, 2, 2, 7, 38]
    assert np.array_equal(k, _reference_dispatch(m, x)[1])


def overlapping_strips():
    """Two 2-D branches whose regions share the strip 0 <= x1 <= 1."""
    box = [[-2.0, 2.0], [-1.0, 1.0]]
    return load_config({
        "dim": 2,
        "density": {"form": "uniform_box",
                    "support": {"predicate": "x1 >= -2 and x1 <= 2 and "
                                             "x2 >= -1 and x2 <= 1",
                                "bbox": box}},
        "parts": [
            {"type": "branch", "name": "left", "kind": "bijective",
             "region": {"predicate": "x1 <= 1 and x1 >= -2", "bbox": box},
             "forward": ["x1", "x2"], "inverse": ["y1", "y2"]},
            {"type": "branch", "name": "right", "kind": "bijective",
             "region": {"predicate": "x1 >= 0 and x1 <= 2", "bbox": box},
             "forward": ["-x1", "x2"], "inverse": ["-y1", "y2"]},
        ],
    }).pmap


def test_dispatch_raises_at_the_first_ambiguous_row():
    m = overlapping_strips()
    x = np.asfortranarray([[-1.5, 0.0], [1.5, 0.2], [0.5, 0.3],
                           [0.25, -0.5], [1.75, 0.0]])
    with pytest.raises(AmbiguousBranchError) as err:
        m.dispatch_batch(x)
    assert _outcome(m.dispatch_batch, x) == _outcome(_reference_dispatch, m, x)
    assert "0.5" in str(err.value) and "0.3" in str(err.value)
    assert "left" in str(err.value) and "right" in str(err.value)


def test_dispatch_raises_at_the_first_row_in_no_part():
    m = overlapping_strips()
    # the no-part row comes after an ambiguous one: the count checks run
    # in that order, no-part first, as before
    x = np.asfortranarray([[-1.5, 0.0], [0.5, 0.3], [2.5, 0.75],
                           [3.0, 0.0]])
    with pytest.raises(NoBranchError) as err:
        m.dispatch_batch(x)
    assert "2.5" in str(err.value) and "0.75" in str(err.value)
    assert _outcome(m.dispatch_batch, x) == _outcome(_reference_dispatch, m, x)
