"""Hot-path kernels against the straightforward numpy forms they replace.

The report's bytes depend on these kernels doing the same float
operations in the same order as the reference forms, so every
comparison here is on the raw bytes, not within a tolerance.
"""

import json
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FINITE_PRESETS, PRESET_NAMES
from infoloss import loss, transform
from infoloss.config import load_config, preset_path
from infoloss.errors import SingularJacobianError
from infoloss.exprlang import eval_array
from infoloss.loss import _grouped_entropy_bits
from infoloss.model import (
    Branch,
    PiecewiseMap,
    check_jacobian,
    postcompose_affine,
)
from infoloss.numerics import (
    TILE_COLUMNS,
    chunk_plan,
    derived_seed,
    row_all,
    row_max,
    row_prod,
)


def reference_grouped_entropy_bits(cells, w, f_y):
    """The sort/accumulate grouping kernel as first written: argsort,
    gathers, and numpy's own accumulate along the slot axis."""
    if cells.shape[0] == 0:
        return np.zeros(cells.shape[1])
    wn = w / np.maximum(f_y, 1e-300)
    order = np.argsort(cells, axis=0, kind="stable")
    c = np.take_along_axis(cells, order, axis=0)
    ww = np.take_along_axis(wn, order, axis=0)
    csum = np.cumsum(ww, axis=0)
    m_ = cells.shape[1]
    start = np.vstack([np.ones((1, m_), dtype=bool), c[1:] != c[:-1]])
    end = np.vstack([c[1:] != c[:-1], np.ones((1, m_), dtype=bool)])
    base = np.maximum.accumulate(np.where(start, csum - ww, -np.inf), axis=0)
    total_at_end = np.minimum.accumulate(
        np.where(end, csum, np.inf)[::-1], axis=0)[::-1]
    group = total_at_end - base
    contrib = np.where(ww > 0.0, ww * np.log2(np.maximum(group, 1e-300)), 0.0)
    return -contrib.sum(axis=0)


@st.composite
def grouping_cases(draw):
    """(cells, w, f_y) as the sweep passes them: -1 slots carry zero
    weight, few distinct cells give ties, columns are presorted,
    unsorted or a mix within one call, and column scales run from
    1e-300 to 1e300, some columns all zero."""
    slots = draw(st.integers(0, 40))
    rows = draw(st.integers(1, 6))
    ncells = draw(st.integers(1, 5))
    cells = draw(hnp.arrays(np.int64, (slots, rows),
                            elements=st.integers(-1, ncells - 1)))
    layout = draw(st.sampled_from(["sorted", "unsorted", "mixed"]))
    if layout == "sorted":
        cells = np.sort(cells, axis=0)
    elif layout == "mixed":
        cols = draw(st.lists(st.integers(0, rows - 1), max_size=rows))
        cells[:, cols] = np.sort(cells[:, cols], axis=0)
    w = draw(hnp.arrays(np.float64, (slots, rows),
                        elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])
                        | st.floats(0.0, 1.0)))
    scale = draw(hnp.arrays(np.int64, rows, elements=st.integers(-300, 300)))
    w = w * 10.0 ** scale.astype(float)
    zero = draw(st.lists(st.integers(0, rows - 1), max_size=rows))
    w[:, zero] = 0.0
    w[cells < 0] = 0.0
    return cells, w, w.sum(axis=0)


@settings(max_examples=400, deadline=None)
@given(grouping_cases())
def test_grouped_entropy_bits_matches_the_reference_bytes(case):
    cells, w, f_y = case
    expected = reference_grouped_entropy_bits(cells, w, f_y)
    got = _grouped_entropy_bits(cells.copy(), w / np.maximum(f_y, 1e-300))
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("slots", [0, 1, 2, 40])
def test_grouped_entropy_bits_edge_slot_counts(slots):
    rng = np.random.default_rng(slots)
    cells = rng.integers(-1, 3, size=(slots, 7))
    w = np.where(cells >= 0, rng.random((slots, 7)), 0.0)
    f_y = w.sum(axis=0)
    expected = reference_grouped_entropy_bits(cells, w, f_y)
    got = _grouped_entropy_bits(cells, w / np.maximum(f_y, 1e-300))
    assert got.tobytes() == expected.tobytes()


@st.composite
def shared_sweep_cases(draw):
    """(cells per depth, w, f_y) of one sweep tile: every depth's cells
    come from one set of deepest-depth cells shifted right, as
    ``_dyadic_cells`` gives them, with -1 on invalid slots (zero
    weight).  Columns are presorted (invalid slots first), unsorted or a
    mix; weights include zeros, -0.0 and pairs such as 1e-21 then 0.7,
    after which ``csum - ww`` can decrease by rounding."""
    slots = draw(st.integers(1, 30))
    rows = draw(st.integers(1, 6))
    deepest = draw(st.integers(0, 6))
    top = draw(hnp.arrays(np.int64, (slots, rows),
                          elements=st.integers(0, (1 << deepest) - 1)))
    invalid = draw(hnp.arrays(bool, (slots, rows)))
    layout = draw(st.sampled_from(["sorted", "unsorted", "mixed"]))
    cols = list(range(rows)) if layout == "sorted" else (
        [] if layout == "unsorted"
        else draw(st.lists(st.integers(0, rows - 1), max_size=rows)))
    top[:, cols] = np.sort(top[:, cols], axis=0)
    invalid[:, cols] = np.sort(invalid[:, cols], axis=0)[::-1]
    w = draw(hnp.arrays(np.float64, (slots, rows),
                        elements=st.sampled_from([0.0, -0.0, 1e-21, 0.1,
                                                  0.25, 0.7, 1.0])
                        | st.floats(0.0, 1.0)))
    scale = draw(hnp.arrays(np.int64, rows, elements=st.integers(-300, 300)))
    w = w * 10.0 ** scale.astype(float)
    w[invalid] = 0.0
    depths = sorted(set(draw(st.lists(st.integers(0, deepest), min_size=1,
                                      max_size=4))))
    cells = [np.where(invalid, -1, top >> (deepest - d)) for d in depths]
    return cells, w, w.sum(axis=0)


def _assert_shared_sweep_matches(cells, w, f_y):
    """Every depth of one tile through one ``_RunningSums``, against the
    per-depth kernel; the shared sums are left as built."""
    wn = w / np.maximum(f_y, 1e-300)
    sums = loss._RunningSums(wn)
    for c in cells:
        expected = reference_grouped_entropy_bits(c, w, f_y)
        got = _grouped_entropy_bits(c.copy(), wn, sums)
        assert got.tobytes() == expected.tobytes()
    fresh = loss._RunningSums(wn)
    for name, value in vars(sums).items():
        assert np.asarray(value).tobytes() == \
            np.asarray(getattr(fresh, name)).tobytes(), name
    return sums


@settings(max_examples=400, deadline=None)
@given(shared_sweep_cases())
def test_shared_running_sums_match_the_per_depth_kernel(case):
    _assert_shared_sweep_matches(*case)


@pytest.mark.parametrize("column, cells, monotone", [
    # distinct cells, running sums increasing: the max/min are skipped
    ([0.25, 0.25, 0.5], [0, 1, 2], True),
    # normalized, csum - ww = 0, 0.12500000000000003, 0.125: it
    # decreases, so the running max runs although no cell has two slots
    ([0.1, 1e-21, 0.7], [0, 1, 2], False),
    ([-0.0, 0.0, 0.5], [0, 1, 2], False),  # a -0.0 running sum
    ([0.25, 0.25, 0.5], [0, 0, 2], True),  # a run of two: filled
    ([0.0, 0.4, 0.6], [-1, 1, 1], True),   # an invalid slot first
])
def test_shared_running_sums_pinned_columns(column, cells, monotone):
    w = np.array(column)[:, None] * np.ones((1, 3))
    c = np.array(cells)[:, None] * np.ones((1, 3), dtype=np.int64)
    sums = _assert_shared_sweep_matches([c], w, w.sum(axis=0))
    assert sums.monotone is monotone


_ENTRIES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.0, 3e-310]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64,
                  st.tuples(st.integers(0, 5), st.integers(1, 3)),
                  elements=st.sampled_from(_ENTRIES)))
def test_row_helpers_match_numpy_row_reductions(a):
    before = a.tobytes()
    with np.errstate(invalid="ignore"):  # inf * 0 in both products
        _check_row_helpers(a)
    assert a.tobytes() == before


def _check_row_helpers(a):
    for helper, reference, arg in ((row_max, np.max, a),
                                   (row_prod, np.prod, a),
                                   (row_all, np.all, a),
                                   (row_all, np.all, np.isfinite(a))):
        got, expected = helper(arg), reference(arg, axis=1)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert not np.shares_memory(got, arg)


@pytest.mark.parametrize("rows", [0, 1])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_row_helpers_small_shapes_leave_the_input_alone(rows, dim):
    a = np.arange(rows * dim, dtype=float).reshape(rows, dim) - 0.5
    before = a.copy()
    out = row_max(a)
    assert out.tobytes() == np.max(a, axis=1).tobytes()
    out += 1.0
    out = row_prod(a)
    assert out.tobytes() == np.prod(a, axis=1).tobytes()
    out += 1.0
    ok = row_all(a > 0.0)
    assert ok.tobytes() == np.all(a > 0.0, axis=1).tobytes()
    ok[...] = False
    assert a.tobytes() == before.tobytes()


# --- the column-tiled sweep ------------------------------------------------------

def reference_sweep_depths(ch, depths):
    """The sweep's depth loop as it was before column tiles: every depth
    over the chunk's full table width."""
    ch.f_y_checked()
    t = ch.table
    lo, hi = ch.d.support.bbox.arrays()
    u = (t.x - lo) / (hi - lo)
    per_depth = []
    for depth in depths:
        ncells = 1 << depth
        axes = np.floor(u * ncells)
        axes = np.clip(axes, 0, ncells - 1).astype(np.int64)
        cell = axes[..., 0]
        for dd in range(1, ch.m.dim):
            cell = cell * ncells + axes[..., dd]
        cell = np.where(t.valid, cell, -1)
        h = _grouped_entropy_bits(cell, t.weight / np.maximum(t.f_y, 1e-300))
        per_depth.append(loss.chunk_moments(np.where(ch.ok, h, 0.0)))
    return tuple(per_depth)


class FakeChunk:
    """What ``_sweep_depths`` reads of a chunk: the candidate table, the
    support box, the dimension and the bijective-row mask."""

    def __init__(self, x, valid, weight, ok, lo, hi):
        self.table = SimpleNamespace(x=x, valid=valid, weight=weight,
                                     f_y=weight.sum(axis=0))
        box = SimpleNamespace(arrays=lambda: (np.asarray(lo), np.asarray(hi)))
        self.d = SimpleNamespace(support=SimpleNamespace(bbox=box))
        self.m = SimpleNamespace(dim=x.shape[2])
        self.ok = ok

    def f_y_checked(self):
        return self.table.f_y


def _per_row_entropies(sweep, ch, depths):
    """The sweep's per-row entropies at each depth, as raw bytes: the
    moments are taken of the bytes of the array they are given."""
    with patch.object(loss, "chunk_moments", lambda v: np.asarray(v).tobytes()):
        return sweep(ch, depths)


@st.composite
def sweep_tables(draw):
    """A slot table of N = 1 or 2 as the sweep reads it, and a tile width
    T: the table is 1, T - 1, T, T + 1 or 3T + 17 columns wide; invalid
    slots carry zero weight; few distinct x values give shared cells;
    columns are presorted by slot (every coordinate nondecreasing),
    unsorted, or a mix within one table, so tiles may take different
    branches of the grouping kernel than the full width does."""
    dim = draw(st.integers(1, 2))
    tile = draw(st.sampled_from([2, 3, 5, 8]))
    rows = draw(st.sampled_from([1, tile - 1, tile, tile + 1, 3 * tile + 17]))
    slots = draw(st.integers(1, 12))
    lo, hi = [-1.0] * dim, [3.0] * dim
    x = draw(hnp.arrays(np.float64, (slots, rows, dim), elements=st.sampled_from(
        [-1.0, -0.5, 0.0, 0.1, 0.75, 1.0, 2.9, 3.0]) | st.floats(-1.0, 3.0)))
    layout = draw(st.sampled_from(["sorted", "unsorted", "mixed"]))
    if layout == "sorted":
        x = np.sort(x, axis=0)
    elif layout == "mixed":
        cols = draw(st.lists(st.integers(0, rows - 1), max_size=rows))
        x[:, cols] = np.sort(x[:, cols], axis=0)
    valid = draw(hnp.arrays(np.bool_, (slots, rows)))
    w = draw(hnp.arrays(np.float64, (slots, rows),
                        elements=st.sampled_from([0.0, 0.25, 1.0])
                        | st.floats(0.0, 1.0)))
    w = np.where(valid, w, 0.0)
    ok = draw(hnp.arrays(np.bool_, rows))
    depths = draw(st.lists(st.integers(0, 10), min_size=1, max_size=4))
    return FakeChunk(x, valid, w, ok, lo, hi), depths, tile


@settings(max_examples=300, deadline=None)
@given(sweep_tables())
def test_tiled_sweep_matches_the_full_width_loop(case):
    ch, depths, tile = case
    expected = _per_row_entropies(reference_sweep_depths, ch, depths)
    with patch.object(loss, "_SWEEP_TILE", tile):
        got = _per_row_entropies(loss._sweep_depths, ch, depths)
    assert got == expected


@pytest.mark.parametrize("extra", [-1, 0, 1, loss._SWEEP_TILE + 17])
def test_tiled_sweep_at_the_default_tile(extra):
    # widths just around one and two default tiles, on real-sized columns
    tile = loss._SWEEP_TILE
    rows = tile + extra
    rng = np.random.default_rng(rows)
    x = rng.uniform(0.0, 1.0, size=(4, rows, 1))
    x[:, : rows // 2] = np.sort(x[:, : rows // 2], axis=0)
    valid = rng.random((4, rows)) < 0.8
    w = np.where(valid, rng.random((4, rows)), 0.0)
    ch = FakeChunk(x, valid, w, rng.random(rows) < 0.9, [0.0], [1.0])
    depths = [0, 3, 8]
    assert _per_row_entropies(loss._sweep_depths, ch, depths) == \
        _per_row_entropies(reference_sweep_depths, ch, depths)


# --- member-blocked family enumeration ---------------------------------------------

TABLE_FIELDS = ("x", "valid", "weight", "jac", "part_of_slot", "k_of_slot",
                "f_y", "truncated")


def _sawtooth_doc(**family):
    doc = json.loads(preset_path("ex3_exp_sawtooth").read_text())
    doc["parts"][0].update(family)
    return doc


def _table_or_error(m, d, y, k_max):
    try:
        return transform.build_candidates(m, d, y, k_max=k_max)
    except SingularJacobianError as err:
        return err


def _assert_same(got, expected):
    if isinstance(expected, SingularJacobianError):
        assert isinstance(got, SingularJacobianError)
        assert np.asarray(got.x).tobytes() == np.asarray(expected.x).tobytes()
        assert got.value == expected.value
        return
    for name in TABLE_FIELDS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _query_points(rows):
    """Sawtooth outputs in [0, 1/1.5), with some rows off the image."""
    rng = np.random.default_rng(rows)
    y = rng.uniform(-0.1, 0.7, size=(rows, 1))
    y[0] = 0.3
    return y


@pytest.mark.parametrize("rows", [1, 2, 37, 5000])
@pytest.mark.parametrize("family, k_max", [
    ({}, 64),
    ({}, 3),
    ({"k_range": [1, 5]}, 64),
    ({"k_range": [1, 5]}, 3),
    ({"k_range": [1, 5]}, 5),
    ({"jac_abs_det": "abs(k - 3)"}, 64),
    ({"jac_abs_det": "abs(k - 34)"}, 64),
], ids=["unbounded", "k_max_cut", "bounded", "bounded_k_max_cut",
        "bounded_k_max_at_k_hi", "singular_member_kept",
        "singular_member_after_the_stop"])
def test_member_blocks_match_one_member_at_a_time(rows, family, k_max):
    setup = load_config(_sawtooth_doc(**family))
    m, d = setup.pmap, setup.density
    y = _query_points(rows)
    got = _table_or_error(m, d, y, k_max)
    with patch.object(transform, "_MEMBER_BLOCK", 1):
        expected = _table_or_error(m, d, y, k_max)
    _assert_same(got, expected)
    if family.get("jac_abs_det") == "abs(k - 3)":
        assert isinstance(expected, SingularJacobianError)  # member k = 3
    elif family.get("jac_abs_det") == "abs(k - 34)":
        # the tail stops before member 34, whose candidates lie in the
        # support; a block of 64 members evaluates it and drops it unchecked
        assert not isinstance(expected, SingularJacobianError)
        assert expected.k_of_slot.max() < 34
    elif k_max == 3:
        assert expected.truncated.all() and expected.x.shape[0] == 3
    elif "k_range" in family:
        # the member range runs out at k_max = 5 without a cut
        assert not expected.truncated.any() and expected.x.shape[0] == 5



def _reference_or_error(m, d, y, k_max, member_block):
    try:
        return reference_build_candidates(m, d, y, transform.DEFAULT_TOL,
                                          k_max, member_block)
    except SingularJacobianError as err:
        return err


_ONE_ROW_FAMILIES = {
    # name: (family fields, k_max)
    "unbounded": ({}, 64),
    "first_member_invalid": ({"k_range": [0, None]}, 64),
    "first_members_invalid": ({"k_range": [-3, None]}, 64),
    "bounded": ({"k_range": [1, 5]}, 64),
    "valid_members_end": (
        {"region_of_k": "x1 >= (k - 1)/1.5 and x1 < k/1.5 and k <= 3"}, 64),
    "k_max_cut": ({}, 3),
    "singular_member_kept": ({"jac_abs_det": "abs(k - 3)"}, 64),
    "singular_member_after_the_stop": (
        {"k_range": [-3, None], "jac_abs_det": "min(1, abs(k - 31))"}, 64),
}


@pytest.mark.parametrize("member_block", [2, 3])
@pytest.mark.parametrize("y", [0.3, 0.01, -0.05])
@pytest.mark.parametrize("case", list(_ONE_ROW_FAMILIES))
def test_one_row_member_blocks_match_the_reference(case, y, member_block):
    # blocks of 2 and 3 members: the running sum, whether a valid member
    # was seen and the tiny streak carry over block edges
    family, k_max = _ONE_ROW_FAMILIES[case]
    setup = load_config(_sawtooth_doc(**family))
    m, d = setup.pmap, setup.density
    yy = np.array([[y]])
    with patch.object(transform, "_MEMBER_BLOCK", member_block):
        got = _table_or_error(m, d, yy, k_max)
    expected = _reference_or_error(m, d, yy, k_max, member_block)
    _assert_same(got, expected)
    if case == "singular_member_kept" and y > 0:
        assert isinstance(expected, SingularJacobianError)  # member k = 3
        return
    assert not isinstance(expected, SingularJacobianError)
    kept = expected.k_of_slot.size
    if case.startswith("first_member") and y > 0:
        # members k <= 0 lie outside the support: tiny, but before any
        # valid member, so they start no streak
        assert not expected.valid[:expected.k_of_slot.tolist().index(1)].any()
        assert expected.valid[-3:].all() and kept > 20
    if case == "first_members_invalid" and y > 0 and member_block == 3:
        # the two tiny members in a row that stop the walk lie in two
        # blocks: the second opens its block
        assert (kept - 1) % member_block == 0
    if case == "valid_members_end" and y > 0:
        # members 4 and 5 are invalid and tiny, and a valid member came
        # before them in an earlier block: the walk stops at member 5
        assert expected.k_of_slot.tolist() == [1, 2, 3, 4, 5]
    if case == "singular_member_after_the_stop" and y > 0:
        # the walk stops at member 30; in blocks of 3 that member opens
        # the block [30, 32], so the singular member 31 is evaluated and
        # dropped unchecked
        assert expected.k_of_slot.max() == 30


@pytest.mark.parametrize("members", [1, 3, None])
@pytest.mark.parametrize("rows", [2, 37, 5000])
def test_row_zero_tiny_while_a_later_row_is_not(rows, members):
    # row 0 lies off the image, so every member is tiny there; the stop
    # rule must test the other rows before it stops.  Blocks of three
    # members are narrow (fewer rows than members) at 2 rows and wide at
    # 37 and 5000; the default block is one member wide at 5000 rows.
    setup = load_config(_sawtooth_doc())
    m, d = setup.pmap, setup.density
    y = _query_points(rows)
    y[0], y[1] = -0.05, 0.3
    member_block = transform._MEMBER_BLOCK if members is None else members * rows
    with patch.object(transform, "_MEMBER_BLOCK", member_block):
        got = _table_or_error(m, d, y, 64)
    expected = _reference_or_error(m, d, y, 64, member_block)
    _assert_same(got, expected)
    assert not expected.valid[:, 0].any() and expected.valid[:, 1].all()
    assert expected.k_of_slot.size > 20


# --- the write-once candidate table ------------------------------------------------

def _reference_slot(m, d, part_index, y, ks, tol):
    """One part's slots as the stack-based builder made them: fresh
    (slots, rows[, N]) arrays per part or member block."""
    p = m.parts[part_index]
    rows = y.shape[0]
    slots = 1 if ks is None else ks.size
    yb = y if slots == 1 else np.tile(y, (slots, 1))
    n = yb.shape[0]
    binding = {f"y{dd + 1}": yb[:, dd] for dd in range(m.dim)}
    karr = kb = None
    if ks is not None:
        karr = np.repeat(ks.astype(float), rows)
        kb = karr if slots > 1 else float(ks[0])
        binding["k"] = kb
    xc = np.column_stack([np.broadcast_to(eval_array(inv, binding), (n,))
                          for inv in p.inverse]).astype(float)
    finite = row_all(np.isfinite(xc))
    xc = np.where(finite[:, None], xc, 0.0)
    xbind = {f"x{dd + 1}": xc[:, dd] for dd in range(m.dim)}
    if ks is None:
        in_region = p.region.contains_batch(xc)
    else:  # the member region, with k bound per row
        in_region = p.code.region.test({**xbind, "k": kb})
    fx = d.pdf_batch(xc)
    if karr is not None:
        xbind["k"] = karr
    y_back = np.column_stack([np.broadcast_to(eval_array(fe, xbind), (n,))
                              for fe in p.forward])
    with np.errstate(invalid="ignore", divide="ignore"):
        maps_back = row_max(np.abs(y_back - yb)) <= tol * (
            1.0 + row_max(np.abs(yb)))
        maps_back &= row_all(np.isfinite(y_back))
        valid = finite & in_region & (fx > 0.0) & maps_back
        jac = np.where(valid, m.part_jac(part_index, xc, karr), 1.0)
        weight = np.where(valid, fx / jac, 0.0)
    return (xc.reshape(slots, rows, m.dim), valid.reshape(slots, rows),
            weight.reshape(slots, rows), jac.reshape(slots, rows))


def _reference_family(m, d, part_index, y, tol, k_max, member_block):
    p = m.parts[part_index]
    rows = y.shape[0]
    block = max(1, member_block // rows)
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
            return slots, True
        xc, valid, weight, jac = _reference_slot(
            m, d, part_index, y, np.arange(k, k + count), tol)
        for j in range(count):
            check_jacobian(xc[j], jac[j], valid[j])
            slots.append((xc[j], valid[j], weight[j], jac[j], part_index,
                          k + j))
            running += weight[j]
            if np.any(valid[j]):
                any_valid_seen = True
            if any_valid_seen:
                tiny = np.all(weight[j] <= transform._TAIL_REL
                              * np.maximum(running, 1e-300))
                small_streak = small_streak + 1 if tiny else 0
                if small_streak >= 2:
                    return slots, p.k_hi is None or k + j < p.k_hi
        k += count
    return slots, False


def reference_build_candidates(m, d, y, tol, k_max, member_block):
    """The candidate table as the stack-based builder made it: per-slot
    arrays collected in a list, then copied into the table with
    ``np.stack``.  Its |det J| buffer is the table's ``jac``: 1 on every
    row a slot does not keep, the rows the duplicate merge drops
    included."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    rows = y.shape[0]
    slots = []
    truncated = np.zeros(rows, dtype=bool)
    for i, p in enumerate(m.parts):
        if p.kind != "bijective":
            continue
        if isinstance(p, Branch):
            xc, valid, weight, jac = _reference_slot(m, d, i, y, None, tol)
            check_jacobian(xc[0], jac[0], valid[0])
            slots.append((xc[0], valid[0], weight[0], jac[0], i, 0))
            continue
        members, cut = _reference_family(m, d, i, y, tol, k_max, member_block)
        slots += members
        if cut:
            truncated |= True
    if not slots:
        return SimpleNamespace(
            x=np.zeros((0, rows, m.dim)), valid=np.zeros((0, rows), dtype=bool),
            weight=np.zeros((0, rows)), jac=np.ones((0, rows)),
            part_of_slot=np.zeros(0, dtype=np.int64),
            k_of_slot=np.zeros(0, dtype=np.int64),
            f_y=np.zeros(rows), truncated=truncated)
    xs, valids, weights, jacs, slot_part, slot_k = zip(*slots)
    x, valid = np.stack(xs), np.stack(valids)
    weight, jac = np.stack(weights), np.stack(jacs)
    part_arr = np.asarray(slot_part, dtype=np.int64)
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
            jac[b] = np.where(dup, 1.0, jac[b])
    return SimpleNamespace(
        x=x, valid=valid, weight=weight, jac=jac,
        part_of_slot=part_arr, k_of_slot=np.asarray(slot_k, dtype=np.int64),
        f_y=weight.sum(axis=0), truncated=truncated)


def _fold_doc(**jacs):
    doc = json.loads(preset_path("ex1_fold_square").read_text())
    for part in doc["parts"]:
        if part["name"] in jacs:
            part["jac_abs_det"] = jacs[part["name"]]
    return doc


def _fold_points(rows):
    """Fold outputs (x1, |x1 - x2|); every third row sits on or within
    the tolerance of the shared diagonal, where both branches give the
    same preimage and the merge must drop one of them."""
    rng = np.random.default_rng(rows)
    y = np.column_stack([rng.uniform(-2.5, 2.5, rows), rng.uniform(-0.5, 4.5, rows)])
    y[::3, 1] = rng.choice([0.0, 1e-12, 3e-10, 1e-7], size=y[::3].shape[0])
    y[0] = (0.5, 1e-12)
    return y


_BUILD_CASES = {
    # name: (config doc, query points, k_max)
    "fold_merge": (lambda: _fold_doc(), _fold_points, 64),
    "fold_jacobian": (  # invalid rows must read |det J| = 1
        lambda: _fold_doc(below_diagonal="3 + x1", above_diagonal="3 - x2"),
        _fold_points, 64),
    "fold_singular_order": (
        lambda: _fold_doc(below_diagonal="abs(x1 - 0.5)",
                          above_diagonal="abs(x2 - 1.25)"),
        lambda rows: np.tile([[1.0, 0.25], [0.5, 1.0], [0.5, 0.75]], (rows, 1)),
        64),
    "sawtooth": (lambda: _sawtooth_doc(), _query_points, 64),
    "sawtooth_k_max_cut": (lambda: _sawtooth_doc(), _query_points, 3),
    "sawtooth_singular_member": (
        lambda: _sawtooth_doc(jac_abs_det="abs(k - 3)"), _query_points, 64),
    # constant Jacobians: one number per part, no per-row evaluation
    "fold_constant_jacobian": (
        lambda: _fold_doc(below_diagonal="3", above_diagonal="0.5*0.5"),
        _fold_points, 64),
    "fold_singular_constant": (
        lambda: _fold_doc(above_diagonal="2 - 2"), _fold_points, 64),
}


@pytest.mark.parametrize("member_block", [1, transform._MEMBER_BLOCK])
@pytest.mark.parametrize("rows", [1, 37, 5000])
@pytest.mark.parametrize("case", list(_BUILD_CASES))
def test_build_candidates_matches_the_stacked_builder(case, rows, member_block):
    doc, points, k_max = _BUILD_CASES[case]
    setup = load_config(doc())
    m, d = setup.pmap, setup.density
    y = points(rows)
    with patch.object(transform, "_MEMBER_BLOCK", member_block):
        got = _table_or_error(m, d, y, k_max)
    try:
        expected = reference_build_candidates(m, d, y, transform.DEFAULT_TOL,
                                              k_max, member_block)
    except SingularJacobianError as err:
        expected = err
    _assert_same(got, expected)
    if case == "fold_merge":
        # row 0 lies 1e-12 off the diagonal: both branches map it back,
        # and the merge keeps the first
        assert expected.valid[0, 0] and not expected.valid[1, 0]
    elif case == "fold_singular_order":
        # branch 0 is singular at row 1, branch 1 at row 0: the first
        # part's error comes first
        assert isinstance(expected, SingularJacobianError)
        assert np.asarray(expected.x).tolist() == [0.5, -0.5]
    elif case == "sawtooth_k_max_cut":
        assert expected.truncated.all() and expected.x.shape[0] == 3
    elif case in ("sawtooth_singular_member", "fold_singular_constant"):
        assert isinstance(expected, SingularJacobianError)
    else:
        assert not isinstance(got, SingularJacobianError)
        assert got.x.shape[0] == got.part_of_slot.shape[0]


@pytest.mark.parametrize("member_block", [1, transform._MEMBER_BLOCK])
@pytest.mark.parametrize("rows", [1, 37, 5000])
def test_constant_jacobian_table_matches_the_stacked_builder(rows, member_block):
    setup = load_config(_sawtooth_doc())
    m, d = postcompose_affine(setup.pmap, 2.0, 0.0), setup.density
    assert m.parts[0].code.jac.constant == 2.0
    y = 2.0 * _query_points(rows)
    with patch.object(transform, "_MEMBER_BLOCK", member_block):
        got = transform.build_candidates(m, d, y)
    expected = reference_build_candidates(m, d, y, transform.DEFAULT_TOL,
                                          transform.DEFAULT_K_MAX, member_block)
    _assert_same(got, expected)
    assert np.all(got.jac[got.valid] == 2.0)
    assert np.all(got.jac[~got.valid] == 1.0)
    assert np.any(~got.valid) or rows == 1


@pytest.mark.parametrize("name", ["ex1_fold_square", "ex3_exp_sawtooth"])
def test_no_estimator_reads_the_table_jacobian(setups, name):
    # the table's |det J| is computed only when read; the estimators and
    # the scalar operations never read it
    s = setups[name]
    m, d = s.pmap, s.density

    def refuse(table):
        raise AssertionError("CandidateTable.jac was read")

    with patch.object(transform.CandidateTable, "jac", property(refuse)):
        loss.estimate(m, d, 3000, 1, loss.ESTIMATORS, depths=[0, 4])
        loss.loss_eq5_quadrature(m, d, 64)
        x = d.sample(5, 3)
        for yi in m.forward_batch(x, *m.dispatch_batch(x)):
            transform.preimage(m, d, yi)
            transform.output_density(m, d, yi)
            transform.branch_posterior(m, d, yi)


@pytest.mark.parametrize("name", ["ex3_exp_sawtooth", "ex2_square_gaussian"])
def test_table_jacobian_and_preimage_reuse_the_build_jacobian(setups, name):
    # a constant |det J| and an expression one: reading the table's jac
    # and calling preimage evaluate |det J| no more often than the build
    s = setups[name]
    m, d = s.pmap, s.density
    x = d.sample(40, 3)
    y = m.forward_batch(x, *m.dispatch_batch(x))
    calls = []
    real = PiecewiseMap.part_jac

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return real(self, *args, **kwargs)

    with patch.object(PiecewiseMap, "part_jac", counted):
        t = transform.build_candidates(m, d, y)
        built = len(calls)
        assert built > 0
        t.jac
        assert len(calls) == built
        for yi in y[:5]:
            calls.clear()
            transform.build_candidates(m, d, yi[None, :])
            built = len(calls)
            calls.clear()
            assert transform.preimage(m, d, yi).elements
            assert len(calls) <= built


# --- the chunk Jacobian ------------------------------------------------------------------

def reference_chunk_jac(ch):
    """The chunk's |det J| as first written: ones, ``jac_batch`` on the
    gathered bijective rows, scattered back."""
    part_idx, k = ch.dispatch
    jac = np.ones(ch.x.shape[0])
    if np.any(ch.ok):
        jac[ch.ok] = ch.m.jac_batch(ch.x[ch.ok], part_idx[ch.ok], k[ch.ok])
    return jac


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_chunk_jac_matches_the_gathered_reference(setups, name):
    # the first chunk of the preset's own sample stream; every Finite
    # preset, and the Infinite ones, whose chunks hold non-bijective rows
    setup = setups[name]
    a = setup.analysis
    c, mlen = chunk_plan(a.n)[0]
    ch = loss._Chunk(setup.pmap, setup.density,
                     setup.density.sample(mlen, derived_seed(a.seed, c)),
                     a.tol, a.k_max)
    ok = ch.ok
    assert ch.jac[ok].tobytes() == reference_chunk_jac(ch)[ok].tobytes()
    assert ok.all() == (name in FINITE_PRESETS)


# --- tiled posterior entropy ----------------------------------------------------------

def reference_posterior_entropy_bits(table):
    """The full-width posterior entropy: one temporary per step."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = table.weight / np.maximum(table.f_y, 1e-300)
        plogp = np.where(p > 0.0, p * np.log2(np.maximum(p, 1e-300)), 0.0)
    return -plogp.sum(axis=0)


@pytest.mark.parametrize("slots", [0, 1, 30])
@pytest.mark.parametrize("extra", [None, -1, 0, 1, 17])
def test_posterior_entropy_bits_at_tile_edges(slots, extra):
    # a one-column tile cut from the table would be summed pairwise; on
    # one column that rounds like the slot-by-slot sum about half the
    # time, so several tables are checked
    rows = 1 if extra is None else TILE_COLUMNS + extra
    for seed in range(12):
        rng = np.random.default_rng([rows, slots, seed])
        w = rng.random((slots, rows)) ** 8 * 10.0 ** rng.integers(-300, 300, rows)
        w[rng.random((slots, rows)) < 0.3] = 0.0
        w[:, rng.random(rows) < 0.05] = 0.0  # rows off the image
        table = SimpleNamespace(weight=w, f_y=w.sum(axis=0))
        got = transform.posterior_entropy_bits(table)
        expected = reference_posterior_entropy_bits(table)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_posterior_entropy_bits_on_a_sawtooth_chunk():
    setup = load_config(_sawtooth_doc())
    y = _query_points(3 * TILE_COLUMNS + 1)
    table = transform.build_candidates(setup.pmap, setup.density, y)
    assert transform.posterior_entropy_bits(table).tobytes() == \
        reference_posterior_entropy_bits(table).tobytes()


# --- sweep cells by shift ----------------------------------------------------------------

def reference_cells(u, depth):
    """The sweep's per-depth cell index: scale, floor, clip, cast."""
    ncells = 1 << depth
    axes = np.floor(u * ncells)
    axes = np.clip(axes, 0, ncells - 1).astype(np.int64)
    cell = axes[..., 0]
    for dd in range(1, u.shape[-1]):
        cell = cell * ncells + axes[..., dd]
    return cell


_CELL_SPECIALS = [0.0, -0.0, 1.0, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52,
                  5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                  -0.5, -1e300, 1.5, 2.0, 1e300, 0.5, 0.75]


@st.composite
def unit_points(draw):
    """Scaled sweep coordinates (slots, rows, N) and depths with
    depth * N <= 62: 0, 1, 1 - 2**-53, subnormals, values outside
    [0, 1], dyadic points j / 2**e and their float neighbours."""
    dim = draw(st.integers(1, 4))
    depths = draw(st.lists(st.integers(0, 62 // dim), min_size=1, max_size=6))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 5)), dim)

    @st.composite
    def dyadic(draw_):
        e = draw_(st.integers(0, 62))
        v = draw_(st.integers(0, 1 << e)) / float(1 << e)
        step = draw_(st.sampled_from([0, 1, -1, 2, -2]))
        for _ in range(abs(step)):
            v = np.nextafter(v, np.inf if step > 0 else -np.inf)
        return float(v)

    u = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(_CELL_SPECIALS)
                        | dyadic() | st.floats(-0.25, 1.25)))
    return u, depths


@settings(max_examples=400, deadline=None)
@given(unit_points())
def test_cells_by_shift_match_the_per_depth_cells(case):
    u, depths = case
    with np.errstate(over="ignore"):  # 1e300 * 2**d
        got = list(loss._dyadic_cells(u, depths))
        expected_cells = [reference_cells(u, depth) for depth in depths]
    assert len(got) == len(depths)
    for depth, cells, expected in zip(depths, got, expected_cells):
        assert cells.dtype == expected.dtype and cells.shape == expected.shape
        assert cells.tobytes() == expected.tobytes(), depth


def test_cells_by_shift_at_the_deepest_depths():
    # u >= 1 lands on the last cell below depth 54; from 54 on numpy's
    # clip bound 2**d - 1 rounds up to 2**d, and the shift must agree
    u = np.array([[[0.0], [1.0 - 2.0 ** -53], [1.0], [3.0], [1e300]]])
    depths = [0, 1, 31, 53, 54, 61, 62]
    with np.errstate(over="ignore"):  # 1e300 * 2**d
        for depth, cells in zip(depths, loss._dyadic_cells(u, depths)):
            assert cells.tobytes() == reference_cells(u, depth).tobytes(), depth
