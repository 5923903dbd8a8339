"""Hot-path kernels against the straightforward numpy forms they replace.

The report's bytes depend on these kernels doing the same float
operations in the same order as the reference forms, so every
comparison here is on the raw bytes, not within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infoloss.loss import _grouped_entropy_bits
from infoloss.numerics import row_all, row_max


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
    got = _grouped_entropy_bits(cells.copy(), w.copy(), f_y.copy())
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("slots", [0, 1, 2, 40])
def test_grouped_entropy_bits_edge_slot_counts(slots):
    rng = np.random.default_rng(slots)
    cells = rng.integers(-1, 3, size=(slots, 7))
    w = np.where(cells >= 0, rng.random((slots, 7)), 0.0)
    f_y = w.sum(axis=0)
    expected = reference_grouped_entropy_bits(cells, w, f_y)
    assert _grouped_entropy_bits(cells, w, f_y).tobytes() == expected.tobytes()


_ENTRIES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.0, 3e-310]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64,
                  st.tuples(st.integers(0, 5), st.integers(1, 3)),
                  elements=st.sampled_from(_ENTRIES)))
def test_row_helpers_match_numpy_row_reductions(a):
    before = a.tobytes()
    for helper, reference, arg in ((row_max, np.max, a),
                                   (row_all, np.all, a),
                                   (row_all, np.all, np.isfinite(a))):
        got, expected = helper(arg), reference(arg, axis=1)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert not np.shares_memory(got, arg)
    assert a.tobytes() == before


@pytest.mark.parametrize("rows", [0, 1])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_row_helpers_small_shapes_leave_the_input_alone(rows, dim):
    a = np.arange(rows * dim, dtype=float).reshape(rows, dim) - 0.5
    before = a.copy()
    out = row_max(a)
    assert out.tobytes() == np.max(a, axis=1).tobytes()
    out += 1.0
    ok = row_all(a > 0.0)
    assert ok.tobytes() == np.all(a > 0.0, axis=1).tobytes()
    ok[...] = False
    assert a.tobytes() == before.tobytes()
