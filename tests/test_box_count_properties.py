"""Box counting against a set-of-index-pairs oracle.

The oracle bins every point with Python's ``math.floor(v * b**l)`` and counts
distinct (ix, iy) pairs per level, so it shares neither the occupancy table
and its block reductions nor the packed keys of the fallback with
``box_count_dimension``.  Clouds mix arbitrary floats, b-adic rationals,
negative coordinates and x = 1.0, and are streamed in random chunks with an
empty block among them.  With ``BOX_TABLE_CAP`` patched low, streams stay on
the table, start on keys, or cross from the table to keys mid-stream.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab import fractal
from solenoidlab.dynamics import attractor_points
from solenoidlab.fractal import box_count_dimension
from solenoidlab.periodic import PeriodicFn
from solenoidlab.words import SystemParams, max_level

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def oracle_counts(pts: np.ndarray, levels, b: int) -> list[int]:
    return [
        len({(math.floor(x * float(b) ** lev), math.floor(y * float(b) ** lev)) for x, y in pts})
        for lev in levels
    ]


def coords(lo: float, hi: float):
    dyadic = st.integers(-64, 63).map(lambda v: v / 32)
    special = st.sampled_from([1.0, 0.0, -1.0, 0.5, -1e-300])
    anywhere = st.floats(lo, hi, exclude_max=True, allow_subnormal=False)
    return st.one_of(anywhere, dyadic, special)


@st.composite
def clouds(draw, lo=-2.0, hi=2.0):
    b = draw(st.sampled_from([2, 3, 4]))
    cap = max_level(b, 2**30)
    levels = sorted(draw(st.sets(st.integers(0, cap), min_size=3, max_size=5)))
    n = draw(st.integers(1, 120))
    pts = np.array(draw(st.lists(st.tuples(coords(lo, hi), coords(lo, hi)), min_size=n, max_size=n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    empty_at = draw(st.integers(0, len(cuts) + 1))
    blocks = [pts[i:j] for i, j in zip([0, *cuts], [*cuts, n])]
    blocks.insert(empty_at, pts[:0])
    chunks = [(blk[:, 0], blk[:, 1]) for blk in blocks]
    return b, levels, pts, chunks


@SETTINGS
@given(clouds())
def test_counts_match_index_pair_oracle(cloud):
    b, levels, pts, chunks = cloud
    want = oracle_counts(pts, levels, b)
    if want[0] < 2:
        with pytest.raises(ValueError, match="fewer than 2 cells"):
            box_count_dimension(chunks, levels, b)
        return
    whole = box_count_dimension([(pts[:, 0], pts[:, 1])], levels, b)
    assert list(whole.counts) == want
    assert box_count_dimension(chunks, levels, b) == whole


@SETTINGS
@given(clouds())
def test_counts_grow_at_most_b_squared_per_level(cloud):
    b, levels, pts, chunks = cloud
    counts = oracle_counts(pts, levels, b)
    if counts[0] < 2:
        return
    got = box_count_dimension(chunks, levels, b).counts
    for (l0, c0), (l1, c1) in zip(zip(levels, got), zip(levels[1:], got[1:])):
        assert c0 <= c1 <= b ** (2 * (l1 - l0)) * c0


@SETTINGS
@given(clouds(lo=-8.0, hi=8.0))
def test_indices_outside_packed_keys_raise(cloud):
    # Packed keys are exact only for finest-level indices in [-2^31, 2^31).
    b, levels, pts, chunks = cloud
    finest = [math.floor(v * float(b) ** levels[-1]) for v in pts.ravel()]
    want = oracle_counts(pts, levels, b)
    if not all(-(2**31) <= i < 2**31 for i in finest):
        with pytest.raises(ValueError, match="packed box keys"):
            box_count_dimension(chunks, levels, b)
    elif want[0] >= 2:
        assert list(box_count_dimension(chunks, levels, b).counts) == want


def test_sparse_cloud_at_deep_level_is_counted():
    rng = np.random.default_rng(5)
    pts = rng.random((50, 2)) * 2.0 - 1.0
    levels = [2, 10, 20]
    res = box_count_dimension([(pts[:, 0], pts[:, 1])], levels, b=2)
    assert list(res.counts) == oracle_counts(pts, levels, 2)
    assert res.counts[-1] == 50


def three_chunk_stream():
    """Level-6 boxes at b=2: a first chunk whose table (rows and columns on
    multiples of 2^4) holds 64 x 96 cells, an empty block, and two chunks far
    below that widen it to 224 x 96.  Holds x = 1.0 and negative x and y."""
    rng = np.random.default_rng(11)
    first = np.column_stack([rng.random(200), rng.random(200) - 0.5])
    first[:3] = [[1.0, 0.25], [-0.01, -0.5], [0.5, -1e-300]]
    below = np.column_stack([rng.random(100), rng.random(100) * -2.5 - 0.5])
    blocks = [first, first[:0], below[:50], below[50:]]
    return [(blk[:, 0], blk[:, 1]) for blk in blocks], np.concatenate(blocks)


@pytest.mark.parametrize(
    "cap, key_calls",
    [(224 * 96, 0), (64 * 96 - 1, 3), (64 * 96, 2)],
    ids=["stays-on-table", "starts-on-keys", "crosses-mid-stream"],
)
def test_table_and_keys_give_the_oracle_counts(cap, key_calls):
    chunks, pts = three_chunk_stream()
    levels = [2, 4, 6]
    with mock.patch.object(fractal, "BOX_TABLE_CAP", cap), mock.patch.object(
        fractal, "_occupied_keys", wraps=fractal._occupied_keys
    ) as keys:
        res = box_count_dimension(chunks, levels, b=2)
    assert keys.call_count == key_calls
    assert list(res.counts) == oracle_counts(pts, levels, 2)


def table_sizes(chunks, levels, b) -> list[int]:
    """Cells of each occupancy table an uncapped count of the stream builds."""
    widen, sizes = fractal._widen, []

    def spy(*args):
        grown = widen(*args)
        if grown is not None:
            sizes.append(grown[0].size)
        return grown

    with mock.patch.object(fractal, "_widen", spy):
        box_count_dimension(chunks, levels, b)
    return sizes


@SETTINGS
@given(clouds())
def test_counts_match_oracle_at_every_table_cap(cloud):
    # Caps of 0, of each table's size and of one cell less send the stream to
    # keys at once, keep it on the table, or switch it to keys where it grows.
    b, levels, pts, chunks = cloud
    levels = sorted({lev % 7 for lev in levels})
    if len(levels) < 3:
        return
    want = oracle_counts(pts, levels, b)
    if want[0] < 2:
        with pytest.raises(ValueError, match="fewer than 2 cells"):
            box_count_dimension(chunks, levels, b)
        return
    for cap in {0, *(n - d for n in table_sizes(chunks, levels, b) for d in (0, 1))}:
        with mock.patch.object(fractal, "BOX_TABLE_CAP", cap):
            assert list(box_count_dimension(chunks, levels, b).counts) == want


@pytest.mark.parametrize("cap", [0, 2**24])
def test_errors_are_the_same_on_table_and_keys(cap):
    pts = np.array([[0.0, 2.5], [0.9, 0.9]])
    with mock.patch.object(fractal, "BOX_TABLE_CAP", cap):
        with pytest.raises(ValueError, match="no points supplied"):
            box_count_dimension([(pts[:0, 0], pts[:0, 1])] * 2, [1, 2, 3])
        with pytest.raises(ValueError, match="fewer than 2 cells"):
            box_count_dimension([(pts[1:, 0], pts[1:, 1])], [1, 2, 3])
        with pytest.raises(ValueError, match="packed box keys"):
            box_count_dimension([(pts[1:, 0], pts[1:, 1]), (pts[:1, 0], pts[:1, 1])], [28, 29, 30])


def test_criterion_1_shape_stays_on_the_table():
    # Orbit points lie in [0, 1) x [-M, M], so at level 10 the table needs at
    # most (2M 2^10 + 2 * 2^6 + 1) rows of 2^10 columns at any number of points.
    p = SystemParams(2, 0.4, PeriodicFn.cosine())
    assert (2 * p.fiber_bound * 2**10 + 2 * 2**6 + 1) * 2**10 <= fractal.BOX_TABLE_CAP
    with mock.patch.object(fractal, "_occupied_keys", side_effect=AssertionError("took the key path")):
        table = box_count_dimension(attractor_points(p, 2 * 10**5, seed=102), range(4, 11), b=2)
    with mock.patch.object(fractal, "BOX_TABLE_CAP", 0):
        keys = box_count_dimension(attractor_points(p, 2 * 10**5, seed=102), range(4, 11), b=2)
    assert table == keys
