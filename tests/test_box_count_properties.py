"""Box counting against a set-of-index-pairs oracle.

The oracle bins every point with Python's ``math.floor(v * b**l)`` and counts
distinct (ix, iy) pairs per level, so it shares neither the packed keys nor
the sorted-run merge with ``box_count_dimension``.  Clouds mix arbitrary
floats, b-adic rationals, negative coordinates and x = 1.0, and are streamed
in random chunks with an empty block among them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab.fractal import box_count_dimension
from solenoidlab.words import max_level

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
