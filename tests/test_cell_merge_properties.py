"""The one (index, weight) merge against a Python dict oracle.

The oracle adds each weight to its key's running sum in stream order, the
order ``_merge_cells`` promises, so tables must agree bit for bit.  Streams
repeat keys, include negative indices, mix weights over sixteen orders of
magnitude (so a different summation order shows in the bits), and are split
at random points with an empty chunk among the pieces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab.measures import DiscreteMeasure, _Hist, _merge_cells
from solenoidlab.words import sorted_unique

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-8, 1e8))


def oracle(idx: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    acc: dict[int, float] = {}
    for k, v in zip(idx.tolist(), w.tolist()):
        acc[k] = acc.get(k, 0.0) + v
    keys = sorted(acc)
    return np.array(keys, dtype=np.int64), np.array([acc[k] for k in keys])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def streams(draw):
    keys = draw(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=12))
    n = draw(st.integers(1, 200))
    idx = np.array(draw(st.lists(st.sampled_from(keys), min_size=n, max_size=n)), dtype=np.int64)
    w = np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    return idx, w


@SETTINGS
@given(streams(), st.data())
def test_hist_over_chunks_equals_stream_order_oracle(stream, data):
    idx, w = stream
    cuts = sorted(data.draw(st.lists(st.integers(0, len(idx)), max_size=6)))
    pieces = np.split(np.arange(len(idx)), cuts)
    pieces.insert(data.draw(st.integers(0, len(pieces))), np.arange(0))
    hist = _Hist(0)
    for sl in pieces:
        hist.add(idx[sl], w[sl])
    want_idx, want_w = oracle(idx, w)
    assert same_bits(hist.idx, want_idx)
    assert same_bits(hist.w, want_w)


@SETTINGS
@given(streams(), st.data())
def test_measure_from_shuffled_stream_equals_normalized_oracle(stream, data):
    idx, w = stream
    w[0] = 1.0  # positive total mass
    perm = np.array(data.draw(st.permutations(range(len(idx)))), dtype=np.intp)
    idx, w = idx[perm], w[perm]
    mu = DiscreteMeasure(2, 10, idx, w)
    want_idx, want_w = oracle(idx, w)
    keep = want_w > 0
    want_idx, want_w = want_idx[keep], want_w[keep]
    assert same_bits(mu.indices, want_idx)
    assert same_bits(mu.weights, want_w / want_w.sum())


@SETTINGS
@given(
    st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=50, unique=True),
    st.data(),
)
def test_merge_of_distinct_unsorted_table_keeps_weights(keys, data):
    idx = np.array(keys, dtype=np.int64)
    w = np.array(data.draw(st.lists(st.floats(1e-8, 1e8), min_size=len(keys), max_size=len(keys))))
    u, acc = _merge_cells(idx, w)
    order = np.argsort(idx)
    assert same_bits(u, idx[order])
    assert same_bits(acc, w[order])


# The accumulator keeps a dense window while the key span is at most
# 2 * items + 1024 and a sorted table beyond; both must match the oracle.

def bound(items: int) -> int:
    return 2 * items + 1024


def accumulate(hist: _Hist, idx: np.ndarray, w: np.ndarray, cuts) -> _Hist:
    for sl in np.split(np.arange(len(idx)), sorted(cuts)):
        hist.add(idx[sl], w[sl])
    return hist


@st.composite
def window_streams(draw, max_width=1024):
    """A stream whose keys lie in [base, base + width], base possibly negative."""
    base = draw(st.integers(-(2**40), 2**40))
    width = draw(st.integers(0, max_width))
    n = draw(st.integers(1, 200))
    offs = draw(st.lists(st.integers(0, width), min_size=n, max_size=n))
    w = np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    cuts = draw(st.lists(st.integers(0, n), max_size=6))
    return base + np.array(offs, dtype=np.int64), w, cuts


@SETTINGS
@given(window_streams())
def test_dense_stream_with_declared_total_equals_oracle(stream):
    idx, w, cuts = stream
    hist = accumulate(_Hist(len(idx)), idx, w, cuts)
    assert hist.table is None
    want_idx, want_w = oracle(idx, w)
    assert same_bits(hist.idx, want_idx)
    assert same_bits(hist.w, want_w)


@SETTINGS
@given(window_streams(), st.integers(0, 2**20), st.data())
def test_stream_crossing_from_dense_to_sparse_equals_oracle(stream, beyond, data):
    idx, w, cuts = stream
    items = len(idx) + 1
    far = idx.min() + bound(items) + beyond
    tail_w = data.draw(WEIGHTS)
    hist = accumulate(_Hist(items), idx, w, cuts)
    assert hist.table is None
    hist.add(np.array([far], dtype=np.int64), np.array([tail_w]))
    assert hist.table is not None
    want_idx, want_w = oracle(np.append(idx, far), np.append(w, tail_w))
    assert same_bits(hist.idx, want_idx)
    assert same_bits(hist.w, want_w)


@SETTINGS
@given(window_streams(max_width=0), st.integers(0, 1), st.data())
def test_keys_at_both_window_edges_equal_oracle(stream, past, data):
    """Keys at lo and lo + bound - 1 keep the window; one cell further leaves it."""
    idx, w, cuts = stream
    lo = int(idx[0])
    items = len(idx) + 2
    ends = np.array([lo, lo + bound(items) - 1 + past], dtype=np.int64)
    idx = np.concatenate([ends[:1], idx, ends[1:]])
    w = np.concatenate([data.draw(st.lists(WEIGHTS, min_size=1, max_size=1)), w,
                        data.draw(st.lists(WEIGHTS, min_size=1, max_size=1))])
    hist = accumulate(_Hist(items), idx, w, cuts)
    assert (hist.table is None) == (past == 0)
    want_idx, want_w = oracle(idx, w)
    assert same_bits(hist.idx, want_idx)
    assert same_bits(hist.w, want_w)


@SETTINGS
@given(window_streams(), st.booleans())
def test_zero_weight_cells_are_kept_in_both_regimes(stream, sparse):
    idx, _, cuts = stream
    if sparse:
        idx = np.append(idx, idx.min() + bound(len(idx) + 1))
    hist = accumulate(_Hist(len(idx)), idx, np.zeros(len(idx)), cuts)
    assert (hist.table is None) != sparse
    assert same_bits(hist.idx, sorted_unique(idx))
    assert same_bits(hist.w, np.zeros(len(hist.idx)))


@SETTINGS
@given(window_streams(), st.sampled_from([1.0, 2.0**-24, 1.0 / 3.0]), st.booleans())
def test_scalar_weight_equals_weight_array(stream, weight, sparse):
    idx, _, cuts = stream
    if sparse:
        idx = np.append(idx, idx.min() - bound(len(idx) + 1))
    full = accumulate(_Hist(len(idx)), idx, np.full(len(idx), weight), cuts)
    scalar = _Hist(len(idx))
    for sl in np.split(np.arange(len(idx)), sorted(cuts)):
        scalar.add(idx[sl], weight)
    assert same_bits(scalar.idx, full.idx)
    assert same_bits(scalar.w, full.w)
