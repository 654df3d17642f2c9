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
    hist = _Hist()
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
