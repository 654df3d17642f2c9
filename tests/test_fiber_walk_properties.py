"""The pruned word-tree walk of the exact fiber measure against full enumeration.

``series._fiber_cells`` settles a subtree's cell from the tail bound and
computes every other value with the float operations of
``iter_series_all_words``.  The oracle bins every value that enumerator
yields, under the same chunk cap, so cell indices and word counts must agree
exactly; at b = 2 the weights of ``build_mx_exact`` must also equal, bit for
bit, those of the accumulator that enumerated all words (``old_exact``).
Systems cover b = 2 and 3, phi of degree <= 3 with a constant term, and
gamma on both sides of b gamma = 1.  Explicit cases put every value on a cell
edge (phi = 0, a constant phi) and take the walk across the chunk seam.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab import series
from solenoidlab.measures import DiscreteMeasure, _Hist, build_mx_exact
from solenoidlab.periodic import PeriodicFn
from solenoidlab.series import _fiber_cells, iter_series_all_words
from solenoidlab.words import SystemParams, bin_index

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
POINTS = st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False)
#: Largest enumeration per example: b^depth <= 4096.
MAX_DEPTH = {2: 12, 3: 7}


def oracle_cells(p: SystemParams, x: float, level: int, depth: int, cap: int):
    vals = np.concatenate(list(iter_series_all_words(p, x, depth, chunk_cap=cap)))
    return np.unique(bin_index(vals, p.b, level), return_counts=True)


def walk_cells(p: SystemParams, x: float, level: int, depth: int):
    """The walk's yields summed per cell, as int64 word counts."""
    parts = list(_fiber_cells(p, x, level, depth))
    cells, inv = np.unique(np.concatenate([c for c, _ in parts]), return_inverse=True)
    counts = np.zeros(len(cells), dtype=np.int64)
    np.add.at(counts, inv, np.concatenate([np.full(len(c), w, dtype=np.int64) for c, w in parts]))
    return cells, counts


def old_exact(p: SystemParams, x: float, level: int, depth: int, cap: int) -> DiscreteMeasure:
    """The exact builder that enumerated all words into the accumulator."""
    total = p.b**depth
    hist = _Hist(total)
    for block in iter_series_all_words(p, x, depth, chunk_cap=cap):
        hist.add(bin_index(block, p.b, level), 1.0 / total)
    return DiscreteMeasure(p.b, level, hist.idx, hist.w)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_walk(p: SystemParams, x: float, level: int, depth: int, cap: int) -> None:
    with mock.patch.object(series, "DEFAULT_CHUNK_CAP", cap):
        cells, counts = walk_cells(p, x, level, depth)
        mu = build_mx_exact(p, x, level, depth)
    want_cells, want_counts = oracle_cells(p, x, level, depth, cap)
    assert np.array_equal(cells, want_cells)
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(mu.indices, want_cells)
    if p.b == 2:
        old = old_exact(p, x, level, depth, cap)
        assert same_bits(mu.indices, old.indices) and same_bits(mu.weights, old.weights)


@st.composite
def systems(draw):
    b = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):  # b gamma < 1: subtrees settle early
        gamma = draw(st.floats(0.05, 1.0 / b, exclude_max=True))
    else:
        gamma = draw(st.floats(1.0 / b, 0.95, exclude_min=True))
    degree = draw(st.integers(0, 3))
    coef = st.integers(-8, 8).map(lambda v: v / 8)
    cos = draw(st.lists(coef, min_size=degree + 1, max_size=degree + 1))
    sin = [0.0] + draw(st.lists(coef, min_size=degree, max_size=degree))
    return SystemParams(b, gamma, PeriodicFn(tuple(cos), tuple(sin)))


@SETTINGS
@given(st.data())
def test_walk_counts_every_word_in_its_enumerated_cell(data):
    p, x = data.draw(systems()), data.draw(POINTS)
    # deep words and coarse cells first: a subtree settles once its tail
    # bound fits in a cell, which takes depth well past the level
    depth = MAX_DEPTH[p.b] - data.draw(st.integers(0, MAX_DEPTH[p.b] - 1))
    # the finest level flips a cell on a value rounded one ulp apart
    level = data.draw(st.sampled_from([*range(7), p.max_bin_level()]))
    cap = data.draw(st.sampled_from([p.b ** max(1, depth // 2), series.DEFAULT_CHUNK_CAP]))
    check_walk(p, x, level, depth, cap)


@pytest.mark.parametrize("seam", [False, True])
@pytest.mark.parametrize("b, gamma", [(2, 0.3), (2, 0.7), (3, 0.2), (3, 0.5)])
def test_finest_cells_see_the_rounding_of_every_value(b, gamma, seam):
    p = SystemParams(b, gamma, PeriodicFn((0.25, 1.0, -0.5, 0.375), (0.0, -0.5, 0.25, 0.125)))
    depth = MAX_DEPTH[b]
    cap = b ** (depth // 2) if seam else series.DEFAULT_CHUNK_CAP
    check_walk(p, 0.3, p.max_bin_level(), depth, cap)


@pytest.mark.parametrize("b", [2, 3])
def test_zero_phi_puts_every_word_on_the_edge_at_zero(b):
    p = SystemParams(b, 0.4, PeriodicFn.zero())
    check_walk(p, 0.3, 8, 6, series.DEFAULT_CHUNK_CAP)
    assert [(c.tolist(), w) for c, w in _fiber_cells(p, 0.3, 8, 6)] == [([0], b**6)]


@pytest.mark.parametrize(
    "p, level, depth, edge",
    [
        # 0.5 + 0.25 + 0.125 = 7/8, a level-3 edge
        (SystemParams(2, 0.5, PeriodicFn((0.5,), ())), 3, 3, 7),
        # terms after the first vanish below 1.0's last bit: every value is 1.0,
        # the nodes' cells are tried at every level and none may settle below it
        (SystemParams(2, 2.0**-60, PeriodicFn((1.0,), ())), 20, 10, 2**20),
        (SystemParams(3, 2.0**-60, PeriodicFn((1.0,), ())), 12, 6, 3**12),
        # every value is 4578071723707 / 2^43; at n = 10 the node's value plus
        # the tail bound falls short of that edge, since the rounded partial
        # sums overshoot the exact tail: settling needs the slack
        (SystemParams(2, 0.03932337094474981, PeriodicFn((0.5,), ())), 43, 16, 4578071723707),
    ],
)
def test_constant_phi_on_a_cell_edge(p, level, depth, edge):
    check_walk(p, 0.3, level, depth, series.DEFAULT_CHUNK_CAP)
    cells, counts = walk_cells(p, 0.3, level, depth)
    assert cells.tolist() == [edge] and counts.tolist() == [p.b**depth]


@pytest.mark.parametrize("b, gamma, level, depth, cap", [(2, 0.3, 6, 10, 2**5), (3, 0.2, 5, 7, 3**4)])
def test_walk_across_the_chunk_seam_reads_the_cap_at_call_time(monkeypatch, b, gamma, level, depth, cap):
    p = SystemParams(b, gamma, PeriodicFn((0.25, 1.0), (0.0, -0.5)))
    monkeypatch.setattr(series, "DEFAULT_CHUNK_CAP", cap)
    sizes, original = [], series.eval_deriv

    def eval_deriv(phi, pts, order):
        sizes.append(np.size(pts))
        return original(phi, pts, order)

    monkeypatch.setattr(series, "eval_deriv", eval_deriv)
    cells, counts = walk_cells(p, 0.3, level, depth)
    assert 0 < max(sizes) <= cap  # no level materializes more than one chunk
    want_cells, want_counts = oracle_cells(p, 0.3, level, depth, cap)
    assert np.array_equal(cells, want_cells) and np.array_equal(counts, want_counts)
    check_walk(p, 0.3, level, depth, cap)
