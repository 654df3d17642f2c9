"""The tail-sampled builders against their certified envelopes.

|S(p, tail)| <= fiber_bound = sup|phi| / (1 - gamma) for every point p and
every tail, so the empirical fiber measure sits in [-M, M] and each atom of
``measure_B`` lies within gamma^L M of its head value S(x0, w), L = |w|.
Binning a value inside an interval lands in the cells of the interval's end
points; ``measure_B`` gets one cell of slack on each side for the rounding of
head + gamma^L tail.  Every sample weighs the same, so every head carries the
same mass and each cell a whole number of samples, whatever the chunk rule
cuts.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab import measures
from solenoidlab.measures import (
    DiscreteMeasure,
    bin_index,
    build_mx_empirical,
    tail_sampled_measure,
    total_variation,
)
from solenoidlab.partitions import WordMeasure, decomposition_check, measure_B
from solenoidlab.periodic import PeriodicFn
from solenoidlab.separation import GENERIC_BASE_POINT
from solenoidlab.series import series_at_codes
from solenoidlab.words import SystemParams, Word
from test_series_properties import POINTS, TOL_ULPS, digits, systems

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(st.data())
def test_empirical_atoms_lie_within_the_fiber_bound(data):
    p, x = data.draw(systems()), data.draw(POINTS)
    level = data.draw(st.integers(0, 12))
    n = data.draw(st.integers(1, 300))
    mu = build_mx_empirical(p, x, level, n, data.draw(st.integers(0, 2**32)))
    m = p.fiber_bound
    assert bin_index(-m, p.b, level) <= mu.indices[0]
    assert mu.indices[-1] <= bin_index(m, p.b, level)
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)


@SETTINGS
@given(st.data())
def test_measure_B_atoms_lie_within_the_head_envelope(data):
    p, x0 = data.draw(systems()), data.draw(POINTS)
    xi = WordMeasure(p, data.draw(st.integers(0, 4)), Word(data.draw(digits(p.b, 3)), p.b))
    q = Word(data.draw(digits(p.b, 3)), p.b)
    xi = WordMeasure(p, xi.prefix_len, xi.suffix.concat(q))
    level = data.draw(st.integers(0, 12))
    samples = data.draw(st.integers(1, 8))
    mu = measure_B(p, xi, x0, samples, data.draw(st.integers(0, 2**32)), level)
    heads = xi.series(x0)
    reach = p.gamma**xi.word_length * p.fiber_bound
    assert bin_index(heads.min() - reach, p.b, level) - 1 <= mu.indices[0]
    assert mu.indices[-1] <= bin_index(heads.max() + reach, p.b, level) + 1
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)


@SETTINGS
@given(st.data())
def test_every_head_gets_its_samples_under_any_chunk(data):
    p = data.draw(systems())
    n_heads = data.draw(st.integers(1, 6))
    samples = data.draw(st.integers(1, 12))
    chunk = data.draw(st.integers(1, 8))
    # unit-spaced heads and tails shrunk below a quarter unit: one head per unit cell
    contraction = 0.25 / (1.0 + p.fiber_bound)
    heads = np.arange(n_heads, dtype=float) + 0.5
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    with mock.patch.object(measures, "_CHUNK", chunk):
        mu = tail_sampled_measure(p, heads, np.zeros(n_heads), contraction, samples, 3, rng)
    per_head = np.bincount(mu.indices // p.b**3, weights=mu.weights, minlength=n_heads)
    assert np.allclose(per_head, 1.0 / n_heads, rtol=0, atol=1e-12)
    counts = mu.weights * (n_heads * samples)  # whole sample counts per cell
    assert np.allclose(counts, np.round(counts), rtol=0, atol=1e-9)


def test_decomposition_residual_within_budget_for_base_3():
    p = SystemParams(3, 0.5, PeriodicFn.cosine())
    rep = decomposition_check(p, n=2, i_level=2, level=4, seed=0)
    assert rep.n_hat == rep.i_hat == 4
    assert rep.atoms == 3 ** (4 + 4) * 4
    assert math.isfinite(rep.residual) and rep.residual <= rep.error_budget


@pytest.mark.parametrize(
    "heads, tips", [([0.0], [0.1, 0.2, 0.3]), ([0.0, 1.0], [0.5]), ([[0.0]], [[0.5]])]
)
def test_heads_and_tips_of_other_shapes_are_refused(heads, tips):
    p = SystemParams(2, 0.4, PeriodicFn.cosine())
    shapes = f"{np.shape(heads)} and {np.shape(tips)}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        tail_sampled_measure(p, heads, tips, 1.0, 5, 4, np.random.default_rng(0))


def test_tabled_cells_agree_with_the_oracle_on_replayed_digits():
    """``build_mx_empirical`` reads its tails' first digits from a prefix tile
    (2^16 samples set 12 of them); its values lie within TOL_ULPS eps
    sup|phi| / (1 - gamma) of the per-digit series of the same digits, so a
    sample can change cells only where that oracle value lies within the
    bound of a cell edge, and the TV distance is at most their share."""
    p = SystemParams(2, 0.4, PeriodicFn.cosine())
    level, n, seed = 16, 2**16, 5
    mu = build_mx_empirical(p, GENERIC_BASE_POINT, level, n, seed)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 2**p.truncation_depth, size=n)  # one code per tail: 24 digits <= 53
    vals = series_at_codes(p, GENERIC_BASE_POINT, p.truncation_depth, codes)
    r = TOL_ULPS * np.finfo(float).eps * p.fiber_bound
    near = np.count_nonzero(bin_index(vals - r, 2, level) != bin_index(vals + r, 2, level))
    assert total_variation(mu, DiscreteMeasure.from_values(2, level, vals)) <= near / n
