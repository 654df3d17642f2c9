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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab import measures
from solenoidlab.measures import bin_index, build_mx_empirical, tail_sampled_measure
from solenoidlab.partitions import WordMeasure, decomposition_check, measure_B
from solenoidlab.periodic import PeriodicFn
from solenoidlab.words import SystemParams, Word
from test_series_properties import POINTS, digits, systems

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
