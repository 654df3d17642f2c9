import math

import numpy as np
import pytest

from solenoidlab import separation, series
from solenoidlab.periodic import PeriodicFn, cohomological_phi, sup_norm
from solenoidlab.separation import (
    GENERIC_BASE_POINT,
    condition_H_scan,
    exp_separation_scan,
    min_gap,
    transversality_search,
    validate_certificate,
)
from solenoidlab.words import SystemParams, Word

COS = PeriodicFn.cosine()


def params(b=2, gamma=0.4, phi=COS):
    return SystemParams(b, gamma, phi)


# ------------------------------------------------------------------ min gap

def test_min_gap_zero_phi():
    p = params(phi=PeriodicFn.zero())
    assert min_gap(p, 0.3, Word((1, 0), 2), 8) == 0.0


def test_min_gap_degenerate_phi_below_tail():
    psi = PeriodicFn.cosine()
    p = params(phi=cohomological_phi(psi, 2, 0.4))
    w = Word((1, 0, 1), 2)
    n = 12
    # all values coincide with psi(x) up to the telescoped remainder
    assert min_gap(p, 0.3, w, n) <= 2 * 0.4**n * sup_norm(psi, 0)


def test_min_gap_positive_and_reproducible():
    p = params()
    w = Word((1, 0, 1), 2)
    g1 = min_gap(p, 0.3, w, 12)
    g2 = min_gap(p, 0.3, w, 12)
    assert g1 > 0.0
    assert g1 == g2


def test_min_gap_guards():
    p = params()
    with pytest.raises(ValueError):
        min_gap(p, 0.3, Word((1, 0, 1), 2), 3)
    with pytest.raises(ValueError):
        min_gap(p, 0.3, Word.empty(2), 30)


# --------------------------------------------------------------------- scan

def test_scan_epsilon_one_fails_at_deep_scales():
    p = params()
    scan = exp_separation_scan(p, 0.3, 4, 1.0, range(8, 13))
    assert scan.passing == ()


def test_scan_tiny_epsilon_passes_where_gaps_positive():
    p = params()
    scan = exp_separation_scan(p, 0.3, 4, 1e-9, range(8, 13))
    assert scan.passing == tuple(range(8, 13))
    assert scan.epsilon_max > 0


def test_scan_monotone_in_epsilon():
    p = params()
    big = exp_separation_scan(p, 0.3, 4, 0.5, range(8, 13))
    small = exp_separation_scan(p, 0.3, 4, 0.3, range(8, 13))
    assert set(big.passing) <= set(small.passing)


def test_scan_value_sets_live_at_matched_scale():
    p = params()
    scan = exp_separation_scan(p, 0.3, 4, 0.25, [10])
    nh = scan.nhats[0]
    w = Word(tuple(int(ch) for ch in scan.worst_words[0]), 2)
    assert scan.min_gaps[0] == pytest.approx(min_gap(p, 0.3, w, nh))
    assert scan.thresholds[0] == pytest.approx(0.25**nh)


@pytest.mark.parametrize(
    "b, gamma, ns, ell, word_cap",
    [
        (2, 0.4, range(6, 11), 3, separation.WORD_CAP),  # the full suffix set
        (2, 0.4, range(6, 11), 4, 8),  # 8 suffixes sampled of 16
        (3, 0.5, range(3, 6), 2, separation.WORD_CAP),
        (3, 0.5, range(3, 6), 3, 8),
    ],
)
def test_scan_rows_equal_the_min_gap_oracle(monkeypatch, b, gamma, ns, ell, word_cap):
    p, x, seed = params(b, gamma), 0.3, 5
    monkeypatch.setattr(separation, "WORD_CAP", word_cap)
    scan = exp_separation_scan(p, x, ell, 0.25, ns, seed=seed)
    sampled = b**ell > word_cap
    codes = np.sort(np.random.default_rng(seed).integers(0, b**ell, word_cap)) if sampled else np.arange(b**ell)
    assert scan.sampled_words == sampled
    suffixes = [Word.from_code(int(c), ell, b) for c in codes]
    for nh, gap, worst in zip(scan.nhats, scan.min_gaps, scan.worst_words):
        gaps = [min_gap(p, x, w, nh) for w in suffixes]
        assert gap == min(gaps)
        assert worst == suffixes[gaps.index(gap)].to_string()  # the first minimal suffix
    # a cap at which the largest tile fits and the suffixes go two at a time
    # there, set on series alone: no array the scan forms holds more values
    cap = 2 * b ** (max(scan.nhats) - ell)
    sizes, eval_deriv = [], series.eval_deriv
    monkeypatch.setattr(series, "eval_deriv", lambda phi, pts, order: sizes.append(np.size(pts)) or
                        eval_deriv(phi, pts, order))
    monkeypatch.setattr(series, "DEFAULT_CHUNK_CAP", cap)
    split = exp_separation_scan(p, x, ell, 0.25, ns, seed=seed)
    assert split == scan
    assert np.array(split.min_gaps).tobytes() == np.array(scan.min_gaps).tobytes()
    assert 0 < max(sizes) <= cap


def test_scan_refuses_an_over_cap_scale_before_any_work(monkeypatch):
    steps = []
    tile_step = separation._tile_step
    monkeypatch.setattr(separation, "_tile_step", lambda *args: steps.append(args) or tile_step(*args))
    monkeypatch.setattr(series, "DEFAULT_CHUNK_CAP", 2**5)
    # nhat(9) - 2 = 5 fits the cap; nhat(10) - 2 = 6 does not
    with pytest.raises(ValueError, match=r"^exp_separation_scan: scale n=10 \(nhat=8, ell=2\) needs b\^6 = 64 "
                       r"words, above the materialization cap 32; the longest length allowed at b=2 is 5$"):
        exp_separation_scan(params(), 0.3, 2, 0.25, range(6, 12))
    assert steps == []


@pytest.mark.parametrize("b, ell, n", [(2, 63, 84), (8, 21, 10)])
def test_scan_samples_suffixes_up_to_the_int64_bound(b, ell, n):
    """b^ell = 2^63: the largest draw ``check_draw`` allows.  The sampled
    suffixes are distinct, and the scan's gap is its worst word's ``min_gap``."""
    p, x, seed = params(b), 0.3, 3
    scan = exp_separation_scan(p, x, ell, 0.25, [n], seed=seed)
    assert scan.sampled_words and math.isfinite(scan.min_gaps[0])
    worst = Word(tuple(int(c) for c in scan.worst_words[0]), b)
    assert scan.min_gaps[0] == min_gap(p, x, worst, scan.nhats[0])
    codes = np.unique(np.random.default_rng(seed).integers(0, b**ell, separation.WORD_CAP))
    for c in codes[:8]:
        assert scan.min_gaps[0] <= min_gap(p, x, Word.from_code(int(c), ell, b), scan.nhats[0])


# ----------------------------------------------------------------- dichotomy

def test_dichotomy_zero_phi_degenerate():
    p = params(phi=PeriodicFn.zero())
    assert condition_H_scan(p, x_grid_size=64, word_depth=12).verdict == "H*"


def test_dichotomy_cohomological_degenerate():
    p = params(phi=cohomological_phi(PeriodicFn.cosine(), 2, 0.4))
    v = condition_H_scan(p, x_grid_size=64, word_depth=12)
    assert v.verdict == "H*"
    assert v.degeneracy_bound is not None


@pytest.mark.parametrize("b,gamma", [(2, 0.4), (2, 0.45), (3, 0.5)])
def test_dichotomy_cosine_non_degenerate(b, gamma):
    v = condition_H_scan(SystemParams(b, gamma, COS), x_grid_size=64, word_depth=12)
    assert v.verdict == "H"
    assert v.sup_gap > 10 * v.budget
    assert v.witness_pair[0].digits[0] != v.witness_pair[1].digits[0]


# ------------------------------------------------------------- transversality

def test_transversality_zero_phi_fails():
    assert transversality_search(params(phi=PeriodicFn.zero()), [2, 3], grid_size=1024) is None
    with pytest.raises(ValueError, match=r"t=13 is 8192, above WORD_CAP 4096; .* b=2 is 12"):
        transversality_search(params(phi=PeriodicFn.zero()), [13], grid_size=1024)


def test_transversality_degenerate_fails():
    p = params(phi=cohomological_phi(PeriodicFn.cosine(), 2, 0.4))
    assert transversality_search(p, [2, 3], grid_size=1024) is None


def test_transversality_cosine_certificate():
    p = params()
    cert = transversality_search(p, [4], grid_size=1024)
    assert cert is not None
    assert cert.delta1 > 0
    assert cert.h != cert.h_prime
    assert validate_certificate(p, cert)


def test_transversality_small_prefix_certificate():
    p = params()
    cert = transversality_search(p, [2], grid_size=1024)
    assert cert is not None and cert.t == 2
    assert validate_certificate(p, cert)


def test_dichotomy_scan_depth_reaches_exact_power_budget():
    v = condition_H_scan(SystemParams(3, 0.3, COS), x_grid_size=16, word_depth=10)
    assert v.verdict == "H"
    assert [len(w) for w in v.witness_pair] == [10, 10]


@pytest.mark.parametrize(
    "phi, ell, n_list, min_gaps, epsilon_max",
    [
        (COS, 2, [1], (math.inf,), math.inf),  # nhat(1) = 1 <= ell: no value set, and no finite gap
        (PeriodicFn.zero(), 1, [4], (0.0,), 0.0),  # every value 0: a zero gap admits no epsilon
    ],
)
def test_scan_edge_rows(phi, ell, n_list, min_gaps, epsilon_max):
    scan = exp_separation_scan(params(phi=phi), 0.3, ell, 0.5, n_list)
    assert scan.min_gaps == min_gaps
    assert scan.epsilon_max == epsilon_max
    assert scan.passing == tuple(n for n, g in zip(n_list, min_gaps) if g == math.inf)
