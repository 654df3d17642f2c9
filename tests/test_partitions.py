import math

import numpy as np
import pytest

from solenoidlab.entropy import entropy
from solenoidlab.measures import DiscreteMeasure, total_variation
from solenoidlab import partitions
from solenoidlab.partitions import (
    WordMeasure,
    decomposition_check,
    measure_B,
    partition_key,
    separation_exponent,
    theta_entropy_table,
    theta_measure,
)
from solenoidlab.periodic import PeriodicFn
from solenoidlab.separation import exp_separation_scan, transversality_search
from solenoidlab.series import series_at_codes
from solenoidlab.words import SystemParams, Word, nhat

COS = PeriodicFn.cosine()


def params(b=2, gamma=0.4, phi=COS):
    return SystemParams(b, gamma, phi)


@pytest.fixture(scope="module")
def cert():
    return transversality_search(params(), [2], grid_size=1024)


# --------------------------------------------------------------------- keys

def test_key_coarse_level_example(cert):
    p = params()
    w = Word((1, 0, 1, 1, 0, 0, 1, 0, 1, 1), 2)
    key = partition_key(p, w, 0, cert.x0, cert.h, cert.h_prime)
    assert key.m == 10
    assert key.cell1 is None and key.cell2 is None
    assert key.cell3_level == int(10 * math.log(2.5) / math.log(2))  # 13
    assert key.cell3_level == 13


def test_key_determinism_and_fields(cert):
    p = params()
    w = Word((1, 1, 0, 1), 2)
    k1 = partition_key(p, w, 3, cert.x0, cert.h, cert.h_prime)
    k2 = partition_key(p, Word((1, 1, 0, 1), 2), 3, cert.x0, cert.h, cert.h_prime)
    assert k1 == k2
    assert k1.n == 3 and k1.cell1 is not None


def test_keys_refine_with_level(cert):
    p = params()
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = int(rng.integers(2, 12))
        w = Word(tuple(int(v) for v in rng.integers(0, 2, m)), 2)
        for n in (1, 3, 5):
            fine = partition_key(p, w, n + 1, cert.x0, cert.h, cert.h_prime)
            coarse = partition_key(p, w, n, cert.x0, cert.h, cert.h_prime)
            # the coarse key is a deterministic coarsening of the fine key
            assert fine.cell1 // 2 == coarse.cell1
            assert fine.cell2 // 2 == coarse.cell2
            assert fine.cell3 // 2 == coarse.cell3
            assert fine.cell3_level == coarse.cell3_level + 1


# -------------------------------------------------------------------- theta

def test_theta_support_and_mass():
    p = params()
    a4 = Word((1, 0, 1, 1), 2)
    th = theta_measure(p, a4, 10)
    assert nhat(10, 2, 0.4) == 8
    assert len(th.codes) == 2 ** (8 - 4)
    assert th.weights.sum() == pytest.approx(1.0)
    words = [Word.from_code(int(c), th.prefix_len, 2).concat(th.suffix) for c in th.codes]
    assert all(w.digits[-4:] == a4.digits for w in words)
    assert len({w.to_string() for w in words}) == 16


def test_theta_minimal_case_and_guards():
    p = params()
    a = Word((1,) * 7, 2)  # nhat(10)=8, so prefixes have length 1
    th = theta_measure(p, a, 10)
    assert len(th.codes) == 2
    assert np.allclose(th.weights, 0.5)
    with pytest.raises(ValueError):
        theta_measure(p, Word((1,) * 8, 2), 10)  # nhat == t
    with pytest.raises(ValueError):
        theta_measure(p, Word((1,), 2), 40)


# ---------------------------------------------------------------- measure_B

def test_measure_B_zero_phi(cert):
    p = params(phi=PeriodicFn.zero())
    xi = theta_measure(p, cert.a, 8)
    xi_q = WordMeasure(p, xi.prefix_len, xi.suffix.concat(Word((1, 1), 2)))
    mu = measure_B(p, xi_q, 0.3, tail_samples=3, seed=0, level=8)
    assert len(mu.indices) == 1 and mu.indices[0] == 0


def test_measure_B_single_word_concentrates(cert):
    p = params()
    xi = theta_measure(p, cert.a, 6)
    q = Word((1, 0, 1), 2)
    one = WordMeasure(p, 0, xi.suffix.concat(q))
    mu = measure_B(p, one, cert.x0, tail_samples=16, seed=2, level=12)
    head_len = len(xi.suffix) + len(q)
    spread = 2 * p.gamma**head_len * p.fiber_bound
    diameter = (mu.indices[-1] - mu.indices[0] + 1) * 2.0**-12
    assert diameter <= spread + 2 * 2.0**-12


def test_measure_B_matches_direct_sampling(cert):
    p = params()
    xi = theta_measure(p, cert.a, 8)
    q = Word((1, 0), 2)
    level = 5
    xi_q = WordMeasure(p, xi.prefix_len, xi.suffix.concat(q))
    mu = measure_B(p, xi_q, cert.x0, tail_samples=24, seed=3, level=level)
    rng = np.random.default_rng(4)
    n = 30000
    depth = p.truncation_depth
    codes = xi.codes[rng.integers(0, len(xi.codes), n)]
    tails = np.array([rng.integers(0, 2, depth) for _ in range(n)])  # one draw per sample
    # every word w . suffix . q . tail as one code, replayed digit by digit
    head = xi.suffix.concat(q)
    lead = xi.prefix_len + len(head)
    words = codes + 2**xi.prefix_len * head.code() + 2**lead * (tails @ 2 ** np.arange(depth))
    vals = series_at_codes(p, cert.x0, lead + depth, words)
    mc = DiscreteMeasure.from_values(2, level, vals)
    assert total_variation(mu, mc) < 0.02


def test_measure_B_reproducible(cert):
    p = params()
    xi = theta_measure(p, cert.a, 8)
    xi_q = WordMeasure(p, xi.prefix_len, xi.suffix.concat(Word((1,), 2)))
    a = measure_B(p, xi_q, cert.x0, tail_samples=4, seed=9, level=8)
    b = measure_B(p, xi_q, cert.x0, tail_samples=4, seed=9, level=8)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.weights, b.weights)


# ------------------------------------------------------------- decomposition

def test_decomposition_zero_phi_exact():
    p = params(phi=PeriodicFn.zero())
    rep = decomposition_check(p, n=6, i_level=4, level=6, seed=0)
    assert rep.residual == 0.0


def test_decomposition_fixture_and_budget_guard():
    p = params()
    rep = decomposition_check(p, n=6, i_level=4, level=6, seed=1)
    assert rep.residual <= 0.05
    assert rep.n_hat == nhat(6, 2, 0.4) and rep.i_hat == nhat(4, 2, 0.4)
    with pytest.raises(ValueError):
        decomposition_check(p, n=40, i_level=4, level=6)


def test_decomposition_tile_over_the_cap_raises_before_the_exact_side(monkeypatch):
    def exact_side(*args, **kwargs):
        raise AssertionError("the exact side was built for a tile over the cap")

    monkeypatch.setattr(partitions, "build_mx_exact", exact_side)
    with pytest.raises(ValueError, match=r"n=40, i_level=4 .* 34359738368 words.* cap 4194304"):
        decomposition_check(params(), n=40, i_level=4, level=6)


def test_decomposition_at_the_smallest_scale_stays_within_budget():
    rep = decomposition_check(params(), n=1, i_level=4, level=6, seed=0)
    assert rep.n_hat == 1
    assert rep.residual <= rep.error_budget


def test_decomposition_residual_shrinks_with_budget(monkeypatch):
    p = params()
    monkeypatch.setattr(partitions, "_TAIL_SAMPLES", 1)
    small = decomposition_check(p, n=6, i_level=4, level=6, seed=2)
    monkeypatch.setattr(partitions, "_TAIL_SAMPLES", 16)
    large = decomposition_check(p, n=6, i_level=4, level=6, seed=2)
    assert large.residual <= small.residual + 0.01


# ------------------------------------------------------------- theta entropy

def test_theta_entropy_zero_phi(cert):
    p = params(phi=PeriodicFn.zero())
    rows = theta_entropy_table(p, cert, [10, 12], 1.0)
    for r in rows:
        assert r.coarse == 0.0  # all series values coincide


def test_theta_entropy_refuses_an_over_cap_scale_before_any_row(cert, monkeypatch):
    calls = []
    over_prefixes = partitions.series_over_prefixes
    monkeypatch.setattr(partitions, "series_over_prefixes", lambda *a, **k: calls.append(a) or over_prefixes(*a, **k))
    # nhat(10) - 2 = 6 fits the tile cap; nhat(40) - 2 = 29 does not
    with pytest.raises(ValueError, match=r"^theta_measure: n=40, suffix length t=2 needs b\^29 = 536870912 words, "
                       r"above the materialization cap 4194304; the longest length allowed at b=2 is 22$"):
        theta_entropy_table(params(), cert, [10, 40], 1.0)
    assert calls == []


def test_theta_entropy_counting_bound(cert):
    p = params()
    rows = theta_entropy_table(p, cert, [10, 14, 18], 1.2)
    for r in rows:
        ceiling = (r.n_hat - cert.t) / r.n
        assert r.fine <= ceiling + 1e-12
        assert r.coarse <= r.fine + 1e-12
        # distinct keys then equality with the counting bound
        assert math.log(r.support, 2) == r.n_hat - cert.t


def test_theta_entropy_fine_column_approaches_limit(cert):
    p = params()
    scan = exp_separation_scan(p, cert.x0, cert.t, 0.25, range(8, 15))
    C = separation_exponent(scan, 2)
    rows = theta_entropy_table(p, cert, [24, 28], C)
    limit = math.log(2) / math.log(2.5)
    for r in rows:
        assert abs(r.fine - (r.n_hat - cert.t) / r.n) <= 0.02  # keys almost all distinct
    assert abs(rows[-1].fine - limit) / limit < 0.10


def test_separation_exponent_positive(cert):
    p = params()
    scan = exp_separation_scan(p, cert.x0, 2, 0.25, range(8, 13))
    C = separation_exponent(scan, 2)
    assert C > 0
    for n, g in zip(scan.n_values, scan.min_gaps):
        if math.isfinite(g):
            assert g >= 2.0 ** (-C * n) * (1 - 1e-9)
