import math
from unittest import mock

import numpy as np
import pytest

from solenoidlab import series
from solenoidlab.periodic import PeriodicFn, cohomological_phi
from solenoidlab.series import (
    eval_S,
    eval_S_deriv,
    iter_series_all_words,
    series_at_codes,
    series_fixed_word,
    series_over_prefixes,
)
from solenoidlab.words import SystemParams, Word, max_level, word_point

from series_oracles import cocycle_check

COS = PeriodicFn.cosine()


def params(b=2, gamma=0.4, phi=COS):
    return SystemParams(b, gamma, phi)


def rand_word(rng, b, n):
    return Word(tuple(int(v) for v in rng.integers(0, b, n)), b)


def test_eval_S_zero_phi():
    p = params(phi=PeriodicFn.zero())
    assert eval_S(p, 0.3, Word((1, 0, 1), 2)) == 0.0


def test_eval_S_constant_phi_geometric_sum():
    c, gamma, m = 0.8, 0.35, 9
    p = params(gamma=gamma, phi=PeriodicFn((c,), ()))
    w = Word((0,) * m, 2)
    assert eval_S(p, 0.2, w) == pytest.approx(c * (1 - gamma**m) / (1 - gamma))


def test_eval_S_single_term():
    p = params()
    assert eval_S(p, 0.0, Word((0,), 2)) == pytest.approx(1.0)


def test_tail_extension_policies():
    p = params()
    w = Word((1, 0), 2)
    exact = eval_S(p, 0.4, w)
    extra = p.truncation_depth - len(w)
    rng = np.random.default_rng(11)
    # any extension stays within the exact finite value +- one full tail at |w|
    for tail in (Word((0,) * extra, 2), Word((1,) * extra, 2), rand_word(rng, 2, extra)):
        assert abs(eval_S(p, 0.4, w.concat(tail)) - exact) <= p.tail_bound(len(w)) + 1e-15


def test_eval_S_deriv_consistency():
    p = params()
    assert eval_S_deriv(p, 0.3, Word((1, 1, 0), 2), 0) == pytest.approx(
        eval_S(p, 0.3, Word((1, 1, 0), 2))
    )
    pc = params(phi=PeriodicFn((2.0,), ()))
    assert eval_S_deriv(pc, 0.3, Word((1, 0), 2), 1) == 0.0


def test_eval_S_deriv_finite_difference_oracle():
    p = params()
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(20):
        w = rand_word(rng, 2, int(rng.integers(2, 10)))
        x = float(rng.uniform(0.05, 0.95))
        fd = (eval_S(p, x + h, w) - eval_S(p, x - h, w)) / (2 * h)
        got = eval_S_deriv(p, x, w, 1)
        assert got == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_cocycle_examples_and_contract():
    p = params()
    w = Word((1, 0, 1, 1, 0), 2)
    assert cocycle_check(p, 0.37, w, Word.empty(2)) == 0.0
    p0 = params(phi=PeriodicFn.zero())
    assert cocycle_check(p0, 0.37, w, Word((1, 1), 2)) == 0.0
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = float(rng.random())
        w5 = rand_word(rng, 2, 5)
        i7 = rand_word(rng, 2, 7)
        s = abs(eval_S(p, x, w5.concat(i7)))
        assert cocycle_check(p, x, w5, i7) <= 1e-10 * (1.0 + s)


def test_derivative_cocycle_relation():
    # S^(k)(x, u i) - S^(k)(x, u j) = (gamma/b^k)^|u| (S^(k)(u(x), i) - S^(k)(u(x), j))
    p = params()
    rng = np.random.default_rng(5)
    for k in (0, 1, 2):
        for _ in range(10):
            u = rand_word(rng, 2, 4)
            i = rand_word(rng, 2, 6)
            j = rand_word(rng, 2, 6)
            x = float(rng.random())
            lhs = (
                eval_S_deriv(p, x, u.concat(i), k)
                - eval_S_deriv(p, x, u.concat(j), k)
            )
            ux = word_point(u, x)
            rhs = (p.gamma / p.b**k) ** len(u) * (
                eval_S_deriv(p, ux, i, k) - eval_S_deriv(p, ux, j, k)
            )
            assert abs(lhs - rhs) <= 1e-9


def test_tail_certificate_bounds_extension_spread():
    p = params()
    rng = np.random.default_rng(6)
    depth = p.truncation_depth
    for _ in range(10):
        prefix = rand_word(rng, 2, 6)
        x = float(rng.random())
        exts = [prefix.concat(rand_word(rng, 2, depth - 6)) for _ in range(8)]
        vals = [eval_S(p, x, e) for e in exts]
        assert max(vals) - min(vals) <= 2 * p.tail_bound(6)


def test_degenerate_phi_telescopes_to_psi():
    psi = PeriodicFn.cosine()
    p = params(phi=cohomological_phi(psi, 2, 0.4))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        w = rand_word(rng, 2, 30)
        x = float(rng.random())
        got = eval_S(p, x, w)
        worst = max(worst, abs(got - math.cos(2 * math.pi * x)))
    assert worst <= 1e-8


def test_bulk_kernels_match_scalar_evaluation():
    p = params(b=3, gamma=0.55)
    rng = np.random.default_rng(8)
    n, suffix = 5, (2, 0, 1)
    vals = series_over_prefixes(p, 0.31, n, suffix=suffix)
    for code in rng.integers(0, 3**n, 6):
        w = Word.from_code(int(code), n, 3).concat(Word(suffix, 3))
        assert vals[code] == pytest.approx(eval_S(p, 0.31, w), abs=1e-13)
    codes = rng.integers(0, 3**n, 10).astype(np.int64)
    at = series_at_codes(p, 0.31, n, codes)
    for k, code in enumerate(codes):
        assert at[k] == pytest.approx(eval_S(p, 0.31, Word.from_code(int(code), n, 3)), abs=1e-13)
    xs = rng.random(5)
    fixed = series_fixed_word(p, xs, (1, 2, 0), order=1)
    for k, x in enumerate(xs):
        assert fixed[k] == pytest.approx(
            eval_S_deriv(p, float(x), Word((1, 2, 0), 3), 1), abs=1e-12
        )


def test_chunked_enumeration_matches_full():
    p = params()
    full = series_over_prefixes(p, 0.45, 10)
    with mock.patch.object(series, "DEFAULT_CHUNK_CAP", 64):
        chunks = np.concatenate(list(iter_series_all_words(p, 0.45, 10)))
    assert full.tobytes() == chunks.tobytes()


def test_enumeration_chunks_fill_the_cap_at_exact_powers():
    p = params(b=3, gamma=0.5)
    with mock.patch.object(series, "DEFAULT_CHUNK_CAP", 3**5):
        chunks = list(iter_series_all_words(p, 0.45, 7))
    assert [len(c) for c in chunks] == [243] * 9
    full = series_over_prefixes(p, 0.45, 7)
    assert np.concatenate(chunks).tobytes() == full.tobytes()


def test_walk_budget_keeps_depth_within_two_tiles_and_int32():
    # _fiber_cells slices at the tile seam t and codes in int32: both need
    # depth <= 2t and b^depth < 2^31 for every depth check_walk lets through
    for b in list(range(2, 10001)) + [2**22]:
        depth = max_level(b, series.WORK_BUDGET)
        series.check_walk(b, depth, "the deepest walk")
        assert depth <= 2 * series.tile_digits(b) and b**depth < 2**31
