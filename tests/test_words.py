import math
from fractions import Fraction

import numpy as np
import pytest

from solenoidlab.periodic import PeriodicFn
from solenoidlab.words import SystemParams, Word, max_level, nhat, word_point


def test_word_point_examples():
    assert word_point(Word((1, 0), 2), 0.0) == pytest.approx(0.25)
    assert word_point(Word((0,), 2), 0.0) == 0.0
    assert word_point(Word((2, 1, 0), 3), 0.5) == pytest.approx((0.5 + 2 + 3) / 27)


def test_word_point_lands_in_its_badic_interval():
    rng = np.random.default_rng(0)
    for b in (2, 3, 5):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            w = Word(tuple(int(v) for v in rng.integers(0, b, n)), b)
            x = float(rng.random())
            pt = word_point(w, x)
            lo = w.code() / b**n
            assert lo <= pt < lo + b**-n


def test_digit_validation():
    with pytest.raises(ValueError):
        Word((0, 2), 2)
    with pytest.raises(ValueError):
        Word((0,), 1)


def test_string_and_code_round_trips():
    w = Word((1, 0, 2, 1, 0), 3)
    assert w.to_string() == "10210"
    assert Word.from_code(w.code(), 5, 3) == w
    assert Word((1, 0, 2, 1, 0), 3).code() == 1 + 0 * 3 + 2 * 9 + 1 * 27 + 0 * 81


def test_nhat_examples():
    assert nhat(7, 2, 0.5) == 7  # exact tie takes the larger side
    assert nhat(10, 2, 0.4) == 8
    assert nhat(1, 3, 0.9) == 11


def test_nhat_refuses_bad_arguments_on_every_call():
    # nhat is memoized: a refusal must not be cached as a value
    for args in [(0, 2, 0.4), (3, 1, 0.4), (3, 2, 1.0)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                nhat(*args)
    assert nhat(10, 2, 0.4) == nhat(10, 2, 0.4) == 8


def test_nhat_defining_inequalities():
    rng = np.random.default_rng(1)
    for _ in range(40):
        b = int(rng.integers(2, 6))
        gamma = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(1, 30))
        k = nhat(n, b, gamma)
        g = Fraction(gamma)
        assert g**k <= Fraction(1, b**n) < g ** (k - 1)


def test_system_params_validation_and_depth():
    p = SystemParams(2, 0.4, PeriodicFn.cosine())
    d = p.truncation_depth
    assert 0.4**d * 1.0 / 0.6 <= p.truncation_tol
    assert 0.4 ** (d - 1) * 1.0 / 0.6 > p.truncation_tol
    with pytest.raises(ValueError):
        SystemParams(1, 0.4, PeriodicFn.cosine())
    with pytest.raises(ValueError):
        SystemParams(2, 1.0, PeriodicFn.cosine())
    with pytest.raises(ValueError):
        SystemParams(2, 0.4, PeriodicFn.cosine(), truncation_tol=0.0)


def test_truncation_depth_cap_raises():
    p = SystemParams(2, 0.999, PeriodicFn.cosine())
    with pytest.raises(ValueError, match=r"gamma=0\.999.*truncation_tol=1e-09.*16\.6"):
        p.truncation_depth
    # the last depth the cap allows is still returned
    assert SystemParams(2, 0.99, PeriodicFn.cosine()).truncation_depth < 4096


def test_max_level_is_exact_at_powers():
    assert max_level(3, 3**10) == 10
    assert max_level(3, 3**10 - 1) == 9
    assert max_level(2, 1) == 0 and max_level(7, 6) == 0
    assert max_level(10, 10**15) == 15


def test_max_level_keeps_the_fixed_caps():
    # the exact-index caps 2^23, 2^30 and 2^45 give the levels the float
    # formula gave for every base up to 999
    for b in range(2, 1000):
        for bits in (23, 30, 45):
            assert max_level(b, 2**bits) == int(bits / math.log2(b)), (b, bits)


def test_log_b_inv_gamma_is_float_derived():
    # the float 0.2 lies just above 1/5, so exactly log_5(1/gamma) < 1 and an
    # m-digit word resolves m - 1 levels; the float rule gives m, one above
    p = SystemParams(5, 0.2, PeriodicFn.cosine())
    assert p.log_b_inv_gamma == 1.0
    for m in (1, 7, 30):
        assert Fraction(p.gamma) ** m > Fraction(1, 5**m)
        assert int(m * p.log_b_inv_gamma) == m
