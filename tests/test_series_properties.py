"""Every bulk word-series caller against the scalar oracle ``eval_S_deriv``.

The bulk paths run the oracle's recursion on arrays, so they may differ from
it only by rounding: word points reached through other operations (a few
ulps, carried into a term through phi^(k+1), which is at most 2 pi 3 times
sup|phi^(k)| at degree <= 3), sines and cosines taken by another code path,
and partial sums of at most 20 terms rounded differently.  Counted term by
term that is about 100 eps sup|phi^(k)| times the coefficient b^-k
(gamma b^-k)^(n-1) of term n, which sums to at most 1 / (1 - gamma b^-k).
The tolerance is fixed from that count before running: TOL_ULPS eps
sup_norm(phi, k) / (1 - gamma b^-k), with TOL_ULPS = 256.

The scalar oracle is itself checked against a 50-digit mpmath evaluation of
the series, term by term, on depth-40 words.

``random_tail_series`` steps cosines down blocks of digits by Chebyshev
polynomials when phi has no harmonic above 1; its own error count (in
``series._code_tails``) is at most 148 eps per term, inside the same
tolerance.  A step amplifies rounding by up to b^2 only while the cosine sits
next to +-1, on chains random words seldom reach, so those chains are tested
on purpose: constant digit rows that hold the word points near 0, 1/2 or 1.
"""

import copy
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab import series
from solenoidlab.periodic import PeriodicFn, sup_norm
from solenoidlab.series import (
    _TAIL_BLOCK,
    _TAIL_TABLE,
    _table_digits,
    eval_S_deriv,
    iter_series_all_words,
    random_tail_series,
    series_at_codes,
    series_fixed_word,
    series_over_prefixes,
)
from solenoidlab.words import SystemParams, Word, max_level

TOL_ULPS = 256
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
ORDERS = st.integers(0, 2)
POINTS = st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False)
#: Largest enumeration checked word by word: b^n <= 64.
MAX_POINTS = 64


def tol(p: SystemParams, k: int) -> float:
    return TOL_ULPS * np.finfo(float).eps * sup_norm(p.phi, k) / (1.0 - p.gamma * p.b ** (-k))


def tail_bound(p: SystemParams, depth: int, k: int) -> float:
    """Bound for the dropped tail of the order-k series after ``depth``
    digits: term n + 1 is at most sup|phi^(k)| b^-k r^n, r = gamma b^-k."""
    r = p.gamma / p.b**k
    return sup_norm(p.phi, k) * r**depth * p.b ** (-k) / (1.0 - r)


def oracle(p: SystemParams, x: float, word: Word, k: int = 0) -> float:
    return eval_S_deriv(p, float(x), word, k)


@st.composite
def systems(draw):
    b = draw(st.sampled_from([2, 3, 4]))
    gamma = draw(st.floats(0.05, 0.95))
    degree = draw(st.integers(0, 3))
    coef = st.integers(-8, 8).map(lambda v: v / 8)
    cos = draw(st.lists(coef, min_size=degree + 1, max_size=degree + 1))
    sin = [0.0] + draw(st.lists(coef, min_size=degree, max_size=degree))
    return SystemParams(b, gamma, PeriodicFn(tuple(cos), tuple(sin)))


def digits(b: int, max_size: int):
    return st.lists(st.integers(0, b - 1), max_size=max_size).map(tuple)


@SETTINGS
@given(st.data())
def test_fixed_word_matches_oracle(data):
    p, k = data.draw(systems()), data.draw(ORDERS)
    xs = data.draw(st.lists(POINTS, min_size=1, max_size=4))
    word = Word(data.draw(digits(p.b, 8)), p.b)
    got = series_fixed_word(p, np.array(xs), word.digits, order=k)
    for x, g in zip(xs, got):
        assert abs(g - oracle(p, x, word, k)) <= tol(p, k)


@SETTINGS
@given(st.data())
def test_prefixes_with_suffix_match_oracle(data):
    p, x = data.draw(systems()), data.draw(POINTS)
    n = data.draw(st.integers(0, max_level(p.b, MAX_POINTS)))
    suffix = Word(data.draw(digits(p.b, 4)), p.b)
    got = series_over_prefixes(p, x, n, suffix=suffix.digits)
    assert len(got) == p.b**n
    for code, g in enumerate(got):
        word = Word.from_code(code, n, p.b).concat(suffix)
        assert abs(g - oracle(p, x, word)) <= tol(p, 0)
    # several base points in one call: one row each, bit for bit the single-point tile
    xs = data.draw(st.lists(POINTS, min_size=1, max_size=3))
    rows = series_over_prefixes(p, np.array(xs), n, suffix=suffix.digits)
    assert rows.shape == (len(xs), p.b**n)
    for point, row in zip(xs, rows):
        assert row.tobytes() == series_over_prefixes(p, point, n, suffix=suffix.digits).tobytes()


@SETTINGS
@given(st.data())
def test_word_set_kernel_is_the_per_word_append_bit_for_bit(data):
    p, order = data.draw(systems()), data.draw(st.integers(0, 1))
    length = data.draw(st.integers(0, max_level(p.b, MAX_POINTS)))
    if data.draw(st.booleans()):
        codes = np.arange(p.b**length)  # the full set
    else:  # a sampled set: distinct, ascending
        codes = np.sort(data.draw(st.lists(st.integers(0, p.b**length - 1), min_size=1, max_size=12, unique=True)))
    xs = np.array(data.draw(st.lists(POINTS, min_size=1, max_size=4)))
    coef = data.draw(st.floats(0.01, 1.0))
    got = series._append_words(p, xs, series._word_tree(codes, p.b, length), order, coef)
    rows = [d[:, None] for d in series._digit_rows(codes, p.b, length)]  # one (r, 1) column per digit
    want = series._append_series(p, np.tile(xs, (len(codes), 1)), rows, order, coef)
    assert got.shape == (len(codes), len(xs))
    assert got.tobytes() == want.tobytes()


def test_word_set_kernel_takes_codes_up_to_the_int64_bound():
    """Words of length 63 at b = 2 have codes up to 2^63 - 1: the tree never
    forms b^63, and every row is still the per-word append bit for bit."""
    p, xs = SystemParams(2, 0.4, PeriodicFn.cosine()), np.array([0.3, 0.7])
    codes = np.array([2**63 - 2**40, 2**63 - 5, 2**63 - 2, 2**63 - 1], dtype=np.int64)
    got = series._append_words(p, xs, series._word_tree(codes, 2, 63), 0, 1.0)
    rows = [d[:, None] for d in series._digit_rows(codes, 2, 63)]
    want = series._append_series(p, np.tile(xs, (len(codes), 1)), rows, 0, 1.0)
    assert got.tobytes() == want.tobytes()


@SETTINGS
@given(st.data())
def test_codes_match_oracle(data):
    p, x = data.draw(systems()), data.draw(POINTS)
    n = data.draw(st.integers(0, max_level(p.b, MAX_POINTS)))
    codes = data.draw(st.lists(st.integers(0, p.b**n - 1), min_size=1, max_size=8))
    got = series_at_codes(p, x, n, np.array(codes))
    for code, g in zip(codes, got):
        assert abs(g - oracle(p, x, Word.from_code(code, n, p.b))) <= tol(p, 0)


@SETTINGS
@given(st.data())
def test_chunked_enumeration_matches_oracle(data):
    p, x = data.draw(systems()), data.draw(POINTS)
    depth = data.draw(st.integers(1, 6))
    cap = data.draw(st.integers(p.b ** (depth // 2), p.b**depth))
    full = series_over_prefixes(p, x, depth)  # outside the patch: check_tile reads the cap
    with mock.patch.object(series, "DEFAULT_CHUNK_CAP", cap):
        chunks = list(iter_series_all_words(p, x, depth))
    size = len(chunks[0])
    assert all(len(c) == size for c in chunks)
    assert size * len(chunks) == p.b**depth
    # each chunk is the largest power of b within the cap
    assert size <= cap and (len(chunks) == 1 or size * p.b > cap)
    vals = np.concatenate(chunks)
    assert vals.tobytes() == full.tobytes()
    for code in data.draw(st.lists(st.integers(0, p.b**depth - 1), min_size=1, max_size=6)):
        word = Word.from_code(code, depth, p.b)
        assert abs(vals[code] - oracle(p, x, word)) <= tol(p, 0)


@SETTINGS
@given(st.data())
def test_random_tails_match_oracle_on_replayed_digits(data):
    p = data.draw(systems())
    pts = data.draw(st.lists(POINTS, min_size=1, max_size=3))
    per = data.draw(st.integers(1, 4))
    depth = data.draw(st.integers(0, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    replay = copy.deepcopy(rng)
    got = random_tail_series(p, np.array(pts), depth, per, rng)
    assert got.shape == (len(pts), per)
    rows = list(replayed_rows(replay, p.b, depth, len(pts) * per))
    assert rng.bit_generator.state == replay.bit_generator.state
    for i, g in enumerate(got.reshape(-1)):
        word = Word(tuple(int(r[i]) for r in rows), p.b)
        assert abs(g - oracle(p, pts[i // per], word)) <= tol(p, 0)


def replayed_rows(rng: np.random.Generator, b: int, depth: int, size: int):
    """Yield the ``depth`` digit rows of ``size`` tails as ``random_tail_series``
    draws them: per group of g <= max_level(b, 2^53) digits, one uniform code
    in [0, b^g) per tail, whose digit n + 1 stands at place b^n."""
    whole = max_level(b, 2**53)
    for start in range(0, depth, whole):
        g = min(whole, depth - start)
        codes = rng.integers(0, b**g, size=size)
        for _ in range(g):
            codes, row = np.divmod(codes, b)
            yield row


class FixedDigits:
    """Stands in for the Generator of ``random_tail_series``: digit n of
    every tail is the constant digits[n], handed out as the codes of the
    next g digits when a group of g digits is drawn."""

    def __init__(self, b: int, digits):
        self.b, self.digits = b, tuple(digits)

    def integers(self, low, high, size):
        g = max_level(self.b, high)
        assert (low, self.b**g) == (0, high), (low, high)
        group, self.digits = Word(self.digits[:g], self.b), self.digits[g:]
        assert len(group) == g, "more digits drawn than given"
        return np.full(size, group.code(), dtype=np.int64)


#: Base points for the stepping chains: 0, a tiny x, next to 1/2 and 1, then
#: seeded points near 0, near 1/2 and anywhere, where cosine rounding varies.
EDGE_POINTS = np.concatenate([
    [0.0, 1e-9, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 1.0 - 1e-9],
    np.random.default_rng(7).uniform(0.0, 0.01, 24),
    np.random.default_rng(8).uniform(0.49, 0.51, 24),
    np.random.default_rng(9).uniform(0.0, 1.0, 24),
])
#: phi with a constant, a cosine and a sine term: the stepped kernel's cosine and
#: sine chains both count.
HARMONIC_1 = PeriodicFn((0.25, 1.0), (0.0, -0.75))
DEGREE_3 = PeriodicFn((0.25, 1.0, -0.5, 0.125), (0.0, 0.5, 0.25, -0.375))
DEPTH = 40


def constant_rows(b: int):
    """Digit rows that pin the word points near 1 (all b - 1), near 0 (all 0)
    and near 1/(b - 1) (all 1): 1/2 at b = 3, 1/3 at b = 4."""
    return [(d,) * DEPTH for d in sorted({0, 1, b - 1})]


def test_stepped_tails_match_oracle_where_steps_amplify_rounding():
    for b in (2, 3, 4):
        for gamma in (0.05, 0.5, 0.95):
            p = SystemParams(b, gamma, HARMONIC_1)
            for digits in constant_rows(b):
                got = random_tail_series(p, EDGE_POINTS, DEPTH, 1, FixedDigits(b, digits))
                word = Word(digits, b)
                for x, g in zip(EDGE_POINTS, got[:, 0]):
                    assert abs(g - oracle(p, x, word)) <= tol(p, 0), (b, gamma, digits[0], x)


def test_stepped_tails_match_mpmath_at_depth_40():
    points = EDGE_POINTS[::4]
    for b in (2, 3, 4):
        for gamma in (0.05, 0.95):
            p = SystemParams(b, gamma, HARMONIC_1)
            for digits in constant_rows(b):
                got = random_tail_series(p, points, DEPTH, 1, FixedDigits(b, digits))
                for x, g in zip(points, got[:, 0]):
                    exact = mp_partial_sums(p, float(x), digits, 0)[-1]
                    assert abs(g - float(exact)) <= tol(p, 0), (b, gamma, digits[0], x)


def test_unstepped_phis_match_oracle_on_the_same_chains():
    """phi of degree >= 2 takes blocks of one digit; constant phi sums no trig."""
    for b in (2, 3, 4):
        for phi in (PeriodicFn((-0.625,), ()), DEGREE_3):
            p = SystemParams(b, 0.5, phi)
            for digits in constant_rows(b):
                got = random_tail_series(p, EDGE_POINTS, DEPTH, 1, FixedDigits(b, digits))
                word = Word(digits, b)
                for x, g in zip(EDGE_POINTS, got[:, 0]):
                    assert abs(g - oracle(p, x, word)) <= tol(p, 0), (b, phi, digits[0], x)


def mp_partial_sums(p: SystemParams, x: float, digits, k: int) -> list:
    """Partial sums S_1, S_2, ... of the order-k series in 50-digit mpmath:
    phi^(k)(tau) = sum_n (2 pi n)^k (a_n cos + b_n sin)(2 pi n tau + k pi / 2)."""
    with mpmath.workdps(50):
        tau, total, sums = mpmath.mpf(x), mpmath.mpf(0), []
        coef = mpmath.mpf(p.b) ** -k
        for d in digits:
            tau = (tau + d) / p.b
            for n, (an, bn) in enumerate(zip(p.phi.a, p.phi.b)):
                arg = 2 * mpmath.pi * n * tau + k * mpmath.pi / 2
                w = (2 * mpmath.pi * n) ** k
                total += coef * w * (an * mpmath.cos(arg) + bn * mpmath.sin(arg))
            sums.append(total)
            coef *= mpmath.mpf(p.gamma) / mpmath.mpf(p.b) ** k
        return sums


def test_series_matches_mpmath_at_depth_40():
    rng = np.random.default_rng(40)
    for b, gamma in ((2, 0.4), (3, 0.55)):
        for phi in (PeriodicFn.cosine(), DEGREE_3):
            p = SystemParams(b, gamma, phi)
            depth = p.truncation_depth
            assert depth < 40
            for _ in range(2):
                word = Word(tuple(int(v) for v in rng.integers(0, b, 40)), b)
                xs = rng.random(2)
                for k in range(3):
                    bulk = series_fixed_word(p, xs, word.digits, order=k)
                    for x, got in zip(xs, bulk):
                        sums = mp_partial_sums(p, float(x), word.digits, k)
                        assert abs(oracle(p, x, word, k) - float(sums[-1])) <= tol(p, k)
                        assert abs(got - float(sums[-1])) <= tol(p, k)
                        assert abs(sums[-1] - sums[depth - 1]) <= tail_bound(p, depth, k)


# ------------------------------------------------------------ prefix tiles
#
# ``random_tail_series`` reads the first k digits of every tail from a prefix
# tile of its base point, k set by ``_table_digits`` from samples_per.  The
# cases below pick samples_per = block b^(k+1), the least that sets k, for
# every k up to the tile cap, so each table depth runs at least once.

#: Base points of the table sweep: 0, one next to 1, and seeded ones.
GENERIC_POINTS = np.r_[0.0, 1.0 - 1e-9, np.random.default_rng(16).random(4)]


def check_tails_against_replay(p: SystemParams, pts, depth: int, per: int, seed: int, picks: int = 48):
    """Every value of ``random_tail_series`` against the per-digit kernel on
    the replayed digits, a seeded pick of them against ``eval_S_deriv``, and
    the generator's final state against the replay's."""
    rng = np.random.default_rng(seed)
    replay = copy.deepcopy(rng)
    got = random_tail_series(p, np.array(pts), depth, per, rng).reshape(-1)
    assert got.shape == (len(pts) * per,)
    picked = np.unique(np.r_[0, len(got) - 1, np.random.default_rng(seed).integers(0, len(got), picks)])
    rows = []

    def replayed():
        for row in replayed_rows(replay, p.b, depth, len(got)):
            rows.append(row[picked])
            yield row

    ref = series_fixed_word(p, np.repeat(np.array(pts, dtype=float), per), replayed())
    assert rng.bit_generator.state == replay.bit_generator.state
    assert np.all(np.abs(got - ref) <= tol(p, 0))
    for j, i in enumerate(picked):
        word = Word(tuple(int(r[j]) for r in rows), p.b)
        assert abs(got[i] - oracle(p, pts[i // per], word)) <= tol(p, 0), (i, word)


@pytest.mark.parametrize("b", [2, 3, 4, 5])
@pytest.mark.parametrize("phi", [HARMONIC_1, DEGREE_3], ids=["stepped", "append"])
def test_tabled_tails_match_oracle_at_every_table_depth(b, phi):
    block = _TAIL_BLOCK.get(b, 1) if phi is HARMONIC_1 else 1
    k_cap = max_level(b, _TAIL_TABLE)
    gammas = (0.05, 0.5, 0.95)
    for k in range(1, k_cap + 1):
        per = block * b ** (k + 1)
        depth = k + 2 * block + 1  # whole and partial blocks after the tile
        assert _table_digits(b, block, depth, 1, per) == k
        assert _table_digits(b, block, depth, 1, per - 1) == k - 1
        p = SystemParams(b, gammas[k % 3], phi)
        check_tails_against_replay(p, [GENERIC_POINTS[k % len(GENERIC_POINTS)]], depth, per, seed=k)
    # the cap, not the cost count, stops the tile one digit deeper; b heads
    # share it, one digit less each
    assert _table_digits(b, block, k_cap + 8, 1, block * b ** (k_cap + 3)) == k_cap
    assert _table_digits(b, block, k_cap + 8, b, block * b ** (k_cap + 3)) == k_cap - 1


@SETTINGS
@given(st.data())
def test_tabled_tails_over_several_heads_match_oracle(data):
    p = data.draw(systems())
    pts = data.draw(st.lists(POINTS, min_size=1, max_size=4))
    per = data.draw(st.integers(4 * p.b**2, 4 * p.b**5))  # k >= 1 at every block size
    depth = data.draw(st.integers(1, 12))
    check_tails_against_replay(p, pts, depth, per, data.draw(st.integers(0, 2**32)))


def test_edge_chains_through_the_table_match_oracle():
    """The constant-row chains of the tests above, at samples_per that set
    k = 3 over all EDGE_POINTS: every tail of a head is the same word."""
    for b in (2, 3, 4, 5):
        for phi, block in ((HARMONIC_1, _TAIL_BLOCK.get(b, 1)), (DEGREE_3, 1)):
            per = block * b**4
            assert _table_digits(b, block, DEPTH, len(EDGE_POINTS), per) == 3
            for gamma in (0.05, 0.5, 0.95):
                p = SystemParams(b, gamma, phi)
                for digits in constant_rows(b):
                    got = random_tail_series(p, EDGE_POINTS, DEPTH, per, FixedDigits(b, digits))
                    assert np.array_equal(got, np.repeat(got[:, :1], per, axis=1))
                    word = Word(digits, b)
                    for x, g in zip(EDGE_POINTS, got[:, 0]):
                        assert abs(g - oracle(p, x, word)) <= tol(p, 0), (b, gamma, phi, digits[0], x)


# ------------------------------------------------------------ drawn codes
#
# ``random_tail_series`` draws a tail as one code per group of up to
# max_level(b, 2^53) digits: 22 at b = 5, 26 at b = 4, 53 at b = 2.  Longer
# tails go on from the word point at the group seam.


@pytest.mark.parametrize(
    "b, gamma, depth", [(4, 0.5, 40), (2, 0.95, None), (5, 0.5, 30)], ids=["b4", "b2", "b5"]
)
@pytest.mark.parametrize("phi", [HARMONIC_1, DEGREE_3], ids=["stepped", "append"])
def test_tails_past_a_group_seam_match_oracle(b, gamma, depth, phi):
    p = SystemParams(b, gamma, phi)
    depth = depth or p.truncation_depth
    assert depth > max_level(b, 2**53)
    pts, per = GENERIC_POINTS[:3], 64
    rng = np.random.default_rng(41)
    replay = copy.deepcopy(rng)
    got = random_tail_series(p, pts, depth, per, rng).reshape(-1)
    rows = list(replayed_rows(replay, b, depth, len(got)))
    assert rng.bit_generator.state == replay.bit_generator.state
    for i, g in enumerate(got):
        word = Word(tuple(int(r[i]) for r in rows), b)
        assert abs(g - oracle(p, pts[i // per], word)) <= tol(p, 0), (i, word)


@pytest.mark.parametrize("b", [2, 3, 4, 5])
def test_tail_stream_depends_on_base_depth_and_tail_count_only(b):
    """A stepped, a per-digit and a constant phi, and three splits of the
    same 96 tails over base points (up to three table depths), leave the
    generator in one state: that of the replayed group draws."""
    depth = max_level(b, 2**53) + 3
    replay = np.random.default_rng(b)
    for _ in replayed_rows(replay, b, depth, 96):
        pass
    for phi in (HARMONIC_1, DEGREE_3, PeriodicFn((-0.625,), ())):
        for heads, per in ((1, 96), (3, 32), (96, 1)):
            rng = np.random.default_rng(b)
            pts = np.linspace(0.0, 1.0, heads, endpoint=False)
            random_tail_series(SystemParams(b, 0.5, phi), pts, depth, per, rng)
            assert rng.bit_generator.state == replay.bit_generator.state, (phi, heads)
