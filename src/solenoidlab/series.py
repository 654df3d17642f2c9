"""Evaluation of the word series and its derivatives.

The y-coordinate addressed by word ``j`` over base point ``x`` is

    S(x, j) = sum_{n>=1} gamma^{n-1} phi( (x + j_1 + j_2 b + ... + j_n b^{n-1}) / b^n )

where the argument of the n-th term is the word point of the length-n
prefix.  Word points satisfy the append recursion tau_n = (tau_{n-1} + j_n)/b,
and the series obeys the cocycle identity

    S(x, w i) = S(x, w) + gamma^{|w|} S(w(x), i).

Order-k derivatives in x pick up an extra b^{-nk} per term.  ``eval_S_deriv``
evaluates finite words exactly; an infinite word stands in as its prefix of
the system's truncation depth, and ``SystemParams.tail_bound`` bounds the
dropped tail of S itself (order 0).

Words read digit by digit go through the append kernel, ``_append_series``:
it appends digit rows to base points tau, tau <- (tau + d) / b per row,
adding c phi^(k)(tau) with c shrinking by gamma b^-k per digit.  It serves
fixed words (``series_fixed_word``, the common suffix of
``series_over_prefixes``) and, as the replay oracle, the digits of explicit
codes (``series_at_codes``); any other array of codes that needs digit
rows takes them from ``_digit_rows``.  A set of words of one length, given
by their distinct codes in ascending order, is appended by ``_append_words``
on its digit tree (``_word_tree``): a node at depth i stands for every code
with the same first i digits, the deepest nodes are the codes themselves,
and phi is taken at each node once, not once per word and digit.  Each node
repeats the append kernel's operations for one word, in its order, so every
row is that word's ``_append_series`` value bit for bit.

Seeded uniform tails (``random_tail_series``) are drawn as whole-word
codes, one uniform integer in [0, b^G) per G digits, G = max_level(b, 2^53),
so every code is exact in float64.  A tail's first k digits, its code m mod
b^k, index a prefix tile of its base point p (below); k is set by a cost
count and a cap of 2^14 tile values.  One kernel, ``_code_tails``, sums the
other digits: it places each word point it needs straight from the code,
fl((p + C) / b^n) for the code C of the first n digits, within 4/3 eps of
exact, and never cuts a digit.  Where phi has no harmonic above 1 and b <= 4 it
places one point per block of 4, 3, 2 digits (b = 2, 3, 4), the block's
deepest, takes one cosine there and steps up the block by Chebyshev
polynomials, cos 2 pi b t = T_b(cos 2 pi t); any other phi or base takes
phi at every point.  A sampled value lies within 256 eps sup|phi| /
(1 - gamma) of ``eval_S_deriv`` on the same digits, so it may differ in the
last bits from the append kernel's, while every exact path stays bit for
bit.

Enumerating all words of a length uses the tile recursion: the word points
of all length-n prefixes are exactly {(x + m) / b^n : m = 0..b^n - 1}, so
level n costs one phi evaluation on b^n points, about b/(b-1) b^n points in
all against n b^n for appending per word.  Term n + 1 is gamma^n phi at the
word point, gamma^n a repeated product.  ``_tile_step``, the one place that
step is written, takes it for any set of words given by their codes.

Three enumerators cover all b^depth words at a base point.  All three grow
words by ``_tile_step`` from the empty word, so they give each word the same
float value, and read the cap at call time.  ``series_over_prefixes``
returns every value of one tile; ``iter_series_all_words`` yields them in
code order in chunks of b^t values, t = tile_digits(b), and is the oracle of
the third; ``_fiber_cells``, behind ``measures.build_mx_exact``, walks the
word tree only until the tail bound fixes a subtree's cell, and yields cells
with the words each stands for.  Where chunks or slices are cut changes
memory, never a value.  One rule caps a tile: ``check_tile`` refuses b^L
words above ``DEFAULT_CHUNK_CAP``, naming the caller, b^L, the cap and
``tile_digits(b)``, the longest L allowed, and no other module compares with
the cap.  ``check_walk`` refuses a walk for b^depth > ``WORK_BUDGET`` words.

``eval_S_deriv`` stays a scalar loop over Python floats and shares only the
phi kernel ``periodic.eval_deriv`` with the bulk path, so it serves as the
reference oracle for the append recursion; the phi kernel itself is checked
on its own against an mpmath evaluation (``tests/test_periodic.py``).
"""

from __future__ import annotations

import math
import itertools
from typing import Iterator

import numpy as np

from .periodic import PeriodicFn, eval_deriv
from .words import SystemParams, Word, bin_index, max_level, sorted_unique

#: Largest array a bulk enumeration materializes at once.
DEFAULT_CHUNK_CAP = 1 << 22
#: Most words, b^depth, the walk of ``_fiber_cells`` may stand for.
WORK_BUDGET = 10**8


def tile_digits(b: int) -> int:
    """The longest word length whose tile, b^length words, fits DEFAULT_CHUNK_CAP."""
    return max_level(b, DEFAULT_CHUNK_CAP)


def check_tile(b: int, length: int, what: str) -> None:
    """Refuse a tile of b^length words above DEFAULT_CHUNK_CAP, naming ``what``."""
    if b**length > DEFAULT_CHUNK_CAP:
        raise ValueError(f"{what} needs b^{length} = {b**length} words, above the materialization cap "
                         f"{DEFAULT_CHUNK_CAP}; the longest length allowed at b={b} is {tile_digits(b)}")


def check_walk(b: int, depth: int, what: str) -> None:
    """Refuse a walk over b^depth words above WORK_BUDGET, naming ``what``."""
    if b**depth > WORK_BUDGET:
        raise ValueError(f"{what} walks b^{depth} = {b**depth} words, above the work budget {WORK_BUDGET}; "
                         f"the deepest depth allowed at b={b} is {max_level(b, WORK_BUDGET)}")


def eval_S(params: SystemParams, x: float, w: Word) -> float:
    """Word series value of the finite word, exact."""
    return eval_S_deriv(params, x, w, 0)


def eval_S_deriv(params: SystemParams, x: float, w: Word, order: int) -> float:
    """Order-th x-derivative of the word series of the finite word, exact."""
    if w.b != params.b:
        raise ValueError("word base does not match system base")
    b, gam = params.b, params.gamma
    tau = float(x)
    val = 0.0
    coef = float(b) ** (-order)
    step = gam * float(b) ** (-order)
    for d in w.digits:
        tau = (tau + d) / b
        val += coef * eval_deriv(params.phi, tau, order)
        coef *= step
    return val


# --------------------------------------------------------------------------
# bulk kernels
# --------------------------------------------------------------------------

def _append_series(params: SystemParams, tau, digit_rows, order: int = 0, coef: float | None = None):
    """sum_n c_n phi^(order)(tau_n) with tau_n = (tau_{n-1} + d_n) / b, one
    term per digit row d_n (scalars or arrays of tau's shape): the kernel of
    words given as digit rows, never of codes.

    c_1 = coef, by default b^-order as for a series starting at its first
    digit; c_{n+1} = c_n gamma b^-order.
    """
    b = params.b
    step = params.gamma * float(b) ** (-order)
    coef = float(b) ** (-order) if coef is None else coef
    out = np.zeros(np.shape(tau))
    for d in digit_rows:
        tau = (tau + d) / b
        term = eval_deriv(params.phi, tau, order)
        term *= coef  # in place: no temporary for the product
        out += term
        coef *= step
    return out


def _word_tree(codes, b: int, length: int) -> list:
    """The digit tree of the words of one length with these codes, distinct
    and ascending, for ``_append_words``.  Level i = 1..length lists its
    nodes, the distinct codes mod b^i in ascending order, as (digits,
    parents): each node's digit i and the index of its node at depth i - 1.
    The nodes at depth ``length`` are the codes themselves."""
    codes = np.asarray(codes, dtype=np.int64)
    levels, up = [], np.zeros(1, dtype=np.int64)  # up: the nodes a depth up, the root first
    for i in range(length):
        nodes = codes if i == length - 1 else sorted_unique(codes % b ** (i + 1))
        levels.append((nodes // b**i, np.searchsorted(up, nodes % b**i)))
        up = nodes
    return levels


def _append_words(params: SystemParams, tau, tree, order: int, coef: float) -> np.ndarray:
    """``_append_series(params, tau, rows, order, coef)`` for every word of
    ``tree`` (a ``_word_tree``), one row per code: shape (codes,) + tau's.

    Walks the tree from the root, tau and the running sum held per node:
    a node takes its parent's, tau <- (tau + d) / b, term = phi^(order)(tau)
    times the level's coefficient, out <- out + term from zeros, so each row
    rounds as the per-word append does and phi is taken once per node.
    """
    b = params.b
    step = params.gamma * float(b) ** (-order)
    tau = np.asarray(tau, dtype=float)[None]
    out = np.zeros(tau.shape)
    axes = (1,) * (tau.ndim - 1)
    for digits, parents in tree:
        tau = tau[parents]
        tau += digits.reshape((-1,) + axes)
        tau /= b
        term = eval_deriv(params.phi, tau, order)
        term *= coef  # in place: no temporary for the product
        term += out[parents]  # out + term: addition commutes bit for bit
        out = term
        coef *= step
    return out


def series_fixed_word(params: SystemParams, xs: np.ndarray, digits, order: int = 0) -> np.ndarray:
    """S^(order)(x, word) for a fixed word over a vector of base points."""
    return _append_series(params, np.asarray(xs, dtype=float), digits, order)


def series_over_prefixes(params: SystemParams, x, prefix_len: int, suffix=()) -> np.ndarray:
    """S(x, j . suffix) for every j in Lambda^prefix_len, code order along the
    last axis; x is one base point or an array of them, each its own tile.

    Materializes b^prefix_len values per base point.
    """
    b = params.b
    check_tile(b, prefix_len, f"series_over_prefixes: prefix_len={prefix_len}")
    x = np.asarray(x, dtype=float)[..., None]
    values, codes = np.zeros(x.shape), np.zeros(1, dtype=np.int32)  # the empty word
    for n in range(prefix_len):
        values, codes = _tile_step(params, x[..., None], n, values, codes, np.arange(b, dtype=np.int32))
    if len(suffix):
        pts = (x + codes) / float(b**prefix_len)
        values = values + _append_series(params, pts, suffix, 0, math.prod((params.gamma,) * prefix_len))
    return values


def series_at_codes(params: SystemParams, x: float, length: int, codes: np.ndarray) -> np.ndarray:
    """S(x, j) for the words j of given length with these codes."""
    codes = np.asarray(codes, dtype=np.int64)
    return _append_series(params, np.full(codes.shape, float(x)), _digit_rows(codes, params.b, length))


def _digit_rows(codes: np.ndarray, b: int, length: int) -> Iterator[np.ndarray]:
    """The first ``length`` digit rows of the words with these codes, first
    digit first: row n holds digit n + 1 of every word, cut off by divmod,
    spelled as a floor division by the scalar b (which numpy does by a
    multiply and shift) and a product: half np.divmod's time."""
    rest = codes
    for _ in range(length):
        high = rest // b
        digit = rest - high * b
        rest = high
        yield digit


def _tile_step(params: SystemParams, x, n: int, values, codes, digits):
    """(values, codes) of the length-(n+1) words below length-n words: code
    m + d b^n for each digit d (a scalar or a row) and value v + gamma^n
    phi((x + m + d b^n) / b^(n+1)).  Codes stay flat; base points passed as
    x[..., None] keep their leading axes in the values."""
    codes = codes + np.reshape(digits, (-1, 1)) * params.b**n
    term = x + codes
    term /= float(params.b ** (n + 1))
    term = eval_deriv(params.phi, term, 0)
    term *= math.prod((params.gamma,) * n)
    term += values[..., None, :]
    return term.reshape(term.shape[:-2] + (-1,)), codes.ravel()


def iter_series_all_words(params: SystemParams, x: float, depth: int) -> Iterator[np.ndarray]:
    """Yield S(x, j) over all j in Lambda^depth in code order, chunked.

    The first t = tile_digits(b) levels are the tile of
    ``series_over_prefixes``; each chunk takes its remaining high digits by
    ``_tile_step``, so its values are those of ``series_over_prefixes(params,
    x, depth)`` bit for bit, wherever the chunks are cut.
    """
    b = params.b
    t = min(depth, tile_digits(b))
    A = series_over_prefixes(params, x, t)
    low = np.arange(b**t)
    for high in range(b ** (depth - t)):
        vals, codes = A, low
        for n, d in enumerate(Word.from_code(high, depth - t, b).digits, start=t):
            vals, codes = _tile_step(params, x, n, vals, codes, d)
        yield vals


def _fiber_cells(params: SystemParams, x: float, level: int, depth: int) -> Iterator[tuple[np.ndarray, int]]:
    """Yield (cells, words): level-``level`` b-adic cells that S(x, j) meets
    over the words j of Lambda^depth, each entry standing for ``words`` words.
    Summed per cell, the words give the histogram of ``iter_series_all_words``.

    A walk down the word tree from the empty word.  A node of length n is a
    code m with its value v, the series of its prefix; ``_tile_step`` gives its
    children, so every value is the one ``series_over_prefixes`` computes.  A
    node with bin_index(v - r_n) == bin_index(v + r_n), r_n = tail_bound(n) +
    slack, is settled: its b^(depth-n) words go to that cell and it is dropped.
    Every word below it ends at a value V with |V - v| <= r_n, so
    fl(v - r_n) <= V <= fl(v + r_n), and floor(fl(V b^level)) is monotone in
    V: the words per cell are exactly those of binning all b^depth values.  The
    other nodes are binned at the leaves.

    Cost rule: settling compacts the node arrays, which costs more than it
    saves while most nodes survive (b gamma > 1).  So a level settles its
    nodes only when the settled ones are the majority; until then the walk
    keeps every node, which is the tile recursion itself.  Settling at any
    settled node was measured and is mixed (cos, x = 0.3, b = 2, gamma = 0.4):
    27 -> 43 MiB tracemalloc peak, 0.062 -> 0.070 s at level 20, depth 24;
    132 -> 103 MiB, 0.50 -> 0.44 s at level 24, depth 22.  Memory rule: at
    the chunk seam t = tile_digits(b) the nodes go on in slices of
    max(1, b^(2t - depth)), so no level of a slice materializes more values
    than one chunk of ``iter_series_all_words`` while depth <= 2t, and the
    slices yield no more often than its chunks.  Codes are int32.  Both hold
    as ``check_walk`` keeps b^depth <= 10^8 < min(2^31, b^(2t+1)), b <= 2^22.

    The slack bounds the rounding between v and V.  Let u = eps / 2,
    F = fiber_bound, T_n the exact tail sup|phi| gamma^n / (1 - gamma), and
    k <= 2 degree + 1 the terms of one phi evaluation.
    - A computed phi value is at most sup|phi| (1 + u)^k: |cos|, |sin| <= 1
      in floats, and each product and sum rounds once.
    - The coefficient of term j is at most gamma^(j-1) (1 + u)^(j+1), by
      repeated products; so the computed terms after n sum to at most
      T_n (1 + u)^(depth + k + 2).
    - tail_bound(n) rounds within (k + 6) u of T_n, relatively.
    - depth - n rounded additions lie between v and V, each off by u times
      a partial sum, at most 1.01 u F.
    So |V - v| <= tail_bound(n) + 1.01 (depth + k + 4) eps F, and the slack
    4 (depth + 2 degree + 4) eps F is at least twice that.
    """
    b = params.b
    check_walk(b, depth, f"the exact fiber walk: depth={depth}")
    t = min(depth, tile_digits(b))
    slack = 4.0 * (depth + 2 * params.phi.degree + 4) * np.finfo(float).eps * params.fiber_bound
    children = np.arange(b, dtype=np.int32)

    def descend(start, stop, values, codes):
        """Take the nodes from length start to stop, yielding the settled
        ones' cells; return the others."""
        for n in range(start, stop):
            r = params.tail_bound(n) + slack
            lo = bin_index(values - r, b, level)
            settled = lo == bin_index(values + r, b, level)
            if 2 * np.count_nonzero(settled) > len(values):  # most settle: drop them
                yield lo[settled], b ** (depth - n)
                values, codes = values[~settled], codes[~settled]
            del lo, settled  # not kept while the children are formed
            values, codes = _tile_step(params, x, n, values, codes, children)
        return values, codes

    values, codes = yield from descend(0, t, np.zeros(1), np.zeros(1, dtype=np.int32))
    step = b ** max(0, 2 * t - depth)
    for start in range(0, len(values), step):
        leaves = (yield from descend(t, depth, values[start:start + step], codes[start:start + step]))[0]
        yield bin_index(leaves, b, level), 1
        del leaves  # not kept while the next slice descends


def random_tail_series(
    params: SystemParams,
    base_points: np.ndarray,
    depth: int,
    samples_per: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """S(p, tail) for seeded i.i.d. tails: shape (len(base_points), samples_per).

    The tails are drawn as whole-word codes, a code's digit n + 1 standing
    at place b^n: one draw of len(base_points) samples_per uniform codes in
    [0, b^g) for each group of g <= G = max_level(b, 2^53) digits, first
    digits first (``_tail_codes``; G = 53, 33, 26, 22 at b = 2..5, so
    depth <= G takes one draw).  The rng stream and the generator's final
    state thus depend on b, depth and the number of tails only: on neither
    phi, nor k, nor the block.  The first k digits, m = code mod b^k, index
    the tile of ``series_over_prefixes`` at each base point: S(p, m), whose
    word points fl((p + m) / b^n) lie within eps of exact.  ``_code_tails``
    adds the other terms into the gathered values, the first with
    coefficient gamma^k, one block of digits at a time: _TAIL_BLOCK[b]
    digits when phi has no harmonic above 1 and b is 2, 3 or 4, one digit
    otherwise.

    Error count, against ``eval_S_deriv`` on the same digits, whose word
    points, iterated by (tau + d) / b, lie within 2 eps of exact.
    - Every word point is placed from the code, within delta_b <= eps of
      exact, delta_b / b more past a group seam; ``_code_tails`` counts what
      that and its trig calls cost a term.
    Weighed by gamma^(n-1), a value lies within 256 eps sup|phi| / (1 - gamma)
    of the oracle's, the tolerance of the series property tests.

    The k rule, a cost count: level n of the tile costs b^n phi evaluations
    per base point, and each prefix digit saves every sample one digit of
    the tail kernel, samples_per / block phi evaluations.  k is the deepest
    <= depth with b^(k+1) block <= samples_per, a margin of b for the
    gather, and with len(base_points) b^k <= _TAIL_TABLE.  As _TAIL_TABLE <
    2^53, the prefix lies in the first group.
    """
    heads = np.asarray(base_points, dtype=float)
    b, phi = params.b, params.phi
    block = 1 if any(phi.a[2:] + phi.b[2:]) else _TAIL_BLOCK.get(b, 1)
    k = _table_digits(b, block, depth, len(heads), samples_per)
    size = len(heads) * samples_per
    groups = _tail_codes(b, depth, size, rng)
    codes, g = next(groups, (np.zeros(size, dtype=np.int64), 0))
    prefix = codes % b**k
    out = np.take_along_axis(series_over_prefixes(params, heads, k), prefix.reshape(len(heads), -1), axis=1)
    del prefix  # not kept while the tail kernel runs
    base = np.repeat(heads, samples_per)
    out = _code_tails(params, base, itertools.chain([(codes, g)], groups), k, block, out.reshape(-1))
    return out.reshape(-1, samples_per)


def _tail_codes(b: int, depth: int, size: int, rng: np.random.Generator) -> Iterator[tuple[np.ndarray, int]]:
    """``size`` seeded tails of ``depth`` digits as (codes, g) per group of
    g <= G = max_level(b, 2^53) digits, first digits first: one draw of
    ``size`` uniform codes in [0, b^g) per group, each exact in float64."""
    whole = max_level(b, 2**53)
    for start in range(0, depth, whole):
        g = min(whole, depth - start)
        yield rng.integers(0, b**g, size=size), g


#: Most values the prefix tile of ``random_tail_series`` holds, over all its
#: base points: 2^14 float64, 128 KiB.  Larger tables leave the memory the
#: code holds as it was, but raise peak RSS through glibc's dynamic mmap
#: threshold, which grows to the size of each freed mmapped block.
_TAIL_TABLE = 1 << 14


def _table_digits(b: int, block: int, depth: int, heads: int, samples_per: int) -> int:
    """The k of ``random_tail_series``: the deepest k <= depth with
    b^(k+1) block <= samples_per and heads b^k <= _TAIL_TABLE."""
    k = 0
    while k < depth and block * b ** (k + 2) <= samples_per and heads * b ** (k + 1) <= _TAIL_TABLE:
        k += 1
    return k


#: Digits per block of ``_code_tails`` by base where phi has no harmonic
#: above 1, fixed by its error count.
_TAIL_BLOCK = {2: 4, 3: 3, 4: 2}
#: cos 2 pi t and sin 2 pi t, which ``_code_tails`` evaluates at block seeds.
_COS, _SIN = PeriodicFn.cosine(), PeriodicFn.sine()


def _chebyshev_up(c: np.ndarray, s, b: int, u) -> None:
    """Overwrite (c, s) = (cos, sin) of 2 pi t with (cos, sin) of 2 pi b t:
    c <- T_b(c), s <- s U_(b-1)(c).  s is None when no sine is wanted; u is
    scratch of c's shape at b = 3."""
    if b == 3:
        np.multiply(c, c, out=u)
        u *= 4.0
        if s is not None:
            s *= u - 1.0  # U_2 = 4c^2 - 1
        u -= 3.0
        c *= u  # T_3 = c (4c^2 - 3)
        return
    for _ in range(b // 2):  # b = 4 is b = 2 twice
        if s is not None:
            s *= c
            s *= 2.0  # U_1 = 2c
        np.multiply(c, c, out=c)
        c *= 2.0
        c -= 1.0  # T_2 = 2c^2 - 1


def _code_tails(
    params: SystemParams, base: np.ndarray, groups, n: int, block: int, out: np.ndarray
) -> np.ndarray:
    """Add the order-0 series of tails given as codes into ``out`` and return
    it, ``block`` digits at a time; the first term weighs gamma^n.

    ``groups`` yields (codes, g) per group of g digits as ``_tail_codes``
    draws them, and is read to its end; the first n digits of the first
    group are summed already, by the prefix tile.  Blocks run within a
    group.  A block ending at digit n of a group places its deepest word
    point straight from the codes, tau = fl((base + code mod b^n) / b^n),
    with base the tails' own base points in the first group and, past a
    seam, the word point at the previous group's last digit.  a_0 is added
    once, times the sum of the tail's coefficients.  At block 1 a term is
    coef (phi - a_0)(tau), by ``eval_deriv``.  Longer blocks, of
    _TAIL_BLOCK[b] digits, serve phi = a_0 + a_1 cos 2 pi t + b_1 sin 2 pi t
    with one cosine (and one sine if b_1 != 0) at tau, by ``eval_deriv`` of
    a unit harmonic, so they round as a per-digit term's do; since the exact
    word points obey t_(n-1) = b t_n - d_n, the shallower points of the
    block follow by c <- T_b(c), s <- s U_(b-1)(c).  ``_add_block`` sums a
    block in Horner form, acc <- gamma acc + c, and adds gamma^n0 a_1 acc
    (likewise b_1 for the sines).

    Error count, done before choosing the blocks, per term, in units of
    eps = 2^-52 (u = eps / 2).
    - Placement.  fl(base + C) rounds by at most u (base + C), and the
      division by b^n is exact where b is a power of 2 and rounds by u once
      more elsewhere, so tau lies within delta_b = 0.5 or 1 of exact
      (relative errors, and tau < 1).  Past a seam, base carries its own
      placement error, divided by b^i at a point i >= 1 digits on: at most
      delta_b / b more, 4/3 in all at worst (b = 3).
    - Block 1, against ``eval_S_deriv``, whose points lie within
      2 u b / (b - 1) <= 2 of exact: a term's two points lie within 3.34 of
      each other, and its values within 3.34 sup|phi'| <= 21 K sup|phi| at
      degree K (Bernstein), 63 at K = 3.  The rest, one ``eval_deriv`` call
      on each side and a_0 and the partial sums added in another order, is
      the common rounding the series property tests allow, ~100 of 256.
    - Longer blocks, against exact arithmetic on the exact word points.  A
      step turns an error in the angle 2 pi t into b times that error, and
      an error in the value c into at most |T_b'(c)| <= b^2 times it, the
      maximum sitting at c = +-1.  j = k - 1 steps lead from the deepest
      point to the top of a block of k digits.  A step is exact on the
      reals, so it adds no rounding of its own to the point: it scales the
      angle error only.
      - Value errors.  cos and sin round to within eps/2 at the deepest
        point (numpy's measure 0.51 ulp at worst); one step rounds to within
        r_b = 0.75, 2.25, 3.75 at b = 2, 3, 4 (T_4 is T_2 twice).  At the
        top of a block they reach b^(2j)/2 + r_b (b^(2j) - 1)/(b^2 - 1).
      - Angle errors.  The deepest angle rounds to within 2, carries the
        float 2 pi's relative error, 1.1 eps per unit of b^j tau < b^j, and
        the placement's 2 pi delta_b.  At the top they reach
        (3.1 + 2 pi delta_b) b^j.
      - The sine.  Its value errors obey ds' <= b ds + K_b dc + r'_b, with
        K_b = max |s U_(b-1)'(c)| = 2, 4 and r'_b = 0.5, 2.25 at b = 2, 3
        (b = 4 is two b = 2 steps), and stay below the cosine's.
      The total is 98 at (b, k) = (2, 4), 148 at (3, 3) and 37 at (4, 2),
      for a_1 and b_1 each; one digit more per block would give 292, 823
      and 292.  Past a seam the base's placement error adds at most
      2 pi delta_b b^(j-1), to 111, 167 and 40, on terms that weigh at most
      gamma^G.  The oracle's word-point error of 2 adds at most 4 pi
      (|a_1| + |b_1|), 161 in all, and leaves 95 of the tests' 256 for the
      partial sums, rounded in another order on each side.
    Term n weighs gamma^(n-1), so a value moves by at most these bounds
    over 1 - gamma.  On constant digit rows (words held next to 0, 1/2 or 1)
    over 40 digits at 250 base points, the largest deviations of blocked
    tails from ``eval_S_deriv`` were 24, 29 and 8 eps sup|phi| / (1 - gamma)
    at b = 2, 3, 4.
    """
    b, gam = params.b, params.gamma
    a0, a1 = (params.phi.a + (0.0,))[:2]
    b1 = (params.phi.b + (0.0,))[1]
    wave = PeriodicFn((0.0,) + params.phi.a[1:], params.phi.b)  # phi - a_0
    term, total = math.prod((gam,) * n), 0.0  # coefficient of the next term; sum of all coefficients
    tau = base  # the deepest word point placed so far
    for codes, g in groups:
        while n < g:
            coef, m = term, min(block, g - n)
            n += m
            tau = base + codes % b**n
            tau /= float(b**n)  # the block's deepest word point
            for _ in range(m):
                total += term
                term *= gam
            if block == 1:
                values = eval_deriv(wave, tau, 0)
                values *= coef  # in place: no temporary for the product
                out += values
            elif a1 or b1:
                _add_block(out, params, tau, m, coef)
        base, n = tau, 0  # the word point at the group's last digit
        del codes  # not kept while the next group is drawn
    if a0:
        out += a0 * total
    return out


def _add_block(out: np.ndarray, params: SystemParams, tau: np.ndarray, m: int, coef: float) -> None:
    """out += coef sum_(i<m) gamma^i (phi - a_0)(tau_i) over the m word points
    of a block, tau_0 the shallowest and tau_(m-1) = tau the deepest.  Its
    arrays die on return, so none is kept while the next block is placed."""
    b, a1, b1 = params.b, params.phi.a[1], params.phi.b[1]
    c = eval_deriv(_COS, tau, 0)
    s = eval_deriv(_SIN, tau, 0) if b1 else None
    u = np.empty(tau.shape) if b == 3 else None  # T_3's scratch
    sums = [(v.copy(), v, w) for v, w in ((c, a1), (s, b1)) if w]  # (Horner sum, values, weight)
    for _ in range(m - 1):
        _chebyshev_up(c, s, b, u)
        for acc, v, _ in sums:
            acc *= params.gamma
            acc += v
    for acc, _, w in sums:
        acc *= coef * w
        out += acc
