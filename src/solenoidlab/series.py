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

Every exact bulk evaluation runs one append kernel, ``_append_series``: from
base points tau it applies tau <- (tau + d) / b per digit row d and adds
c phi^(k)(tau), with c shrinking by gamma b^-k per digit.  The callers differ
only in where the digits come from: a fixed word (``series_fixed_word``), the
digits of explicit codes (``series_at_codes``), a common suffix or the high
digits of an enumeration chunk, appended to prefix word points
(``series_over_prefixes``, ``iter_series_all_words``).  Digit rows broadcast
against tau: suffix rows given as columns of shape (r, 1) make
``series_over_prefixes`` return one row of values per suffix, all appended to
one prefix tile.  The word-tree walk of ``_fiber_cells`` takes the kernel's
step inline past the chunk seam, one digit per level for the nodes it keeps.

Seeded uniform tails (``random_tail_series``) feed their rows to the same
kernel, except where phi has no harmonic above 1 and b <= 4.  There
``_stepped_tails`` takes one cosine per block of k = 4, 3, 2 digits
(b = 2, 3, 4) at the block's deepest word point and steps up the block by
Chebyshev polynomials, cos 2 pi b t = T_b(cos 2 pi t).  Its error count,
at most 135 eps (|a_1| + |b_1|) / (1 - gamma) against exact arithmetic on
the same word points, fixes k; these sampled values may differ from the
append kernel's in the last bits, while every exact path stays bit for bit.

Enumerating all prefixes of a length uses the tile recursion instead: the
word points of all length-n prefixes are exactly {(x + m) / b^n : m = 0..b^n - 1},
so level n costs one phi evaluation on b^n points, about b/(b-1) b^n points
in all against n b^n for appending per word.

Three enumerators cover all b^depth words at a base point.
``series_over_prefixes`` returns every value of one tile;
``iter_series_all_words`` yields them all in code order, chunked at the seam
t = max_level(b, DEFAULT_CHUNK_CAP), and is the oracle of the third;
``_fiber_cells``, behind ``measures.build_mx_exact``, computes the same values
by the same float operations but only down to the depth at which the tail
bound fixes a subtree's cell, and yields cells with the words each stands for.

``eval_S_deriv`` stays a scalar loop over Python floats and shares only the
phi kernel ``periodic.eval_deriv`` with the bulk path, so it serves as the
reference oracle for the append recursion; the phi kernel itself is checked
on its own against an mpmath evaluation (``tests/test_periodic.py``).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

import numpy as np

from .periodic import PeriodicFn, eval_deriv
from .words import SystemParams, Word, bin_index, max_level

#: Largest array a bulk enumeration materializes at once.
DEFAULT_CHUNK_CAP = 1 << 22


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
    """sum_n c_n phi^(order)(tau_n) with tau_n = (tau_{n-1} + d_n) / b, one term
    per digit row d_n (scalars or arrays broadcasting against tau).

    c_1 = coef, by default b^-order as for a series starting at its first
    digit; c_{n+1} = c_n gamma b^-order.
    """
    b = params.b
    step = params.gamma * float(b) ** (-order)
    coef = float(b) ** (-order) if coef is None else coef
    out = np.zeros(np.shape(tau))
    for d in digit_rows:
        tau = (tau + d) / b
        del d  # a sampled digit row is not kept through the phi call
        out = out + coef * eval_deriv(params.phi, tau, order)
        coef *= step
    return out


def series_fixed_word(params: SystemParams, xs: np.ndarray, digits, order: int = 0) -> np.ndarray:
    """S^(order)(x, word) for a fixed word over a vector of base points."""
    return _append_series(params, np.asarray(xs, dtype=float), digits, order)


def series_over_prefixes(
    params: SystemParams, x: float, prefix_len: int, suffix=(), order: int = 0
) -> np.ndarray:
    """S^(order)(x, j . suffix) for every j in Lambda^prefix_len, code order.

    Materializes b^prefix_len values per suffix row; b^prefix_len is guarded by
    DEFAULT_CHUNK_CAP.
    """
    b = params.b
    if b**prefix_len > DEFAULT_CHUNK_CAP:
        raise ValueError(
            f"b^{prefix_len} exceeds the materialization cap; use iter_series_all_words"
        )
    A = np.zeros(1)
    pts = np.array([float(x)])
    coef = float(b) ** (-order)
    step = params.gamma * float(b) ** (-order)
    for n in range(1, prefix_len + 1):
        pts = (x + np.arange(b**n, dtype=np.float64)) / float(b**n)
        A = np.tile(A, b) + coef * eval_deriv(params.phi, pts, order)
        coef *= step
    if len(suffix):
        A = A + _append_series(params, pts, suffix, order, coef)
    return A


def series_at_codes(
    params: SystemParams, x: float, length: int, codes: np.ndarray, suffix=(), order: int = 0
) -> np.ndarray:
    """S^(order)(x, j . suffix) for the words j of given length with these codes."""
    codes = np.asarray(codes, dtype=np.int64)

    def digit_rows():
        rest = codes
        for _ in range(length):
            rest, digit = np.divmod(rest, params.b)
            yield digit
        yield from suffix

    return _append_series(params, np.full(codes.shape, float(x)), digit_rows(), order)


def iter_series_all_words(
    params: SystemParams, x: float, depth: int, chunk_cap: int = DEFAULT_CHUNK_CAP
) -> Iterator[np.ndarray]:
    """Yield S(x, j) over all j in Lambda^depth in code order, chunked.

    The first t levels (b^t <= chunk_cap) use the tile recursion; each chunk
    appends its remaining digits to the length-t prefix word points.
    """
    b = params.b
    t = min(depth, max_level(b, chunk_cap))
    A = series_over_prefixes(params, x, t)
    pts = (x + np.arange(b**t, dtype=np.float64)) / float(b**t)
    for high in range(b ** (depth - t)):
        digits = Word.from_code(high, depth - t, b).digits
        yield A + _append_series(params, pts, digits, 0, params.gamma**t)


def _fiber_cells(params: SystemParams, x: float, level: int, depth: int) -> Iterator[tuple[np.ndarray, int]]:
    """Yield (cells, words): level-``level`` b-adic cells that S(x, j) meets
    over the words j of Lambda^depth, each entry standing for ``words`` words.
    Summed per cell, the words give the histogram of ``iter_series_all_words``.

    A walk down the word tree, with every value computed by the float
    operations of ``iter_series_all_words``.  Before the chunk seam
    t = max_level(b, DEFAULT_CHUNK_CAP) a node of length n is a code m with
    its tile value A_n; a child takes code m + d b^n, word point
    (x + m') / b^(n+1) and A_n + c phi, c by the tile's repeated product.  Past
    the seam a node keeps A_t and appends by ``_append_series``'s steps, its
    value A_t + O_n.  A node whose value v has bin_index(v - r_n) ==
    bin_index(v + r_n), r_n = tail_bound(n) + slack, is settled: its
    b^(depth-n) words go to that cell and it is dropped.  Every word below it
    ends at a value V with |V - v| <= r_n, so fl(v - r_n) <= V <= fl(v + r_n),
    and floor(fl(V b^level)) is monotone in V: the words per cell are exactly
    those of binning all b^depth values.  The other nodes are binned at the
    leaves.

    Cost rule: settling compacts the node arrays, which costs more than it
    saves while most nodes survive (b gamma > 1).  So a level settles its
    nodes only when the settled ones are the majority; until then the walk
    keeps every node, which is the tile recursion itself.  Past the seam the
    nodes go in slices of max(1, b^(2t - depth)), so no level of a slice
    materializes more values than one chunk of ``iter_series_all_words``
    while depth <= 2t, as ``measures.WORK_BUDGET`` ensures, and the slices
    yield no more often than its chunks.

    The slack bounds the rounding between v and V.  Let u = eps / 2,
    F = fiber_bound, T_n the exact tail sup|phi| gamma^n / (1 - gamma), and
    k <= 2 degree + 1 the terms of one phi evaluation.
    - A computed phi value is at most sup|phi| (1 + u)^k: |cos|, |sin| <= 1
      in floats, and each product and sum rounds once.
    - The coefficient of term j is at most gamma^(j-1) (1 + u)^(j+1), by
      repeated products or gamma^t by pow; so the computed terms after n sum
      to at most T_n (1 + u)^(depth + k + 2).
    - tail_bound(n) rounds within (k + 6) u of T_n, relatively.
    - At most depth - n + 2 rounded additions lie between v and V (the
      walk's, plus A_t + O at both ends past the seam), each off by u times
      a partial sum, at most 1.01 u F.
    So |V - v| <= tail_bound(n) + 1.01 (depth + k + 5) eps F, and the slack
    4 (depth + 2 degree + 4) eps F is at least twice that.
    """
    b, gam, phi = params.b, params.gamma, params.phi
    t = min(depth, max_level(b, DEFAULT_CHUNK_CAP))
    slack = 4.0 * (depth + 2 * phi.degree + 4) * np.finfo(float).eps * params.fiber_bound
    scale = float(b) ** level

    def radius(n):
        return params.tail_bound(n) + slack

    def prune(n, v, arrays):
        """Yield the settled nodes' cells; return the arrays of the others."""
        r = radius(n)
        lo = bin_index(v - r, b, level)
        settled = lo == bin_index(v + r, b, level)
        if 2 * np.count_nonzero(settled) <= len(v):  # most survive: keep tiling
            return arrays
        yield lo[settled], b ** (depth - n)
        return [a[~settled] for a in arrays]

    # the first length at which one cell can hold a node's whole radius
    first = next((n for n in range(depth) if 2.0 * radius(n) * scale < 1.0), depth)
    n = min(first, t)
    A = series_over_prefixes(params, x, n)
    codes = np.arange(b**n)
    coef = 1.0
    for _ in range(n):
        coef *= gam
    while n < t:
        A, codes = yield from prune(n, A, [A, codes])
        codes = (codes + b**n * np.arange(b)[:, None]).ravel()
        n += 1
        A = np.tile(A, b)
        A += coef * eval_deriv(phi, (x + codes) / float(b**n), 0)
        coef *= gam
    tau = (x + codes) / float(b**t)
    del codes
    step = b ** max(0, 2 * t - depth)
    for start in range(0, len(A), step):
        base, tau_s = A[start:start + step], tau[start:start + step]
        out, coef = np.zeros(len(base)), gam**t
        for n in range(t, depth):
            if n >= first:
                base, tau_s, out = yield from prune(n, base + out, [base, tau_s, out])
            tau_s = np.add(tau_s, np.arange(b)[:, None]).ravel()
            tau_s /= b
            term = eval_deriv(phi, tau_s, 0)
            term *= coef
            base, out = np.tile(base, b), np.tile(out, b)
            out += term
            del term
            coef *= gam
        out += base  # the value A_t + O of each leaf
        del base, tau_s  # not kept while the leaves are counted
        yield bin_index(out, b, level), 1


def random_tail_series(
    params: SystemParams,
    base_points: np.ndarray,
    depth: int,
    samples_per: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """S(p, tail) for seeded i.i.d. tails: shape (len(base_points), samples_per).

    The digit rows are drawn in order, one per level, whichever kernel sums
    them, so the rng stream and its final state do not depend on phi.  When
    phi has no harmonic above 1 and b is 2, 3 or 4, ``_stepped_tails`` takes
    one cosine per block of k = 4, 3 or 2 digits and steps up the block by
    Chebyshev polynomials; by its error count each value then lies within
    135 eps (|a_1| + |b_1|) / (1 - gamma) of exact arithmetic on the same word
    points.  Any other phi or base takes ``_append_series``.
    """
    tau = np.repeat(np.asarray(base_points, dtype=float), samples_per)
    rows = (rng.integers(0, params.b, size=tau.shape) for _ in range(depth))
    phi = params.phi
    kernel = _append_series
    if params.b in _TAIL_BLOCK and not any(phi.a[2:] + phi.b[2:]):
        kernel = _stepped_tails
    return kernel(params, tau, rows).reshape(-1, samples_per)


#: Digits per block of ``_stepped_tails`` by base, fixed by its error count.
_TAIL_BLOCK = {2: 4, 3: 3, 4: 2}
#: cos 2 pi t and sin 2 pi t, which ``_stepped_tails`` evaluates at block seeds.
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


def _stepped_tails(params: SystemParams, tau: np.ndarray, digit_rows) -> np.ndarray:
    """``_append_series`` at order 0 for phi = a_0 + a_1 cos 2 pi t + b_1 sin 2 pi t,
    with one cosine (and one sine if b_1 != 0) per block of k = _TAIL_BLOCK[b]
    digits.  Overwrites tau.

    Digit rows are consumed in order.  After the k rows of a block, cos and
    sin are taken at the deepest word point tau_m only, by ``eval_deriv`` of
    a unit harmonic, so they round as the per-digit kernel's do; since
    tau_(n-1) = b tau_n mod 1, the shallower points of the block follow by
    c <- T_b(c), s <- s U_(b-1)(c).  ``_add_block`` sums a block in Horner
    form, acc <- gamma acc + c, and adds gamma^n0 a_1 acc (likewise b_1 for
    the sines); a_0 is added once, times the sum of all coefficients.

    Error count, done before choosing k, per term against exact arithmetic
    on the same float word points, in units of eps = 2^-52.  A step turns an
    error in the angle 2 pi t into b times that error, and an error in the
    value c into at most |T_b'(c)| <= b^2 times it, the maximum sitting at
    c = +-1.  j = k - 1 steps lead from the deepest point to the top of a
    block.
    - Value errors.  cos and sin round to within eps/2 at the deepest point
      (numpy's measure 0.51 ulp at worst); one step rounds to within r_b = 0.75,
      2.25, 3.75 at b = 2, 3, 4 (T_4 is T_2 twice).  At the top of a block
      they reach b^(2j)/2 + r_b (b^(2j) - 1)/(b^2 - 1).
    - Angle errors.  The deepest angle rounds to within 2 and carries the
      float 2 pi's relative error, 1.1 eps per unit of b^j tau_m < b^j.  Each
      step adds 2 pi rho_b, where rho_b = |b tau_n - d_n - tau_(n-1)| <= 0.5,
      1.75, 1 is the rounding of (tau + d) / b.  At the top they reach
      3.1 b^j + 2 pi rho_b (b^j - 1)/(b - 1).
    - The sine.  Its value errors obey ds' <= b ds + K_b dc + r'_b, with
      K_b = max |s U_(b-1)'(c)| = 2, 4 and r'_b = 0.5, 2.25 at b = 2, 3 (b = 4
      is two b = 2 steps), and stay below the cosine's.
    The total is 95 at (b, k) = (2, 4), 135 at (3, 3) and 31 at (4, 2), for
    a_1 and b_1 each; one digit more per block would give 289, 796 and 273.
    Term n weighs gamma^(n-1), so a value moves by at most that bound times
    (|a_1| + |b_1|) / (1 - gamma).  The tolerance of the series property
    tests is 256 eps sup|phi| / (1 - gamma), of which about 100 covers the
    rounding of partial sums and trig calls that every bulk kernel has.
    On constant digit rows (words held next to 0, 1/2 or 1) at 250 base
    points, the largest deviations from ``eval_S_deriv`` were 41, 51 and 17
    eps sup|phi| / (1 - gamma).
    """
    b, gam = params.b, params.gamma
    a0, a1 = (params.phi.a + (0.0,))[:2]
    b1 = (params.phi.b + (0.0,))[1]
    out = np.zeros(tau.shape)
    rows = iter(digit_rows)
    term, total = 1.0, 0.0  # coefficient of the next term; sum of all coefficients
    while True:
        coef, m = term, 0
        for d in islice(rows, _TAIL_BLOCK[b]):
            tau += d
            del d  # a sampled digit row is not kept while the next is drawn
            tau /= b
            total += term
            term *= gam
            m += 1
        if m == 0:
            break
        if a1 or b1:
            _add_block(out, params, tau, m, coef)
    if a0:
        out += a0 * total
    return out


def _add_block(out: np.ndarray, params: SystemParams, tau: np.ndarray, m: int, coef: float) -> None:
    """out += coef sum_(i<m) gamma^i (phi - a_0)(tau_i) over the m word points
    of a block, tau_0 the shallowest and tau_(m-1) = tau the deepest.  Its
    arrays die on return, so none is kept while the next block's rows are
    drawn."""
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
