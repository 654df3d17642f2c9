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
dropped tail.

Every bulk evaluation runs one append kernel, ``_append_series``: from base
points tau it applies tau <- (tau + d) / b per digit row d and adds
c phi^(k)(tau), with c shrinking by gamma b^-k per digit.  The callers differ
only in where the digits come from: a fixed word (``series_fixed_word``), the
digits of explicit codes (``series_at_codes``), a common suffix or the high
digits of an enumeration chunk, appended to prefix word points
(``series_over_prefixes``, ``iter_series_all_words``), or seeded uniform rows
(``random_tail_series``).  Digit rows broadcast against tau: suffix rows given
as columns of shape (r, 1) make ``series_over_prefixes`` return one row of
values per suffix, all appended to one prefix tile.

Enumerating all prefixes of a length uses the tile recursion instead: the
word points of all length-n prefixes are exactly {(x + m) / b^n : m = 0..b^n - 1},
so level n costs one phi evaluation on b^n points, about b/(b-1) b^n points
in all against n b^n for appending per word.

``eval_S_deriv`` stays a scalar loop over Python floats and shares only the
phi kernel ``periodic.eval_deriv`` with the bulk path, so it serves as the
reference oracle for the append recursion; the phi kernel itself is checked
on its own against an mpmath evaluation (``tests/test_periodic.py``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .periodic import eval_deriv
from .words import SystemParams, Word, max_level, word_point

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


def cocycle_check(params: SystemParams, x: float, w: Word, i: Word) -> float:
    """Residual |S(x, w i) - S(x, w) - gamma^|w| S(w(x), i)| on exact finite words."""
    if len(w) < 1:
        raise ValueError("w must be nonempty")
    whole = eval_S(params, x, w.concat(i))
    head = eval_S(params, x, w)
    tail_val = eval_S(params, word_point(w, x), i)
    return abs(whole - head - params.gamma ** len(w) * tail_val)


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


def random_tail_series(
    params: SystemParams,
    base_points: np.ndarray,
    depth: int,
    samples_per: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """S(p, tail) for seeded i.i.d. tails: shape (len(base_points), samples_per)."""
    tau = np.repeat(np.asarray(base_points, dtype=float), samples_per)
    rows = (rng.integers(0, params.b, size=tau.shape) for _ in range(depth))
    return _append_series(params, tau, rows).reshape(-1, samples_per)
