"""Separation and transversality scans for the word series.

These produce numeric verdicts with explicit error budgets: a degeneracy /
non-degeneracy dichotomy scan over word pairs, exponential-separation scans
of finite value sets, and a certified search for prefix pairs with uniformly
large and uniformly distinct fiber derivatives.  Certificates carry every
input needed for replay, and interval lower bounds are always grid minima
minus a Lipschitz modulus derived from certified sup-norms, so a reported
bound is a true bound for the scanned quantity.

The exponential-separation scan computes no value twice: one prefix tile
grows through its scales, and each set of suffixes (and the transversality
search's prefixes) is appended on its digit tree by
``series._append_words``, which takes phi once per tree node.  Every value
is bit for bit the one ``series_over_prefixes`` or the per-word append
would give, so the test oracle ``min_gap`` (tests/series_oracles.py), one
sorted tile per suffix, gives every scan gap exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .periodic import sup_norm
from .series import (
    _append_words,
    _tile_step,
    _word_tree,
    check_tile,
    chunk_rows,
    eval_S_deriv,  # noqa: F401 - perfbench/layers.py wraps this name
    series_fixed_word,
    series_over_prefixes,
)
from .words import SystemParams, Word, check_draw, max_level, nhat, sorted_unique

#: A generic irrational base point used wherever one representative x is needed.
GENERIC_BASE_POINT = math.sqrt(2.0) - 1.0

#: Most words of one length a scan visits (sampled suffixes, transversality prefixes).
WORD_CAP = 4096


# ---------------------------------------------------------------------------
# value-set gaps
# ---------------------------------------------------------------------------

def _min_gaps(values: np.ndarray) -> np.ndarray:
    """Minimum gap between the values of each row (last axis), sorted first,
    in place, so the result does not depend on word order."""
    values.sort(axis=-1)
    return np.diff(values, axis=-1).min(axis=-1)


@dataclass(frozen=True)
class SeparationScan:
    """Per-scale minimum gaps of word value sets against epsilon^nhat."""

    n_values: tuple[int, ...]
    nhats: tuple[int, ...]
    min_gaps: tuple[float, ...]
    thresholds: tuple[float, ...]
    worst_words: tuple[str, ...]
    passing: tuple[int, ...]
    epsilon_max: float
    sampled_words: bool

    def to_rows(self):
        return list(
            zip(self.n_values, self.nhats, self.min_gaps, self.thresholds,
                [n in self.passing for n in self.n_values])
        )


def exp_separation_scan(
    params: SystemParams,
    x: float,
    ell: int,
    epsilon: float,
    n_list,
    seed: int = 0,
) -> SeparationScan:
    """Scan exponential separation: scale n passes when every suffix w of
    length ell has its matched-scale value set {S(x, j w) : j in
    Lambda^(nhat - ell)} separated by more than epsilon^nhat.

    Value sets are indexed by the matched scale nhat(n), so the threshold and
    the inspected set live at the same scale.  epsilon_max is the largest
    epsilon for which every scanned n would pass.  When b^ell exceeds
    WORD_CAP, up to WORD_CAP distinct suffixes are sampled under the seed.
    Every scale's tile, b^(nhat - ell) words, must pass
    ``series.check_tile``; all are checked before any work.

    One prefix tile grows by ``series._tile_step`` through the scales in
    ascending nhat, so at each prefix length p = nhat - ell it is
    ``series_over_prefixes(params, x, p)`` bit for bit, and the suffixes are
    appended to it on their digit tree (``series._append_words``), built
    once per scan.  So every gap is the least difference of its suffix's
    sorted ``series_over_prefixes`` values, bit for bit, as the test oracle
    ``min_gap`` takes it.  Memory rule: suffixes go in batches of
    ``series.chunk_rows(b^p)``, so no array holds more than the chunk cap's
    values; the batches' trees are rebuilt only when the batch size changes.
    """
    n_list = sorted(int(v) for v in n_list)
    b = params.b
    check_draw(b, ell, f"exp_separation_scan: ell={ell}")
    nhats = [nhat(n, b, params.gamma) for n in n_list]
    for n, nh in zip(n_list, nhats):
        check_tile(b, nh - ell, f"exp_separation_scan: scale n={n} (nhat={nh}, ell={ell})")
    sampled = b**ell > WORD_CAP
    rng = np.random.default_rng(seed)
    codes = sorted_unique(rng.integers(0, b**ell, WORD_CAP)) if sampled else np.arange(b**ell)
    trees = {}  # batch size -> the digit trees of the suffix batches
    values, prefixes, p = np.zeros(1), np.zeros(1, dtype=np.int32), 0  # the tile of the empty word
    rows = []
    for n, nh in zip(n_list, nhats):
        if rows and rows[-1][1] == nh:  # nhat is monotone in n: reuse the row of this scale
            rows.append((n, *rows[-1][1:]))
            continue
        if nh <= ell:
            rows.append((n, nh, math.inf, epsilon**nh, ""))
            continue
        while p < nh - ell:
            values, prefixes = _tile_step(params, x, p, values, prefixes, np.arange(b, dtype=np.int32))
            p += 1
        batch = min(len(codes), chunk_rows(b**p))  # suffixes per batch, by value count
        if batch not in trees:
            trees[batch] = [_word_tree(c, b, ell) for c in np.split(codes, range(batch, len(codes), batch))]
        pts, coef = (x + prefixes) / float(b**p), math.prod((params.gamma,) * p)
        gaps = []
        for tree in trees[batch]:
            suffixed = _append_words(params, pts, tree, 0, coef)
            suffixed += values  # values + suffixed: addition commutes bit for bit
            gaps.append(_min_gaps(suffixed))
        gaps = np.concatenate(gaps)
        k = int(np.argmin(gaps))  # the first minimal suffix, as worst word
        worst = Word.from_code(int(codes[k]), ell, b).to_string()
        rows.append((n, nh, float(gaps[k]), epsilon**nh, worst))
    passing = tuple(n for n, nh, g, thr, _ in rows if g > thr)
    eps_max = min((g ** (1.0 / nh) for _, nh, g, _, _ in rows if math.isfinite(g)), default=math.inf)
    return SeparationScan(
        n_values=tuple(r[0] for r in rows),
        nhats=tuple(r[1] for r in rows),
        min_gaps=tuple(r[2] for r in rows),
        thresholds=tuple(r[3] for r in rows),
        worst_words=tuple(r[4] for r in rows),
        passing=passing,
        epsilon_max=eps_max,
        sampled_words=sampled,
    )


# ---------------------------------------------------------------------------
# degeneracy dichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomyVerdict:
    """Three-way numeric verdict for the degeneracy dichotomy.

    "H" certifies a witness pair whose series gap exceeds ten times the
    combined error budget, so no common function can generate all words.
    "H*" reports that every scanned pair stays inside the budget, with the
    certified degeneracy bound.  Anything else is "undetermined".
    """

    verdict: str
    sup_gap: float
    budget: float
    witness_x: float | None
    witness_pair: tuple[Word, Word] | None
    degeneracy_bound: float | None


def condition_H_scan(
    params: SystemParams,
    x_grid_size: int,
    word_depth: int,
) -> DichotomyVerdict:
    """Scan sup over an x-grid and all depth-limited word pairs with
    differing first digit of |S(x, i) - S(x, j)|.

    The b^word_depth values of one grid point are one tile, which must pass
    ``series.check_tile``.
    """
    b, depth = params.b, word_depth
    check_tile(b, depth, f"condition_H_scan: word_depth={depth}")
    grid = (np.arange(x_grid_size) + 0.5) / x_grid_size
    sup_gap = -math.inf
    wit = None
    cols = np.arange(b)
    for x in grid:
        # little-endian codes: column d holds the words of first digit d
        vals = series_over_prefixes(params, x, depth).reshape(-1, b)
        hi, lo = vals.argmax(axis=0), vals.argmin(axis=0)
        gaps = vals[hi, cols][:, None] - vals[lo, cols]  # [d1, d2]: max of d1 less min of d2
        np.fill_diagonal(gaps, -np.inf)
        d1, d2 = divmod(int(np.argmax(gaps)), b)  # the first largest gap, d1-major
        if gaps[d1, d2] > sup_gap:
            sup_gap = float(gaps[d1, d2])
            wit = (
                float(x),
                Word.from_code(int(hi[d1]) * b + d1, depth, b),
                Word.from_code(int(lo[d2]) * b + d2, depth, b),
            )
    modulus = 2.0 * sup_norm(params.phi, 1) / (b - params.gamma)
    err = 2.0 * params.tail_bound(depth) + modulus * 0.5 / x_grid_size
    if sup_gap > 10.0 * err:
        return DichotomyVerdict("H", sup_gap, err, wit[0], (wit[1], wit[2]), None)
    if sup_gap <= err:
        return DichotomyVerdict("H*", sup_gap, err, None, None, sup_gap + err)
    return DichotomyVerdict("undetermined", sup_gap, err, None, None, None)


# ---------------------------------------------------------------------------
# transversality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransversalityCertificate:
    """Certified triple (h, h', a) of length-t words: over the whole base
    cell of a, fiber derivatives along any extensions of h and of h' stay
    above delta1 in absolute value and differ by more than delta1."""

    t: int
    delta1: float
    h: Word
    h_prime: Word
    a: Word
    x0: float
    grid_size: int
    min_abs_h: float
    min_abs_h_prime: float
    min_pair_gap: float

    def to_dict(self) -> dict:
        """All fields, words as digit strings, for replay."""
        return {
            "t": self.t,
            "delta1": self.delta1,
            "h": self.h.to_string(),
            "h_prime": self.h_prime.to_string(),
            "a": self.a.to_string(),
            "x0": self.x0,
            "grid_size": self.grid_size,
            "min_abs_h": self.min_abs_h,
            "min_abs_h_prime": self.min_abs_h_prime,
            "min_pair_gap": self.min_pair_gap,
            "b": self.h.b,
        }


def _grid_in_cell(a_code: int, t: int, b: int, points: int) -> np.ndarray:
    lo = a_code / float(b**t)
    width = float(b) ** (-t)
    return lo + (np.arange(points) + 0.5) / points * width


def transversality_search(
    params: SystemParams,
    t_list,
    grid_size: int,
) -> TransversalityCertificate | None:
    """Search prefix pairs and base cells for a certified derivative
    transversality triple, recorded at the generic base point; None when no
    triple certifies.

    Lower bounds over a base cell are grid minima minus a Lipschitz modulus
    (from the certified second-derivative sup-norm) minus the geometric
    envelope of all word extensions.  Every t, b^t prefixes, must be within
    WORD_CAP; all are checked before any work.
    """
    best: TransversalityCertificate | None = None
    phi1 = sup_norm(params.phi, 1)
    phi2 = sup_norm(params.phi, 2)
    b, gam = params.b, params.gamma
    t_list = sorted(int(v) for v in t_list)
    for t in t_list:
        if b**t > WORD_CAP:
            raise ValueError(f"transversality_search: prefix budget b^t at t={t} is {b**t}, above WORD_CAP "
                             f"{WORD_CAP}; the largest t allowed at b={b} is {max_level(b, WORD_CAP)}")
    for t in t_list:
        points = max(8, grid_size // b**t)
        slack_pair = 2.0 * (gam / b) ** t * phi1 / (1.0 - gam / b)
        slack_single = slack_pair / 2.0
        lip = phi2 / (b**2 - gam)
        tree = _word_tree(np.arange(b**t), b, t)  # every prefix, one row each
        for a_code in range(b**t):
            zs = _grid_in_cell(a_code, t, b, points)
            delta_z = float(b) ** (-t) / points
            derivs = _append_words(params, zs, tree, 1, float(b) ** (-1))
            mins = [float(np.abs(d).min()) for d in derivs]
            for h1 in range(b**t):
                a1 = mins[h1] - lip * delta_z / 2.0 - slack_single
                if best is not None and a1 <= best.delta1:
                    continue
                for h2 in range(h1 + 1, b**t):
                    a2 = mins[h2] - lip * delta_z / 2.0 - slack_single
                    pair = float(np.abs(derivs[h1] - derivs[h2]).min())
                    a3 = pair - lip * delta_z - slack_pair
                    d1 = min(a1, a2, a3)
                    if d1 > 0 and (best is None or d1 > best.delta1):
                        best = TransversalityCertificate(
                            t=t,
                            delta1=float(d1),
                            h=Word.from_code(h1, t, b),
                            h_prime=Word.from_code(h2, t, b),
                            a=Word.from_code(a_code, t, b),
                            x0=GENERIC_BASE_POINT,
                            grid_size=points,
                            min_abs_h=mins[h1],
                            min_abs_h_prime=mins[h2],
                            min_pair_gap=pair,
                        )
    return best


def validate_certificate(params: SystemParams, cert: TransversalityCertificate) -> bool:
    """Re-evaluate the certified quantities on a four times finer grid;
    every raw value must stay above delta1."""
    points = cert.grid_size * 4
    zs = _grid_in_cell(cert.a.code(), cert.t, params.b, points)
    dh = series_fixed_word(params, zs, cert.h.digits, order=1)
    dhp = series_fixed_word(params, zs, cert.h_prime.digits, order=1)
    tol = 1.0 - 1e-12
    return bool(
        np.abs(dh).min() >= cert.delta1 * tol
        and np.abs(dhp).min() >= cert.delta1 * tol
        and np.abs(dh - dhp).min() >= cert.delta1 * tol
    )
