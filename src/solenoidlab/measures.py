"""Discrete probability measures on b-adic partitions of the line.

A measure lives at a fixed level n: mass sits on cells [j/b^n, (j+1)/b^n),
stored as a sorted table of int64 cell indices with positive weights that
sum to one.  Levels are capped so that index arithmetic stays exact in
float64 (b^level <= 2^45).  ``_Hist`` is the one rule that accumulates
(index, weight) chunks; ``_merge_cells`` is its one-chunk case.  Its callers
are the sampled builder, ``mix``, ``total_variation`` (mu's weights, then
nu's negated) and the exact builder, which feeds it the word
counts of ``series._fiber_cells`` (whole numbers, so their sums are exact)
and divides by b^depth once.  While the index span is at most
2 * items + 1024 (items: the caller's declared total) the table is a dense
window of sums plus an occupancy mask, and a chunk costs O(chunk); a regrown
window takes a margin of 1/16 of its old span on each side that grew.
A wider span keeps the table and each later chunk as runs, merged when
``idx`` or ``w`` is read by one sort and one ``np.bincount`` in stream order.
Both paths add each cell's weights in stream order, so a table is
independent of how its stream is chunked, and zero-weight cells are kept.
``series.check_walk`` caps the words of an exact build, and ``exact_depth``
gives the experiments' exact builds their depth from ``EXACT_WORDS``, which
only this module reads.
``tail_sampled_measure`` is the one sampled builder (``build_mx_empirical``
is its one-head case; ``partitions.measure_B`` passes one head per word of a
uniform word block, the decomposition check's whole mixture among them).
One chunk rule fixes every sampled stream: heads go in groups of
max(1, _CHUNK // samples) and each group's samples are drawn _CHUNK at a
time.  ``_CHUNK`` = 2^18 keeps a chunk's series values, codes and kernel
scratch to a few MiB each; another ``_CHUNK`` would change the streams.

Affine images deposit each source cell's mass at the image of the cell
midpoint; the induced atom displacement is at most |a| b^(-level) / 2 and is
folded into the reported bounds wherever an operation is compared against an
exact enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .periodic import eval as phi_eval  # noqa: F401 - perfbench/layers.py wraps this name
from .series import _fiber_cells, eval_S, random_tail_series
from .series import iter_series_all_words  # noqa: F401 - perfbench/layers.py wraps this name
from .words import SystemParams, Word, bin_index, check_level, max_level

#: The word count that fixes the depth of the experiments' exact builds.
EXACT_WORDS = 2**23
_CHUNK = 1 << 18


def exact_depth(b: int) -> int:
    """The deepest exact build of at most EXACT_WORDS words at base b."""
    return max_level(b, EXACT_WORDS)


def _merge_cells(idx: np.ndarray, w) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct indices of an (index, weight) table and the summed
    weight of each: the table of a one-chunk ``_Hist``."""
    hist = _Hist(len(idx))
    hist.add(idx, w)
    return hist.idx, hist.w


class _Hist:
    """Accumulator of (index, weight) chunks that adds each cell's weights in
    stream order.  ``items``, the caller's total item count, sets the bound
    on the dense window's span."""

    def __init__(self, items: int):
        self.items = items
        self.lo = 0
        self.acc = np.zeros(0)  # sums over cells lo .. lo + len(acc) - 1
        self.occ = np.zeros(0, dtype=bool)  # cells that received an item
        self.table = None  # (idx, w) runs in stream order once the span outgrows the window

    def _merged(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self.table) > 1:  # merge the runs into one sorted table, which replaces them
            u, inv = np.unique(np.concatenate([i for i, _ in self.table]), return_inverse=True)
            self.table = [(u, np.bincount(inv, np.concatenate([w for _, w in self.table])))]
        return self.table[0]

    @property
    def idx(self) -> np.ndarray:
        return self._merged()[0] if self.table is not None else np.flatnonzero(self.occ) + self.lo

    @property
    def w(self) -> np.ndarray:
        return self._merged()[1] if self.table is not None else self.acc[self.occ]

    def add(self, idx: np.ndarray, w) -> None:
        """Add a chunk; ``w`` is one weight per item or one for all of them."""
        if len(idx) == 0:
            return
        if self.table is None:
            lo, hi = int(idx.min()), int(idx.max()) + 1
            if len(self.acc):
                lo, hi = min(lo, self.lo), max(hi, self.lo + len(self.acc))
            bound = 2 * self.items + 1024
            if hi - lo <= bound:
                if hi - lo > len(self.acc):  # regrow, with a margin on each side that grew
                    pad = min(len(self.acc) // 16, (bound - (hi - lo)) // 2)
                    lo, hi = lo - pad * (lo < self.lo), hi + pad * (hi > self.lo + len(self.acc))
                    acc, occ = np.zeros(hi - lo), np.zeros(hi - lo, dtype=bool)
                    acc[self.lo - lo:][: len(self.acc)] = self.acc
                    occ[self.lo - lo:][: len(self.occ)] = self.occ
                    self.lo, self.acc, self.occ = lo, acc, occ
                pos = idx - self.lo
                np.add.at(self.acc, pos, w)
                self.occ[pos] = True
                return
            self.table = [(self.idx, self.w)]
        self.table.append((idx, np.broadcast_to(w, idx.shape)))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure resolved on the level-n b-adic partition."""

    b: int
    level: int
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        check_level(self.b, self.level)
        idx = np.asarray(self.indices, dtype=np.int64)
        w = np.asarray(self.weights, dtype=float)
        if idx.shape != w.shape or idx.ndim != 1:
            raise ValueError("indices and weights must be aligned vectors")
        if len(idx) == 0:
            raise ValueError("measure must have nonempty support")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.all(np.diff(idx) > 0):
            idx, w = _merge_cells(idx, w)
        keep = w > 0
        idx, w = idx[keep], w[keep]
        total = w.sum()
        if not total > 0:
            raise ValueError("total mass must be positive")
        w = w / total
        idx.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)

    # ------------------------------------------------------------ builders
    @classmethod
    def from_values(cls, b: int, level: int, values, weights=None) -> "DiscreteMeasure":
        check_level(b, level)
        values = np.asarray(values, dtype=float)
        if weights is None:
            weights = np.full(values.shape, 1.0 / values.size)
        return cls(b, level, bin_index(values, b, level), np.asarray(weights, dtype=float))

    @classmethod
    def uniform_unit(cls, b: int, level: int) -> "DiscreteMeasure":
        """Lebesgue on [0, 1) resolved at the given level."""
        check_level(b, level)
        n = b**level
        return cls(b, level, np.arange(n, dtype=np.int64), np.full(n, 1.0 / n))

    # ----------------------------------------------------------- accessors
    def midpoints(self) -> np.ndarray:
        return (self.indices + 0.5) / float(self.b) ** self.level

    def coarsen(self, level: int) -> "DiscreteMeasure":
        if level > self.level:
            raise ValueError("can only coarsen to a coarser level")
        if level == self.level:
            return self
        f = self.b ** (self.level - level)
        return DiscreteMeasure(self.b, level, self.indices // f, self.weights)


# ---------------------------------------------------------------------------
# fiber-measure builders
# ---------------------------------------------------------------------------

def tail_sampled_measure(
    params: SystemParams,
    heads: np.ndarray,
    tips: np.ndarray,
    contraction: float,
    samples: int,
    level: int,
    rng: np.random.Generator,
) -> DiscreteMeasure:
    """Histogram of heads[i] + contraction * S(tips[i], tail) over ``samples``
    seeded i.i.d. tails per head, tails at the system truncation depth and
    every sample of weight one.

    The tails come from ``random_tail_series``, which draws each as
    whole-word codes, reads its first digits from a prefix tile of each tip
    and sums the rest from the codes, a block of digits at a time; its error
    count puts each tail value within 256 eps sup|phi| / (1 - gamma) of
    ``eval_S_deriv`` on the same digits, times ``contraction`` here.  A
    sample can therefore land in another cell than the oracle's only if the
    oracle's value lies within that distance of a cell edge.
    """
    check_level(params.b, level)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    heads = np.asarray(heads, dtype=float)
    tips = np.asarray(tips, dtype=float)
    if heads.ndim != 1 or heads.shape != tips.shape:
        raise ValueError(
            f"heads and tips must be vectors of one length; got shapes {heads.shape} and {tips.shape}"
        )
    depth = params.truncation_depth
    group = max(1, _CHUNK // samples)
    hist = _Hist(len(heads) * samples)
    for start in range(0, len(heads), group):
        sl = slice(start, start + group)
        for done in range(0, samples, _CHUNK):
            vals = random_tail_series(params, tips[sl], depth, min(_CHUNK, samples - done), rng)
            vals *= contraction
            vals += heads[sl, None]
            hist.add(bin_index(vals.reshape(-1), params.b, level), 1.0)
    return DiscreteMeasure(params.b, level, hist.idx, hist.w)


def build_mx_empirical(
    params: SystemParams,
    x: float,
    level: int,
    n_samples: int,
    seed: int,
) -> DiscreteMeasure:
    """Histogram of the word series over i.i.d. uniform words, truncated at
    the system truncation depth: the one-head tail-sampled measure."""
    rng = np.random.default_rng(seed)
    return tail_sampled_measure(params, [0.0], [x], 1.0, n_samples, level, rng)


def build_mx_exact(
    params: SystemParams,
    x: float,
    level: int,
    depth: int,
) -> DiscreteMeasure:
    """The b^depth words with uniform weights, each in the cell of its
    series value: the histogram of ``iter_series_all_words``, cell for cell.

    ``series._fiber_cells`` counts the words per cell by a walk down the
    word tree that settles a whole subtree once its tail bound fits in one
    cell, so a build evaluates far fewer than b^depth values when b gamma < 1.
    Weights are the counts over b^depth, rounded once: at b = 2 they equal the
    running sums of 2^-depth bit for bit.  Equals the true fiber measure up to
    the series tail bound gamma^depth sup|phi| / (1 - gamma) in Levy
    distance.
    """
    check_level(params.b, level)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    total = params.b**depth
    hist = _Hist(total)
    for cells, words in _fiber_cells(params, x, level, depth):
        hist.add(cells, float(words))  # whole numbers: the sums are exact
        del cells  # not kept while the walk computes the next slice
    return DiscreteMeasure(params.b, level, hist.idx, hist.w / total)


# ---------------------------------------------------------------------------
# measure algebra
# ---------------------------------------------------------------------------

def pushforward_affine(mu: DiscreteMeasure, a: float, c: float, out_level: int) -> DiscreteMeasure:
    """Image of mu under y -> a y + c, binned at out_level by cell midpoints.

    Midpoint deposition displaces each atom by at most |a| b^(-mu.level) / 2.
    Lattice-compatible maps (a = +-b^(-k), c on the target lattice) are exact.
    """
    if a == 0.0:
        raise ValueError("a must be nonzero")
    check_level(mu.b, out_level)
    values = a * mu.midpoints() + c
    return DiscreteMeasure.from_values(mu.b, out_level, values, mu.weights)


def mix(components) -> DiscreteMeasure:
    """Weighted superposition of measures on a common lattice, merged in one
    pass over any iterable of (weight, measure) pairs."""
    components = list(components)
    hist = _Hist(sum(len(m.indices) for _, m in components))
    first = None
    total = 0.0
    for w, m in components:
        first = m if first is None else first
        if m.b != first.b or m.level != first.level:
            raise ValueError("components must share base and level")
        if w < 0:
            raise ValueError("mixture weights must be nonnegative")
        total += w
        if w > 0:
            hist.add(m.indices, w * m.weights)
    if first is None:
        raise ValueError("need at least one component")
    if abs(total - 1.0) > 1e-9:
        raise ValueError("mixture weights must sum to 1")
    return DiscreteMeasure(first.b, first.level, hist.idx, hist.w)


def total_variation(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """TV distance of two measures on the same lattice."""
    if mu.b != nu.b or mu.level != nu.level:
        raise ValueError("measures must share base and level")
    hist = _Hist(len(mu.indices) + len(nu.indices))
    hist.add(mu.indices, mu.weights)
    hist.add(nu.indices, -nu.weights)
    return float(0.5 * np.abs(hist.w).sum())


# ---------------------------------------------------------------------------
# the self-similarity identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfSimilarityReport:
    residual: float
    certified_bound: float


def self_similarity_residual(
    params: SystemParams,
    x: float,
    n: int,
    depth: int,
    level: int,
) -> SelfSimilarityReport:
    """TV distance between the depth-enumerated fiber measure and its
    depth-(n, depth-n) decomposition into affine images over length-n words.

    Both sides enumerate the same word set, so the residual is pure
    discretization: inner measures are binned at a level fine enough to
    resolve their own tail scale, which makes the certified bound (and in
    practice the residual) shrink as depth grows.
    """
    if not 0 <= n < depth:
        raise ValueError("need 0 <= n < depth")
    lhs = build_mx_exact(params, x, level, depth)
    inner_level = min(
        level + math.ceil((depth - n) * params.log_b_inv_gamma), params.max_bin_level()
    )
    gn = params.gamma**n
    parts = []
    for code in range(params.b**n):
        w = Word.from_code(code, n, params.b)
        inner = build_mx_exact(params, (x + code) / float(params.b**n), inner_level, depth - n)
        shift = eval_S(params, x, w)
        parts.append((params.b ** (-n), pushforward_affine(inner, gn, shift, level)))
    rhs = mix(parts)
    residual = total_variation(lhs, rhs)
    displacement = gn * float(params.b) ** (-inner_level) / 2.0 + 2.0 * gn * params.tail_bound(
        depth - n
    )
    bound = min(1.0, float(params.b) ** level * 2.0 * displacement)
    return SelfSimilarityReport(residual, bound)
