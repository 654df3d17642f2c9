"""Attractor rendering, box-counting dimension, and the function-graph bridge.

Box counting uses the same b-adic lattice as the entropy engine: at level l
the plane is cut into squares of side b^-l anchored at the origin, and the
estimate is the least-squares slope of log_b(occupied squares) against the
level.  Point clouds are streamed in chunks: each chunk's finest-level boxes
are packed into int64 keys (ix << 32) ^ (iy + 2^31), sorted and deduplicated,
and the sorted run is merged into a sorted table of occupied keys.  Coarser
levels divide the indices and deduplicate again, so memory scales with the
number of occupied boxes, never with the extent of the lattice.  The packing
is exact only while both indices lie in [-2^31, 2^31).  The level cap
b^lmax <= 2^30 keeps coordinates in [-2, 2) inside that range; a chunk whose
indices fall outside it raises instead of colliding silently.

Graphs of continuous functions get the exact column fill: within one column
the graph meets every box between the column minimum and maximum, so
per-column min/max of a dense sample yields the box count without
rasterizing segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dynamics import attractor_points
from .entropy import fit_line
from .measures import bin_index, sorted_unique
from .periodic import PeriodicFn, eval as phi_eval, sup_norm
from .words import SystemParams, max_level


def log_ratio(b: int, gamma: float) -> float:
    """r = log b / log(1/gamma); min(1, r) is the fiber dimension."""
    if b < 2 or not 0.0 < gamma < 1.0:
        raise ValueError("need b >= 2 and gamma in (0, 1)")
    return math.log(b) / math.log(1.0 / gamma)


def predicted_dimension(b: int, gamma: float) -> float:
    """min(2, 1 + r): the attractor dimension in the non-degenerate regime."""
    return min(2.0, 1.0 + log_ratio(b, gamma))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RasterGrid:
    """Occupancy counts of orbit points on a width x height pixel grid."""

    width: int
    height: int
    y_min: float
    y_max: float
    counts: np.ndarray

    def occupied_fraction(self) -> float:
        return float((self.counts > 0).mean())

    def to_pgm(self) -> bytes:
        """The grid as a portable graymap (max-normalized, zero stays zero)."""
        peak = self.counts.max()
        img = np.zeros_like(self.counts, dtype=np.uint8)
        if peak > 0:
            img = np.ceil(self.counts / peak * 255.0).astype(np.uint8)
        # row 0 at the top = largest y
        return f"P5\n{self.width} {self.height}\n255\n".encode() + img.T[::-1].tobytes()


def render_attractor(
    params: SystemParams, resolution: int, n_points: int, seed: int = 0
) -> RasterGrid:
    """Accumulate orbit-point occupancy on a resolution^2 grid over
    [0,1) x [-M, M], M the certified fiber bound."""
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if n_points < 1:
        raise ValueError(f"n_points must be positive, got {n_points}")
    M = params.fiber_bound
    if M == 0.0:
        M = 1.0
    counts = np.zeros((resolution, resolution), dtype=np.int64)
    for xb, yb in attractor_points(params, n_points, seed=seed):
        ix = np.floor(xb * resolution).astype(np.int64)
        iy = np.floor((yb + M) / (2.0 * M) * resolution).astype(np.int64)
        np.clip(iy, 0, resolution - 1, out=iy)
        np.add.at(counts, (ix, iy), 1)
    return RasterGrid(resolution, resolution, -M, M, counts)


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxCountResult:
    levels: tuple[int, ...]
    counts: tuple[int, ...]
    slope: float

    def to_rows(self):
        return list(zip(self.levels, self.counts))


def _fit(levels, counts, b) -> BoxCountResult:
    """The counts with the least-squares slope of log_b(count) against the level."""
    ys = np.log(np.asarray(counts, dtype=float)) / math.log(b)
    return BoxCountResult(tuple(int(v) for v in levels), tuple(int(v) for v in counts), fit_line(levels, ys))


_HALF = 1 << 31


def _pack(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    return (ix << 32) ^ (iy + _HALF)


def _occupied_keys(xb: np.ndarray, yb: np.ndarray, level: int, b: int) -> np.ndarray:
    """Sorted distinct packed keys of the level-``level`` boxes hit by a chunk."""
    ix = bin_index(xb, b, level)
    iy = bin_index(yb, b, level)
    if len(ix) == 0:
        return ix
    lo, hi = min(ix.min(), iy.min()), max(ix.max(), iy.max())
    if lo < -_HALF or hi >= _HALF:
        raise ValueError(
            f"box indices at level {level} span x in [{ix.min()}, {ix.max()}], "
            f"y in [{iy.min()}, {iy.max()}]; packed box keys need both in "
            f"[-2^31, 2^31)"
        )
    return sorted_unique(_pack(ix, iy))


def box_count_dimension(
    points: Iterable[tuple[np.ndarray, np.ndarray]],
    levels,
    b: int = 2,
) -> BoxCountResult:
    """Box-counting estimate for a planar point set given as an iterable of
    (x_block, y_block) chunks.

    Requires >= 3 levels and a spread of at least two cells at the coarsest
    level.
    """
    levels = sorted(int(v) for v in levels)
    if len(levels) < 3:
        raise ValueError("need at least 3 levels")
    lmax = levels[-1]
    if lmax > max_level(b, 2**30):
        raise ValueError(f"finest level {lmax} too deep for packed box keys: b^{lmax} = {b**lmax} is above "
                         f"{2**30}; the deepest level allowed at b={b} is {max_level(b, 2**30)}")
    keys = np.empty(0, dtype=np.int64)
    for xb, yb in points:
        k = _occupied_keys(np.asarray(xb, dtype=float), np.asarray(yb, dtype=float), lmax, b)
        keys = sorted_unique(np.concatenate([keys, k]), kind="stable")
    if len(keys) == 0:
        raise ValueError("no points supplied")
    counts = []
    at = lmax
    for lev in reversed(levels):
        if lev < at:
            f = b ** (at - lev)
            ix = keys >> 32
            iy = (keys & 0xFFFFFFFF) - _HALF
            keys, at = sorted_unique(_pack(ix // f, iy // f)), lev
        counts.append(len(keys))
    counts.reverse()
    if counts[0] < 2:
        raise ValueError("points span fewer than 2 cells at the coarsest level")
    return _fit(levels, counts, b)


def box_count_graph(xs: np.ndarray, ys: np.ndarray, levels, b: int = 2) -> BoxCountResult:
    """Box counts of the graph of a continuous function sampled densely.

    Within a column the graph meets every box between the column min and
    max, so counts are sums of per-column index ranges.
    """
    levels = sorted(int(v) for v in levels)
    if len(levels) < 3:
        raise ValueError("need at least 3 levels")
    lmax = levels[-1]
    ncol = b**lmax
    col = np.clip(bin_index(xs, b, lmax), 0, ncol - 1)
    iy = bin_index(ys, b, lmax)
    top = np.full(ncol, np.iinfo(np.int64).min)
    bot = np.full(ncol, np.iinfo(np.int64).max)
    np.maximum.at(top, col, iy)
    np.minimum.at(bot, col, iy)
    filled = top >= bot
    if not filled.all():
        raise ValueError("every finest-level column needs at least one sample")
    counts = []
    for lev in levels:
        f = b ** (lmax - lev)
        t2 = (top.reshape(-1, f).max(axis=1)) // f
        b2 = (bot.reshape(-1, f).min(axis=1)) // f
        counts.append(int((t2 - b2 + 1).sum()))
    return _fit(levels, counts, b)


def attractor_box_count(
    params: SystemParams, n_points: int, levels, seed: int = 0
) -> BoxCountResult:
    """Box-count the attractor from streamed orbit samples."""
    return box_count_dimension(
        attractor_points(params, n_points, seed=seed), levels, b=params.b
    )


# ---------------------------------------------------------------------------
# Weierstrass-type graphs
# ---------------------------------------------------------------------------

#: A Weierstrass series stops before its first term with lam^n sup|psi| <= this.
WEIERSTRASS_TOL = 1e-8


@dataclass(frozen=True)
class WeierstrassGraph:
    xs: np.ndarray
    ys: np.ndarray
    predicted_dim: float
    terms: int


def weierstrass_graph(psi: PeriodicFn, lam: float, b: int, resolution: int) -> WeierstrassGraph:
    """Sample the graph of sum_n lam^n psi(b^n x) on [0, 1).

    The series is truncated once lam^n sup|psi| drops below
    ``WEIERSTRASS_TOL`` (raising past 512 terms); the predicted graph
    dimension is 2 + log(lam) / log(b).
    """
    if b < 2:
        raise ValueError("b must be an integer >= 2")
    if not 1.0 / b < lam < 1.0:
        raise ValueError("lambda must lie in (1/b, 1)")
    m = sup_norm(psi, 0)
    terms = 1
    amp = lam * m
    while amp > WEIERSTRASS_TOL:
        if terms == 512:
            raise ValueError(
                f"lambda={lam} needs more than 512 terms to reach tol={WEIERSTRASS_TOL}: the dropped "
                f"tail at 512 terms is {amp / (1.0 - lam):.3g}"
            )
        amp *= lam
        terms += 1
    xs = (np.arange(resolution) + 0.5) / resolution
    ys = np.zeros(resolution)
    arg = xs.copy()
    coef = 1.0
    for _ in range(terms):
        ys += coef * phi_eval(psi, arg)
        arg = (b * arg) % 1.0
        coef *= lam
    dim = 2.0 + math.log(lam) / math.log(b)
    return WeierstrassGraph(xs, ys, dim, terms)
