"""Attractor rendering, box-counting dimension, and the function-graph bridge.

Box counting uses the same b-adic lattice as the entropy engine: at level l
the plane is cut into squares of side b^-l anchored at the origin, and the
estimate is the least-squares slope of log_b(occupied squares) against the
level.  Point clouds are streamed in chunks.  Each chunk is binned once at
the finest level lmax with ``words.bin_index`` and marked in a bool table of
(row, column) boxes by one flat scatter.  The table grows with the data, and
its rows and columns start and end on multiples of f = b^(lmax - lmin), so
every coarser level is an OR over f' x f' blocks of the finer table.  Memory
scales with the extent of the cloud at the finest level, which for an
attractor is bounded by [0, 1) x [-M, M] whatever the number of points.

A sparse cloud at a deep level would need a table past ``BOX_TABLE_CAP``
cells.  From the chunk that would pass it on, boxes are kept as sorted
packed int64 keys (ix << 32) ^ (iy + 2^31) instead: the table's boxes are
converted once, each chunk's keys are merged in, and coarser levels divide
the indices and deduplicate again.  Both paths count the distinct
(floor(x b^l), floor(y b^l)) pairs of the same indices, so their counts are
equal.  Each chunk is checked once, on arrival, for indices in
[-2^31, 2^31), where the packing is exact; the level cap b^lmax <= 2^30
keeps coordinates in [-2, 2) inside that range.  An attractor is counted
as ``box_count_dimension(dynamics.attractor_points(...))``.

Graphs of continuous functions get the exact column fill: within one column
the graph meets every box between the column minimum and maximum, so
per-column min/max of a dense sample yields the box count without
rasterizing segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .dynamics import attractor_points
from .entropy import fit_levels, fit_line
from .periodic import PeriodicFn, eval as phi_eval, sup_norm
from .words import SystemParams, bin_index, max_level, sorted_unique


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
        counts += np.bincount(ix * resolution + iy, minlength=resolution**2).reshape(resolution, resolution)
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


#: Most cells the finest-level occupancy table may hold; a stream whose boxes
#: need a wider table is counted by sorted packed keys instead.
BOX_TABLE_CAP = 2**24

_HALF = 1 << 31


def _span(ix: np.ndarray, iy: np.ndarray, level: int) -> tuple[int, int, int, int]:
    """(x0, x1, y0, y1), the index bounds of a nonempty chunk of boxes; raises
    unless both lie in [-2^31, 2^31), where packed keys are exact."""
    x0, x1, y0, y1 = int(ix.min()), int(ix.max()), int(iy.min()), int(iy.max())
    if min(x0, y0) < -_HALF or max(x1, y1) >= _HALF:
        raise ValueError(
            f"box indices at level {level} span x in [{x0}, {x1}], y in [{y0}, {y1}]; "
            f"packed box keys need both in [-2^31, 2^31)"
        )
    return x0, x1, y0, y1


def _pack(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    return (ix << 32) ^ (iy + _HALF)


def _occupied_keys(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Sorted distinct packed keys of boxes whose indices ``_span`` checked."""
    return sorted_unique(_pack(ix, iy))


def _cover(lo: int, hi: int, old_lo: int, old_hi: int, align: int, pad: int) -> tuple[int, int]:
    """The smallest [lo', hi') on multiples of ``align`` that holds [lo, hi),
    [old_lo, old_hi) and ``pad`` more on each side where [lo, hi) sticks out."""
    lo, hi = min(lo, old_lo) - pad * (lo < old_lo), max(hi, old_hi) + pad * (hi > old_hi)
    return lo // align * align, -(-hi // align) * align


def _widen(occ, r0: int, c0: int, span, align: int):
    """The occupancy table ``occ`` (row r0, column c0 at its corner) widened to
    hold the boxes of ``span``, as (table, r0, c0); None if that passes
    ``BOX_TABLE_CAP`` cells.

    Rows and columns start and end on multiples of ``align``, so that every
    coarser level is a block reduction.  As in ``measures._Hist``, a side that
    grows gets a margin of a sixteenth of the table, while the cap allows it.
    """
    x0, x1, y0, y1 = span
    nr, nc = occ.shape
    if not nr:
        r0, c0 = y0, x0
    elif r0 <= y0 and y1 < r0 + nr and c0 <= x0 and x1 < c0 + nc:
        return occ, r0, c0
    for pr, pc in ((nr // 16, nc // 16), (0, 0)):
        rl, rh = _cover(y0, y1 + 1, r0, r0 + nr, align, pr)
        cl, ch = _cover(x0, x1 + 1, c0, c0 + nc, align, pc)
        if (rh - rl) * (ch - cl) <= BOX_TABLE_CAP:
            grown = np.zeros((rh - rl, ch - cl), dtype=bool)
            grown[r0 - rl:r0 - rl + nr, c0 - cl:c0 - cl + nc] = occ
            return grown, rl, cl
    return None


def box_count_dimension(
    points: Iterable[tuple[np.ndarray, np.ndarray]],
    levels,
    b: int = 2,
) -> BoxCountResult:
    """Box-counting estimate for a planar point set given as an iterable of
    (x_block, y_block) chunks.

    Requires >= 3 distinct levels and a spread of at least two cells at the
    coarsest level.
    """
    levels = fit_levels(levels)
    lmax = levels[-1]
    if lmax > max_level(b, 2**30):
        raise ValueError(f"finest level {lmax} too deep for packed box keys: b^{lmax} = {b**lmax} is above "
                         f"{2**30}; the deepest level allowed at b={b} is {max_level(b, 2**30)}")
    align = b ** (lmax - levels[0])
    occ, r0, c0 = np.zeros((0, 0), dtype=bool), 0, 0  # occ[i, j]: finest box (c0 + j, r0 + i)
    keys = None  # sorted packed keys, once the table would pass the cap
    for xb, yb in points:
        ix, iy = bin_index(xb, b, lmax), bin_index(yb, b, lmax)
        if len(ix) == 0:
            continue
        span = _span(ix, iy, lmax)
        if keys is None:
            grown = _widen(occ, r0, c0, span, align)
            if grown is not None:
                occ, r0, c0 = grown
                occ.reshape(-1)[(iy - r0) * occ.shape[1] + (ix - c0)] = True
                continue
            rows, cols = np.nonzero(occ)
            ix, iy = np.concatenate([cols + c0, ix]), np.concatenate([rows + r0, iy])
            keys = np.empty(0, dtype=np.int64)
        keys = sorted_unique(np.concatenate([keys, _occupied_keys(ix, iy)]), kind="stable")
    if keys is None and not occ.size:
        raise ValueError("no points supplied")
    counts = []
    at = lmax
    for lev in reversed(levels):
        if lev < at:
            f = b ** (at - lev)
            if keys is None:  # OR each f x f block of boxes into one
                occ = reduce(np.logical_or, [occ[k::f] for k in range(f)])
                occ = reduce(np.logical_or, [occ[:, k::f] for k in range(f)])
            else:
                ix = keys >> 32
                iy = (keys & 0xFFFFFFFF) - _HALF
                keys = sorted_unique(_pack(ix // f, iy // f))
            at = lev
        counts.append(int(np.count_nonzero(occ)) if keys is None else len(keys))
    counts.reverse()
    if counts[0] < 2:
        raise ValueError("points span fewer than 2 cells at the coarsest level")
    return _fit(levels, counts, b)


def box_count_graph(xs: np.ndarray, ys: np.ndarray, levels, b: int = 2) -> BoxCountResult:
    """Box counts of the graph of a continuous function sampled densely.

    Within a column the graph meets every box between the column min and
    max, so counts are sums of per-column index ranges.
    """
    levels = fit_levels(levels)
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
        arg *= b
        arg -= np.floor(arg)
        coef *= lam
    dim = 2.0 + math.log(lam) / math.log(b)
    return WeierstrassGraph(xs, ys, dim, terms)
