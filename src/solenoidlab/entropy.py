"""Multiscale entropy, the entropy-slope dimension estimator and porosity
statistics.

All entropies are Shannon entropies over b-adic partitions in base-b
logarithms, so a measure filling one unit cell satisfies 0 <= H(level n) <= n
with equality exactly at level-n uniformity.  The dimension estimator fits a
least-squares slope of H(level) over a window of levels rather than a single
ratio: at desk scale the limit's additive constants would otherwise dominate.
``fit_levels`` is the one rule for a fit's window, here and in ``fractal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure


def _entropy_of_weights(w: np.ndarray, b: int) -> float:
    if b == 2:
        return float(-(w * np.log2(w)).sum())
    return float(-(w * (np.log(w) / math.log(b))).sum())


def entropy(mu: DiscreteMeasure, level: int) -> float:
    """Base-b Shannon entropy of the level-coarsening of mu."""
    if level > mu.level:
        raise ValueError("level must not exceed the measure's resolution")
    return _entropy_of_weights(mu.coarsen(level).weights, mu.b)


# ---------------------------------------------------------------------------
# dimension estimation
# ---------------------------------------------------------------------------

def fit_line(xs, ys) -> float:
    """Slope of the least-squares line through the points."""
    return float(np.polyfit(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), 1)[0])


def fit_levels(levels) -> list[int]:
    """The levels of a slope fit, sorted; raises unless there are 3 or more, none repeated."""
    levels = sorted(int(v) for v in levels)
    repeated = sorted({v for v, w in zip(levels, levels[1:]) if v == w})
    if repeated:
        raise ValueError(f"fit levels must be distinct; repeated: {repeated}")
    if len(levels) < 3:
        raise ValueError("need at least 3 levels")
    return levels


@dataclass(frozen=True)
class EntropyProfile:
    """Per-level entropies with the regression slope as dimension estimate."""

    levels: tuple[int, ...]
    entropies: tuple[float, ...]
    slope: float

    def to_rows(self) -> list[tuple[int, float]]:
        return list(zip(self.levels, self.entropies))


def dimension_estimate(mu: DiscreteMeasure, levels) -> EntropyProfile:
    """Least-squares slope of H(level) over the given window.

    ``mu`` must be resolved at least as deep as max(levels); coarser levels
    are reached by coarsening.
    """
    levels = fit_levels(levels)
    ents = [entropy(mu, lev) for lev in levels]
    return EntropyProfile(tuple(levels), tuple(float(v) for v in ents), fit_line(levels, ents))


# ---------------------------------------------------------------------------
# entropy porosity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PorosityReport:
    fraction: float
    verdict: bool


def _component_entropies(mu: DiscreteMeasure, i: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent masses, component entropies at level i+m) over level-i cells,
    in one pass; the test oracle ``component`` conditions on one cell at a time."""
    child = mu.coarsen(i + m)
    # coarsened indices are strictly increasing, so each parent's cells are one run
    p = child.indices // (mu.b**m)
    w = child.weights
    cut = np.flatnonzero(np.diff(p)) + 1
    starts = np.concatenate([[0], cut])
    masses = np.add.reduceat(w, starts)
    # H(component) = log_b(mass) - (1/mass) * sum w log_b w over the block
    wlog = w * np.log(w)
    sums = np.add.reduceat(wlog, starts)
    ents = (np.log(masses) - sums / masses) / math.log(mu.b)
    return masses, ents


def porosity_fraction(
    mu: DiscreteMeasure, h: float, delta: float, m: int, n1: int, n2: int
) -> PorosityReport:
    """Mass-weighted fraction of scale-i components, i in [n1, n2], whose
    normalized entropy (1/m) H(component, level i+m) falls below h + delta.

    The verdict is the porosity event: fraction > 1 - delta.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= n1 <= n2:
        raise ValueError("need 0 <= n1 <= n2")
    if mu.level < n2 + m:
        raise ValueError("measure must be resolved to level n2 + m")
    per_level = []
    for i in range(n1, n2 + 1):
        masses, ents = _component_entropies(mu, i, m)
        below = ents / m < h + delta
        per_level.append(float(masses[below].sum()))
    fraction = float(np.mean(per_level))
    return PorosityReport(fraction, fraction > 1.0 - delta)

