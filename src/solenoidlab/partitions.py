"""Word-space partitions keyed by series values, and the induced measures.

A word w is keyed by its length m, the series values of two fixed probe
words h, h' evaluated at the base point w(x0) (binned at level n), and the
series value S(x0, w) binned at level n + [m log_b(1/gamma)] -- the scale at
which length-m words resolve.  At n = 0 the probe cells are dropped.  These
keys realize a refining sequence of partitions of word space; uniform
measures on suffix classes and the induced decomposition of the fiber
measure are computed against them.
``partition_keys`` is the one key rule: it bins given series and probe
values.  ``theta_entropy_table`` feeds it the bulk values of whole suffix
classes; ``partition_key`` feeds it the scalar ``eval_S`` values of one word
and so is the oracle of those bulk values.
Word measures are uniform blocks: the uniform measure on Lambda^p . suffix,
whose series values come from one prefix tile.  ``measure_B`` draws seeded
digit tails behind a block; over an empty suffix it is the hybrid builder
(exact heads over every word of one length, sampled tails), and
``decomposition_check`` draws its whole double mixture as one such tile,
with ``_TAIL_SAMPLES`` = 4 tails per word.

Binning levels are clipped to the exact-index cap (b^level <= 2^45); at the
scales scanned here the clipped cells are still several orders coarser than
the observed value gaps, so clipping never merges genuinely separated keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (
    DiscreteMeasure,
    bin_index,
    build_mx_exact,
    exact_depth,
    tail_sampled_measure,
    total_variation,
)
from .separation import GENERIC_BASE_POINT, SeparationScan, TransversalityCertificate
from .series import (
    check_tile,
    eval_S,
    random_tail_series,  # noqa: F401 - perfbench/layers.py wraps this name
    series_at_codes,  # noqa: F401 - perfbench/layers.py wraps this name
    series_fixed_word,
    series_over_prefixes,
)
from .words import SystemParams, Word, nhat, word_point

_TAIL_SAMPLES = 4


# ---------------------------------------------------------------------------
# partition keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionKey:
    m: int
    n: int
    cell1: int | None
    cell2: int | None
    cell3: int
    cell3_level: int


def partition_keys(
    params: SystemParams, n: int, m: int, values: np.ndarray, probes
) -> tuple[list[np.ndarray], int, int]:
    """Key columns of m-letter words at partition level n, and their levels.

    ``values`` holds the words' series values S(x0, w) and ``probes`` the two
    probe series values at the words' base points.  The probe columns are
    binned at lev12 = n and dropped at n = 0; the series column comes last,
    binned at lev3 = n + [m log_b(1/gamma)].  Both levels are clipped to the
    exact-index cap.  Returns (columns, lev12, lev3).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    top = params.max_bin_level()
    lev12 = min(n, top)
    lev3 = min(n + int(m * params.log_b_inv_gamma), top)
    cols = [bin_index(v, params.b, lev12) for v in probes] if n else []
    return cols + [bin_index(values, params.b, lev3)], lev12, lev3


def partition_key(
    params: SystemParams, w: Word, n: int, x0: float, h: Word, h_prime: Word
) -> PartitionKey:
    """Key of w in the level-n word partition anchored at x0 with probes h, h'.

    Bins the scalar ``eval_S`` values of the one word by ``partition_keys``:
    the oracle of the bulk series values behind ``theta_entropy_table``.
    """
    base = word_point(w, x0)
    probes = (eval_S(params, base, h), eval_S(params, base, h_prime))
    cols, _, lev3 = partition_keys(params, n, len(w), eval_S(params, x0, w), probes)
    c1, c2 = (int(c) for c in cols[:-1]) if n else (None, None)
    return PartitionKey(len(w), n, c1, c2, int(cols[-1]), lev3)


# ---------------------------------------------------------------------------
# word measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WordMeasure:
    """Uniform measure on the words j . suffix, j in Lambda^prefix_len."""

    params: SystemParams
    prefix_len: int
    suffix: Word

    @property
    def word_length(self) -> int:
        return self.prefix_len + len(self.suffix)

    @property
    def codes(self) -> np.ndarray:
        """Codes of the prefixes j, in code order."""
        return np.arange(self.params.b**self.prefix_len, dtype=np.int64)

    @property
    def weights(self) -> np.ndarray:
        """Uniform, divided by their float sum as measure tables are."""
        count = self.params.b**self.prefix_len
        w = np.full(count, 1.0 / count)
        return w / w.sum()

    def series(self, x0: float) -> np.ndarray:
        """S(x0, j . suffix) over the support, exact, in code order."""
        return series_over_prefixes(self.params, x0, self.prefix_len, suffix=self.suffix.digits)

    def word_points(self, x0: float) -> np.ndarray:
        """Word points over x0 of j . suffix, in code order."""
        codes = self.codes + self.params.b**self.prefix_len * self.suffix.code()
        return (x0 + codes) / float(self.params.b**self.word_length)


def theta_measure(params: SystemParams, a: Word, n: int) -> WordMeasure:
    """Uniform measure on {w . a : w in Lambda^(nhat - t)}, t = |a|."""
    t = len(a)
    nh = nhat(n, params.b, params.gamma)
    if nh <= t:
        raise ValueError("matched scale nhat must exceed the suffix length")
    check_tile(params.b, nh - t, f"theta_measure: n={n}, suffix length t={t}")
    return WordMeasure(params, nh - t, a)


def measure_B(
    params: SystemParams,
    xi: WordMeasure,
    x0: float,
    tail_samples: int,
    seed: int,
    level: int,
) -> DiscreteMeasure:
    """Distribution of S(x0, w j) with w ~ xi and ``tail_samples`` seeded
    i.i.d. digit tails j per word, truncated at the system truncation depth."""
    rng = np.random.default_rng(seed)
    return tail_sampled_measure(
        params, xi.series(x0), xi.word_points(x0), params.gamma**xi.word_length,
        tail_samples, level, rng,
    )


# ---------------------------------------------------------------------------
# decomposition of the fiber measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionReport:
    residual: float
    error_budget: float
    n_hat: int
    i_hat: int
    atoms: int


def decomposition_check(
    params: SystemParams,
    n: int,
    i_level: int,
    level: int,
    seed: int = 0,
) -> DecompositionReport:
    """TV distance between the exactly enumerated fiber measure at the
    generic base point and its double mixture over suffix classes and
    connector words.

    The mixture runs over pairs (u, v) of t-letter words, the suffix class
    theta_u (uniform on the words w u of length n_hat = nhat(n)) and the
    connectors q = v q' of length i_hat = nhat(i_level).  Each word w u q
    gets weight b^(-2t) b^(-(i_hat - t)) b^(-(n_hat - t)) = b^(-(n_hat + i_hat)),
    the same for every word of length n_hat + i_hat whatever t is, so the
    mixture is the uniform block over Lambda^(n_hat + i_hat): one
    ``measure_B`` draw over that tile with tail-sampled series values.  The
    tile passes ``series.check_tile`` before the exact side is built.  The
    reported budget combines both truncation tails and a multinomial
    sampling estimate.
    """
    b = params.b
    x0 = GENERIC_BASE_POINT
    nh = nhat(n, b, params.gamma)
    ih = nhat(i_level, b, params.gamma)
    check_tile(b, nh + ih, f"decomposition-check: n={n}, i_level={i_level}")
    depth_lhs = min(params.truncation_depth, exact_depth(b) + 1)
    lhs = build_mx_exact(params, x0, level, depth_lhs)
    tile = WordMeasure(params, nh + ih, Word.empty(b))
    rhs = measure_B(params, tile, x0, _TAIL_SAMPLES, seed, level)
    residual = total_variation(lhs, rhs)
    n_atoms = b ** (nh + ih) * _TAIL_SAMPLES
    tail_terms = params.tail_bound(depth_lhs) + params.gamma ** (nh + ih) * params.tail_bound(
        params.truncation_depth
    )
    sampling = 0.5 * math.sqrt(len(lhs.indices) / n_atoms)
    error_budget = min(1.0, float(b) ** level * 2.0 * tail_terms + sampling)
    return DecompositionReport(residual, error_budget, nh, ih, n_atoms)


# ---------------------------------------------------------------------------
# partition entropies of suffix-class measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaEntropyRow:
    n: int
    n_hat: int
    support: int
    coarse: float
    fine: float


def _entropy_of_key_rows(columns: list[np.ndarray], weights: np.ndarray, b: int) -> float:
    order = np.lexsort(tuple(reversed(columns)))
    stacked = np.stack([c[order] for c in columns])
    w = weights[order]
    changed = np.any(stacked[:, 1:] != stacked[:, :-1], axis=0)
    starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
    masses = np.add.reduceat(w, starts)
    masses = masses[masses > 0]
    return float(-(masses * np.log(masses)).sum() / math.log(b))


def separation_exponent(scan: SeparationScan, b: int) -> float:
    """Largest gap exponent exhibited by a scan: max over scales of
    (-log_b min_gap) / n; every scanned gap satisfies gap >= b^(-C n)."""
    ratios = [
        -math.log(g) / math.log(b) / n
        for n, g in zip(scan.n_values, scan.min_gaps)
        if math.isfinite(g) and g > 0
    ]
    if not ratios:
        raise ValueError("scan has no finite gaps")
    return max(ratios)


def _theta_keys(params: SystemParams, cert: TransversalityCertificate, theta: WordMeasure, n: int, C: float):
    """The key columns of the suffix-class measure ``theta`` of scale n at
    partition level 0 and at level max(1, round(C n)), each as (columns,
    lev12, lev3)."""
    values = theta.series(cert.x0)
    base = theta.word_points(cert.x0)
    probes = [series_fixed_word(params, base, w.digits) for w in (cert.h, cert.h_prime)]
    m = theta.word_length
    coarse = partition_keys(params, 0, m, values, probes)
    fine = partition_keys(params, max(1, round(C * n)), m, values, probes)
    return coarse, fine


def theta_entropy_table(
    params: SystemParams,
    cert: TransversalityCertificate,
    n_list,
    C: float,
) -> list[ThetaEntropyRow]:
    """Normalized key-partition entropies of the suffix-class measures.

    coarse: (1/n) H at partition level 0 (series cell only); fine: (1/n) H
    at partition level round(C n) including the probe cells.  With all keys
    distinct the fine value equals (nhat - t) / n exactly, the counting
    ceiling; collisions can only lower it.  Every row's measure is built,
    and so passes ``series.check_tile``, before the first row is evaluated.
    """
    n_list = sorted(int(v) for v in n_list)
    thetas = [theta_measure(params, cert.a, n) for n in n_list]
    rows = []
    for n, theta in zip(n_list, thetas):
        (coarse, _, _), (fine, _, _) = _theta_keys(params, cert, theta, n, C)
        rows.append(
            ThetaEntropyRow(
                n=n,
                n_hat=theta.word_length,
                support=len(theta.codes),
                coarse=_entropy_of_key_rows(coarse, theta.weights, params.b) / n,
                fine=_entropy_of_key_rows(fine, theta.weights, params.b) / n,
            )
        )
    return rows
