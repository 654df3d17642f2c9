"""Test-side oracles that no library code calls.

``cocycle_check`` checks the word series' cocycle identity on exact finite
words.  ``min_gap`` is the oracle of ``separation.exp_separation_scan``'s
value-set gaps: one prefix tile of ``series_over_prefixes`` with the suffix
appended digit by digit, sorted, so every scan row's gap equals the least
``min_gap`` over its suffixes bit for bit.  ``component`` conditions a
measure on one cell, the oracle of ``entropy._component_entropies``, which
takes the entropies of all components at one level in one pass.
``convolve`` is the law of the independent sum of two measures, the
convolution entropy bound of acceptance criterion 5.
"""

import numpy as np

from solenoidlab.measures import DiscreteMeasure
from solenoidlab.series import eval_S, series_over_prefixes
from solenoidlab.words import SystemParams, Word, word_point


def cocycle_check(params: SystemParams, x: float, w: Word, i: Word) -> float:
    """Residual |S(x, w i) - S(x, w) - gamma^|w| S(w(x), i)| on exact finite words."""
    if len(w) < 1:
        raise ValueError("w must be nonempty")
    whole = eval_S(params, x, w.concat(i))
    head = eval_S(params, x, w)
    tail_val = eval_S(params, word_point(w, x), i)
    return abs(whole - head - params.gamma ** len(w) * tail_val)


def min_gap(params: SystemParams, x: float, w: Word, n: int) -> float:
    """Minimum pairwise distance of {S(x, j w) : j in Lambda^(n - |w|)}."""
    if n <= len(w):
        raise ValueError("n must exceed the suffix length")
    values = np.sort(series_over_prefixes(params, x, n - len(w), suffix=w.digits))
    return float(np.diff(values).min())


def component(mu: DiscreteMeasure, level: int, index: int) -> DiscreteMeasure:
    """Condition mu on the cell [index / b^level, (index + 1) / b^level) and renormalize."""
    if level > mu.level:
        raise ValueError("cell must be at most as fine as the measure")
    f = mu.b ** (mu.level - level)
    sel = mu.indices // f == index
    if not sel.any():  # weights are positive: an occupied cell carries mass
        raise ValueError("cell carries no mass")
    return DiscreteMeasure(mu.b, mu.level, mu.indices[sel], mu.weights[sel])


def convolve(mu: DiscreteMeasure, nu: DiscreteMeasure, out_level: int) -> DiscreteMeasure:
    """Distribution of the independent sum, each pair of cells deposited at
    the sum of their midpoints, binned at out_level."""
    if mu.b != nu.b:
        raise ValueError("operands must share the base")
    sums = (nu.midpoints()[:, None] + mu.midpoints()[None, :]).reshape(-1)
    products = (nu.weights[:, None] * mu.weights[None, :]).reshape(-1)
    return DiscreteMeasure.from_values(mu.b, out_level, sums, products)
