"""Numerical laboratory for skew-product solenoidal attractors.

The system under study is T(x, y) = (b x mod 1, gamma y + phi(x)) with an
integer base b >= 2, contraction 0 < gamma < 1, and a periodic trigonometric
polynomial phi.  The package builds the fiber measures addressed by digit
words, estimates dimensions via multiscale b-adic entropy and box counting,
and runs numeric scans for degeneracy, exponential separation, entropy
porosity, transversality, and partition entropy limits.
"""

from .dynamics import attractor_points
from .entropy import (
    EntropyProfile,
    PorosityReport,
    dimension_estimate,
    entropy,
    porosity_fraction,
)
from .fractal import (
    BoxCountResult,
    RasterGrid,
    WeierstrassGraph,
    box_count_dimension,
    box_count_graph,
    predicted_dimension,
    render_attractor,
    weierstrass_graph,
)
from .measures import (
    DiscreteMeasure,
    SelfSimilarityReport,
    build_mx_empirical,
    build_mx_exact,
    mix,
    pushforward_affine,
    self_similarity_residual,
    total_variation,
)
from .partitions import (
    DecompositionReport,
    PartitionKey,
    ThetaEntropyRow,
    WordMeasure,
    decomposition_check,
    measure_B,
    partition_key,
    separation_exponent,
    theta_entropy_table,
    theta_measure,
)
from .periodic import PeriodicFn, cohomological_phi, eval_deriv, sup_norm
from .separation import (
    GENERIC_BASE_POINT,
    DichotomyVerdict,
    SeparationScan,
    TransversalityCertificate,
    condition_H_scan,
    exp_separation_scan,
    transversality_search,
    validate_certificate,
)
from .series import eval_S, eval_S_deriv
from .words import SystemParams, Word, nhat, word_point

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
