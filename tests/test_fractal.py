import math

import numpy as np
import pytest

from solenoidlab.dynamics import attractor_points
from solenoidlab.entropy import dimension_estimate
from solenoidlab.fractal import (
    WEIERSTRASS_TOL,
    box_count_dimension,
    box_count_graph,
    predicted_dimension,
    render_attractor,
    weierstrass_graph,
)
from solenoidlab.measures import DiscreteMeasure
from solenoidlab.periodic import PeriodicFn, cohomological_phi, eval as fn_eval
from solenoidlab.words import SystemParams

COS = PeriodicFn.cosine()


def test_predicted_dimension_values():
    assert predicted_dimension(2, 0.5) == pytest.approx(2.0)
    assert predicted_dimension(2, 0.4) == pytest.approx(1.0 + math.log(2) / math.log(2.5))
    assert predicted_dimension(3, 0.5) == pytest.approx(2.0)


def test_predicted_dimension_monotone_and_capped():
    gammas = np.linspace(0.05, 0.95, 30)
    vals = [predicted_dimension(2, g) for g in gammas]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert max(vals) <= 2.0
    with pytest.raises(ValueError):
        predicted_dimension(1, 0.5)


# ------------------------------------------------------------- box counting

def test_box_count_horizontal_segment():
    xs = np.linspace(0, 1, 200001)
    ys = np.full_like(xs, 0.37)
    res = box_count_dimension([(xs, ys)], range(2, 9))
    assert abs(res.slope - 1.0) <= 0.05


def test_box_count_filled_square():
    rng = np.random.default_rng(0)
    pts = rng.random((10**6, 2))
    res = box_count_dimension([(pts[:, 0], pts[:, 1])], range(2, 9))
    assert abs(res.slope - 2.0) <= 0.05


def test_box_count_rejections():
    pts = np.full((100, 2), 0.3)
    with pytest.raises(ValueError):
        box_count_dimension([(pts[:, 0], pts[:, 1])], range(2, 9))  # spans a single cell
    pts = np.random.default_rng(1).random((100, 2))
    with pytest.raises(ValueError):
        box_count_dimension([(pts[:, 0], pts[:, 1])], [4, 5])
    with pytest.raises(ValueError, match=r"level 31 .* 2147483648 .*1073741824.* b=2 is 30"):
        box_count_dimension([(pts[:, 0], pts[:, 1])], [29, 30, 31])


def test_box_count_refuses_repeated_levels():
    # a repeated level would enter the slope fit twice; [2, 2, 3] would also
    # pass the three-level check with two distinct levels.  The entropy slope
    # shares the rule.
    pts = np.random.default_rng(5).random((1000, 2))
    xs = (np.arange(2**10) + 0.5) / 2**10
    mu = DiscreteMeasure.uniform_unit(2, 6)
    for levels, named in (([2, 2, 3], r"\[2\]"), ([4, 2, 3, 4, 3], r"\[3, 4\]"), ((5, 5), r"\[5\]"),
                          ([5, 5, 6], r"\[5\]")):
        with pytest.raises(ValueError, match=r"levels must be distinct; repeated: " + named):
            box_count_dimension([(pts[:, 0], pts[:, 1])], levels)
        with pytest.raises(ValueError, match=r"levels must be distinct; repeated: " + named):
            box_count_graph(xs, np.sin(xs), levels)
        with pytest.raises(ValueError, match=r"levels must be distinct; repeated: " + named):
            dimension_estimate(mu, levels)
    assert box_count_dimension([(pts[:, 0], pts[:, 1])], [4, 2, 3]).levels == (2, 3, 4)
    assert box_count_graph(xs, np.sin(xs), [4, 2, 3]).levels == (2, 3, 4)


def test_box_count_rejects_indices_outside_packed_keys():
    # At level 30, iy = 2.5 * 2^30 >= 2^31 carries into the x bits of its
    # packed key and hits the second point's key: three far-apart points
    # would count as (2, 2, 2).  With |y| = 1.4 both indices fit.
    pts = np.array([[0, 2.5], [1.5 * 2**-30, -1.5], [0.9, 0.9]])
    with pytest.raises(ValueError, match=r"level 30 .*2684354560"):
        box_count_dimension([(pts[:, 0], pts[:, 1])], [28, 29, 30])
    pts[1, 1] = -1.4
    pts[0, 1] = 1.4
    assert box_count_dimension([(pts[:, 0], pts[:, 1])], [28, 29, 30]).counts == (3, 3, 3)


def test_box_count_lipschitz_graph_at_most_one():
    xs = (np.arange(2**14) + 0.5) / 2**14
    ys = 0.3 * np.sin(2 * math.pi * xs) + 0.1 * xs
    res = box_count_graph(xs, ys, range(3, 10))
    assert res.slope <= 1.0 + 0.1


def test_box_count_graph_needs_full_columns():
    xs = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        box_count_graph(xs, xs, range(2, 6))


# ----------------------------------------------------------------- renderer

def test_render_zero_phi_single_row():
    p = SystemParams(2, 0.5, PeriodicFn.zero())
    grid = render_attractor(p, 64, 20000, seed=1)
    rows = np.nonzero(grid.counts.sum(axis=0))[0]
    assert len(rows) == 1  # all mass on the y = 0 line


def test_render_degenerate_hugs_graph():
    psi = PeriodicFn.cosine()
    p = SystemParams(2, 0.4, cohomological_phi(psi, 2, 0.4))
    res = 128
    grid = render_attractor(p, res, 200000, seed=2)
    M = p.fiber_bound
    pix = 2 * M / res
    ix, iy = np.nonzero(grid.counts)
    ys = grid.y_min + (iy + 0.5) * pix
    want = fn_eval(psi, (ix + 0.5) / res)
    assert np.max(np.abs(ys - want)) <= 2 * pix + 4 * math.pi / res


def test_render_extent_and_determinism():
    p = SystemParams(2, 0.4, COS)
    g1 = render_attractor(p, 64, 50000, seed=3)
    g2 = render_attractor(p, 64, 50000, seed=3)
    assert np.array_equal(g1.counts, g2.counts)
    assert g1.counts.sum() == 50000
    assert (g1.y_min, g1.y_max) == (-p.fiber_bound, p.fiber_bound)
    cols = np.nonzero(g1.counts.sum(axis=1))[0]
    assert len(cols) == 64  # x-marginal covers the full range


def test_render_rejects_each_bound_by_name():
    p = SystemParams(2, 0.4, COS)
    with pytest.raises(ValueError, match="resolution must be at least 2, got 1"):
        render_attractor(p, 1, 100)
    with pytest.raises(ValueError, match="n_points must be positive, got 0"):
        render_attractor(p, 8, 0)


def test_pgm_export():
    p = SystemParams(2, 0.4, COS)
    grid = render_attractor(p, 32, 5000, seed=4)
    data = grid.to_pgm()
    assert data.startswith(b"P5\n32 32\n255\n")
    assert len(data) == len(b"P5\n32 32\n255\n") + 32 * 32


def test_render_counts_equal_pixel_by_pixel_accumulation():
    p = SystemParams(2, 0.4, COS)
    res, M = 48, p.fiber_bound
    want = np.zeros((res, res), dtype=np.int64)
    for xb, yb in attractor_points(p, 200000, seed=6):
        ix = np.floor(xb * res).astype(np.int64)
        iy = np.clip(np.floor((yb + M) / (2.0 * M) * res).astype(np.int64), 0, res - 1)
        np.add.at(want, (ix, iy), 1)
    got = render_attractor(p, res, 200000, seed=6).counts
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_attractor_box_count_runs():
    p = SystemParams(2, 0.4, COS)
    res = box_count_dimension(attractor_points(p, 2 * 10**5, seed=5), range(3, 8), b=p.b)
    assert 1.3 <= res.slope <= 2.0


# -------------------------------------------------------------- weierstrass

def test_weierstrass_prediction_values():
    g = weierstrass_graph(COS, 0.5, 3, 1024)
    assert g.predicted_dim == pytest.approx(2 - math.log(2) / math.log(3))
    near = weierstrass_graph(COS, 1 / 3 + 1e-6, 3, 64)
    assert near.predicted_dim == pytest.approx(1.0, abs=1e-5)


def test_weierstrass_lambda_range_rejected():
    with pytest.raises(ValueError):
        weierstrass_graph(COS, 0.3, 3, 128)
    with pytest.raises(ValueError):
        weierstrass_graph(COS, 1.0, 3, 128)


def test_weierstrass_truncation_tail_below_tol():
    g = weierstrass_graph(COS, 0.5, 3, 256)
    assert 0.5**g.terms / (1 - 0.5) <= WEIERSTRASS_TOL * 10


def test_weierstrass_term_cap_raises():
    # 512 terms leave a tail of 0.99^512 / (1 - 0.99) ~ 0.58 against tol 1e-8
    with pytest.raises(ValueError, match=r"lambda=0\.99.*tol=1e-08.*0\.58"):
        weierstrass_graph(COS, 0.99, 2, 64)


def test_weierstrass_box_count_moderate_scale():
    g = weierstrass_graph(COS, 0.5, 3, 3**8 * 64)
    res = box_count_graph(g.xs, g.ys, range(4, 9), b=3)
    assert abs(res.slope - g.predicted_dim) <= 0.06
