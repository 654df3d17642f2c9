import numpy as np
import pytest

from solenoidlab.dynamics import attractor_points
from solenoidlab.periodic import PeriodicFn
from solenoidlab.words import SystemParams


def test_constant_phi_fixed_point():
    c, gamma = 1.3, 0.7
    p = SystemParams(3, gamma, PeriodicFn((c,), ()))
    y_star = c / (1 - gamma)
    ys = np.concatenate([y for _, y in attractor_points(p, 10**4, seed=1)])
    assert np.max(np.abs(ys - y_star)) <= 1e-12


def test_orbit_stays_in_invariant_region():
    p = SystemParams(3, 0.7, PeriodicFn((0.0, 1.0, 0.5), (0.0, 0.0, -0.25)))
    M = p.fiber_bound
    for xs, ys in attractor_points(p, 2 * 10**5, seed=2):
        assert np.all(np.abs(ys) <= M + 1e-12)
        assert np.all((xs >= 0) & (xs < 1))


def test_orbit_x_does_not_collapse_to_dyadic_zero():
    # without reseeding a base-2 float orbit hits exactly 0 within ~52 steps;
    # the sampler's first block already lies past that point (burn-in 256)
    p = SystemParams(2, 0.4, PeriodicFn.cosine())
    xs = np.concatenate([x for x, _ in attractor_points(p, 3 * 10**5, seed=3)])
    assert np.count_nonzero(xs) == len(xs)


def test_attractor_points_deterministic_and_bounded():
    p = SystemParams(2, 0.4, PeriodicFn.cosine())
    a = np.concatenate([x for x, _ in attractor_points(p, 3 * 10**5, seed=5)])
    b = np.concatenate([x for x, _ in attractor_points(p, 3 * 10**5, seed=5)])
    assert np.array_equal(a, b)
    ys = np.concatenate([y for _, y in attractor_points(p, 10**5, seed=6)])
    assert np.max(np.abs(ys)) <= p.fiber_bound + 1e-12
    assert len(a) == 3 * 10**5


def test_attractor_x_marginal_is_uniform():
    p = SystemParams(2, 0.4, PeriodicFn.cosine())
    xs = np.concatenate([x for x, _ in attractor_points(p, 10**6, seed=7)])
    hist, _ = np.histogram(xs, bins=16, range=(0, 1))
    assert np.max(np.abs(hist / len(xs) - 1 / 16)) < 0.003


def test_n_keep_validation():
    p = SystemParams(2, 0.4, PeriodicFn.cosine())
    with pytest.raises(ValueError):
        next(attractor_points(p, 0))
