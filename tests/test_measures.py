import math

import numpy as np
import pytest

from solenoidlab.measures import (
    DiscreteMeasure,
    build_mx_empirical,
    build_mx_exact,
    mix,
    pushforward_affine,
    self_similarity_residual,
    total_variation,
)
from solenoidlab.periodic import PeriodicFn, eval as fn_eval
from solenoidlab.series import eval_S
from solenoidlab.words import SystemParams, Word

from series_oracles import component, convolve

COS = PeriodicFn.cosine()


def params(b=2, gamma=0.4, phi=COS):
    return SystemParams(b, gamma, phi)


def rand_measure(rng, b=2, level=6, natoms=12):
    vals = rng.uniform(-1.5, 1.5, natoms)
    w = rng.random(natoms)
    return DiscreteMeasure.from_values(b, level, vals, w / w.sum())


# ----------------------------------------------------------------- builders

def test_exact_depth_one_atoms():
    p = params()
    x = 0.3
    mu = build_mx_exact(p, x, 8, 1)
    want = sorted(fn_eval(COS, (x + j) / 2) for j in (0, 1))
    assert len(mu.indices) == 2
    assert np.allclose(mu.weights, 0.5)
    got = sorted(mu.indices / 2.0**8)
    for g, w in zip(got, want):
        assert abs(g - w) <= 2.0**-8


def test_exact_total_mass_is_one():
    mu = build_mx_exact(params(), 0.3, 10, 12)
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_dirac_cases():
    p0 = params(phi=PeriodicFn.zero())
    mu = build_mx_exact(p0, 0.3, 8, 6)
    assert len(mu.indices) == 1 and mu.indices[0] == 0
    c, gamma = 0.9, 0.45
    pc = params(gamma=gamma, phi=PeriodicFn((c,), ()))
    emp = build_mx_empirical(pc, 0.1, 6, 1000, seed=0)
    target = c / (1 - gamma)
    assert len(emp.indices) == 1
    assert abs(emp.midpoints()[0] - target) <= 2.0**-6


def test_empirical_matches_exact_within_binomial_error():
    p = params()
    level, depth, n = 4, 12, 10**5
    exact = build_mx_exact(p, 0.37, level, depth)
    emp = build_mx_empirical(p, 0.37, level, n, seed=1)
    idx = np.union1d(exact.indices, emp.indices)
    pe = np.zeros(len(idx))
    pm = np.zeros(len(idx))
    pe[np.searchsorted(idx, exact.indices)] = exact.weights
    pm[np.searchsorted(idx, emp.indices)] = emp.weights
    sigma = np.sqrt(pe * (1 - pe) / n)
    # slack: truncation-depth mismatch can shift tail-scale mass across cells
    slack = 2 * p.tail_bound(depth) * 2.0**level
    assert np.all(np.abs(pm - pe) <= 3 * sigma + slack + 1e-4)


def test_budget_and_level_guards():
    p = params()
    with pytest.raises(ValueError):
        build_mx_exact(p, 0.3, 6, 40)
    with pytest.raises(ValueError, match=r"level 50 .* 1125899906842624 .*cap 35184372088832.* b=2 is 45"):
        build_mx_exact(p, 0.3, 50, 10)
    with pytest.raises(ValueError):
        build_mx_empirical(p, 0.3, 60, 100, seed=0)


# ------------------------------------------------------------- pushforward

def test_pushforward_identity_and_shift():
    rng = np.random.default_rng(2)
    mu = rand_measure(rng)
    same = pushforward_affine(mu, 1.0, 0.0, mu.level)
    assert np.array_equal(same.indices, mu.indices)
    assert np.allclose(same.weights, mu.weights)
    k = 5
    shifted = pushforward_affine(mu, 1.0, k * 2.0**-mu.level, mu.level)
    assert np.array_equal(shifted.indices, mu.indices + k)


def test_pushforward_dirac_and_zero_a():
    mu = DiscreteMeasure.from_values(2, 8, [0.3])
    img = pushforward_affine(mu, 2.0, 1.0, 8)
    y = mu.midpoints()[0] * 2 + 1
    assert len(img.indices) == 1
    assert abs(img.midpoints()[0] - y) <= 2.0**-8
    with pytest.raises(ValueError):
        pushforward_affine(mu, 0.0, 0.0, 8)


def test_pushforward_lattice_scaling_is_exact():
    rng = np.random.default_rng(3)
    mu = rand_measure(rng, level=6)
    for k in (1, 2, 3):
        fine = pushforward_affine(mu, 2.0**-k, 0.0, mu.level + k)
        assert fine.level == mu.level + k
        assert np.array_equal(fine.indices, mu.indices)
        assert np.allclose(fine.weights, mu.weights)


# -------------------------------------------------------------------- mix

def test_mix_cases():
    rng = np.random.default_rng(4)
    mu = rand_measure(rng)
    one = mix([(1.0, mu)])
    assert np.array_equal(one.indices, mu.indices)
    assert np.allclose(one.weights, mu.weights)
    d1 = DiscreteMeasure.from_values(2, 6, [0.1])
    d2 = DiscreteMeasure.from_values(2, 6, [0.7])
    two = mix([(0.5, d1), (0.5, d2)])
    assert len(two.indices) == 2 and np.allclose(two.weights, 0.5)
    other = rand_measure(rng, level=7)
    with pytest.raises(ValueError):
        mix([(0.5, mu), (0.5, other)])
    with pytest.raises(ValueError):
        mix([(0.7, mu), (0.7, mu)])


# ---------------------------------------------------------------- convolve

def test_convolve_identity_element():
    rng = np.random.default_rng(5)
    mu = rand_measure(rng, level=8)
    delta = DiscreteMeasure(2, 8, [0], [1.0])
    conv = convolve(mu, delta, 8)
    # lattice translation by the delta midpoint: indices shift by one cell
    assert np.array_equal(conv.indices, mu.indices + 1)
    assert np.allclose(conv.weights, mu.weights)


def test_convolve_dirac_pair():
    u, v = 0.3125, 0.15625
    conv = convolve(DiscreteMeasure.from_values(2, 8, [u]), DiscreteMeasure.from_values(2, 8, [v]), 8)
    assert len(conv.indices) == 1
    assert abs(conv.indices[0] - math.floor((u + v) * 2**8)) <= 1


def test_convolve_matches_sampling_oracle():
    # uniform-on-cell * uniform-on-cell, entropy checked against Monte Carlo
    from solenoidlab.entropy import entropy

    level, fine = 4, 10
    cell = 2.0**-level
    grid = np.arange(2 ** (fine - level), dtype=float)
    sub = (grid + 0.5) / 2**fine
    mu = DiscreteMeasure.from_values(2, fine, 0.25 + sub)
    nu = DiscreteMeasure.from_values(2, fine, 0.5 + sub)
    conv = convolve(mu, nu, fine)
    rng = np.random.default_rng(6)
    n = 1 << 21
    samples = 0.25 + rng.random(n) * cell + 0.5 + rng.random(n) * cell
    mc = DiscreteMeasure.from_values(2, fine, samples)
    assert abs(entropy(conv, fine) - entropy(mc, fine)) < 0.01


# --------------------------------------------------------------- component

def test_component_cases():
    rng = np.random.default_rng(7)
    mu = rand_measure(rng, level=6)
    whole = component(mu, 0, math.floor(mu.midpoints()[0]))
    lo = math.floor(mu.midpoints().min())
    if np.all(np.floor(mu.midpoints()) == lo):
        assert np.array_equal(whole.indices, mu.indices)
    d = DiscreteMeasure.from_values(2, 6, [0.3])
    cm = component(d, 6, int(d.indices[0]))
    assert np.array_equal(cm.indices, d.indices)
    uni = DiscreteMeasure.uniform_unit(2, 1)
    cond = component(uni, 1, 0)
    assert cond.weights.sum() == pytest.approx(1.0)
    assert list(cond.indices) == [0]
    with pytest.raises(ValueError):
        component(uni, 1, 7)


def test_component_mix_reconstructs_parent():
    rng = np.random.default_rng(8)
    mu = rand_measure(rng, level=5, natoms=20)
    coarse = mu.coarsen(2)
    parts = []
    for idx, w in zip(coarse.indices, coarse.weights):
        parts.append((float(w), component(mu, 2, int(idx))))
    rebuilt = mix(parts)
    assert np.array_equal(rebuilt.indices, mu.indices)
    assert np.allclose(rebuilt.weights, mu.weights, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------- self-similarity check

def test_self_similarity_trivial_cases():
    p = params()
    rep = self_similarity_residual(p, 0.3, 0, 8, 5)
    assert rep.residual == 0.0
    p0 = params(phi=PeriodicFn.zero())
    rep0 = self_similarity_residual(p0, 0.3, 3, 8, 5)
    assert rep0.residual == 0.0


def test_self_similarity_fixture():
    p = params()
    rep = self_similarity_residual(p, 0.3, 3, 12, 6)
    assert rep.residual <= 0.02
    deeper = self_similarity_residual(p, 0.3, 3, 14, 6)
    assert deeper.residual <= rep.residual + 1e-12
    assert deeper.certified_bound < rep.certified_bound


# ------------------------------------------------------------ measure type

def test_measure_normalization_and_merge():
    mu = DiscreteMeasure(2, 4, np.array([3, 1, 3]), np.array([1.0, 1.0, 2.0]))
    assert list(mu.indices) == [1, 3]
    assert np.allclose(mu.weights, [0.25, 0.75])
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_coarsen_and_mass_in():
    mu = DiscreteMeasure.from_values(2, 6, np.array([0.1, 0.3, 0.9, -0.2]))
    c = mu.coarsen(1)
    assert set(c.indices) == {-1, 0, 1}
    assert c.weights[list(c.indices).index(0)] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        mu.coarsen(7)


def test_total_variation_self_and_disjoint():
    rng = np.random.default_rng(10)
    mu = rand_measure(rng)
    assert total_variation(mu, mu) == 0.0
    d1 = DiscreteMeasure.from_values(2, 6, [0.1])
    d2 = DiscreteMeasure.from_values(2, 6, [0.9])
    assert total_variation(d1, d2) == pytest.approx(1.0)


# ---------------------------------------------------------------- refusals

_UNI = DiscreteMeasure.uniform_unit(2, 4)


def test_measure_refuses_a_base_below_2():
    # the level check's search for the deepest level never ends at b = 1
    for build in (lambda: DiscreteMeasure.from_values(1, 3, [0.5]), lambda: DiscreteMeasure(1, 3, [0], [1.0])):
        with pytest.raises(ValueError, match="^b must be >= 2, got b=1$"):
            build()


def test_measure_refuses_a_level_outside_the_exact_index_cap():
    uni = DiscreteMeasure.uniform_unit(2, 6)
    for build in (lambda: DiscreteMeasure(2, -1, [0], [1.0]), lambda: uni.coarsen(-2)):
        with pytest.raises(ValueError, match="^level must be nonnegative$"):
            build()
    with pytest.raises(ValueError, match=r"^level 46 too deep: b\^46 = 70368744177664 is above the exact-index cap"):
        DiscreteMeasure(2, 46, [0], [1.0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DiscreteMeasure(2, 4, [1, 2], [1.0]), "aligned vectors"),
        (lambda: DiscreteMeasure(2, 4, [], []), "nonempty support"),
        (lambda: DiscreteMeasure(2, 4, [1, 2], [1.0, -0.5]), "nonnegative"),
        (lambda: DiscreteMeasure(2, 4, [1, 2], [0.0, 0.0]), "total mass must be positive"),
        (lambda: DiscreteMeasure.from_values(2, -1, [0.3]), "level must be nonnegative"),
        (lambda: build_mx_empirical(params(), 0.3, 8, 0, seed=0), "samples must be >= 1"),
        (lambda: build_mx_exact(params(), 0.3, 8, 0), "depth must be >= 1"),
        (lambda: build_mx_exact(params(), 0.3, 8, 27),
         r"depth=27 walks b\^27 = 134217728 words, above the work budget 100000000; .* b=2 is 26"),
        (lambda: mix([(1.5, _UNI), (-0.5, _UNI)]), "mixture weights must be nonnegative"),
        (lambda: mix([]), "need at least one component"),
        (lambda: convolve(_UNI, DiscreteMeasure.uniform_unit(3, 2), 4), "operands must share the base"),
        (lambda: component(_UNI, 5, 0), "cell must be at most as fine as the measure"),
        (lambda: total_variation(_UNI, DiscreteMeasure.uniform_unit(2, 5)), "must share base and level"),
    ],
)
def test_measures_refuse_bad_input_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()
