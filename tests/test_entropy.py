import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solenoidlab.entropy import (
    _component_entropies,
    dimension_estimate,
    entropy,
    porosity_fraction,
)
from solenoidlab.measures import (
    DiscreteMeasure,
    build_mx_exact,
    mix,
    pushforward_affine,
)
from solenoidlab.periodic import PeriodicFn
from solenoidlab.words import SystemParams

from series_oracles import component, convolve


def rand_measure(rng, b=2, level=8, natoms=16, lo=0.0, hi=1.0):
    vals = rng.uniform(lo, hi, natoms)
    w = rng.random(natoms)
    return DiscreteMeasure.from_values(b, level, vals, w / w.sum())


# ------------------------------------------------------------ plain entropy

def test_entropy_basic_values():
    assert entropy(DiscreteMeasure.from_values(2, 8, [0.3]), 8) == 0.0
    for n in range(1, 11):
        assert entropy(DiscreteMeasure.uniform_unit(2, n), n) == float(n)
    two = DiscreteMeasure(2, 2, [0, 2], [0.5, 0.5])
    assert entropy(two, 2) == pytest.approx(1.0)


def test_entropy_base_b_normalization():
    for b in (3, 5):
        for n in (1, 2, 3):
            assert entropy(DiscreteMeasure.uniform_unit(b, n), n) == pytest.approx(n, abs=1e-9)


def test_entropy_monotone_in_level():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = rand_measure(rng, natoms=30)
        ents = [entropy(mu, lev) for lev in range(mu.level + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(ents, ents[1:]))


def test_entropy_level_guard():
    with pytest.raises(ValueError):
        entropy(DiscreteMeasure.uniform_unit(2, 3), 4)


#: Measures below have at most 64 atoms of weight >= 1/64000, so every sum
#: of w log w runs over <= 64 terms of size <= 12 and rounds by well under
#: 1e-12; the tolerances, fixed before running, leave a factor 100 over that.
MASS_TOL, ENTROPY_TOL = 1e-12, 1e-10


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cond_entropy_component_average_oracle(data):
    """_component_entropies against component + entropy cell by cell, and the
    chain rule: sum of mass * H(component) = H(mu, i + m) - H(mu, i)."""
    b = data.draw(st.sampled_from([2, 3]))
    level = data.draw(st.integers(1, 6))
    i = data.draw(st.integers(0, level - 1))
    m = data.draw(st.integers(1, level - i))
    cells = st.integers(-(b**level), b**level - 1)
    idx = data.draw(st.lists(cells, min_size=1, max_size=64))
    w = data.draw(st.lists(st.integers(1, 1000), min_size=len(idx), max_size=len(idx)))
    mu = DiscreteMeasure(b, level, idx, w)
    masses, ents = _component_entropies(mu, i, m)
    parents = mu.coarsen(i)
    assert len(masses) == len(parents.indices)
    for k, (cell, mass) in enumerate(zip(parents.indices, parents.weights)):
        comp = component(mu, i, int(cell))
        assert abs(masses[k] - mass) <= MASS_TOL
        assert abs(ents[k] - entropy(comp, i + m)) <= ENTROPY_TOL
    chain = entropy(mu, i + m) - entropy(mu, i)
    assert abs(float(np.sum(masses * ents)) - chain) <= ENTROPY_TOL


# ------------------------------------------------------- entropy inequalities

def test_concavity_of_entropy():
    rng = np.random.default_rng(3)
    for _ in range(100):
        mu = rand_measure(rng)
        nu = rand_measure(rng)
        for t in np.arange(0.1, 1.0, 0.1):
            blend = mix([(t, mu), (1 - t, nu)])
            lhs = t * entropy(mu, 8) + (1 - t) * entropy(nu, 8)
            assert entropy(blend, 8) - lhs >= -1e-10


def test_affine_shift_entropy_bound():
    # entropy is stable under y -> a y + c at the scale-matched level
    # n - [log_b |a|], where target cells track the image of source cells
    rng = np.random.default_rng(4)
    n = 8
    for _ in range(100):
        mu = rand_measure(rng, level=n, natoms=24)
        a = float(rng.uniform(0.15, 4.0)) * (1 if rng.random() < 0.5 else -1)
        c = float(rng.uniform(-2, 2))
        out = n - math.floor(math.log(abs(a), 2))
        img = pushforward_affine(mu, a, c, out)
        assert abs(entropy(img, out) - entropy(mu, n)) <= 2.0


def test_perturbation_entropy_bound():
    rng = np.random.default_rng(5)
    n = 8
    for _ in range(100):
        vals = rng.uniform(0, 1, 32)
        w = rng.random(32)
        w /= w.sum()
        delta = rng.uniform(-1, 1, 32) * 2.0**-n
        mu = DiscreteMeasure.from_values(2, n, vals, w)
        nu = DiscreteMeasure.from_values(2, n, vals + delta, w)
        assert abs(entropy(mu, n) - entropy(nu, n)) <= 2.0


def test_convolution_entropy_lower_bound():
    rng = np.random.default_rng(6)
    for _ in range(100):
        tau = rand_measure(rng, level=8, natoms=20)
        theta = rand_measure(rng, level=8, natoms=6)
        conv = convolve(theta, tau, 8)
        assert entropy(conv, 8) >= entropy(tau, 8) - 1.0 - 1e-10


# -------------------------------------------------------- dimension profile

def test_dimension_estimate_lebesgue_and_dirac():
    prof = dimension_estimate(DiscreteMeasure.uniform_unit(2, 10), range(2, 11))
    assert prof.slope == pytest.approx(1.0, abs=0.01)
    dirac = DiscreteMeasure.from_values(2, 10, [0.42])
    prof0 = dimension_estimate(dirac, range(2, 11))
    assert prof0.slope == pytest.approx(0.0, abs=1e-9)


def test_dimension_estimate_rejects_small_windows():
    with pytest.raises(ValueError):
        dimension_estimate(DiscreteMeasure.uniform_unit(2, 8), [3, 5])


def test_entropy_and_profile_refuse_a_negative_level():
    # a level below 0 used to coarsen to a measure there: H = -0.0, slope 0.0
    uni = DiscreteMeasure.uniform_unit(2, 6)
    for build in (lambda: entropy(uni, -1), lambda: dimension_estimate(uni, [-2, -1, 0])):
        with pytest.raises(ValueError, match="^level must be nonnegative$"):
            build()


def test_profile_increments_monotone_entropies():
    p = SystemParams(2, 0.4, PeriodicFn.cosine())
    mu = build_mx_exact(p, 0.37, 12, 14)
    prof = dimension_estimate(mu, range(4, 13))
    assert all(v >= -1e-12 for v in np.diff(prof.entropies))
    assert 0.0 <= prof.slope <= 1.0


# ----------------------------------------------------------------- porosity

def test_porosity_dirac_components():
    d = DiscreteMeasure.from_values(2, 12, [0.3])
    rep = porosity_fraction(d, 0.0, 0.1, 4, 1, 6)
    assert rep.fraction == pytest.approx(1.0)
    assert rep.verdict


def test_porosity_lebesgue_not_porous_below_full_entropy():
    # uniform components have normalized entropy exactly 1, so any threshold
    # h + delta < 1 gives fraction 0
    uni = DiscreteMeasure.uniform_unit(2, 12)
    delta = 0.1
    rep = porosity_fraction(uni, 1.0 - 3 * delta, delta, 4, 1, 6)
    assert rep.fraction == 0.0
    assert not rep.verdict


def test_porosity_resolution_guard():
    uni = DiscreteMeasure.uniform_unit(2, 8)
    with pytest.raises(ValueError):
        porosity_fraction(uni, 0.5, 0.1, 4, 1, 6)


def test_fiber_measures_are_entropy_porous_at_desk_scale():
    # majority of words of length 12 give porous fiber measures at the
    # predicted fiber dimension
    p = SystemParams(2, 0.4, PeriodicFn.cosine())
    alpha = math.log(2) / math.log(2.5)
    rng = np.random.default_rng(7)
    eps, m, k = 0.2, 8, 4
    verdicts = []
    for _ in range(12):
        code = int(rng.integers(0, 2**12))
        mu = build_mx_exact(p, code / 2.0**12, k + m, 14)
        rep = porosity_fraction(mu, alpha, eps, m, 1, k)
        verdicts.append(rep.verdict)
    assert np.mean(verdicts) > 1 - eps

