import numpy as np
import pytest

from solenoidlab.dynamics import _BLOCK_STEPS, _BURN_IN, _CHAINS, RESEED_EVERY, RESEED_SCALE, attractor_points
from solenoidlab.periodic import PeriodicFn, eval as phi_eval
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


# ------------------------------------------------- oracle: the first sampler

BLOCK = _CHAINS * _BLOCK_STEPS


def reference_points(params, n_points, seed=0):
    """attractor_points as first written: reduction by the float remainder
    ``% 1.0``, two block buffers reused for every block, and a copy of each."""
    rng = np.random.default_rng(seed)
    b, gam = params.b, params.gamma
    x = rng.random(_CHAINS)
    y = np.zeros(_CHAINS)
    step = 0

    def advance():
        nonlocal x, y, step
        if step % RESEED_EVERY == 0 and step > 0:
            x = (x + rng.random(_CHAINS) * RESEED_SCALE) % 1.0
        y = gam * y + phi_eval(params.phi, x)
        x = (b * x) % 1.0
        step += 1

    for _ in range(_BURN_IN):
        advance()

    produced = 0
    xs = np.empty((_BLOCK_STEPS, _CHAINS))
    ys = np.empty((_BLOCK_STEPS, _CHAINS))
    while produced < n_points:
        for i in range(_BLOCK_STEPS):
            xs[i] = x
            ys[i] = y
            advance()
        xb = xs.reshape(-1)
        yb = ys.reshape(-1)
        if produced + xb.size > n_points:
            keep = n_points - produced
            xb, yb = xb[:keep], yb[:keep]
        produced += xb.size
        yield xb.copy(), yb.copy()


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "b, phi, n_points",
    [
        (2, PeriodicFn.cosine(), 2 * BLOCK + 4097),
        (3, PeriodicFn.from_triples([(1, 0.7, -0.2), (2, 0.0, 0.35), (3, 0.1, 0.4)]), BLOCK + 1),
        (5, PeriodicFn((1.3,), ()), 3 * BLOCK - 4095),
        (2, PeriodicFn.sine(0.6, 2), 2 * BLOCK),
    ],
)
def test_blocks_match_the_first_sampler_bit_for_bit(b, phi, n_points):
    # 256 burn-in steps plus up to 96 block steps cross 10 to 14 reseeds
    p = SystemParams(b, 0.45, phi)
    got = list(attractor_points(p, n_points, seed=11))
    want = list(reference_points(p, n_points, seed=11))
    assert len(got) == len(want) == -(-n_points // BLOCK)
    for (xg, yg), (xw, yw) in zip(got, want):
        assert _same(xg, xw) and _same(yg, yw)
    assert sum(len(x) for x, _ in got) == n_points


def test_yielded_blocks_are_owned_by_the_caller():
    p = SystemParams(2, 0.4, PeriodicFn.from_triples([(1, 1.0, 0.5)]))
    gen = attractor_points(p, 3 * BLOCK, seed=4)
    want = list(reference_points(p, 3 * BLOCK, seed=4))
    previous = []
    for xw, yw in want:
        xg, yg = next(gen)
        assert _same(xg, xw) and _same(yg, yw)
        assert not any(np.shares_memory(a, c) for a in (xg, yg) for c in previous)
        xg[:] = -1.0  # overwriting a yielded block must leave every later block alone
        yg[:] = np.nan
        previous += [xg, yg]
    assert next(gen, None) is None
