"""Orbit iteration and attractor sampling for the skew product.

The map is (x, y) -> (b x mod 1, gamma y + phi(x)).  In double precision the
base map consumes log2(b) mantissa bits of x per step, so a raw orbit turns
into deterministic garbage after ~52/log2(b) steps.  The sampler therefore
re-randomizes the low-order bits of x on a fixed cadence: every
``RESEED_EVERY`` steps it adds a seeded uniform perturbation of size
``RESEED_SCALE``.  Lebesgue measure is invariant for the base map, so the
x-statistics are unaffected; the y-recursion always uses the realized x, and
the perturbation enters y only through phi with weight <= sup|phi'| *
RESEED_SCALE ~ 1e-7, far below any histogram cell used here.  The cadence
(24 steps at scale 2^-26) keeps the float mantissa covered at every step for
b = 2; for b >= 3 rounding noise already provides mixing and the injection
merely makes it seeded.

Reducing mod 1 is t -= floor(t), in place.  Every t reduced here is finite
and >= 0, and for such t both t - floor(t) and the float remainder t % 1.0
(an fmod) are exact, so they are the same double.  Each yielded block is a
pair of fresh arrays that the caller owns: the sampler keeps no reference to
them.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .periodic import eval as phi_eval
from .words import SystemParams

RESEED_EVERY = 24
RESEED_SCALE = 2.0**-26

#: attractor_points: chains run in lockstep, burn-in steps, steps per block.
_CHAINS, _BURN_IN, _BLOCK_STEPS = 4096, 256, 32


def attractor_points(
    params: SystemParams,
    n_points: int,
    seed: int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream attractor samples as (x_block, y_block) chunks.

    Runs an ensemble of chains in lockstep and yields their points in blocks
    of _CHAINS * _BLOCK_STEPS until n_points have been produced.
    Deterministic for fixed arguments.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    b, gam = params.b, params.gamma
    x = rng.random(_CHAINS)
    y = np.zeros(_CHAINS)
    step = 0

    def advance():
        nonlocal x, y, step
        if step % RESEED_EVERY == 0 and step > 0:
            x += rng.random(_CHAINS) * RESEED_SCALE
            x -= np.floor(x)
        y = gam * y + phi_eval(params.phi, x)
        x *= b
        x -= np.floor(x)
        step += 1

    for _ in range(_BURN_IN):
        advance()

    produced = 0
    while produced < n_points:
        keep = min(n_points - produced, _CHAINS * _BLOCK_STEPS)
        xs = np.empty((-(-keep // _CHAINS), _CHAINS))  # only the steps the block keeps
        ys = np.empty_like(xs)
        for i in range(len(xs)):
            xs[i] = x
            ys[i] = y
            advance()
        produced += keep
        yield xs.reshape(-1)[:keep], ys.reshape(-1)[:keep]
