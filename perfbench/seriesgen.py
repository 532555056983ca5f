"""Seeded benchmark inputs: unit-scale seasonal-AR grids, plain numpy only.

This module must not import chimera2d, so that no change to the library
can change what the benchmark feeds it. The same (seed, shape) always
gives byte-identical arrays.

Each (variate, channel) series follows a multiplicative seasonal AR
process

    z[t] = phi z[t-1] + Phi z[t-s] - phi Phi z[t-s-1] + e[t],

with phi, Phi and the season length s drawn from the seed, a burn-in
discarded, and every series scaled to zero mean and unit variance.
"""

from __future__ import annotations

import numpy as np

BURN_IN = 200


def seasonal_ar_grid(seed: int, v_count: int, t_count: int, d: int) -> np.ndarray:
    """A (V, T, d) float64 grid of unit-scale seasonal-AR series."""
    if min(v_count, t_count, d) < 1:
        raise ValueError("grid extents must be positive")
    rng = np.random.default_rng([seed, v_count, t_count, d])
    season = int(rng.integers(4, 13))
    phi = rng.uniform(0.3, 0.7, (v_count, d))
    big_phi = rng.uniform(0.2, 0.5, (v_count, d))
    total = BURN_IN + t_count
    noise = rng.standard_normal((total, v_count, d))
    z = np.zeros((total, v_count, d))
    for t in range(total):
        acc = noise[t].copy()
        if t >= 1:
            acc += phi * z[t - 1]
        if t >= season:
            acc += big_phi * z[t - season]
        if t >= season + 1:
            acc -= phi * big_phi * z[t - season - 1]
        z[t] = acc
    z = z[BURN_IN:].transpose(1, 0, 2)
    z = (z - z.mean(axis=1, keepdims=True)) / z.std(axis=1, keepdims=True)
    return np.ascontiguousarray(z)
