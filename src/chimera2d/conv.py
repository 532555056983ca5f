"""Convolution form of the data-independent 2D SSM.

A time-invariant system's response is translation invariant, so the
whole map is a causal 2D convolution. The kernels are read off from the
hidden-state response to a unit impulse at the grid origin, one pass
through the scan: K1/K2 hold the (N-vector) h1/h2 responses per offset,
and the scalar kernel applied to the input is C1 K1 + C2 K2. Both need
constant parameters.
"""

from __future__ import annotations

import numpy as np

from .discretize import DiscreteSSM2D
from .recurrence import as_series, check_integer, finite_array, require_constant
from .scan import scan_forward


def impulse_kernels(dp: DiscreteSSM2D, v_count: int, t_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Hidden-state impulse responses per offset, shapes (V, T, N)."""
    check_integer("v_count", v_count, 1)
    check_integer("t_count", t_count, 1)
    require_constant(dp, "impulse_kernels")
    impulse = np.zeros((v_count, t_count, 1))
    impulse[0, 0, 0] = 1.0
    _, (h1, h2) = scan_forward(dp, impulse, return_hidden=True)
    return h1[:, :, :, 0], h2[:, :, :, 0]


def conv_apply(
    k1: np.ndarray,
    k2: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    x,
) -> np.ndarray:
    """Causal 2D convolution y[v,t] = sum_{dv,dt>=0} k[dv,dt] x[v-dv,t-dt]
    with the scalar kernel k = C1 K1 + C2 K2, applied per channel."""
    x = as_series(x)
    v_count, t_count, d = x.shape
    if k1.ndim != 3 or k2.shape != k1.shape:
        raise ValueError(f"kernels k1 {k1.shape} and k2 {k2.shape} must have one (V, T, N) shape")
    if k1.shape[0] < v_count or k1.shape[1] < t_count:
        raise ValueError("kernel extents must cover the input extents")
    c1, c2 = finite_array("c1", c1), finite_array("c2", c2)
    for name, row in (("c1", c1), ("c2", c2)):
        if row.shape != k1.shape[-1:]:
            raise ValueError(f"{name} must have length N={k1.shape[-1]}, the kernels' last axis, got shape {row.shape}")
    kern = k1 @ c1 + k2 @ c2
    y = np.zeros((v_count, t_count, d))
    for dv in range(v_count):
        for dt in range(t_count):
            y[dv:, dt:] += kern[dv, dt] * x[: v_count - dv, : t_count - dt]
    return y
