"""Convolution form of the data-independent 2D SSM.

A time-invariant system's response is translation invariant, so the
whole map is a causal 2D convolution with one scalar kernel per offset.
The kernel is the scan's own readout of a unit impulse at the grid
origin: k[dv, dt] = C1 h1 + C2 h2 at offset (dv, dt). It needs constant
parameters.
"""

from __future__ import annotations

import numpy as np

from .discretize import DiscreteSSM2D
from .recurrence import as_series, check_integer, finite_array, require_constant
from .scan import scan_forward


def impulse_kernels(dp: DiscreteSSM2D, v_count: int, t_count: int) -> np.ndarray:
    """The scalar impulse response per offset, shape (V, T)."""
    check_integer("v_count", v_count, 1)
    check_integer("t_count", t_count, 1)
    require_constant(dp, "impulse_kernels")
    impulse = np.zeros((v_count, t_count, 1))
    impulse[0, 0, 0] = 1.0
    return scan_forward(dp, impulse)[..., 0]


def conv_apply(kernel, x) -> np.ndarray:
    """Causal 2D convolution y[v,t] = sum_{dv,dt>=0} k[dv,dt] x[v-dv,t-dt]
    with the scalar (V, T) kernel k, applied per channel."""
    x = as_series(x)
    v_count, t_count, d = x.shape
    kernel = finite_array("kernel", kernel)
    if kernel.ndim != 2:
        raise ValueError(f"kernel must have shape (V, T), got shape {kernel.shape}")
    if kernel.shape[0] < v_count or kernel.shape[1] < t_count:
        raise ValueError("kernel extents must cover the input extents")
    y = np.zeros((v_count, t_count, d))
    for dv in range(v_count):
        for dt in range(t_count):
            y[dv:, dt:] += kernel[dv, dt] * x[: v_count - dv, : t_count - dt]
    return y
