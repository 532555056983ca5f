"""Sequential reference implementation of the discrete 2D recurrence.

Series are plain float arrays of shape (V, T, d): V variates, T time
steps, d channels. Everything here is deliberately written as explicit
loops over grid cells; it is the oracle that the fast paths in
`chimera2d.scan` (the forward scan and the closed-loop decoder), the
convolution form and the restricted variants are tested against.

Cell update, with zero state outside the grid:

    h1[v, t] = Abar1 h1[v, t-1] + Abar2 h2[v, t-1] + Bbar1 x[v, t]
    h2[v, t] = Abar3 h1[v-1, t] + Abar4 h2[v-1, t] + Bbar2 x[v, t]
    y[v, t]  = C1 h1[v, t] + C2 h2[v, t]

The input term is the outer product (N,1) @ (1,d), so each channel runs
through the same state dynamics independently. Per-cell (selective)
parameters enter the same update indexed at [v, t].
"""

from __future__ import annotations

import numbers

import numpy as np

from .discretize import DiscreteSSM2D, finite_array


def check_integer(name: str, value, least: int) -> None:
    """Raises ValueError naming the field unless value is an integer (a
    bool is not one) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_real(name: str, value, sign: str = "") -> None:
    """Raises ValueError naming the field unless value is a finite real
    number (a bool is not one), and with `sign` "positive" or
    "nonnegative" one of that sign."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    signed = value > 0 if sign == "positive" else value >= 0 if sign == "nonnegative" else True
    if not (signed and -np.inf < value < np.inf):  # a NaN fails every comparison
        raise ValueError(f"{name} must be {sign + ' and ' if sign else ''}finite, got {value}")


def as_series(x, stacked: bool = False) -> np.ndarray:
    """Validate and coerce a (V, T, d) series array, or with `stacked` a
    stack (..., V, T, d) of them."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    if not (x.ndim == 3 or stacked and x.ndim > 3) or min(x.shape) < 1:
        raise ValueError("series must have shape (V, T, d) with positive extents")
    return finite_array("series", x)


def require_constant(dp: DiscreteSSM2D, caller: str) -> None:
    """Reject per-cell parameters where one parameter set must serve
    every cell."""
    if dp.Abar1.ndim != 2:
        raise ValueError(f"{caller} needs constant parameters (batch shape ()), got batch shape {dp.Abar1.shape[:-2]}")


def transition_probe(dp: DiscreteSSM2D) -> dict[str, float]:
    """Stability figures of one constant parameter set: the spectral
    radii of Abar1 (the time chain) and Abar4 (the variate chain), and
    the spectral radius and 2-norm of the joint transition
    [[Abar1, Abar2], [Abar3, Abar4]] on the stacked hidden pair. The step
    sizes are not part of a DiscreteSSM2D, so the probe omits them."""
    require_constant(dp, "transition_probe")
    joint = np.block([[dp.Abar1, dp.Abar2], [dp.Abar3, dp.Abar4]])
    radius = lambda a: float(np.max(np.abs(np.linalg.eigvals(a))))
    return {
        "rho_abar1": radius(dp.Abar1),
        "rho_abar4": radius(dp.Abar4),
        "rho_joint": radius(joint),
        "norm_joint": float(np.linalg.norm(joint, 2)),
    }


def forward_recurrence(dp: DiscreteSSM2D, x) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Run the 2D recurrence; returns (y, (h1, h2)) with hidden grids of
    shape (V, T, N, d). `dp` may be constant (batch shape ()) or per-cell
    on the input's (V, T) grid."""
    x = as_series(x)
    v_count, t_count, d = x.shape
    c = dp.on_grid(v_count, t_count)
    n = dp.n
    h1 = np.zeros((v_count, t_count, n, d))
    h2 = np.zeros((v_count, t_count, n, d))
    y = np.zeros((v_count, t_count, d))
    for v in range(v_count):
        for t in range(t_count):
            bx1 = np.outer(c.Bbar1[v, t], x[v, t])
            bx2 = np.outer(c.Bbar2[v, t], x[v, t])
            s1 = bx1
            if t > 0:
                s1 = s1 + c.Abar1[v, t] @ h1[v, t - 1] + c.Abar2[v, t] @ h2[v, t - 1]
            s2 = bx2
            if v > 0:
                s2 = s2 + c.Abar3[v, t] @ h1[v - 1, t] + c.Abar4[v, t] @ h2[v - 1, t]
            h1[v, t] = s1
            h2[v, t] = s2
            y[v, t] = c.C1[v, t] @ s1 + c.C2[v, t] @ s2
    return y, (h1, h2)


def bidirectional_forward(dp_f: DiscreteSSM2D, dp_b: DiscreteSSM2D, x) -> np.ndarray:
    """Forward module on x plus backward module on the variate-reversed x,
    un-reversed and summed."""
    if dp_f.n != dp_b.n:
        raise ValueError("forward and backward modules must share N")
    x = as_series(x)
    y_f, _ = forward_recurrence(dp_f, x)
    y_b, _ = forward_recurrence(dp_b, x[::-1])
    return y_f + y_b[::-1]
