"""Input-dependent parameter generation, and the one step rule.

`continuous_set` builds a block's continuous set from its transitions,
its B/C vectors and its two step raws, each step size softplus(raw)
floored at `DT_FLOOR`. Per cell (v, t) the projections compute the B/C
vectors and step raws as affine maps of the input vector x[v,t], under
the model's names: their biases are a constant block's b1..c2 and step
raws. The transition matrices A1..A4 (plain arrays, (N, N) or an (N,)
diagonal) stay shared and input-independent; the discretization then
flows through the standard ZOH path, batched over the grid, so the Abar
matrices depend on the input only through the step sizes (as in Mamba,
Gu & Dao, arXiv 2312.00752), and one `structured.expm` call per shared
matrix serves the whole grid. Every field of the result takes the batch
shape of the inputs, (V, T) on a grid: a per-cell parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretize import DT_FLOOR, ContinuousSSM2D, DiscreteSSM2D, discretize_all
from .recurrence import as_series

# initial step size, a conventional stable step
DT_INIT = 0.1


def softplus(z):
    z = np.asarray(z, dtype=float)
    return np.logaddexp(0.0, z)


def inv_softplus(y: float) -> float:
    """Pre-activation value whose softplus equals y (> 0)."""
    if y <= 0:
        raise ValueError("softplus output must be positive")
    return float(y + np.log(-np.expm1(-y)))


def continuous_set(a_set, dt1_raw, dt2_raw, b1, b2, c1, c2, *, stacked: bool = False) -> ContinuousSSM2D:
    """The continuous set of transitions a_set = (A1, A2, A3, A4), vectors
    b1..c2 and step sizes softplus(raw), floored at `DT_FLOOR` as softplus
    underflows to 0.0 for very negative raws; `stacked` as in the set."""
    dt1, dt2 = (np.maximum(softplus(raw), DT_FLOOR) for raw in (dt1_raw, dt2_raw))
    a1, a2, a3, a4 = a_set
    return ContinuousSSM2D(A1=a1, A2=a2, A3=a3, A4=a4, B1=b1, B2=b2, C1=c1, C2=c2, dt1=dt1, dt2=dt2, stacked=stacked)


@dataclass
class SelectiveProjections:
    """Affine maps d -> N for the B/C vectors, B1 = W_B1 x + b1, ..., and
    d -> 1 for the step raws, w_d1 . x + dt1_raw: a selective model
    block's parameters. W_* are (N, d), b1..c2 (N,) and w_d* (d,)."""

    W_B1: np.ndarray
    W_B2: np.ndarray
    W_C1: np.ndarray
    W_C2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    w_d1: np.ndarray
    w_d2: np.ndarray
    dt1_raw: float = field(default=0.0)
    dt2_raw: float = field(default=0.0)

    @staticmethod
    def init_random(n: int, d: int, seed: int = 0) -> "SelectiveProjections":
        """B/C weights ~ U(-1/sqrt(d), 1/sqrt(d)); step raws set so
        softplus(raw) equals DT_INIT."""
        rng = np.random.default_rng(seed)
        lim = 1.0 / np.sqrt(d)
        u = lambda *shape: rng.uniform(-lim, lim, shape)
        return SelectiveProjections(
            W_B1=u(n, d), W_B2=u(n, d), W_C1=u(n, d), W_C2=u(n, d),
            b1=u(n), b2=u(n), c1=u(n), c2=u(n),
            w_d1=u(d), w_d2=u(d),
            dt1_raw=inv_softplus(DT_INIT), dt2_raw=inv_softplus(DT_INIT),
        )

    @staticmethod
    def zeros(n: int, d: int) -> "SelectiveProjections":
        z = np.zeros
        return SelectiveProjections(
            W_B1=z((n, d)), W_B2=z((n, d)), W_C1=z((n, d)), W_C2=z((n, d)),
            b1=z(n), b2=z(n), c1=z(n), c2=z(n),
            w_d1=z(d), w_d2=z(d),
        )


def project_cell_params(
    proj: SelectiveProjections,
    x: np.ndarray,
    a_set: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> DiscreteSSM2D:
    """Discrete parameters for cell inputs x of shape (..., d): one cell
    for x of length d, and the leading shape of x as the batch shape
    otherwise."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    return discretize_all(continuous_set(
        a_set, x @ proj.w_d1 + proj.dt1_raw, x @ proj.w_d2 + proj.dt2_raw,
        x @ proj.W_B1.T + proj.b1, x @ proj.W_B2.T + proj.b2, x @ proj.W_C1.T + proj.c1, x @ proj.W_C2.T + proj.c2,
    ))


def project_grid_params(
    proj: SelectiveProjections,
    x,
    a_set: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> DiscreteSSM2D:
    """Per-cell parameters (batch shape (V, T)) for a whole (V, T, d)
    grid, for the scan path: one projection and one batched
    discretization over all cells."""
    return project_cell_params(proj, as_series(x), a_set)
