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
A stack of K blocks on K grids, x of shape (K, V, T, d), takes one
projection and one `expm` call per transition for the whole stack, each
block's matrix at its own grid of steps, and gives a (K, V, T) set;
a bidirectional selective layer runs each pair so (`chimera2d.model`).
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
    def init_random(n: int, d: int, seed: int | np.random.Generator = 0) -> "SelectiveProjections":
        """B/C weights ~ U(-1/sqrt(d), 1/sqrt(d)), drawn from seed, or from
        the generator given as seed; step raws set so softplus(raw) equals
        DT_INIT."""
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
    otherwise. A stack of K blocks, each field of `proj` and each
    transition with a leading axis (K,), takes x of shape (K, ..., d),
    with at least one cell axis, and gives item k what block k alone
    gives x[k], bit for bit."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    d = np.shape(proj.w_d1)[-1]
    if x.ndim == 0 or x.shape[-1] != d:
        raise ValueError(f"x has {x.shape[-1] if x.ndim else 0} channels, but the projections take d={d}")
    stacked = np.ndim(proj.dt1_raw) > 0
    if stacked and (x.ndim < 3 or len(x) != len(proj.dt1_raw)):
        k = len(proj.dt1_raw)
        raise ValueError(f"a stack of {k} projections takes x of shape ({k}, ..., d) with a cell axis, got {x.shape}")

    def items(value, cell_axes: int):
        # a stack's value, its first axis meeting x's and `cell_axes` unit
        # axes before its own
        value = np.asarray(value, dtype=float)
        return value.reshape(value.shape[:1] + (1,) * cell_axes + value.shape[1:]) if stacked else value

    # x @ w^T + bias, one (cells, d) @ (d, k) product per row of cells
    def affine(w, bias):
        return x @ items(np.swapaxes(w, -1, -2), x.ndim - 3) + items(bias, x.ndim - 2)

    def step_raw(w, raw):
        return (x @ items(np.expand_dims(w, -1), x.ndim - 3))[..., 0] + items(raw, x.ndim - 2)

    return discretize_all(continuous_set(
        a_set, step_raw(proj.w_d1, proj.dt1_raw), step_raw(proj.w_d2, proj.dt2_raw),
        affine(proj.W_B1, proj.b1), affine(proj.W_B2, proj.b2), affine(proj.W_C1, proj.c1), affine(proj.W_C2, proj.c2),
        stacked=stacked,
    ))


def project_grid_params(
    proj: SelectiveProjections,
    x,
    a_set: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> DiscreteSSM2D:
    """Per-cell parameters (batch shape (V, T)) for a whole (V, T, d)
    grid, for the scan path: one projection and one batched
    discretization over all cells. A stack of K blocks (see
    `project_cell_params`) takes K grids, x of shape (K, V, T, d), and
    gives batch shape (K, V, T)."""
    return project_cell_params(proj, as_series(x, stacked=np.ndim(proj.dt1_raw) > 0), a_set)
