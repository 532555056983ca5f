"""Input-dependent parameter generation.

Per cell (v, t) the projections compute B1, B2, C1, C2 as affine maps of
the input vector x[v,t], and the step sizes as softplus(affine), keeping
them strictly positive. The transition matrices A1..A4 (plain arrays,
(N, N) or an (N,) diagonal) stay shared and input-independent; the
discretization then flows through the standard ZOH path, batched over
the grid, so the Abar matrices depend on the input only through the step
sizes (as in Mamba, Gu & Dao, arXiv 2312.00752), and one
`structured.expm` call per shared matrix serves the whole grid. Every
field of the result takes the batch shape of the inputs, (V, T) on a
grid: a per-cell parameter set.
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


@dataclass
class SelectiveProjections:
    """Affine maps d -> N for the B/C parameters and d -> 1 for the step
    sizes. W_* have shape (N, d); b_* shape (N,); w_d* shape (d,)."""

    W_B1: np.ndarray
    W_B2: np.ndarray
    W_C1: np.ndarray
    W_C2: np.ndarray
    b_B1: np.ndarray
    b_B2: np.ndarray
    b_C1: np.ndarray
    b_C2: np.ndarray
    w_d1: np.ndarray
    w_d2: np.ndarray
    b_d1: float = field(default=0.0)
    b_d2: float = field(default=0.0)

    @staticmethod
    def init_random(n: int, d: int, seed: int = 0) -> "SelectiveProjections":
        """B/C weights ~ U(-1/sqrt(d), 1/sqrt(d)); step-size bias set so
        softplus(bias) equals DT_INIT."""
        rng = np.random.default_rng(seed)
        lim = 1.0 / np.sqrt(d)
        u = lambda *shape: rng.uniform(-lim, lim, shape)
        return SelectiveProjections(
            W_B1=u(n, d), W_B2=u(n, d), W_C1=u(n, d), W_C2=u(n, d),
            b_B1=u(n), b_B2=u(n), b_C1=u(n), b_C2=u(n),
            w_d1=u(d), w_d2=u(d),
            b_d1=inv_softplus(DT_INIT), b_d2=inv_softplus(DT_INIT),
        )

    @staticmethod
    def zeros(n: int, d: int) -> "SelectiveProjections":
        z = np.zeros
        return SelectiveProjections(
            W_B1=z((n, d)), W_B2=z((n, d)), W_C1=z((n, d)), W_C2=z((n, d)),
            b_B1=z(n), b_B2=z(n), b_C1=z(n), b_C2=z(n),
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
    a1, a2, a3, a4 = a_set
    cont = ContinuousSSM2D(
        A1=a1, A2=a2, A3=a3, A4=a4,
        B1=x @ proj.W_B1.T + proj.b_B1,
        B2=x @ proj.W_B2.T + proj.b_B2,
        C1=x @ proj.W_C1.T + proj.b_C1,
        C2=x @ proj.W_C2.T + proj.b_C2,
        # softplus underflows to 0.0 for very negative preactivations;
        # floor keeps the step strictly positive
        dt1=np.maximum(softplus(x @ proj.w_d1 + proj.b_d1), DT_FLOOR),
        dt2=np.maximum(softplus(x @ proj.w_d2 + proj.b_d2), DT_FLOOR),
    )
    return discretize_all(cont)


def project_grid_params(
    proj: SelectiveProjections,
    x,
    a_set: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> DiscreteSSM2D:
    """Per-cell parameters (batch shape (V, T)) for a whole (V, T, d)
    grid, for the scan path: one projection and one batched
    discretization over all cells."""
    return project_cell_params(proj, as_series(x), a_set)
