"""Restricted 2D SSMs: the decoupled (Mamba-style) variant and its
materialized matrix form.

With the cross blocks Abar2 = Abar3 = 0, the two hidden states decouple:
h1 runs a plain 1D SSM along time within each variate, h2 a plain 1D
SSM along variates within each time step, and the output mixes both.
In bi-directional form the whole map materializes, per variate, as a
lower-triangular time matrix and, per time step, as a quasi-separable
variate matrix (forward pass below the diagonal, backward pass above,
local responses on the diagonal). Each is built from its 1D chains by
one function, Mamba-2's semiseparable matrix, whose entry (i, j) is
c[i] a[i]...a[j+1] b[j] (Dao & Gu, arXiv 2405.21060).
"""

from __future__ import annotations

import numpy as np

from .discretize import DiscreteSSM2D
from .recurrence import as_series, check_integer, forward_recurrence

MAX_NAIVE_CELLS = 64


def _ensure_decoupled(abar2: np.ndarray, abar3: np.ndarray):
    if np.abs(abar2).max() != 0.0 or np.abs(abar3).max() != 0.0:
        raise ValueError("decoupled variant requires zero cross blocks (Abar2, Abar3)")


def _semiseparable(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The lower-triangular matrices of a stack of 1D chains
    h[i] = a[i] h[i-1] + b[i] u[i], y[i] = c[i] . h[i], with a (..., L, N, N)
    and b, c (..., L, N): M[..., i, j] = c[i] a[i]...a[j+1] b[j] for j <= i."""
    m = np.zeros(b.shape[:-1] + b.shape[-2:-1])
    g = np.zeros_like(b)  # g[..., j, :] = a[i]...a[j+1] b[j] at row i, zero for j > i
    for i in range(b.shape[-2]):
        g[..., :i, :] = (a[..., i, None, :, :] @ g[..., :i, :, None])[..., 0]
        g[..., i, :] = b[..., i, :]
        m[..., i, :] = (g @ c[..., i, :, None])[..., 0]
    return m


def mamba2d_forward(dp: DiscreteSSM2D, x) -> np.ndarray:
    """Forward pass of the decoupled variant (Abar2 = Abar3 = 0)."""
    _ensure_decoupled(dp.Abar2, dp.Abar3)
    y, _ = forward_recurrence(dp, x)
    return y


def materialize_matrices(
    cells_f: DiscreteSSM2D,
    cells_b: DiscreteSSM2D,
    v_count: int,
    t_count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the bi-directional decoupled model as matrices.

    Returns (m_time, m_var): m_time[v] is the T x T lower-triangular
    time-mixing matrix for variate v (both directions' time chains run
    forward in time); m_var[t] is the V x V quasi-separable variate
    matrix for time step t. The backward module is indexed on the
    variate-reversed grid, matching `bidirectional_forward`. Output:

        y[v, t] = (m_time[v] @ x[v, :])[t] + (m_var[t] @ x[:, t])[v]
    """
    check_integer("v_count", v_count, 1)
    check_integer("t_count", t_count, 1)
    if v_count * t_count > MAX_NAIVE_CELLS:
        raise ValueError(f"naive materialization is limited to {MAX_NAIVE_CELLS} cells")
    cf = cells_f.on_grid(v_count, t_count)
    cb = cells_b.on_grid(v_count, t_count)
    _ensure_decoupled(cf.Abar2, cf.Abar3)
    _ensure_decoupled(cb.Abar2, cb.Abar3)

    time = lambda c: _semiseparable(c.Abar1, c.Bbar1, c.C1)
    var = lambda c: _semiseparable(*(np.swapaxes(f, 0, 1) for f in (c.Abar4, c.Bbar2, c.C2)))
    # the backward module's chains run on the variate-reversed grid
    return time(cf) + time(cb)[::-1], var(cf) + var(cb)[:, ::-1, ::-1]


def matrix_form_apply(m_time: np.ndarray, m_var: np.ndarray, x) -> np.ndarray:
    """Apply the materialized matrices to a (V, T, d) series."""
    x = as_series(x)
    return np.einsum("vts,vsd->vtd", m_time, x) + np.einsum("tvw,wtd->vtd", m_var, x)
