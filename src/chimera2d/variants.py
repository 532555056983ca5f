"""Restricted 2D SSMs: the decoupled (Mamba-style) variant and its
materialized matrix form.

With the cross blocks Abar2 = Abar3 = 0, the two hidden states decouple:
h1 runs a plain 1D SSM along time within each variate, h2 a plain 1D
SSM along variates within each time step, and the output mixes both.
In bi-directional form the whole map materializes, per variate, as a
lower-triangular time matrix and, per time step, as a quasi-separable
variate matrix (forward pass below the diagonal, backward pass above,
local responses on the diagonal).
"""

from __future__ import annotations

import numpy as np

from .discretize import DiscreteSSM2D
from .recurrence import as_series, check_integer, forward_recurrence

MAX_NAIVE_CELLS = 64


def _ensure_decoupled(abar2: np.ndarray, abar3: np.ndarray):
    if np.abs(abar2).max() != 0.0 or np.abs(abar3).max() != 0.0:
        raise ValueError("decoupled variant requires zero cross blocks (Abar2, Abar3)")


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

    m_time = np.zeros((v_count, t_count, t_count))
    for v in range(v_count):
        vr = v_count - 1 - v
        for mod_cells, row in ((cf, v), (cb, vr)):
            for t in range(t_count):
                acc = np.eye(mod_cells.n)
                for th in range(t, -1, -1):
                    # acc = prod_{i=th+1..t} Abar1[row, i]
                    m_time[v, t, th] += mod_cells.C1[row, t] @ acc @ mod_cells.Bbar1[row, th]
                    acc = acc @ mod_cells.Abar1[row, th]

    m_var = np.zeros((t_count, v_count, v_count))
    for t in range(t_count):
        for v in range(v_count):
            # forward pass: strictly lower part plus its diagonal response
            acc = np.eye(cf.n)
            for vh in range(v, -1, -1):
                m_var[t, v, vh] += cf.C2[v, t] @ acc @ cf.Bbar2[vh, t]
                acc = acc @ cf.Abar4[vh, t]
            # backward pass (reversed grid): strictly upper plus diagonal
            vr = v_count - 1 - v
            acc = np.eye(cb.n)
            for vhr in range(vr, -1, -1):
                vh = v_count - 1 - vhr
                m_var[t, v, vh] += cb.C2[vr, t] @ acc @ cb.Bbar2[vhr, t]
                acc = acc @ cb.Abar4[vhr, t]
    return m_time, m_var


def matrix_form_apply(m_time: np.ndarray, m_var: np.ndarray, x) -> np.ndarray:
    """Apply the materialized matrices to a (V, T, d) series."""
    x = as_series(x)
    return np.einsum("vts,vsd->vtd", m_time, x) + np.einsum("tvw,wtd->vtd", m_var, x)
