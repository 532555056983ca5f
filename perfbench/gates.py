"""Correctness gates, run outside the timed region.

Each gate returns True when the library's output is right. The run
counts every gate as an attempted check and every False as a failure.
"""

from __future__ import annotations

import numpy as np

# equal up to reduction-order noise: outputs of identical calls on
# identical inputs
SAME_RTOL = 1e-12
# two implementations of one map (scan vs sequential oracle, batched vs
# per-cell projection)
IMPL_RTOL = 1e-10
# FD gradient implied by one fit step vs fd_gradient itself
GRAD_RTOL = 1e-6


def _close(a, b, rtol: float) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return False
    scale = float(np.abs(b).max()) if b.size else 0.0
    return bool(np.allclose(a, b, rtol=rtol, atol=rtol * scale))


def finite(out: dict) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in out.values())


def same_output(out: dict, ref: dict) -> bool:
    """Finite, and equal to the reference op's output key by key."""
    return out.keys() == ref.keys() and all(_close(out[k], ref[k], SAME_RTOL) for k in ref)


def contractive_ssm(n: int, seed: int):
    """A DiscreteSSM2D whose joint transition [[A1, A2], [A3, A4]] has
    spectral norm 0.8, so the recurrence stays bounded on any grid."""
    from chimera2d import DiscreteSSM2D

    rng = np.random.default_rng([seed, n])
    joint = rng.standard_normal((2 * n, 2 * n))
    joint *= 0.8 / np.linalg.norm(joint, 2)
    return DiscreteSSM2D(
        Abar1=joint[:n, :n].copy(), Abar2=joint[:n, n:].copy(),
        Abar3=joint[n:, :n].copy(), Abar4=joint[n:, n:].copy(),
        Bbar1=rng.standard_normal(n), Bbar2=rng.standard_normal(n),
        C1=rng.standard_normal(n), C2=rng.standard_normal(n),
    )


def scan_matches_recurrence(n: int, x: np.ndarray, seed: int) -> bool:
    """scan_forward equals the sequential oracle on a contractive SSM
    at the workload's N and d, on a reduced grid x."""
    from chimera2d import forward_recurrence
    import chimera2d.scan

    dp = contractive_ssm(n, seed)
    return _close(chimera2d.scan.scan_forward(dp, x), forward_recurrence(dp, x)[0], IMPL_RTOL)


def projection_matches_cells(n: int, x: np.ndarray, seed: int, samples: int = 8) -> bool:
    """project_grid_params equals per-cell project_cell_params on
    sampled cells of x."""
    from chimera2d import (
        SelectiveProjections, companion_from_coeffs, diagonal_matrix,
        project_cell_params, project_grid_params,
    )

    rng = np.random.default_rng([seed, n, 1])
    d = x.shape[-1]
    proj = SelectiveProjections.init_random(n, d, seed=seed)
    a_set = (
        companion_from_coeffs(rng.uniform(-0.4, -0.05, n)),
        companion_from_coeffs(rng.uniform(-0.4, -0.05, n)),
        diagonal_matrix(rng.uniform(-1.0, -0.1, n)),
        diagonal_matrix(rng.uniform(-1.0, -0.1, n)),
    )
    grid = project_grid_params(proj, x, a_set)
    v_count, t_count = x.shape[:2]
    for v, t in zip(rng.integers(0, v_count, samples), rng.integers(0, t_count, samples)):
        cell = project_cell_params(proj, x[v, t], a_set)
        for name in ("Abar1", "Abar2", "Abar3", "Abar4", "Bbar1", "Bbar2", "C1", "C2"):
            if not _close(getattr(grid, name)[v, t], getattr(cell, name), IMPL_RTOL):
                return False
    return True


def fit_gradient_matches(inp, fitted: dict, lr: float, seed: int, samples: int = 3) -> bool:
    """(theta0 - theta1) / lr from one fit step equals fd_gradient on
    sampled non-decoder parameters."""
    from chimera2d.model import fd_gradient

    model = inp.model
    names = sorted(n for n in model.params if not n.startswith("decoder."))
    picked = list(np.random.default_rng([seed, 2]).choice(names, size=samples, replace=False))

    def loss_fn(m) -> float:
        return float(np.mean((m.forward(inp.x) - inp.y) ** 2))

    with np.errstate(over="ignore", invalid="ignore"):
        grads = fd_gradient(model, loss_fn, picked)
    return all(
        _close((model.params[n] - fitted[n]) / lr, grads[n], GRAD_RTOL) for n in picked
    )
