"""Tests for input-dependent (selective) parameter projections."""

import numpy as np
import pytest
from dataclasses import replace

from chimera2d import (
    SelectiveProjections,
    project_cell_params,
    project_grid_params,
    companion_from_coeffs,
    diagonal_matrix,
    discretize_all,
    ContinuousSSM2D,
)
from chimera2d.selective import softplus, inv_softplus


def stable_a_set(rng, n):
    return (
        companion_from_coeffs(rng.uniform(-0.4, 0, n)),
        companion_from_coeffs(rng.uniform(-0.4, 0, n)),
        diagonal_matrix(rng.uniform(-1, -0.1, n)),
        diagonal_matrix(rng.uniform(-1, -0.1, n)),
    )


def test_softplus_at_zero_is_log2():
    assert abs(softplus(0.0) - np.log(2.0)) < 1e-14


def test_inv_softplus_inverts():
    for y in (0.1, 0.5, 2.0, 10.0):
        assert abs(softplus(inv_softplus(y)) - y) < 1e-12


def test_zero_projection_steps_are_log2():
    rng = np.random.default_rng(0)
    n, d = 2, 3
    proj = SelectiveProjections.zeros(n, d)
    a_set = stable_a_set(rng, n)
    dp_a = project_cell_params(proj, rng.standard_normal(d), a_set)
    # with zero weights and biases both step sizes are softplus(0)
    ref = discretize_all(
        ContinuousSSM2D(
            A1=a_set[0], A2=a_set[1], A3=a_set[2], A4=a_set[3],
            B1=np.zeros(n), B2=np.zeros(n), C1=np.zeros(n), C2=np.zeros(n),
            dt1=float(np.log(2.0)), dt2=float(np.log(2.0)),
        )
    )
    assert np.allclose(dp_a.Abar1, ref.Abar1, atol=1e-13)
    assert np.allclose(dp_a.Abar4, ref.Abar4, atol=1e-13)


def test_positivity_of_steps():
    rng = np.random.default_rng(1)
    n, d = 3, 2
    proj = SelectiveProjections.init_random(n, d, seed=1)
    a_set = stable_a_set(rng, n)
    for _ in range(10):
        dp = project_cell_params(proj, 10.0 * rng.standard_normal(d), a_set)
        assert np.all(np.isfinite(dp.Abar1))


def test_functional_determinism():
    rng = np.random.default_rng(2)
    n, d = 2, 2
    proj = SelectiveProjections.init_random(n, d, seed=2)
    a_set = stable_a_set(rng, n)
    x = rng.standard_normal(d)
    dp_a = project_cell_params(proj, x, a_set)
    dp_b = project_cell_params(proj, x.copy(), a_set)
    for name in ("Abar1", "Abar2", "Abar3", "Abar4", "Bbar1", "Bbar2", "C1", "C2"):
        assert np.array_equal(getattr(dp_a, name), getattr(dp_b, name))


def test_init_dt_bias():
    proj = SelectiveProjections.init_random(2, 2, seed=3)
    assert abs(softplus(proj.dt1_raw) - 0.1) < 1e-12
    assert abs(softplus(proj.dt2_raw) - 0.1) < 1e-12


def test_nonfinite_input_rejected():
    proj = SelectiveProjections.zeros(2, 1)
    a_set = stable_a_set(np.random.default_rng(5), 2)
    with pytest.raises(ValueError):
        project_cell_params(proj, np.array([np.inf]), a_set)


FIELDS = ("Abar1", "Abar2", "Abar3", "Abar4", "Bbar1", "Bbar2", "C1", "C2")


def _assert_grid_matches_cells(proj, x, a_set):
    grid = project_grid_params(proj, x, a_set)
    for v in range(x.shape[0]):
        for t in range(x.shape[1]):
            cell = project_cell_params(proj, x[v, t], a_set)
            for name in FIELDS:
                ref = getattr(cell, name)
                err = np.max(np.abs(getattr(grid, name)[v, t] - ref))
                assert err <= 1e-12 * np.max(np.abs(ref)), f"{name} at ({v}, {t}): {err:.3e}"


@pytest.mark.parametrize("n", [1, 3, 4])
def test_grid_matches_cells(n):
    rng = np.random.default_rng(6)
    d = 3
    proj = SelectiveProjections.init_random(n, d, seed=n)
    _assert_grid_matches_cells(proj, rng.standard_normal((3, 5, d)), stable_a_set(rng, n))


def test_grid_matches_cells_at_the_step_floor():
    from chimera2d.discretize import DT_FLOOR

    rng = np.random.default_rng(7)
    n, d = 2, 2
    # preactivations between -80 and 0: softplus underflows past the
    # floor on part of the grid and stays above it elsewhere
    proj = replace(
        SelectiveProjections.init_random(n, d, seed=7),
        w_d1=np.array([40.0, 0.0]), dt1_raw=-40.0, w_d2=np.array([0.0, 40.0]), dt2_raw=-40.0,
    )
    x = rng.uniform(-1.0, 1.0, (4, 6, d))
    steps = softplus(x @ proj.w_d1 + proj.dt1_raw)
    assert np.any(steps < DT_FLOOR) and np.any(steps > DT_FLOOR)
    _assert_grid_matches_cells(proj, x, stable_a_set(rng, n))


def test_grid_matches_cells_on_large_inputs():
    rng = np.random.default_rng(8)
    n, d = 3, 4
    proj = SelectiveProjections.init_random(n, d, seed=8)
    _assert_grid_matches_cells(proj, 1e3 * rng.standard_normal((3, 4, d)), stable_a_set(rng, n))


def test_grid_rejects_nonfinite_input_cell():
    rng = np.random.default_rng(9)
    proj = SelectiveProjections.init_random(2, 2, seed=9)
    x = rng.standard_normal((3, 4, 2))
    x[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        project_grid_params(proj, x, stable_a_set(rng, 2))


def test_grid_rejects_step_that_overflows_transition():
    rng = np.random.default_rng(10)
    n, d = 2, 2
    a_set = (companion_from_coeffs([-4.0, -4.0]),) + stable_a_set(rng, n)[1:]
    # softplus(1e308) = 1e308, and 1e308 * -4 overflows
    proj = replace(SelectiveProjections.zeros(n, d), dt1_raw=1e308)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite entries"):
        project_grid_params(proj, rng.standard_normal((2, 3, d)), a_set)
