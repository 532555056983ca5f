"""Tests for the decoupled variant and its materialized matrix form."""

from dataclasses import replace

import numpy as np
import pytest

from chimera2d import mamba2d_forward, materialize_matrices, forward_recurrence, DiscreteSSM2D
from chimera2d.variants import matrix_form_apply, MAX_NAIVE_CELLS
from chimera2d import SelectiveProjections, project_grid_params
from chimera2d import companion_from_coeffs, diagonal_matrix
from chimera2d.invariants import _assert_matrix_matches_recurrence, _random_dp


def test_coupled_params_rejected():
    rng = np.random.default_rng(0)
    dp = _random_dp(rng, 2, coupled=True)
    with pytest.raises(ValueError):
        mamba2d_forward(dp, np.zeros((2, 2, 1)))


def test_zero_variate_readout_is_pure_time_ssm():
    rng = np.random.default_rng(2)
    n = 2
    base = _random_dp(rng, n, coupled=False)
    dp = DiscreteSSM2D(
        Abar1=base.Abar1, Abar2=base.Abar2, Abar3=base.Abar3, Abar4=base.Abar4,
        Bbar1=base.Bbar1, Bbar2=base.Bbar2, C1=base.C1, C2=np.zeros(n),
    )
    x = rng.standard_normal((4, 5, 1))
    y = mamba2d_forward(dp, x)
    expected = np.zeros_like(y)
    for v in range(4):
        h = np.zeros((n, 1))
        for t in range(5):
            h = dp.Abar1 @ h + np.outer(dp.Bbar1, x[v, t])
            expected[v, t] = dp.C1 @ h
    assert np.max(np.abs(y - expected)) < 1e-11


def test_single_timestep_time_matrix():
    rng = np.random.default_rng(3)
    dp_f = _random_dp(rng, 2, coupled=False)
    dp_b = _random_dp(rng, 2, coupled=False)
    m_time, _ = materialize_matrices(dp_f, dp_b, 2, 1)
    expected = dp_f.C1 @ dp_f.Bbar1 + dp_b.C1 @ dp_b.Bbar1
    assert np.allclose(m_time[:, 0, 0], expected, atol=1e-12)


def test_time_matrix_rows_are_1d_kernel():
    rng = np.random.default_rng(4)
    n = 2
    dp_f = _random_dp(rng, n, coupled=False)
    # silence the backward module so the forward kernel is isolated
    dp_b = DiscreteSSM2D(
        Abar1=dp_f.Abar1, Abar2=dp_f.Abar2, Abar3=dp_f.Abar3, Abar4=dp_f.Abar4,
        Bbar1=dp_f.Bbar1, Bbar2=dp_f.Bbar2, C1=np.zeros(n), C2=np.zeros(n),
    )
    t_count = 5
    m_time, _ = materialize_matrices(dp_f, dp_b, 2, t_count)
    for t in range(t_count):
        for th in range(t + 1):
            expected = dp_f.C1 @ np.linalg.matrix_power(dp_f.Abar1, t - th) @ dp_f.Bbar1
            assert abs(m_time[0, t, th] - expected) < 1e-11


# one variate, one step and one cell too
@pytest.mark.parametrize("grid", [(2, 2), (3, 4), (8, 8), (1, 6), (6, 1), (1, 1)])
def test_matrix_form_matches_bidirectional(grid):
    rng = np.random.default_rng(sum(grid))
    dp_f = _random_dp(rng, 2, coupled=False)
    dp_b = _random_dp(rng, 2, coupled=False)
    _assert_matrix_matches_recurrence(dp_f, dp_b, rng.standard_normal(grid + (1,)))


def test_matrix_form_matches_selective():
    rng = np.random.default_rng(6)
    n, d = 2, 1
    v_count, t_count = 3, 4
    a_set = (
        companion_from_coeffs(rng.uniform(-0.4, 0, n)),
        companion_from_coeffs(np.zeros(n)),
        diagonal_matrix(np.zeros(n)),
        diagonal_matrix(rng.uniform(-1, -0.1, n)),
    )
    x = rng.standard_normal((v_count, t_count, d))

    def decoupled_cells(seed):
        proj = SelectiveProjections.init_random(n, d, seed=seed)
        cells = project_grid_params(proj, x, a_set)
        # zero the cross blocks: the variant is defined without coupling
        return replace(cells, Abar2=np.zeros_like(cells.Abar2), Abar3=np.zeros_like(cells.Abar3))

    cells_f = decoupled_cells(61)
    cells_b = decoupled_cells(62)
    y_f, _ = forward_recurrence(cells_f, x)
    y_b = forward_recurrence(cells_b, x[::-1])[0][::-1]
    m_time, m_var = materialize_matrices(cells_f, cells_b, v_count, t_count)
    y_mat = matrix_form_apply(m_time, m_var, x)
    assert np.max(np.abs(y_mat - (y_f + y_b))) < 1e-9


def test_naive_size_bound():
    rng = np.random.default_rng(7)
    dp_f = _random_dp(rng, 2, coupled=False)
    dp_b = _random_dp(rng, 2, coupled=False)
    v_count = 9
    t_count = MAX_NAIVE_CELLS // v_count + 1
    with pytest.raises(ValueError):
        materialize_matrices(dp_f, dp_b, v_count, t_count)
