"""Tests for the convolution form of the 2D SSM."""

import numpy as np
import pytest

from chimera2d import impulse_kernels, conv_apply
from chimera2d.invariants import _assert_conv_matches_recurrence, _random_dp

from test_recurrence import per_cell


def test_origin_response_is_local_term():
    rng = np.random.default_rng(0)
    dp = _random_dp(rng, 3)
    k = impulse_kernels(dp, 4, 5)
    assert k.shape == (4, 5)
    assert abs(k[0, 0] - (dp.C1 @ dp.Bbar1 + dp.C2 @ dp.Bbar2)) < 1e-13


def test_decoupled_kernels_factorize():
    rng = np.random.default_rng(1)
    n = 2
    dp = _random_dp(rng, n, coupled=False)
    k = impulse_kernels(dp, 4, 6)
    # the time chain alone along variate 0 (h2 stays zero there) ...
    for t in range(1, 6):
        assert abs(k[0, t] - dp.C1 @ np.linalg.matrix_power(dp.Abar1, t) @ dp.Bbar1) < 1e-12
    # ... the variate chain alone along time 0 (h1 stays zero there) ...
    for v in range(1, 4):
        assert abs(k[v, 0] - dp.C2 @ np.linalg.matrix_power(dp.Abar4, v) @ dp.Bbar2) < 1e-12
    # ... and nothing off both axes
    assert np.max(np.abs(k[1:, 1:])) == 0.0


def test_impulse_input_recovers_kernel():
    rng = np.random.default_rng(2)
    dp = _random_dp(rng, 2)
    v_count, t_count = 3, 4
    k = impulse_kernels(dp, v_count, t_count)
    x = np.zeros((v_count, t_count, 1))
    x[0, 0, 0] = 1.0
    assert np.max(np.abs(conv_apply(k, x)[..., 0] - k)) < 1e-12


@pytest.mark.parametrize("grid", [(3, 4), (1, 8), (8, 1), (8, 8)])
def test_conv_matches_recurrence(grid):
    rng = np.random.default_rng(sum(grid))
    dp = _random_dp(rng, 3)
    _assert_conv_matches_recurrence(dp, rng.standard_normal(grid + (2,)))


def test_conv_linearity():
    rng = np.random.default_rng(3)
    dp = _random_dp(rng, 2)
    k = impulse_kernels(dp, 3, 5)
    xa, xb = rng.standard_normal((2, 3, 5, 1))
    ya, yb = conv_apply(k, xa), conv_apply(k, xb)
    y = conv_apply(k, 3.0 * xa - xb)
    assert np.max(np.abs(y - (3.0 * ya - yb))) < 1e-11


def test_kernel_extent_mismatch_rejected():
    rng = np.random.default_rng(5)
    dp = _random_dp(rng, 2)
    k = impulse_kernels(dp, 2, 3)
    with pytest.raises(ValueError, match="kernel extents must cover the input extents"):
        conv_apply(k, rng.standard_normal((4, 4, 1)))


def test_kernels_need_constant_parameters():
    rng = np.random.default_rng(6)
    dp = per_cell(_random_dp(rng, 2), 2, 3)
    with pytest.raises(ValueError, match="impulse_kernels needs constant parameters"):
        impulse_kernels(dp, 2, 3)
