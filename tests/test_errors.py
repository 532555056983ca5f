"""Every library entry point rejects a bad argument by name: one case per
error path, each asserting the message."""

import numpy as np
import pytest

from chimera2d import (
    ChimeraModel, ContinuousSSM2D, DiscreteSSM2D, ModelConfig, ScanElement, bidirectional_forward, closed_loop_decode,
    companion_from_coeffs, compute_metrics, conv_apply, diagonal_matrix, expm, fit, impulse_kernels,
    materialize_matrices, op_star, sar_predict, sar_to_ssm, scan_forward, simulate_sar, zoh_pair,
)
from chimera2d.invariants import _random_dp
from chimera2d.model import stacked_fd_gradient
from chimera2d.selective import SelectiveProjections, inv_softplus, project_cell_params, project_grid_params

RNG = np.random.default_rng(40)
DP2, DP3 = _random_dp(RNG, 2), _random_dp(RNG, 3)
X = RNG.standard_normal((2, 6, 1))
MODEL = ChimeraModel.init_random(ModelConfig(layers=0, state_dim=2, channels=1, seed=40))
EYE, ZERO = np.eye(2), np.zeros((2, 1))
# DP2's scalar impulse kernel over X's (2, 6) grid
KERNEL = impulse_kernels(DP2, 2, 6)
# a stack of two per-cell sets on X's (2, 6) grid
CELLS2 = DiscreteSSM2D(**{k: np.broadcast_to(a, (2, 2, 6) + a.shape) for k, a in vars(DP2).items()})
# a stack of two blocks' projections, N = 2 and d = 3
PROJ2 = SelectiveProjections(**{k: np.stack((v, v)) for k, v in vars(SelectiveProjections.zeros(2, 3)).items()})


def _cont(**changed):
    a = np.array([-0.1, -0.2])
    kw = dict(A1=a, A2=a, A3=a, A4=a, B1=a, B2=a, C1=a, C2=a, dt1=0.1, dt2=0.1)
    return ContinuousSSM2D(**{**kw, **changed})


def _overflowing_forward():
    # one block whose exponential leaves the float range
    m = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=1, seed=40))
    m.params["layer0.seasonal.b.a1"][...] = 5.0
    m.params["layer0.seasonal.b.dt1_raw"] = np.array(800.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return m.forward(X)


def _scores(insample, season=1):
    return compute_metrics(np.ones((1, 2)), np.ones((1, 2)), insample, season=season)


CASES = {
    "fit_steps_fraction": (lambda: fit(MODEL, (X, X), steps=1.5, lr=1e-3), "steps must be an integer, got 1.5"),
    "fit_steps_bool": (lambda: fit(MODEL, (X, X), steps=True, lr=1e-3), "steps must be an integer, got True"),
    "fit_steps_negative": (lambda: fit(MODEL, (X, X), steps=-1, lr=1e-3), "steps must be >= 0, got -1"),
    "fit_tol_nan": (lambda: fit(MODEL, (X, X), steps=1, lr=1e-3, tol=float("nan")),
                    "tol must be a nonnegative number, got nan"),
    "fit_tol_negative": (lambda: fit(MODEL, (X, X), steps=1, lr=1e-3, tol=-1.0),
                         "tol must be a nonnegative number, got -1.0"),
    "fit_tol_bool": (lambda: fit(MODEL, (X, X), steps=1, lr=1e-3, tol=True),
                     "tol must be a nonnegative number, got True"),
    "fit_tol_string": (lambda: fit(MODEL, (X, X), steps=1, lr=1e-3, tol="a"),
                       "tol must be a nonnegative number, got 'a'"),
    "stacked_fd_gradient_shapes": (lambda: stacked_fd_gradient(MODEL, np.zeros((2, 5, 1)), np.zeros((2, 4, 1))),
                                   r"inputs x \(2, 5, 1\) and targets y \(2, 4, 1\) must have the same shape"),
    "forward_block_overflow": (_overflowing_forward, r"block layer0\.seasonal\.b: exp\(t M\) overflows the float range"),
    "decode_horizon_fraction": (lambda: MODEL.decode(X, 2.5), "horizon must be an integer, got 2.5"),
    "decode_horizon_bool": (lambda: MODEL.decode(X, True), "horizon must be an integer, got True"),
    "decode_horizon_negative": (lambda: MODEL.decode(X, -1), "horizon must be >= 0, got -1"),
    "decode_d1_length": (lambda: closed_loop_decode(DP2, np.ones(3), np.ones(2), X, 2),
                         r"d1 must have length N=2, got shape \(3,\)"),
    "decode_d2_length": (lambda: closed_loop_decode(DP2, np.ones(2), np.ones((2, 2)), X, 2),
                         r"d2 must have length N=2, got shape \(2, 2\)"),
    "decode_d1_nan": (lambda: closed_loop_decode(DP2, np.array([1.0, np.nan]), np.ones(2), X, 2),
                      "d1 contains non-finite values"),
    "decode_d2_nan": (lambda: closed_loop_decode(DP2, np.ones(2), np.array([np.nan, 1.0]), X, 2),
                      "d2 contains non-finite values"),
    "sar_stride_fraction": (lambda: simulate_sar([0.5], [], 1.5, [0.0], 0.0, 4), "s must be an integer, got 1.5"),
    "sar_stride_bool": (lambda: simulate_sar([0.5], [], True, [0.0], 0.0, 4), "s must be an integer, got True"),
    "sar_stride_zero": (lambda: simulate_sar([0.5], [], 0, [0.0], 0.0, 4), "s must be >= 1, got 0"),
    "sar_length_fraction": (lambda: simulate_sar([0.5], [], 1, [0.0], 0.0, 2.5), "t_count must be an integer, got 2.5"),
    "sar_length_zero": (lambda: simulate_sar([0.5], [], 1, [0.0], 0.0, 0), "t_count must be >= 1, got 0"),
    "sar_noise_nan": (lambda: simulate_sar([0.5], [], 1, [0.0], float("nan"), 4),
                      "noise_std must be nonnegative and finite, got nan"),
    "sar_noise_negative": (lambda: simulate_sar([0.5], [], 1, [0.0], -1.0, 4),
                           "noise_std must be nonnegative and finite, got -1.0"),
    "sar_coefficient_nan": (lambda: simulate_sar([np.nan], [], 1, [0.0], 0.0, 4), "phi contains non-finite values"),
    "sar_init_inf": (lambda: simulate_sar([0.5], [], 1, [np.inf], 0.0, 4), "init contains non-finite values"),
    "sar_to_ssm_stride": (lambda: sar_to_ssm([0.5], [], 0), "s must be >= 1, got 0"),
    "sar_to_ssm_coefficient_nan": (lambda: sar_to_ssm([np.nan], [], 1), "phi contains non-finite values"),
    "sar_predict_grid": (lambda: sar_predict(sar_to_ssm([0.5], [], 1), np.ones((2, 5))),
                         r"sar_predict takes one nonempty univariate series, got shape \(2, 5\)"),
    "sar_predict_empty": (lambda: sar_predict(sar_to_ssm([0.5], [], 1), []),
                          r"sar_predict takes one nonempty univariate series, got shape \(0,\)"),
    "metrics_season_fraction": (lambda: _scores(np.arange(6.0)[None], season=1.5), "season must be an integer, got 1.5"),
    "metrics_short_insample": (lambda: _scores(np.arange(2.0)[None], season=2),
                               "in-sample series too short for the seasonal naive scale"),
    "cont_b_length": (lambda: _cont(B2=np.zeros(3)),
                      r"B2 has shape \(3,\): B and C vectors must have length N, N from A1 \(2,\)"),
    "cont_dt2_shape": (lambda: _cont(dt1=np.full((2, 3), 0.1), dt2=np.full((3, 2), 0.1)),
                       r"step sizes dt2 have shape \(3, 2\), but dt1 \(2, 3\): every field takes one batch shape"),
    "cont_b_batch": (lambda: _cont(dt1=np.full((2, 3), 0.1), dt2=np.full((2, 3), 0.1), B1=np.zeros((4, 2))),
                     r"B1 has shape \(4, 2\): its batch shape does not broadcast to the steps' shape \(2, 3\)"),
    "cont_c_nan": (lambda: _cont(C1=np.array([np.nan, 1.0])), "C1 contains non-finite values"),
    "cont_a_nan": (lambda: _cont(A3=np.array([np.nan, -0.2])), "A3 contains non-finite values"),
    "cont_a_dense_inf": (lambda: _cont(A1=np.array([[-0.1, 0.0], [np.inf, -0.2]])), "A1 contains non-finite values"),
    "zoh_non_finite_b": (lambda: zoh_pair(np.array([-0.1]), np.array([np.nan]), 0.1), "non-finite input matrix"),
    "companion_empty": (lambda: companion_from_coeffs([]), "companion coefficients must be nonempty vectors"),
    "diagonal_scalar": (lambda: diagonal_matrix(1.0), "diagonal must be a nonempty vector"),
    "expm_stack_lead": (lambda: expm(np.zeros((2, 2, 2)), np.ones(3), stacked=True),
                        r"generators of shape \(2, 2, 2\) do not lead with the step sizes' shape \(3,\)"),
    "expm_non_square": (lambda: expm(np.ones((2, 3))), r"generators of shape \(2, 3\) are not square"),
    "zoh_non_square": (lambda: zoh_pair(np.ones((2, 3)), np.ones(3), 0.1),
                       r"A has shape \(2, 3\): a dense transition must be square"),
    "expm_non_finite_diagonal": (lambda: expm(np.array([np.inf, -1.0])), "non-finite entries"),
    "scan_stack_lead": (lambda: scan_forward(CELLS2, np.ones((3, 2, 6, 1))),
                        r"per-cell parameters of batch shape \(2, 2, 6\) does not match x of shape \(3, 2, 6, 1\)"),
    "scan_element_square": (lambda: ScanElement(EYE, np.eye(3), ZERO, EYE, EYE, ZERO), "p2 must be 2x2"),
    "scan_element_input": (lambda: ScanElement(EYE, EYE, ZERO, EYE, EYE, np.zeros((3, 1))), "p6 must be 2x1"),
    "op_star_mismatch": (lambda: op_star(ScanElement.identity(2), ScanElement.identity(3)),
                         "shape mismatch between scan elements"),
    "impulse_extent": (lambda: impulse_kernels(DP2, 0, 3), "v_count must be >= 1, got 0"),
    "impulse_extent_fraction": (lambda: impulse_kernels(DP2, 2.5, 3), "v_count must be an integer, got 2.5"),
    "impulse_extent_bool": (lambda: impulse_kernels(DP2, True, 3), "v_count must be an integer, got True"),
    "impulse_time_extent": (lambda: impulse_kernels(DP2, 2, 0), "t_count must be >= 1, got 0"),
    "materialize_extent": (lambda: materialize_matrices(DP2, DP2, 0, 3), "v_count must be >= 1, got 0"),
    "materialize_extent_fraction": (lambda: materialize_matrices(DP2, DP2, 2.5, 3),
                                    "v_count must be an integer, got 2.5"),
    "materialize_extent_bool": (lambda: materialize_matrices(DP2, DP2, True, 3), "v_count must be an integer, got True"),
    "materialize_time_extent": (lambda: materialize_matrices(DP2, DP2, 2, 1.5), "t_count must be an integer, got 1.5"),
    "project_channels": (lambda: project_grid_params(SelectiveProjections.zeros(2, 1), np.ones((2, 6, 3)), (EYE,) * 4),
                         "x has 3 channels, but the projections take d=1"),
    "project_stack_lead": (lambda: project_cell_params(PROJ2, np.ones((3, 4, 5, 3)), (np.stack((EYE, EYE)),) * 4),
                           r"a stack of 2 projections takes x of shape \(2, \.\.\., d\) with a cell axis, "
                           r"got \(3, 4, 5, 3\)"),
    # a (V, T, N) per-state response, as the kernels once were
    "conv_kernel_rank": (lambda: conv_apply(np.ones((2, 6, 2)), X),
                         r"kernel must have shape \(V, T\), got shape \(2, 6, 2\)"),
    "conv_kernel_extent": (lambda: conv_apply(KERNEL[:, :5], X), "kernel extents must cover the input extents"),
    "conv_kernel_nan": (lambda: conv_apply(np.full((2, 6), np.nan), X), "kernel contains non-finite values"),
    "bidirectional_n": (lambda: bidirectional_forward(DP2, DP3, X), "forward and backward modules must share N"),
    "inv_softplus_zero": (lambda: inv_softplus(0.0), "softplus output must be positive"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_bad_argument_is_named(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=message):
        call()
