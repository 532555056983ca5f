"""2D state space models for multivariate time series.

The package implements a coupled two-axis (time x variate) linear state
space model with zero-order-hold discretization, an associative-operator
parallel scan, a convolution form, input-dependent parameters, and a
trend/seasonal layer stack with a closed-loop forecasting decoder.
Transitions are plain float arrays, (N, N) or the (N,) entries of a
diagonal one, and a discrete parameter set is either constant (one set
for every cell) or per-cell.
"""

from .structured import (
    companion_from_coeffs,
    diagonal_matrix,
    dense_matrix,
    expm,
)
from .discretize import ContinuousSSM2D, DiscreteSSM2D, zoh_pair, discretize_all
from .recurrence import forward_recurrence, bidirectional_forward, transition_probe
from .scan import ScanElement, op_star, scan_forward, closed_loop_decode
from .conv import impulse_kernels, conv_apply
from .selective import SelectiveProjections, project_cell_params, project_grid_params
from .variants import mamba2d_forward, materialize_matrices
from .ar import simulate_sar, sar_to_ssm, sar_predict
from .model import ChimeraModel, ModelConfig, fd_gradient, fit
from .metrics import compute_metrics

__all__ = [
    "companion_from_coeffs",
    "diagonal_matrix",
    "dense_matrix",
    "expm",
    "ContinuousSSM2D",
    "DiscreteSSM2D",
    "zoh_pair",
    "discretize_all",
    "forward_recurrence",
    "bidirectional_forward",
    "transition_probe",
    "closed_loop_decode",
    "ScanElement",
    "op_star",
    "scan_forward",
    "impulse_kernels",
    "conv_apply",
    "SelectiveProjections",
    "project_cell_params",
    "project_grid_params",
    "mamba2d_forward",
    "materialize_matrices",
    "simulate_sar",
    "sar_to_ssm",
    "sar_predict",
    "ChimeraModel",
    "ModelConfig",
    "fd_gradient",
    "fit",
    "compute_metrics",
]
