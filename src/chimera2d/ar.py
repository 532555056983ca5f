"""Seasonal autoregressive simulators and their state-space realization.

simulate_sar generates x_k = sum_i phi_i x_{k-i} + sum_j eta_j x_{k-js}
(+ Gaussian noise). sar_to_ssm builds discrete SSM heads that reproduce
the recursion as one-step-ahead predictors: each head keeps a sliding
buffer of the needed lags via a shift-structured transition (a companion
matrix with zero coefficient column), injects the input at the first
state, and reads the prediction out with the AR coefficients. The
seasonal head advances with stride s (the operational meaning of a step
size s times the trend head's): `sar_predict` runs each head once on the
series folded into its stride's phases, one variate per phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteSSM2D
from .recurrence import check_integer, check_real, finite_array, forward_recurrence


def simulate_sar(
    phi,
    eta,
    s: int,
    init,
    noise_std: float,
    t_count: int,
    seed: int = 0,
) -> np.ndarray:
    """Simulate SAR(p, q, s); `init` supplies the presample history and
    the returned series continues it for t_count further steps."""
    phi, eta, init = finite_array("phi", phi), finite_array("eta", eta), finite_array("init", init)
    check_real("noise_std", noise_std, "nonnegative")
    p, q = phi.size, eta.size
    check_integer("s", s, 1)
    check_integer("t_count", t_count, 1)
    need = max(p, q * s)
    if init.size < need:
        raise ValueError(f"init history must supply at least {need} values")
    rng = np.random.default_rng(seed)
    x = np.concatenate([init, np.zeros(t_count)])
    for k in range(init.size, init.size + t_count):
        val = 0.0
        for i in range(1, p + 1):
            val += phi[i - 1] * x[k - i]
        for j in range(1, q + 1):
            val += eta[j - 1] * x[k - j * s]
        if noise_std > 0:
            val += rng.normal(0.0, noise_std)
        x[k] = val
    return x[init.size :]


def _shift_head(coeffs: np.ndarray) -> DiscreteSSM2D:
    """1D predictor head: shift-buffer state, input injected at the top,
    coefficients as the readout. Feeding the series x gives output
    y_t = sum_i c_i x_{t-i+1}, the AR one-step prediction."""
    n = coeffs.size
    shift = np.zeros((n, n))
    shift[1:, :-1] = np.eye(n - 1)
    zero = np.zeros((n, n))
    e1 = np.zeros(n)
    e1[0] = 1.0
    return DiscreteSSM2D(
        Abar1=shift, Abar2=zero, Abar3=zero.copy(), Abar4=zero.copy(),
        Bbar1=e1, Bbar2=np.zeros(n),
        C1=np.asarray(coeffs, dtype=float), C2=np.zeros(n),
    )


@dataclass(frozen=True)
class SARRealization:
    """Trend head plus seasonal head (stride s) realizing a SAR process."""

    trend: DiscreteSSM2D | None
    seasonal: DiscreteSSM2D | None
    s: int


def sar_to_ssm(phi, eta, s: int) -> SARRealization:
    """State-space realization whose one-step predictions reproduce the
    SAR recursion exactly on noise-free data."""
    phi, eta = finite_array("phi", phi), finite_array("eta", eta)
    if phi.size + eta.size == 0:
        raise ValueError("at least one coefficient set must be nonempty")
    check_integer("s", s, 1)
    trend = _shift_head(phi) if phi.size else None
    seasonal = _shift_head(eta) if eta.size else None
    return SARRealization(trend=trend, seasonal=seasonal, s=s)


def sar_predict(real: SARRealization, series) -> np.ndarray:
    """One-step-ahead predictions: out[t] forecasts series[t + 1].

    Each head runs once on the series folded by its stride k (1 for the
    trend head, s for the seasonal one): sample i = m k + p is cell
    (p, m) of a (k, ceil(T/k)) grid. The heads' cross terms are zero, so
    the phases do not couple, and each is causal, so the zeros padding
    the last column change no sample. Sample i's prediction targets
    series[i + k].
    """
    series = finite_array("series", series)
    if series.ndim != 1 or series.size == 0:
        raise ValueError(f"sar_predict takes one nonempty univariate series, got shape {series.shape}")
    out = np.zeros(series.size)
    for head, k in ((real.trend, 1), (real.seasonal, real.s)):
        if head is not None:
            folded = np.zeros(-(-series.size // k) * k)
            folded[: series.size] = series
            pred = forward_recurrence(head, folded.reshape(-1, k).T[..., None])[0][..., 0].T.ravel()
            tail = out[k - 1 :]
            tail += pred[: tail.size]
    return out
