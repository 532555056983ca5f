"""Tests for the (seasonal) autoregressive oracle and its state-space
realization."""

import numpy as np
import pytest

from chimera2d import forward_recurrence, simulate_sar, sar_to_ssm, sar_predict


def test_ar1_geometric_decay():
    series = simulate_sar([0.5], [], 1, [1.0], noise_std=0.0, t_count=10, seed=0)
    assert np.allclose(series, 0.5 ** np.arange(1, 11), atol=1e-14)


def test_pure_seasonal_copy():
    a, b = 1.3, -0.4
    series = simulate_sar([], [1.0], 2, [a, b], noise_std=0.0, t_count=8, seed=0)
    assert np.allclose(series, [a, b] * 4, atol=1e-14)


def test_ar2_first_values():
    series = simulate_sar([0.5, 0.3], [], 1, [1.0, 1.0], noise_std=0.0, t_count=3, seed=0)
    assert np.allclose(series, [0.8, 0.7, 0.59], atol=1e-12)


def test_short_history_rejected():
    with pytest.raises(ValueError):
        simulate_sar([0.5, 0.3], [], 1, [1.0], noise_std=0.0, t_count=5)


def test_empty_coefficients_rejected():
    with pytest.raises(ValueError):
        sar_to_ssm([], [], 1)


def test_ar1_realization_matches_oracle():
    phi = [0.5]
    series = simulate_sar(phi, [], 1, [1.0], noise_std=0.0, t_count=20, seed=0)
    full = np.concatenate([[1.0], series])
    pred = sar_predict(sar_to_ssm(phi, [], 1), full)
    # out[t] forecasts full[t+1]
    assert np.max(np.abs(pred[:-1] - full[1:])) < 1e-10


def test_pure_seasonal_realization():
    eta, s = [0.9], 3
    init = np.array([1.0, -0.5, 0.25])
    series = simulate_sar([], eta, s, init, noise_std=0.0, t_count=30, seed=0)
    full = np.concatenate([init, series])
    pred = sar_predict(sar_to_ssm([], eta, s), full)
    assert np.max(np.abs(pred[s - 1 : -1] - full[s:])) < 1e-10


def test_combined_heads_realization():
    phi, eta, s = [0.5, 0.3], [0.2], 2
    init = np.array([0.7, -0.3])
    series = simulate_sar(phi, eta, s, init, noise_std=0.0, t_count=50, seed=0)
    full = np.concatenate([init, series])
    pred = sar_predict(sar_to_ssm(phi, eta, s), full)
    assert np.max(np.abs(pred[1:-1] - full[2:])) < 1e-8


def test_trend_head_shapes():
    real = sar_to_ssm([0.5, 0.3, 0.1], [], 1)
    assert real.trend is not None and real.seasonal is None
    assert real.trend.Abar1.shape == (3, 3)
    # the state is a pure shift buffer; the coefficients live in the readout
    assert np.allclose(real.trend.C1, [0.1, 0.3, 0.5][::-1]) or np.allclose(
        sorted(real.trend.C1), sorted([0.5, 0.3, 0.1])
    )


def test_prediction_on_noisy_series_is_conditional_mean():
    # with noise, the realization should still reproduce the deterministic
    # part: prediction error equals the innovation
    phi = [0.6]
    rng_series = simulate_sar(phi, [], 1, [1.0], noise_std=0.3, t_count=100, seed=11)
    full = np.concatenate([[1.0], rng_series])
    pred = sar_predict(sar_to_ssm(phi, [], 1), full)
    innovations = full[1:] - pred[:-1]
    # innovations should be the noise draws: uncorrelated with the past values
    corr = np.corrcoef(innovations[1:], full[1:-1])[0, 1]
    assert abs(corr) < 0.3


def _per_phase_predict(real, series):
    """sar_predict as one 1D pass per head and seasonal phase: the seasonal
    head's prediction at subsample m of phase p targets series[p + (m + 1)s]."""
    head_outputs = lambda dp, sub: forward_recurrence(dp, sub[None, :, None])[0][0, :, 0]
    out = np.zeros(series.size)
    if real.trend is not None:
        out += head_outputs(real.trend, series)
    if real.seasonal is not None:
        for phase in range(real.s):
            idx = np.arange(phase, series.size, real.s)
            if idx.size:
                targets = idx + real.s - 1
                keep = targets < series.size
                out[targets[keep]] += head_outputs(real.seasonal, series[idx])[keep]
    return out


# every series length 1, s - 1, s, s + 1 and 3s + 2 that is positive
@pytest.mark.parametrize("heads", ["trend", "seasonal", "both"])
@pytest.mark.parametrize("s, t_count", [(s, t) for s in (1, 2, 5) for t in sorted({1, s - 1, s, s + 1, 3 * s + 2} - {0})])
def test_folded_heads_equal_the_per_phase_passes_bit_for_bit(heads, s, t_count):
    rng = np.random.default_rng(100 * s + t_count)
    phi = rng.uniform(-0.5, 0.5, 2) if heads != "seasonal" else []
    eta = rng.uniform(-0.5, 0.5, 2) if heads != "trend" else []
    real = sar_to_ssm(phi, eta, s)
    series = rng.standard_normal(t_count)
    assert sar_predict(real, series).tobytes() == _per_phase_predict(real, series).tobytes()
