"""Tests for the forecast accuracy metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chimera2d import compute_metrics
from chimera2d.metrics import smape, mase, seasonal_naive_forecast


INSAMPLE = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 6.0])


def test_perfect_forecast_is_all_zero():
    truth = np.array([1.0, 2.0, 3.0])
    out = compute_metrics(truth, truth, INSAMPLE)
    for name in ("MSE", "MAE", "SMAPE", "MASE"):
        assert out[name] == 0.0


def test_worked_example():
    pred = np.array([1.0, 1.0])
    truth = np.array([0.0, 2.0])
    out = compute_metrics(pred, truth, INSAMPLE)
    assert out["MSE"] == 1.0
    assert out["MAE"] == 1.0
    assert abs(out["SMAPE"] - (200.0 / 2.0) * (1.0 + 1.0 / 3.0)) < 1e-12


def test_smape_symmetry():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 20))
    assert abs(smape(a, b) - smape(b, a)) < 1e-12


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_smape_symmetry_property(values):
    a = np.asarray(values)
    b = a[::-1].copy()
    assert abs(smape(a, b) - smape(b, a)) < 1e-9


def test_smape_both_zero_contributes_nothing():
    assert smape(np.zeros(4), np.zeros(4)) == 0.0


def test_mase_scaling():
    insample = np.array([0.0, 1.0, 0.0, 1.0])  # naive abs diff = 1 everywhere
    pred = np.array([2.0, 2.0])
    truth = np.array([0.0, 0.0])
    assert abs(mase(pred, truth, insample) - 2.0) < 1e-12


def test_mase_nonpositive_season_rejected():
    for season in (0, -1):
        with pytest.raises(ValueError, match="season must be >= 1"):
            mase(np.array([1.0]), np.array([0.0]), INSAMPLE, season=season)


def test_mase_zero_insample_error_raises():
    with pytest.raises(ValueError):
        mase(np.array([1.0]), np.array([0.0]), np.ones(5))


def test_seasonal_naive_forecast_repeats_last_period():
    insample = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    out = seasonal_naive_forecast(insample, horizon=4, season=3)
    assert np.array_equal(out, [4.0, 5.0, 6.0, 4.0])


@pytest.mark.parametrize("insample, season, match", [
    (np.arange(5.0), 0, "season must be >= 1, got 0"),
    (np.arange(5.0), -2, "season must be >= 1, got -2"),
    (np.arange(5.0), 7, "length 5 is shorter than one season of 7"),
    (np.ones((2, 5, 3)), 6, "length 5 is shorter than one season of 6"),
    (np.arange(5.0), 1.5, "season must be an integer, got 1.5"),
])
def test_seasonal_naive_forecast_rejects_a_bad_season(insample, season, match):
    with pytest.raises(ValueError, match=match):
        seasonal_naive_forecast(insample, 3, season)


@pytest.mark.parametrize("horizon, match", [
    (-1, "horizon must be >= 0, got -1"),
    (2.5, "horizon must be an integer, got 2.5"),
])
def test_seasonal_naive_forecast_rejects_a_bad_horizon(horizon, match):
    with pytest.raises(ValueError, match=match):
        seasonal_naive_forecast(np.arange(5.0), horizon, 2)


def test_owa_is_one_for_naive_forecast():
    # forecasting exactly the seasonal-naive values gives OWA = 1
    truth = np.array([2.0, 7.0, 1.0])
    naive = seasonal_naive_forecast(INSAMPLE, 3, 1)
    out = compute_metrics(naive, truth, INSAMPLE)
    assert abs(out["OWA"] - 1.0) < 1e-12


def test_owa_rewards_beating_naive():
    truth = np.array([5.0, 6.0, 7.0])
    good = truth + 0.01
    naive = seasonal_naive_forecast(INSAMPLE, 3, 1)
    out_good = compute_metrics(good, truth, INSAMPLE)
    out_naive = compute_metrics(naive, truth, INSAMPLE)
    assert out_good["OWA"] < out_naive["OWA"]


def test_owa_when_the_seasonal_naive_forecast_is_exact():
    # the last season of the in-sample series repeats as the truth, so
    # the naive forecast scores 0 and only a perfect forecast matches it
    insample, truth = np.array([[0.0, 1.0, 2.0, 3.0, 5.0, 1.0, 2.0, 3.0]]), np.array([[5.0, 1.0, 2.0, 3.0]])
    assert compute_metrics(truth, truth, insample, season=4)["OWA"] == 0.0
    assert compute_metrics(truth + 0.5, truth, insample, season=4)["OWA"] == float("inf")


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        compute_metrics(np.ones(3), np.ones(4), INSAMPLE)


def test_multivariate_grid_is_scored_per_series():
    # levels 0 and 10: each variate's seasonal-naive reference is its own
    # last value, so forecasting exactly that scores OWA 1
    rng = np.random.default_rng(5)
    levels = np.array([[0.0], [10.0]])
    insample = levels + rng.standard_normal((2, 12))
    truth = levels + rng.standard_normal((2, 4))
    last_value = np.repeat(insample[:, -1:], 4, axis=1)
    out = compute_metrics(last_value, truth, insample)
    assert abs(out["OWA"] - 1.0) < 1e-12
    # MASE scales each series by its own in-sample error, never across the
    # boundary between variates
    per_series = [mase(last_value[v], truth[v], insample[v]) for v in range(2)]
    assert abs(out["MASE"] - np.mean(per_series)) < 1e-12


def test_series_count_mismatch_rejected():
    with pytest.raises(ValueError, match="series"):
        compute_metrics(np.ones((2, 3)), np.ones((2, 3)), np.arange(12.0).reshape(3, 4))
