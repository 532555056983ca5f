"""Forecast accuracy metrics (MSE, MAE, SMAPE, MASE, OWA).

SMAPE and MASE follow the M4-competition definitions; OWA averages the
two relative to a seasonal-naive reference forecast computed from the
in-sample series by the harness itself.

A 1-D array is one series. In a multi-dimensional array axis 1 is time
and every other index names one series, so a (V, T, d) grid holds V*d
series; each is scored on its own and the scores are averaged over
series, as in M4.
"""

from __future__ import annotations

import numpy as np

from .recurrence import check_integer


def _series(a) -> np.ndarray:
    """`a` with time on axis 1; a 1-D array becomes one series, (1, T)."""
    a = np.asarray(a, dtype=float)
    return a[None] if a.ndim == 1 else a


def smape(pred: np.ndarray, truth: np.ndarray) -> float:
    """(200/n) * sum |p - t| / (|p| + |t|) per series, averaged over
    series; cells where both values are zero contribute 0."""
    pred, truth = _series(pred), _series(truth)
    denom = np.abs(pred) + np.abs(truth)
    terms = np.where(denom == 0.0, 0.0, np.abs(pred - truth) / np.where(denom == 0.0, 1.0, denom))
    return float(200.0 * terms.mean(axis=1).mean())


def _naive_scale(insample: np.ndarray, season: int) -> np.ndarray:
    """Per-series mean absolute error of the in-sample seasonal-naive
    forecast: the MASE denominator."""
    check_integer("season", season, 1)
    insample = _series(insample)
    if insample.shape[1] <= season:
        raise ValueError("in-sample series too short for the seasonal naive scale")
    scale = np.abs(insample[:, season:] - insample[:, :-season]).mean(axis=1)
    if (scale == 0.0).any():
        raise ValueError("MASE undefined: in-sample naive error is zero")
    return scale


def _scaled_error(pred: np.ndarray, truth: np.ndarray, scale: np.ndarray) -> float:
    pred, truth = _series(pred), _series(truth)
    if scale.shape != pred.shape[:1] + pred.shape[2:]:
        raise ValueError(f"in-sample series {scale.shape} do not match the forecast's {pred.shape[:1] + pred.shape[2:]}")
    return float((np.abs(pred - truth).mean(axis=1) / scale).mean())


def mase(pred: np.ndarray, truth: np.ndarray, insample: np.ndarray, season: int = 1) -> float:
    """Mean absolute error scaled by the in-sample seasonal-naive error
    of the same series, averaged over series."""
    return _scaled_error(pred, truth, _naive_scale(insample, season))


def seasonal_naive_forecast(insample: np.ndarray, horizon: int, season: int = 1) -> np.ndarray:
    """Repeat each series' last observed seasonal cycle over the horizon."""
    insample = np.asarray(insample, dtype=float)
    axis = 0 if insample.ndim == 1 else 1
    check_integer("season", season, 1)
    check_integer("horizon", horizon, 0)
    if insample.shape[axis] < season:
        raise ValueError(f"in-sample series of length {insample.shape[axis]} is shorter than one season of {season}")
    tail = np.take(insample, np.arange(-season, 0), axis=axis)
    return np.take(tail, np.arange(horizon) % season, axis=axis)


def compute_metrics(
    pred,
    truth,
    insample,
    season: int = 1,
) -> dict[str, float]:
    """All metrics for one forecast; the naive reference used inside OWA
    is the seasonal-naive forecast built from `insample`."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"pred shape {pred.shape} != truth shape {truth.shape}")
    err = pred - truth
    scale = _naive_scale(insample, season)
    out = {
        "MSE": float(np.mean(err**2)),
        "MAE": float(np.mean(np.abs(err))),
        "SMAPE": smape(pred, truth),
        "MASE": _scaled_error(pred, truth, scale),
    }
    naive = seasonal_naive_forecast(insample, _series(pred).shape[1], season)
    naive_smape = smape(naive, truth)
    naive_mase = _scaled_error(naive, truth, scale)
    if naive_smape == 0.0 or naive_mase == 0.0:
        out["OWA"] = 0.0 if (out["SMAPE"] == 0.0 and out["MASE"] == 0.0) else float("inf")
    else:
        out["OWA"] = float(0.5 * (out["SMAPE"] / naive_smape + out["MASE"] / naive_mase))
    return out
