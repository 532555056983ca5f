"""Tests for the layered trend/seasonal model and its training helpers."""

import numpy as np
import pytest

from chimera2d import ChimeraModel, ModelConfig, fd_gradient, fit
from chimera2d.model import mse_loss


def tiny_model(seed=0, **kw):
    cfg = ModelConfig(layers=1, state_dim=2, channels=1, seed=seed, **kw)
    return ChimeraModel.init_random(cfg)


def test_zero_input_zero_output():
    m = tiny_model()
    y = m.forward(np.zeros((2, 6, 1)))
    assert np.max(np.abs(y)) == 0.0


def test_forward_deterministic():
    m = tiny_model()
    x = np.random.default_rng(0).standard_normal((2, 5, 1))
    assert np.array_equal(m.forward(x), m.forward(x))


def test_zero_layer_model_is_gated_readout():
    cfg = ModelConfig(layers=0, state_dim=2, channels=2, seed=1)
    m = ChimeraModel.init_random(cfg)
    x = np.random.default_rng(1).standard_normal((2, 4, 2))
    expected = m.gate(x) @ m.params["head.w"].T
    assert np.max(np.abs(m.forward(x) - expected)) < 1e-13


def test_two_layer_composition():
    cfg = ModelConfig(layers=2, state_dim=2, channels=2, seed=2)
    m = ChimeraModel.init_random(cfg)
    x = np.random.default_rng(2).standard_normal((2, 5, 2))
    t0, r0 = m.layer_forward(0, x)
    t1, r1 = m.layer_forward(1, r0)
    expected = (t0 + t1 + r1 + m.gate(x)) @ m.params["head.w"].T
    assert np.max(np.abs(m.forward(x) - expected)) < 1e-12


def test_gate_closed_is_zero():
    m = tiny_model(seed=3)
    m.params["gate.w_in"] = np.zeros_like(m.params["gate.w_in"])
    x = np.random.default_rng(3).standard_normal((1, 4, 1))
    assert np.max(np.abs(m.gate(x))) == 0.0


def test_gate_scalar_value():
    cfg = ModelConfig(layers=0, state_dim=2, channels=1)
    m = ChimeraModel.init_random(cfg)
    for name in ("gate.w_in", "gate.w_val", "gate.w_out"):
        m.params[name] = np.ones_like(m.params[name])
    out = m.gate(np.ones((1, 1, 1)))
    swish1 = 1.0 / (1.0 + np.exp(-1.0))
    assert abs(out[0, 0, 0] - swish1) < 1e-12


def test_gate_closed_linearity():
    m = tiny_model(seed=4)
    m.params["gate.w_in"] = np.zeros_like(m.params["gate.w_in"])
    rng = np.random.default_rng(4)
    xa, xb = rng.standard_normal((2, 2, 6, 1))
    lhs = m.forward(1.5 * xa - 2.0 * xb)
    rhs = 1.5 * m.forward(xa) - 2.0 * m.forward(xb)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_zero_seasonal_map_reduces_to_trend_path():
    m = tiny_model(seed=5)
    m.params["layer0.redisc.w"] = np.zeros_like(m.params["layer0.redisc.w"])
    x = np.random.default_rng(5).standard_normal((2, 6, 1))
    expected = (m.trend_forward(0, x) + m.gate(x)) @ m.params["head.w"].T
    assert np.max(np.abs(m.forward(x) - expected)) < 1e-10


def test_checkpoint_roundtrip(tmp_path):
    m = tiny_model(seed=6, selective=True)
    path = tmp_path / "ckpt.json"
    m.save(path)
    again = ChimeraModel.load(path)
    assert again.config == m.config
    assert set(again.params) == set(m.params)
    for name in m.params:
        assert np.array_equal(again.params[name], m.params[name])
    x = np.random.default_rng(6).standard_normal((1, 5, 1))
    assert np.array_equal(again.forward(x), m.forward(x))


def test_checkpoint_with_removed_config_field_rejected():
    blob = tiny_model(seed=6).to_checkpoint()
    blob["config"]["gate_dim"] = 1
    with pytest.raises(TypeError, match="gate_dim"):
        ChimeraModel.from_checkpoint(blob)


def test_selective_model_forward_runs():
    m = tiny_model(seed=7, selective=True)
    x = np.random.default_rng(7).standard_normal((2, 5, 1))
    y = m.forward(x)
    assert y.shape == (2, 5, 1) and np.all(np.isfinite(y))


def test_decode_shape():
    m = tiny_model(seed=8)
    x = np.random.default_rng(8).standard_normal((3, 6, 1))
    out = m.decode(x, 4)
    assert out.shape == (3, 4, 1)


def test_fd_gradient_quadratic():
    m = tiny_model(seed=9)
    m.params["probe"] = np.array([3.0])
    grads = fd_gradient(m, lambda mm: float(mm.params["probe"][0] ** 2), ["probe"])
    assert abs(grads["probe"][0] - 6.0) < 1e-6


def test_fd_gradient_unused_parameter_is_zero():
    m = tiny_model(seed=10)
    m.params["probe"] = np.array([1.0])
    m.params["unused"] = np.array([2.0])
    grads = fd_gradient(
        m, lambda mm: float(mm.params["probe"][0] ** 2), ["probe", "unused"]
    )
    assert abs(grads["unused"][0]) < 1e-8


def test_fd_gradient_richardson_consistency():
    rng = np.random.default_rng(11)
    m = tiny_model(seed=11, bidirectional=False)
    x = rng.standard_normal((1, 12, 1))
    y = rng.standard_normal((1, 12, 1))
    loss_fn = lambda mm: mse_loss(mm.forward(x), y)
    names = [n for n in m.params if not n.startswith("decoder.")]
    g1 = fd_gradient(m, loss_fn, names)
    g2 = fd_gradient(m, loss_fn, names, step_scale=0.5)
    agree = total = 0
    for name in names:
        a, b = np.ravel(g1[name]), np.ravel(g2[name])
        rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-8)
        agree += int(np.sum(rel < 1e-3))
        total += a.size
    assert agree >= 0.95 * total


def test_fit_zero_steps_is_identity():
    m = tiny_model(seed=12)
    x = np.random.default_rng(12).standard_normal((1, 8, 1))
    out = fit(m, (x, x), steps=0, lr=0.01)
    for name in m.params:
        assert np.array_equal(out.params[name], m.params[name])


def test_fit_reduces_loss():
    rng = np.random.default_rng(13)
    m = tiny_model(seed=13, bidirectional=False)
    x = 0.3 * rng.standard_normal((1, 24, 1))
    y = 0.5 * x
    out = fit(m, (x, y), steps=25, lr=0.01)
    assert len(out.loss_history) == 25
    assert out.loss_history[-1] < out.loss_history[0]


def test_fit_divergence_reported():
    rng = np.random.default_rng(14)
    m = tiny_model(seed=14)
    x = 5.0 * rng.standard_normal((2, 32, 1))
    with pytest.raises(FloatingPointError):
        fit(m, (x, x), steps=50, lr=10.0)


def test_fit_ignores_decoder_parameters():
    rng = np.random.default_rng(15)
    m = tiny_model(seed=15, bidirectional=False)
    before = {k: v.copy() for k, v in m.params.items() if k.startswith("decoder.")}
    out = fit(m, (0.1 * rng.standard_normal((1, 10, 1)),) * 2, steps=3, lr=0.001)
    for name, value in before.items():
        assert np.array_equal(out.params[name], value)
