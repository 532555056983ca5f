"""Tests for the layered trend/seasonal model and its training helpers."""

import dataclasses

import numpy as np
import pytest

import chimera2d.discretize
import chimera2d.model
import chimera2d.scan
from chimera2d import (
    ChimeraModel, ContinuousSSM2D, DiscreteSSM2D, ModelConfig, companion_from_coeffs, diagonal_matrix, discretize_all,
    fd_gradient, fit, forward_recurrence, project_cell_params, simulate_sar, transition_probe,
)
from chimera2d.discretize import DT_FLOOR
from chimera2d.invariants import _assert_fd_stacked_exact
from chimera2d.model import CONT_PARAM_NAMES, PROJ_FIELDS, PROJ_WEIGHT_NAMES, mse_loss, stacked_fd_gradient
from chimera2d.scan import _block_length
from chimera2d.selective import SelectiveProjections, inv_softplus


def tiny_model(seed=0, **kw):
    cfg = ModelConfig(layers=1, state_dim=2, channels=1, seed=seed, **kw)
    return ChimeraModel.init_random(cfg)


@pytest.mark.parametrize("field, value, message", [
    ("layers", -1, "layers must be >= 0, got -1"),
    ("state_dim", 0, "state_dim must be >= 1, got 0"),
    ("channels", 0, "channels must be >= 1, got 0"),
    ("layers", 1.5, "layers must be an integer, got 1.5"),
    ("state_dim", True, "state_dim must be an integer, got True"),
    ("channels", 2.0, "channels must be an integer, got 2.0"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("selective", "yes", "selective must be true or false, got 'yes'"),
    ("bidirectional", 0, "bidirectional must be true or false, got 0"),
    ("season_hint", "2", "season_hint must be a number, got '2'"),
    ("season_hint", True, "season_hint must be a number, got True"),
])
def test_invalid_dimension_named(field, value, message):
    with pytest.raises(ValueError, match=message):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("hint", [0.0, -1.0, np.nan, np.inf])
def test_season_hint_must_be_positive_and_finite(hint):
    with pytest.raises(ValueError, match=f"season_hint must be positive and finite, got {hint}"):
        ModelConfig(season_hint=hint)


@pytest.mark.parametrize("op", ["forward", "decode", "fit"])
def test_input_with_another_channel_count_is_named(op):
    m = tiny_model(seed=27)
    x = np.random.default_rng(27).standard_normal((2, 6, 3))
    calls = {"forward": lambda: m.forward(x), "decode": lambda: m.decode(x, 2),
             "fit": lambda: fit(m, (x, x), steps=1, lr=1e-3)}
    with pytest.raises(ValueError, match=r"input has 3 channels, but the model takes channels=1"):
        calls[op]()


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


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.pop("head.w"), r"missing head\.w"),
    (lambda p: p.update({"extra.w": [1.0]}), r"unexpected extra\.w"),
    (lambda p: p.update({"layer0.trend.f.a1": [-0.1]}), r"layer0\.trend\.f\.a1 has shape \(1,\), expected \(2,\)"),
], ids=["missing", "unexpected", "misshapen"])
def test_checkpoint_parameters_checked_against_config(edit, message):
    blob = tiny_model(seed=6).to_checkpoint()
    edit(blob["params"])
    with pytest.raises(ValueError, match=message):
        ChimeraModel.from_checkpoint(blob)


def test_every_block_stores_one_layout():
    for selective in (False, True):
        m = tiny_model(seed=31, selective=selective)
        for prefix in m._ssm_blocks() + ["decoder"]:
            names = {name.rpartition(".")[2] for name in m.params if name.rpartition(".")[0] == prefix}
            if prefix == "decoder":
                assert names == set(CONT_PARAM_NAMES) | {"d1", "d2"}
            else:
                assert names == set(CONT_PARAM_NAMES) | (set(PROJ_WEIGHT_NAMES) if selective else set())
    # the benchmark's selective shape: 4 blocks of 10 + 6, and 21 others
    cfg = ModelConfig(layers=1, state_dim=2, channels=4, selective=True)
    assert len(ChimeraModel.init_random(cfg).params) == 81


def test_a_selective_block_stores_its_continuous_set_and_the_projection_fields():
    proj_fields = [f.name for f in dataclasses.fields(SelectiveProjections)]
    assert PROJ_WEIGHT_NAMES == tuple(name for name in proj_fields if name not in CONT_PARAM_NAMES)
    # the projections' biases are the continuous set's B/C vectors and step raws
    assert set(proj_fields) - set(PROJ_WEIGHT_NAMES) == set(CONT_PARAM_NAMES[4:])
    m = tiny_model(seed=34, selective=True)
    for prefix in m._ssm_blocks():
        names = {name.rpartition(".")[2] for name in m.params if name.rpartition(".")[0] == prefix}
        assert names == set(CONT_PARAM_NAMES) | set(proj_fields)


def test_a_selective_pair_is_one_stack_equal_to_its_blocks_alone(monkeypatch):
    # a bidirectional selective layer projects, discretizes and sweeps each
    # trend and seasonal pair as one stack; the forward must equal, byte for
    # byte, the sum of its blocks' passes alone. The backward seasonal
    # block's raised time step makes it square, while its forward twin
    # (steps near season_hint) takes no squaring
    m = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=2, selective=True, season_hint=0.05, seed=35))
    m.params["layer0.seasonal.b.dt1_raw"] = np.array(inv_softplus(30.0))
    x = 0.1 * np.random.default_rng(35).standard_normal((4, 12, 2))
    calls = []
    expm = chimera2d.discretize.expm

    def recorded(a, t, stacked=False):
        calls.append((np.asarray(a), np.asarray(t)))
        return expm(a, t, stacked)

    monkeypatch.setattr(chimera2d.discretize, "expm", recorded)
    y = m.forward(x)
    monkeypatch.undo()
    # two pairs, four exponentials each, every one a stack of two grids
    assert len(calls) == 8 and all(t.shape == (2, 4, 12) for _, t in calls)
    a, t = calls[4]  # the seasonal pair's Van Loan matrices at its time steps
    largest = t.reshape(2, -1).max(axis=1) * np.abs(a).sum(axis=-2).max(axis=-1)
    assert largest[0] < 0.5 and largest[1] > 1.2, largest

    class BlockByBlock(ChimeraModel):
        def _passes(self, prefixes, xs):
            return [ChimeraModel._passes(self, (prefix,), (x,))[0] for prefix, x in zip(prefixes, xs)]

    assert y.tobytes() == BlockByBlock(m.config, m.params).forward(x).tobytes()


@pytest.mark.parametrize("selective", [False, True])
def test_every_stored_parameter_is_read(selective):
    m = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=2, selective=selective, seed=32))
    x = 0.5 * np.random.default_rng(32).standard_normal((2, 5, 2))
    y, forecast = m.forward(x), m.decode(x, 3)
    for name in m.params:
        moved = m.copy()
        moved.params[name] = moved.params[name] + 0.05
        if name.startswith("decoder."):
            assert not np.array_equal(moved.decode(x, 3), forecast), name
        else:
            assert not np.array_equal(moved.forward(x), y), name


@pytest.mark.parametrize("layers", [1, 2])
def test_selective_block_with_zero_weights_is_its_constant_block(layers):
    cfg = ModelConfig(layers=layers, state_dim=2, channels=2, selective=True, seed=33)
    selective = ChimeraModel.init_random(cfg)
    for name, value in selective.params.items():
        if name.rpartition(".")[2] in PROJ_WEIGHT_NAMES:
            value[...] = 0.0
    kept = {name: value for name, value in selective.params.items() if name.rpartition(".")[2] not in PROJ_WEIGHT_NAMES}
    blob = {"config": {**selective.to_checkpoint()["config"], "selective": False}, "params": kept}
    constant = ChimeraModel.from_checkpoint(blob)
    x = np.random.default_rng(33).standard_normal((3, 7, 2))
    y = constant.forward(x)
    assert np.max(np.abs(selective.forward(x) - y)) <= 1e-10 * np.max(np.abs(y))
    assert np.array_equal(selective.decode(x, 4), constant.decode(x, 4))


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


@pytest.mark.parametrize("selective", [False, True])
def test_fit_divergence_names_the_first_unstable_block(selective):
    m = tiny_model(seed=14, selective=selective)
    p = m.params
    steps = ("dt1_raw", "dt2_raw")
    # long steps make the stable transitions contract: every joint
    # transition radius < 1 ...
    for prefix in m._ssm_blocks():
        for name in steps:
            p[f"{prefix}.{name}"] = np.array(inv_softplus(20.0))
        if selective:
            p[f"{prefix}.w_d1"][:] = p[f"{prefix}.w_d2"][:] = 0.0
    assert m._first_unstable_block().startswith("every block")
    # ... except the backward seasonal block, whose time transition has
    # the eigenvalue 3 (growth e^3 per step) and overflows on a long row
    p["layer0.seasonal.b.a1"] = np.array([0.0, 3.0])
    for name in steps[::2]:
        p[f"layer0.seasonal.b.{name}"] = np.array(inv_softplus(1.0))
    x = np.random.default_rng(14).standard_normal((2, 400, 1))
    named = r"block layer0\.seasonal\.b has joint transition spectral radius 2\d\.\d+ >= 1"
    with pytest.raises(FloatingPointError, match=named):
        fit(m, (x, x), steps=1, lr=1e-3)


def test_fit_names_the_block_whose_exponential_overflows():
    m = tiny_model(seed=14)
    p = m.params
    for prefix in m._ssm_blocks():
        for name in ("dt1_raw", "dt2_raw"):
            p[f"{prefix}.{name}"] = np.array(inv_softplus(20.0))
    # eigenvalue 3 at a time step of 300: exp(dt A1) reaches e^900
    p["layer0.seasonal.b.a1"] = np.array([0.0, 3.0])
    p["layer0.seasonal.b.dt1_raw"] = np.array(inv_softplus(300.0))
    x = np.random.default_rng(14).standard_normal((2, 8, 1))
    named = r"overflows the float range; block layer0\.seasonal\.b has no finite transition \(exp\(t M\) overflows"
    with pytest.raises(FloatingPointError, match=named):
        fit(m, (x, x), steps=1, lr=1e-3)


def test_fit_names_the_first_unstable_block_when_a_variant_fails(monkeypatch):
    # a perturbed copy whose exponential fails, after the gradient's base
    # passes (4 blocks of 4 exponentials), which give the step's loss, went
    # through
    m = tiny_model(seed=22)
    x = np.random.default_rng(22).standard_normal((2, 8, 1))
    calls = _count_calls(monkeypatch, chimera2d.discretize, "expm", fail_after=16)
    named = r"training diverged: exp\(t M\) overflows the float range; block layer0\.trend\.f has no finite"
    with pytest.raises(FloatingPointError, match=named):
        fit(m, (x, x), steps=1, lr=1e-3)
    assert len(calls) > 16


# a failing pass raises the same error from a forward and from the base
# passes of the stacked finite-difference gradient
PASS_RUNNERS = pytest.mark.parametrize("run", [
    lambda m, x: m.forward(x),
    lambda m, x: stacked_fd_gradient(m, x, x),
], ids=["forward", "stacked_fd_gradient"])


@PASS_RUNNERS
def test_forward_names_the_constant_block_whose_exponential_overflows(run):
    m = tiny_model(seed=0)
    # a companion with coefficients 5 at a time step of 800
    m.params["layer0.seasonal.b.a1"][...] = 5.0
    m.params["layer0.seasonal.b.dt1_raw"] = np.array(800.0)
    x = np.random.default_rng(0).standard_normal((2, 6, 1))
    named = r"^block layer0\.seasonal\.b: exp\(t M\) overflows the float range$"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=named) as info:
        run(m, x)
    assert str(info.value.__cause__) == "exp(t M) overflows the float range"


@PASS_RUNNERS
def test_forward_names_both_blocks_of_a_selective_pair_that_overflows(run):
    # the residual stream grows until a per-cell step of the seasonal pair,
    # discretized as one stack, overflows its exponential
    m = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=3, channels=2, selective=True, season_hint=24.0, seed=3))
    x = 0.1 * np.random.default_rng(3).standard_normal((6, 50, 2))
    named = r"^blocks layer0\.seasonal\.f and layer0\.seasonal\.b: exp\(t M\) overflows the float range$"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=named) as info:
        run(m, x)
    assert str(info.value.__cause__) == "exp(t M) overflows the float range"


@pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -1e-3])
def test_fit_rejects_a_bad_learning_rate(lr):
    x = np.random.default_rng(24).standard_normal((2, 6, 1))
    with pytest.raises(ValueError, match=f"lr must be positive and finite, got {lr}"):
        fit(tiny_model(seed=24), (x, x), steps=1, lr=lr)


def test_fit_rejects_a_boolean_learning_rate():
    # True would otherwise train at lr = 1
    x = np.random.default_rng(24).standard_normal((2, 6, 1))
    with pytest.raises(ValueError, match="lr must be a number, got True"):
        fit(tiny_model(seed=24), (x, x), steps=1, lr=True)


def test_fit_names_mismatched_input_and_target_shapes():
    rng = np.random.default_rng(25)
    x, y = rng.standard_normal((2, 6, 1)), rng.standard_normal((2, 5, 1))
    with pytest.raises(ValueError, match=r"inputs x \(2, 6, 1\) and targets y \(2, 5, 1\) must have the same shape"):
        fit(tiny_model(seed=25), (x, y), steps=1, lr=1e-3)


def test_transition_probe_figures():
    dp = tiny_model(seed=3)._block_dp("layer0.trend.f")
    probe = transition_probe(dp)
    joint = np.block([[dp.Abar1, dp.Abar2], [dp.Abar3, dp.Abar4]])
    assert probe["rho_abar1"] == pytest.approx(np.max(np.abs(np.linalg.eigvals(dp.Abar1))))
    assert probe["rho_abar4"] == pytest.approx(np.max(np.abs(dp.Abar4)))
    assert probe["norm_joint"] == pytest.approx(np.linalg.svd(joint, compute_uv=False)[0])
    assert probe["rho_joint"] <= probe["norm_joint"] + 1e-12


def test_fit_ignores_decoder_parameters():
    rng = np.random.default_rng(15)
    m = tiny_model(seed=15, bidirectional=False)
    before = {k: v.copy() for k, v in m.params.items() if k.startswith("decoder.")}
    out = fit(m, (0.1 * rng.standard_normal((1, 10, 1)),) * 2, steps=3, lr=0.001)
    for name, value in before.items():
        assert np.array_equal(out.params[name], value)


def _count_calls(monkeypatch, module, name, fail_after=None):
    """Counts the calls of module.name; with `fail_after`, every later call
    raises the ValueError of an overflowing exponential."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        if fail_after is not None and len(calls) > fail_after:
            raise ValueError("exp(t M) overflows the float range")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_scans(monkeypatch):
    # every constant-parameter sweep solves its rows once, whether it
    # comes from scan_forward or from a stacked pass
    return _count_calls(monkeypatch, chimera2d.scan, "solve_rows")


def test_forward_discretizes_a_block_again_only_when_its_parameters_move(monkeypatch):
    m = tiny_model(seed=28)
    x = np.random.default_rng(28).standard_normal((2, 6, 1))
    expms = _count_calls(monkeypatch, chimera2d.discretize, "expm")
    first = m.forward(x)
    # 4 blocks of 4 exponentials
    assert len(expms) == 16
    expms.clear()
    assert np.array_equal(m.forward(x), first)
    assert len(expms) == 0
    # an in-place step, as fit's update makes, on one block's parameter
    m.params["layer0.seasonal.b.c2"][0] += 1e-3
    moved = m.forward(x)
    assert len(expms) == 4
    assert np.array_equal(moved, m.copy().forward(x))


def test_kept_discretization_is_read_only():
    m = tiny_model(seed=29)
    dp = m._block_dp("decoder")
    assert m._block_dp("decoder") is dp
    for name, a in vars(dp).items():
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    # the kept values are a copy: the parameter itself stays writable
    m.params["decoder.a1"][0] += 0.0


def test_copies_and_stacked_variants_start_with_no_kept_discretization(monkeypatch):
    m = tiny_model(seed=30)
    x = np.random.default_rng(30).standard_normal((2, 6, 1))
    m.forward(x)
    m.decode(x, 2)
    assert set(m._dp_memo) == set(m._ssm_blocks()) | {"decoder"}
    assert m.copy()._dp_memo == {}
    assert ChimeraModel.from_checkpoint(m.to_checkpoint())._dp_memo == {}
    # the variants' base pass discretizes each of the 4 blocks afresh
    expms = _count_calls(monkeypatch, chimera2d.discretize, "expm")
    work = chimera2d.model._StackedVariants(m, x)
    assert len(expms) == 16
    assert set(work._dp_memo) == set(m._ssm_blocks())


def test_served_model_builds_its_chain_solvers_once(monkeypatch):
    m = tiny_model(seed=31)
    x = np.random.default_rng(31).standard_normal((3, 6, 1))
    chains = _count_calls(monkeypatch, chimera2d.scan, "_SharedChain")
    first = m.forward(x), m.decode(x, 4)
    assert len(chains) > 0
    chains.clear()
    again = m.forward(x), m.decode(x, 4)
    assert len(chains) == 0
    for out, ref in zip(again, first):
        assert np.array_equal(out, ref)


def _kept_chains(m):
    return {prefix: dp.chains for prefix, (_, dp) in m._dp_memo.items()}


def test_each_block_keeps_one_chain_solver_per_transition():
    m = tiny_model(seed=32)
    rng = np.random.default_rng(32)
    for shape in ((2, 6, 1), (3, 9, 1)):
        x = rng.standard_normal(shape)
        assert np.array_equal(m.forward(x), m.copy().forward(x))
        assert np.array_equal(m.decode(x, 2), m.copy().decode(x, 2))
    chains = _kept_chains(m)
    assert set(chains) == set(m._ssm_blocks()) | {"decoder"}
    for prefix, kept in chains.items():
        lengths = {name: chain.length for name, chain in kept.items()}
        # the last context's T steps along rows, and its V variates
        assert lengths == ({"Abar1": 9, "Abar4": 3} if prefix == "decoder" else {"Abar1": 9}), prefix


def test_an_in_place_move_rebuilds_the_chain_solver():
    m = tiny_model(seed=33)
    x = np.random.default_rng(33).standard_normal((2, 6, 1))
    m.forward(x)
    m.decode(x, 3)
    before = {prefix: kept["Abar1"] for prefix, kept in _kept_chains(m).items()}
    m.params["layer0.trend.f.a1"][0] += 1e-3
    m.params["decoder.dt1_raw"] += 1e-3
    fresh = m.copy()
    assert np.array_equal(m.forward(x), fresh.forward(x))
    assert np.array_equal(m.decode(x, 3), fresh.decode(x, 3))
    for prefix, kept in _kept_chains(m).items():
        rebuilt = kept["Abar1"] is not before[prefix]
        assert rebuilt == (prefix in ("layer0.trend.f", "decoder")), prefix


@pytest.mark.parametrize("cfg, scale", [
    (ModelConfig(layers=2, state_dim=2, channels=1, seed=16), 1.0),
    (ModelConfig(layers=1, state_dim=2, channels=1, seed=17, selective=True), 1.0),
    # selective passes after a redisc group; at unit scale this model's
    # output reaches 7e16, at 0.3 it stays below 1.3
    (ModelConfig(layers=2, state_dim=2, channels=1, seed=16, selective=True), 0.3),
    # one state: every exponential's series is a product with a single column
    (ModelConfig(layers=2, state_dim=1, channels=1, seed=21), 1.0),
], ids=["constant", "selective", "selective-2-layers-bidirectional", "one-state"])
def test_fd_gradient_equals_rerun_on_every_coordinate(cfg, scale):
    x, y = scale * np.random.default_rng(16).standard_normal((2, 2, 6, 1))
    _assert_fd_stacked_exact(cfg, x, y)


@pytest.mark.parametrize("selective", [False, True], ids=["constant", "selective"])
def test_stacked_variants_hold_the_models_own_arrays(selective):
    m = tiny_model(seed=34, selective=selective)
    x = 0.3 * np.random.default_rng(34).standard_normal((2, 6, 1))
    work = chimera2d.model._StackedVariants(m, x)
    assert work.params.keys() == m.params.keys()
    for name, value in m.params.items():
        assert work.params[name] is value, name
    # every group's stand-in is put back: the parameters, and the base
    # passes that the base forward stored
    entries = dict(work.base)
    assert entries.keys() == set(m._ssm_blocks())
    work.gradient(x, list(m.params))
    for name, value in m.params.items():
        assert work.params[name] is value, name
    assert work.base.keys() == entries.keys()
    for prefix, entry in entries.items():
        assert work.base[prefix] is entry, prefix


@pytest.mark.parametrize("selective", [False, True], ids=["constant", "selective"])
def test_stacked_fd_gradient_writes_no_parameter_array(selective):
    m = tiny_model(seed=35, selective=selective)
    x, y = 0.3 * np.random.default_rng(35).standard_normal((2, 2, 6, 1))
    before = {name: value.tobytes() for name, value in m.params.items()}
    for value in m.params.values():
        value.flags.writeable = False
    names = [n for n in m.params if not n.startswith("decoder.")]
    grads = stacked_fd_gradient(m, x, y, names)
    ref = fd_gradient(m, lambda mm: mse_loss(mm.forward(x), y), names)
    for name in names:
        assert np.array_equal(grads[name], ref[name]), name
    assert {name: value.tobytes() for name, value in m.params.items()} == before


@pytest.mark.parametrize("bidirectional", [False, True])
def test_fd_gradient_is_exact_on_rows_of_several_chain_blocks(bidirectional):
    # at N = 3 a row chain block holds K = 28 steps, so rows of 70 steps
    # span three blocks joined by carries
    assert _block_length(3) == 28
    cfg = ModelConfig(layers=2, state_dim=3, channels=2, bidirectional=bidirectional, seed=26)
    x, y = 0.3 * np.random.default_rng(26).standard_normal((2, 3, 70, 2))
    m = ChimeraModel.init_random(cfg)
    names = [n for n in m.params if not n.startswith("decoder.")]
    with np.errstate(over="ignore", invalid="ignore"):
        grads = stacked_fd_gradient(m, x, y, names)
        ref = fd_gradient(m, lambda mm: mse_loss(mm.forward(x), y), names)
    for name in names:
        assert np.array_equal(grads[name], ref[name]), name


def test_forward_outside_fd_gradient_reruns_every_block(monkeypatch):
    cfg = ModelConfig(layers=2, state_dim=2, channels=1, seed=19)
    m = ChimeraModel.init_random(cfg)
    rng = np.random.default_rng(19)
    x = 0.3 * rng.standard_normal((2, 8, 1))
    blocks = 8  # 2 layers x {trend, seasonal} x {forward, backward}
    fitted = fit(m, (x, x), steps=1, lr=1e-4)
    calls = _count_scans(monkeypatch)
    for model in (m, fitted):
        calls.clear()
        model.forward(x)
        model.forward(x)
        assert len(calls) == 2 * blocks


def test_fd_gradient_scans_only_reached_blocks(monkeypatch):
    # the benchmark's fit shape: V8 x T64, d=1, N=2, 2 bidirectional layers.
    # Rerunning every block would take 2 x 150 coordinates x 8 = 2400 scans.
    # The stacked gradient takes 8 base passes; per block, one sweep of the
    # 22 variants that keep Abar1 and one of the 6 of A1 and dt1 on a chain
    # of their stacked Abar1 (the 8 of C are readouts of the base grid); and
    # one stacked pass per block downstream of a group (28)
    cfg = ModelConfig(layers=2, state_dim=2, channels=1, seed=20)
    m = ChimeraModel.init_random(cfg)
    rng = np.random.default_rng(20)
    x, y = 0.3 * rng.standard_normal((2, 8, 64, 1))
    names = [n for n in m.params if not n.startswith("decoder.")]
    calls = _count_scans(monkeypatch)
    expms = _count_calls(monkeypatch, chimera2d.discretize, "expm")
    with np.errstate(over="ignore", invalid="ignore"):
        stacked_fd_gradient(m, x, y, names)
    assert len(calls) == 8 + 8 * 2 + 28
    # 4 per base pass, and 4 per block for all of its 36 variants stacked
    assert len(expms) == 8 * 4 + 8 * 4


def test_fd_gradient_runs_each_selective_pair_as_one_stack(monkeypatch):
    # a bidirectional selective pair's passes are stacks of two, unperturbed
    # or after a group on each variant; only a perturbed block's own
    # variants run alone, one per pass
    m = ChimeraModel.init_random(ModelConfig(layers=2, state_dim=2, channels=1, selective=True, seed=3))
    x, y = 0.1 * np.random.default_rng(3).standard_normal((2, 2, 6, 1))
    sizes = []
    project = chimera2d.model.project_grid_params

    def recorded(proj, series, a_set):
        sizes.append(len(proj.dt1_raw))
        return project(proj, series, a_set)

    monkeypatch.setattr(chimera2d.model, "project_grid_params", recorded)
    stacked_fd_gradient(m, x, y, ["layer0.trend.f.a1", "layer0.redisc.w", "layer1.seasonal.b.w_d1", "head.w"])
    assert sizes == (
        [2] * 4  # the base passes of the four pairs
        + [1] * 4 + [2] * 3 * 4  # a1's 4 variants, then the 3 later pairs on each
        + [2] * 2 * 2  # redisc.w's 2 variants through layer 1's 2 pairs
        + [1] * 2  # w_d1's 2 variants, in the last pair; head.w reaches no pass
    )


def test_fd_variants_are_routed_by_what_their_discretization_moves(monkeypatch):
    # at N = 2 a constant block has 36 variants: the 6 of a1 and dt1_raw
    # move Abar1 and get a chain of their own, the 8 of c1 and c2 move only
    # C1 or C2 and are one readout of the base grid, and the other 22 sweep
    # on the base row chain, which the base pass built
    m = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=1, seed=36))
    x, y = 0.3 * np.random.default_rng(36).standard_normal((2, 3, 8, 1))
    chained, read = [], []
    new_chain, read_grid = chimera2d.scan._SharedChain, chimera2d.model.readout

    def counted_chain(a, length):
        # a stack of transitions; the kept chains are built from one
        if np.ndim(a) == 3:
            chained.append(len(a))
        return new_chain(a, length)

    def counted_readout(c, hidden):
        read.append(len(c))
        return read_grid(c, hidden)

    monkeypatch.setattr(chimera2d.scan, "_SharedChain", counted_chain)
    monkeypatch.setattr(chimera2d.model, "readout", counted_readout)
    stacked_fd_gradient(m, x, y, [n for n in m.params if not n.startswith("decoder.")])
    assert chained == [6] * len(m._ssm_blocks())
    assert read == [8] * len(m._ssm_blocks())


def test_fit_step_takes_its_loss_from_the_gradient_base_pass(monkeypatch):
    m = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=1, seed=23))
    x, y = 0.3 * np.random.default_rng(23).standard_normal((2, 3, 8, 1))
    names = [n for n in m.params if not n.startswith("decoder.")]
    loss = mse_loss(m.forward(x), y)
    calls = _count_scans(monkeypatch)
    stacked_fd_gradient(m, x, y, names)
    gradient_scans = len(calls)
    calls.clear()
    assert fit(m, (x, y), steps=1, lr=1e-4).loss_history == [loss]
    assert len(calls) == gradient_scans
    # a loss under tol ends training after the base pass of each of the 4 blocks
    calls.clear()
    assert fit(m, (x, y), steps=3, lr=1e-4, tol=np.inf).loss_history == [loss]
    assert len(calls) == 4


def _overflowing_readout(name):
    """A gate-only model on one cell whose squared error sits just below
    the float range, so that raising the readout weight `name` by its
    finite-difference step overflows the loss."""
    m = ChimeraModel.init_random(ModelConfig(layers=0, state_dim=2, channels=1, seed=21))
    x, y = np.ones((1, 1, 1)), np.zeros((1, 1, 1))
    m.params[name] = np.ones((1, 1))
    unit = m.forward(x)[0, 0, 0]
    m.params[name] = np.array([[np.sqrt(np.finfo(float).max / 1.0001) / unit]])
    assert np.isfinite(mse_loss(m.forward(x), y))
    return m, x, y


@pytest.mark.parametrize("name", ["gate.w_out", "head.w"])
def test_non_finite_variant_loss_names_the_parameter(name):
    m, x, y = _overflowing_readout(name)
    message = rf"non-finite loss while differentiating {name}"
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match=message):
            fd_gradient(m, lambda mm: mse_loss(mm.forward(x), y), [name])
        with pytest.raises(FloatingPointError, match=message):
            stacked_fd_gradient(m, x, y, [name])
    with pytest.raises(FloatingPointError, match="non-finite loss while differentiating gate"):
        fit(m, (x, y), steps=1, lr=1e-3)


def _seasonal_grid(seed, v_count, t_count):
    rows = [simulate_sar([0.5], [0.3], 7, np.zeros(7), 1.0, t_count, seed=[seed, v]) for v in range(v_count)]
    grid = np.array(rows)[:, :, None]
    return (grid - grid.mean(axis=1, keepdims=True)) / grid.std(axis=1, keepdims=True)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_step_is_the_fd_gradient_step(seed):
    # the benchmark's fit shape at default init, where the model diverges
    # and rounding is amplified: one fit step moves every trained
    # coordinate by exactly lr times fd_gradient's entry
    lr = 1e-3
    m = ChimeraModel.init_random(ModelConfig(layers=2, state_dim=2, channels=1, seed=seed))
    grid = _seasonal_grid(seed, 8, 65)
    x, y = grid[:, :-1], grid[:, 1:]
    names = [n for n in m.params if not n.startswith("decoder.")]
    with np.errstate(over="ignore", invalid="ignore"):
        grads = fd_gradient(m, lambda mm: mse_loss(mm.forward(x), y), names)
    fitted = fit(m, (x, y), steps=1, lr=lr)
    for name in names:
        assert np.array_equal(fitted.params[name], m.params[name] - lr * grads[name]), name


# ----------------------------------------------------------------------
# a sequential reference forward, from the model docstring's equations


def _reference_block(model, prefix, x):
    """Block `prefix` on x through `forward_recurrence`, its parameters
    built cell by cell for a selective block."""
    p = {name: model.params[f"{prefix}.{name}"] for name in CONT_PARAM_NAMES}
    a_set = (companion_from_coeffs(p["a1"]), companion_from_coeffs(p["a2"]), diagonal_matrix(p["a3"]),
             diagonal_matrix(p["a4"]))
    if model.config.selective:
        proj = SelectiveProjections(**{name: model.params[f"{prefix}.{name}"] for name in PROJ_FIELDS})
        rows = [[vars(project_cell_params(proj, x[v, t], a_set)) for t in range(x.shape[1])] for v in range(x.shape[0])]
        dp = DiscreteSSM2D(**{name: np.array([[cell[name] for cell in row] for row in rows]) for name in rows[0][0]})
    else:
        dt1, dt2 = (max(float(np.logaddexp(0.0, p[raw])), DT_FLOOR) for raw in ("dt1_raw", "dt2_raw"))
        dp = discretize_all(ContinuousSSM2D(*a_set, p["b1"], p["b2"], p["c1"], p["c2"], dt1=dt1, dt2=dt2))
    return forward_recurrence(dp, x)[0]


def _reference_forward(model, x):
    par, lin = model.params, lambda z, w: z @ w.T

    def directional(prefix, z):
        y = _reference_block(model, f"{prefix}.f", z)
        if model.config.bidirectional:
            y = y + _reference_block(model, f"{prefix}.b", z[::-1])[::-1]
        return y

    residual, combined = x, np.zeros_like(x)
    for layer in range(model.config.layers):
        trend = directional(f"layer{layer}.trend", residual)
        seasonal = directional(f"layer{layer}.seasonal", residual - trend)
        residual = lin(seasonal, par[f"layer{layer}.redisc.w"])
        combined = combined + trend
    if model.config.layers:
        combined = combined + residual
    u = lin(x, par["gate.w_in"])
    gate = lin(u / (1.0 + np.exp(-u)) * lin(x, par["gate.w_val"]), par["gate.w_out"])
    return lin(combined + gate, par["head.w"])


@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("bidirectional", [False, True], ids=["uni", "bi"])
@pytest.mark.parametrize("selective", [False, True], ids=["constant", "selective"])
def test_forward_matches_the_sequential_reference(selective, bidirectional, layers):
    cfg = ModelConfig(layers=layers, state_dim=2, channels=2, selective=selective, bidirectional=bidirectional, seed=3)
    m = ChimeraModel.init_random(cfg)
    x = 0.3 * np.random.default_rng(3).standard_normal((4, 7, 2))
    ref = _reference_forward(m, x)
    assert np.max(np.abs(m.forward(x) - ref)) <= 1e-10 * np.max(np.abs(ref))
