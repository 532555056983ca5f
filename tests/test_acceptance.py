"""Acceptance suite.

Each test covers one numbered acceptance criterion and emits exactly one
``ACCEPTANCE nn name: PASS|FAIL`` line (written past pytest's capture so
it is always visible), then asserts at the criterion's stated tolerance.
"""

import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from chimera2d import (
    ChimeraModel,
    ContinuousSSM2D,
    ModelConfig,
    ScanElement,
    SelectiveProjections,
    bidirectional_forward,
    companion_from_coeffs,
    conv_apply,
    diagonal_matrix,
    dense_matrix,
    discretize_all,
    fd_gradient,
    fit,
    forward_recurrence,
    impulse_kernels,
    mamba2d_forward,
    materialize_matrices,
    op_star,
    sar_predict,
    sar_to_ssm,
    scan_forward,
    simulate_sar,
    zoh_pair,
)
from chimera2d.model import mse_loss
from chimera2d.variants import matrix_form_apply
from chimera2d.invariants import _random_dp, _random_element, _stable_coeffs


# one line per criterion; conftest replays these after pytest's capture ends
RESULT_LINES: list[str] = []


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    RESULT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def check(num, name, ok, detail=""):
    report(num, name, ok, detail)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_operator_associativity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.choice([1, 2, 4]))
        d = int(rng.choice([1, 3]))
        p, q, r = (_random_element(rng, n, d) for _ in range(3))
        left = op_star(op_star(p, q), r)
        right = op_star(p, op_star(q, r))
        for i in range(1, 7):
            a, b = getattr(left, f"p{i}"), getattr(right, f"p{i}")
            rel = np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))
            worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    check(
        1, "operator associativity",
        worst < 1e-9 and elapsed < 10.0,
        f"worst rel diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_scan_equals_recurrence():
    rng = np.random.default_rng(102)
    grid_sizes = [1, 2, 4, 8]
    worst_const = 0.0
    worst_sel = 0.0
    for v_count in grid_sizes:
        for t_count in grid_sizes:
            for _ in range(50):
                n = int(rng.integers(1, 5))
                d = int(rng.integers(1, 4))
                x = rng.standard_normal((v_count, t_count, d))
                # data-independent parameters
                dp = _random_dp(rng, n)
                y_ref, _ = forward_recurrence(dp, x)
                y = scan_forward(dp, x)
                worst_const = max(worst_const, float(np.max(np.abs(y - y_ref))))
            # selective parameters: per-cell values projected from the input
            n, d = 3, 2
            x = rng.standard_normal((v_count, t_count, d))
            a_set = (
                companion_from_coeffs(rng.uniform(-0.4, 0, n)),
                companion_from_coeffs(rng.uniform(-0.4, 0, n)),
                diagonal_matrix(rng.uniform(-1, -0.1, n)),
                diagonal_matrix(rng.uniform(-1, -0.1, n)),
            )
            from chimera2d import project_grid_params

            for draw in range(50):
                proj = SelectiveProjections.init_random(n, d, seed=1000 * v_count + t_count + draw)
                cells = project_grid_params(proj, x, a_set)
                y_ref, _ = forward_recurrence(cells, x)
                y = scan_forward(cells, x)
                worst_sel = max(worst_sel, float(np.max(np.abs(y - y_ref))))
    check(
        2, "scan equals recurrence",
        worst_const < 1e-9 and worst_sel < 1e-9,
        f"const {worst_const:.2e}, selective {worst_sel:.2e}",
    )


def test_criterion_03_convolution_equals_recurrence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for v_count in range(1, 9):
        for t_count in range(1, 9):
            dp = _random_dp(rng, int(rng.integers(1, 5)))
            x = rng.standard_normal((v_count, t_count, 2))
            k1, k2 = impulse_kernels(dp, v_count, t_count)
            y = conv_apply(k1, k2, dp.C1, dp.C2, x)
            y_ref, _ = forward_recurrence(dp, x)
            worst = max(worst, float(np.max(np.abs(y - y_ref))))
    check(3, "convolution equals recurrence", worst < 1e-10, f"max diff {worst:.2e}")


def test_criterion_04_step_resolution():
    rng = np.random.default_rng(104)
    worst = 0.0
    for k in (2, 3, 4):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = dense_matrix(0.5 * rng.standard_normal((n, n)))
            b = rng.standard_normal(n)
            dt = rng.uniform(0.05, 0.4)
            steps = int(rng.integers(1, 6))
            abar_k, _ = zoh_pair(a, b, k * dt)
            abar, _ = zoh_pair(a, b, dt)
            coarse = np.linalg.matrix_power(abar_k, steps)
            fine = np.linalg.matrix_power(abar, steps * k)
            worst = max(worst, float(np.max(np.abs(coarse - fine))))
    check(4, "step-size resolution", worst < 1e-10, f"max diff {worst:.2e}")


def test_criterion_05_sar_representation():
    rng = np.random.default_rng(105)
    worst = 0.0
    for p in range(4):
        for q in range(4):
            if p + q == 0:
                continue
            for s in range(1, 5):
                phi = _stable_coeffs(rng, p)
                eta = _stable_coeffs(rng, q)
                need = max(p, q * s, 1)
                init = rng.standard_normal(need)
                series = simulate_sar(phi, eta, s, init, noise_std=0.0, t_count=50, seed=p * 100 + q * 10 + s)
                full = np.concatenate([init, series])
                pred = sar_predict(sar_to_ssm(phi, eta, s), full)
                diff = float(np.max(np.abs(pred[need - 1 : -1] - full[need:])))
                worst = max(worst, diff)
    check(5, "seasonal AR representation", worst < 1e-8, f"max diff {worst:.2e}")


def test_criterion_06_decoupled_variant():
    rng = np.random.default_rng(106)
    worst_1d = 0.0
    worst_mat = 0.0
    for v_count, t_count in [(2, 2), (4, 6), (5, 6), (8, 8)]:
        n = 3
        dp = _random_dp(rng, n, coupled=False)
        x = rng.standard_normal((v_count, t_count, 1))
        y = mamba2d_forward(dp, x)
        expected = np.zeros_like(y)
        for v in range(v_count):
            h = np.zeros((n, 1))
            for t in range(t_count):
                h = dp.Abar1 @ h + np.outer(dp.Bbar1, x[v, t])
                expected[v, t] += dp.C1 @ h
        for t in range(t_count):
            h = np.zeros((n, 1))
            for v in range(v_count):
                h = dp.Abar4 @ h + np.outer(dp.Bbar2, x[v, t])
                expected[v, t] += dp.C2 @ h
        worst_1d = max(worst_1d, float(np.max(np.abs(y - expected))))

        dp_b = _random_dp(rng, n, coupled=False)
        y_bi = bidirectional_forward(dp, dp_b, x)
        m_time, m_var = materialize_matrices(dp, dp_b, v_count, t_count)
        y_mat = matrix_form_apply(m_time, m_var, x)
        worst_mat = max(worst_mat, float(np.max(np.abs(y_mat - y_bi))))
    check(
        6, "decoupled variant and matrix form",
        worst_1d < 1e-10 and worst_mat < 1e-9,
        f"1d-pass {worst_1d:.2e}, matrix {worst_mat:.2e}",
    )


def test_criterion_07_gradient_sanity():
    rng = np.random.default_rng(107)
    cfg = ModelConfig(layers=1, state_dim=2, channels=2, seed=107)
    model = ChimeraModel.init_random(cfg)
    names = [n for n in model.params if not n.startswith("decoder.")]
    count = sum(model.params[n].size for n in names)
    x = rng.standard_normal((2, 10, 2))
    y = rng.standard_normal((2, 10, 2))
    loss_fn = lambda m: mse_loss(m.forward(x), y)
    g1 = fd_gradient(model, loss_fn, names)
    g2 = fd_gradient(model, loss_fn, names, step_scale=0.5)
    agree = total = 0
    for name in names:
        a, b = np.ravel(g1[name]), np.ravel(g2[name])
        rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-8)
        agree += int(np.sum(rel < 1e-3))
        total += a.size
    check(
        7, "finite-difference gradient sanity",
        count <= 500 and agree >= 0.95 * total,
        f"{count} params, {agree}/{total} coords consistent",
    )


def test_criterion_08_desk_scale_learning():
    start = time.perf_counter()
    # part 1: noise-free AR(1) reaches one-step MSE below 1e-3
    series = simulate_sar([0.5], [], 1, [1.0], noise_std=0.0, t_count=512, seed=0)
    x = series[None, :-1, None]
    y = series[None, 1:, None]
    cfg = ModelConfig(layers=1, state_dim=2, channels=1, seed=0, bidirectional=False)
    model = ChimeraModel.init_random(cfg)
    trained = fit(model, (x, y), steps=2000, lr=0.05, tol=1e-3)
    ar_mse = trained.loss_history[-1]
    ar_ok = ar_mse < 1e-3 and len(trained.loss_history) <= 2000

    # part 2: trend plus period-4 seasonal pattern, must beat the
    # last-value naive predictor
    t_idx = np.arange(257)
    pattern = np.array([0.4, -0.2, 0.1, -0.3])
    series = 0.01 * t_idx + pattern[t_idx % 4]
    naive_mse = mse_loss(series[:-1], series[1:])
    x = series[None, :-1, None]
    y = series[None, 1:, None]
    cfg = ModelConfig(layers=1, state_dim=2, channels=1, seed=1, bidirectional=False, season_hint=4.0)
    model = ChimeraModel.init_random(cfg)
    trained = fit(model, (x, y), steps=400, lr=0.02, tol=naive_mse / 10.0)
    seasonal_mse = trained.loss_history[-1]
    elapsed = time.perf_counter() - start
    check(
        8, "desk-scale learning",
        ar_ok and seasonal_mse < naive_mse and elapsed < 600.0,
        f"AR(1) mse {ar_mse:.2e}; seasonal mse {seasonal_mse:.3g} vs naive {naive_mse:.3g}; {elapsed:.0f}s",
    )


def test_criterion_09_scan_scaling():
    rng = np.random.default_rng(109)
    dp = _random_dp(rng, 8)
    v_count, d = 8, 8

    def best_of(fn, repeats=7):
        fn()  # warm-up outside the timed region
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    # rounds of all three sizes, each size's best over the rounds: a drift of
    # the host's speed meets every size alike, not one size's turn
    xs = {t_count: rng.standard_normal((v_count, t_count, d)) for t_count in (1024, 2048, 4096)}
    scan_times = {t_count: np.inf for t_count in xs}
    for x in xs.values():
        scan_forward(dp, x)  # warm-up outside the timed region
    for _ in range(7):
        for t_count, x in xs.items():
            t0 = time.perf_counter()
            scan_forward(dp, x)
            scan_times[t_count] = min(scan_times[t_count], time.perf_counter() - t0)
    r1 = scan_times[2048] / scan_times[1024]
    r2 = scan_times[4096] / scan_times[2048]
    x = rng.standard_normal((v_count, 4096, d))
    seq_time = best_of(lambda: forward_recurrence(dp, x), repeats=2)
    ratios_ok = 1.6 <= r1 <= 2.6 and 1.6 <= r2 <= 2.6
    vs_seq_ok = scan_times[4096] <= 1.5 * seq_time
    check(
        9, "scan wall-clock scaling",
        ratios_ok and vs_seq_ok,
        f"doubling ratios {r1:.2f}, {r2:.2f}; scan {scan_times[4096]:.3f}s vs sequential {seq_time:.3f}s",
    )


def test_criterion_10_degeneration():
    rng = np.random.default_rng(110)
    # zero-weight selective projections reproduce the constant model
    n, d = 3, 2
    a_set = (
        companion_from_coeffs(rng.uniform(-0.4, 0, n)),
        companion_from_coeffs(rng.uniform(-0.4, 0, n)),
        diagonal_matrix(rng.uniform(-1, -0.1, n)),
        diagonal_matrix(rng.uniform(-1, -0.1, n)),
    )
    proj = replace(
        SelectiveProjections.zeros(n, d),
        b1=rng.standard_normal(n), b2=rng.standard_normal(n),
        c1=rng.standard_normal(n), c2=rng.standard_normal(n),
        dt1_raw=0.25, dt2_raw=-0.1,
    )
    from chimera2d import project_grid_params
    from chimera2d.selective import softplus

    x = rng.standard_normal((5, 9, d))
    y_sel = scan_forward(project_grid_params(proj, x, a_set), x)
    dp = discretize_all(
        ContinuousSSM2D(
            A1=a_set[0], A2=a_set[1], A3=a_set[2], A4=a_set[3],
            B1=proj.b1, B2=proj.b2, C1=proj.c1, C2=proj.c2,
            dt1=float(softplus(0.25)), dt2=float(softplus(-0.1)),
        )
    )
    y_const, _ = forward_recurrence(dp, x)
    sel_diff = float(np.max(np.abs(y_sel - y_const)))

    # gate-closed model obeys superposition
    cfg = ModelConfig(layers=1, state_dim=2, channels=2, seed=110)
    model = ChimeraModel.init_random(cfg)
    model.params["gate.w_in"] = np.zeros_like(model.params["gate.w_in"])
    xa, xb = rng.standard_normal((2, 3, 7, 2))
    lhs = model.forward(1.3 * xa - 0.7 * xb)
    rhs = 1.3 * model.forward(xa) - 0.7 * model.forward(xb)
    lin_diff = float(np.max(np.abs(lhs - rhs)))
    check(
        10, "selective and gate degeneration",
        sel_diff < 1e-10 and lin_diff < 1e-9,
        f"selective {sel_diff:.2e}, linearity {lin_diff:.2e}",
    )
