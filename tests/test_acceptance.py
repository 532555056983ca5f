"""Acceptance suite.

Each test covers one numbered acceptance criterion and emits exactly one
``ACCEPTANCE nn name: PASS|FAIL`` line (written past pytest's capture so
it is always visible), then asserts at the criterion's stated tolerance.
Criteria 1-7 and 10 run the registry checks in ``chimera2d.invariants``
behind them and report the figures those return.
"""

import sys
import time

import numpy as np

from chimera2d import ChimeraModel, ModelConfig, fit, forward_recurrence, scan_forward, simulate_sar
from chimera2d.invariants import GRADIENT_CASES, REGISTRY, _random_dp
from chimera2d.model import mse_loss


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


def accept(num: int, name: str, checks: tuple[str, ...], bound=None) -> None:
    """Criterion num: run its registry checks and report their figures
    on one line. bound(seconds), given the checks' wall time, returns the
    criterion's own further (ok, figure)."""
    start = time.perf_counter()
    ok, figures = True, []
    for check_name in checks:
        try:
            figures.append(REGISTRY[check_name]())
        except AssertionError as exc:
            ok = False
            figures.append(f"{check_name}: {exc}")
    if bound is not None:
        bound_ok, figure = bound(time.perf_counter() - start)
        ok = ok and bound_ok
        figures.append(figure)
    check(num, name, ok, ", ".join(figures))


def test_criterion_01_operator_associativity():
    accept(1, "operator associativity", ("scan.associativity",), lambda seconds: (seconds < 10.0, f"{seconds:.1f}s"))


def test_criterion_02_scan_equals_recurrence():
    accept(2, "scan equals recurrence", ("scan.oracle_equivalence",))


def test_criterion_03_convolution_equals_recurrence():
    accept(3, "convolution equals recurrence", ("conv.matches_recurrence",))


def test_criterion_04_step_resolution():
    accept(4, "step-size resolution", ("discretize.step_resolution",))


def test_criterion_05_sar_representation():
    accept(5, "seasonal AR representation", ("ar.constructive_embedding",))


def test_criterion_06_decoupled_variant():
    accept(6, "decoupled variant and matrix form", ("recurrence.decoupled_sum", "variants.matrix_matches_recurrence"))


def test_criterion_07_gradient_sanity():
    params = max(
        sum(v.size for k, v in ChimeraModel.init_random(cfg).params.items() if not k.startswith("decoder."))
        for cfg, _ in GRADIENT_CASES
    )
    accept(7, "finite-difference gradient sanity", ("model.gradient_sanity",), lambda _: (params <= 500, f"{params} params"))


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
    accept(10, "selective and gate degeneration", ("selective.zero_weight_degeneration", "model.gate_closed_linearity"))
