"""Registry of executable invariant checks.

Every behavioral guarantee the library makes is registered here by name;
the part of a name before the dot is the module it checks. The
``selftest`` CLI subcommand runs the whole registry in definition order,
and the test suite runs each entry as its own case, so adding an
invariant takes one decorated function.

Each check is a zero-argument callable that raises ``AssertionError``
(with a short message) on failure and returns ``None`` on success.
Where the tests run a check on inputs of their own, its assertion is an
``_assert_*`` helper that both the check and the tests call.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .structured import (
    companion_from_coeffs,
    diagonal_matrix,
    dense_matrix,
    expm,
)
from .discretize import ContinuousSSM2D, DiscreteSSM2D, zoh_pair, discretize_all
from .recurrence import forward_recurrence, bidirectional_forward
from .scan import (
    ScanElement, _LONG_BLOCK, _SharedChain, _block_length, _scan_affine, closed_loop_decode, inclusive_scan, op_star,
    scan_forward,
)
from .conv import impulse_kernels, conv_apply
from .selective import SelectiveProjections, softplus, project_grid_params
from .variants import materialize_matrices, matrix_form_apply
from .ar import simulate_sar, sar_to_ssm, sar_predict
from .model import ChimeraModel, ModelConfig, fd_gradient, mse_loss, stacked_fd_gradient


@dataclass(frozen=True)
class InvariantResult:
    name: str
    passed: bool
    detail: str


REGISTRY: dict[str, Callable[[], None]] = {}


def invariant(name: str):
    def register(fn: Callable[[], None]) -> Callable[[], None]:
        REGISTRY[name] = fn
        return fn

    return register


# ----------------------------------------------------------------------
# shared helpers


def _contraction(rng: np.random.Generator, n: int, scale: float = 0.6) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return scale * a / max(1.0, np.linalg.norm(a, 2))


def _random_dp(rng: np.random.Generator, n: int, coupled: bool = True) -> DiscreteSSM2D:
    zero = np.zeros((n, n))
    return DiscreteSSM2D(
        Abar1=_contraction(rng, n),
        Abar2=_contraction(rng, n) if coupled else zero,
        Abar3=_contraction(rng, n) if coupled else zero,
        Abar4=_contraction(rng, n),
        Bbar1=rng.standard_normal(n),
        Bbar2=rng.standard_normal(n),
        C1=rng.standard_normal(n),
        C2=rng.standard_normal(n),
    )


def _random_a_set(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
    """Mildly contractive (A1, A2, A3, A4): two companions, two diagonals."""
    return (*companion_from_coeffs(rng.uniform(-0.4, 0, (2, n))), *diagonal_matrix(rng.uniform(-1, -0.1, (2, n))))


def _random_element(rng: np.random.Generator, n: int, d: int) -> ScanElement:
    return ScanElement(
        rng.standard_normal((n, n)),
        rng.standard_normal((n, n)),
        rng.standard_normal((n, d)),
        rng.standard_normal((n, n)),
        rng.standard_normal((n, n)),
        rng.standard_normal((n, d)),
    )


def _element_diff(p: ScanElement, q: ScanElement) -> float:
    """Largest blockwise difference, relative to the block magnitudes
    (long products of random elements grow without bound)."""
    num = 0.0
    for i in range(1, 7):
        a, b = getattr(p, f"p{i}"), getattr(q, f"p{i}")
        num = max(num, float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))))
    return num


# ----------------------------------------------------------------------
# structured transition matrices


@invariant("structured.expm_doubling")
def _check_expm_doubling():
    rng = np.random.default_rng(13)
    diag = rng.uniform(-1, 1, 4)
    dense = 0.5 * rng.standard_normal((4, 4))
    for kind, m, m2 in [
        ("diagonal", diagonal_matrix(diag), diagonal_matrix(2 * diag)),
        ("dense", dense_matrix(dense), dense_matrix(2 * dense)),
    ]:
        diff = np.max(np.abs(expm(m) @ expm(m) - expm(m2)))
        assert diff < 1e-9, f"{kind}: expm(A)^2 vs expm(2A) diff {diff:.3e}"


@invariant("structured.expm_stack_exact")
def _check_expm_stack_exact():
    # fit exponentiates a block's variants in one stacked call, and a
    # bidirectional selective layer a pair's two (V, T) grids of steps: each
    # item must be its own call, bit for bit. Steps from 1e-6 to 30 span
    # degrees 3 to 18 and up to 6 squarings; the diagonal stack is square
    rng = np.random.default_rng(15)
    for gens in (0.5 * rng.standard_normal((9, 3, 3)), rng.uniform(-1, 0.5, (3, 3))):
        steps = np.geomspace(1e-6, 30.0, len(gens))
        for b, item in enumerate(expm(gens, steps, stacked=True)):
            assert np.array_equal(item, expm(gens[b], steps[b])), f"{gens.shape} stack: item {b} is not its own call"
    # a (2, V, T) stack whose items differ in degree and squarings: item 0
    # is the cyclic shift of 3 states at steps just under theta_10, taking
    # degree 10 and no squaring; its entries two places off the diagonal
    # start at x^2 / 2 and the first omitted term (x^11 / 11!) lands there,
    # so item 1's degree 18 (steps up to 300, up to 9 squarings) moves them
    steps = np.stack((rng.uniform(0.11, 0.135, (3, 4)), np.geomspace(1e-4, 300.0, 12).reshape(3, 4)))
    shift = companion_from_coeffs([1.0, 0.0, 0.0])
    for gens in (np.stack((shift, 0.5 * rng.standard_normal((3, 3)))), rng.uniform(-1, 0.5, (2, 3))):
        stack = expm(gens, steps, stacked=True)
        for b in range(2):
            assert np.array_equal(stack[b], expm(gens[b], steps[b])), f"{gens.shape} grid stack: item {b} is not its own call"
    # a stack whose every step takes the same 3 squarings: ||t A||_1 in [5, 8]
    gens = 0.5 * rng.standard_normal((4, 3, 3))
    steps = rng.uniform(5.0, 8.0, (4, 2, 3)) / np.abs(gens).sum(axis=-2).max(axis=-1)[:, None, None]
    for b, item in enumerate(expm(gens, steps, stacked=True)):
        assert np.array_equal(item, expm(gens[b], steps[b])), f"equal squarings: item {b} is not its own call"
    # an item that overflows fails the stack, as it fails alone
    gens = companion_from_coeffs([[-0.3, -0.2], [1.0, 0.5]])
    for args in ((gens[1], 800.0), (gens, np.array([1.0, 800.0]), True)):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                expm(*args)
        except ValueError as exc:
            assert "overflows" in str(exc), str(exc)
        else:
            raise AssertionError("an overflowing exponential was not rejected")


# ----------------------------------------------------------------------
# zero-order-hold discretization


def _assert_step_resolution(a, b: np.ndarray, dt: float, k: int) -> None:
    abar_big, bbar_big = zoh_pair(a, b, k * dt)
    abar, bbar = zoh_pair(a, b, dt)
    # homogeneous: one big step equals k small steps
    small = np.linalg.matrix_power(abar, k)
    diff = np.max(np.abs(abar_big - small))
    assert diff < 1e-10, f"k={k}: transition resolution diff {diff:.3e}"
    # forced with input held constant over the k-block
    h_small = np.zeros(len(b))
    for _ in range(k):
        h_small = abar @ h_small + bbar
    diff = np.max(np.abs(bbar_big - h_small))
    assert diff < 1e-10, f"k={k}: forced resolution diff {diff:.3e}"


@invariant("discretize.step_resolution")
def _check_step_resolution():
    rng = np.random.default_rng(21)
    n = 3
    a = dense_matrix(0.5 * rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    for k in (2, 3, 4):
        _assert_step_resolution(a, b, 0.15, k)


@invariant("discretize.input_branch_agreement")
def _check_input_branch_agreement():
    # on well-conditioned A the inverse formula A^{-1} (Abar - I) B is
    # accurate, and the Van Loan input matrix must reproduce it
    rng = np.random.default_rng(22)
    n = 4
    for trial in range(20):
        a = rng.standard_normal((n, n))
        if np.linalg.cond(a) > 1e3:
            continue
        b = rng.standard_normal(n)
        dt = rng.uniform(0.05, 0.5)
        abar, bbar = zoh_pair(dense_matrix(a), b, dt)
        via_inverse = np.linalg.solve(a, (abar - np.eye(n)) @ b)
        rel = np.max(np.abs(bbar - via_inverse)) / (1.0 + np.max(np.abs(via_inverse)))
        assert rel < 1e-9, f"trial {trial}: Van Loan vs inverse formula {rel:.3e}"


# ----------------------------------------------------------------------
# sequential 2D recurrence


@invariant("recurrence.linearity")
def _check_recurrence_linearity():
    rng = np.random.default_rng(31)
    dp = _random_dp(rng, 3)
    xa = rng.standard_normal((4, 6, 2))
    xb = rng.standard_normal((4, 6, 2))
    a, b = 1.7, -0.4
    ya, _ = forward_recurrence(dp, xa)
    yb, _ = forward_recurrence(dp, xb)
    y, _ = forward_recurrence(dp, a * xa + b * xb)
    diff = np.max(np.abs(y - (a * ya + b * yb)))
    assert diff < 1e-10, f"superposition violated by {diff:.3e}"


@invariant("recurrence.causality")
def _check_recurrence_causality():
    rng = np.random.default_rng(32)
    dp = _random_dp(rng, 2)
    x = rng.standard_normal((5, 7, 1))
    y, _ = forward_recurrence(dp, x)
    vp, tp = 2, 4
    bumped = x.copy()
    bumped[vp, tp, 0] += 1.0
    yb, _ = forward_recurrence(dp, bumped)
    # anything strictly earlier in time or earlier in the variate order
    # cannot see the perturbation, not even by rounding
    leak = np.abs(yb - y)
    leak[vp:, tp:] = 0.0
    assert np.max(leak) == 0.0, f"acausal influence up to {np.max(leak):.3e}"


@invariant("recurrence.decoupled_sum")
def _check_recurrence_decoupled_sum():
    rng = np.random.default_rng(33)
    n = 3
    dp = _random_dp(rng, n, coupled=False)
    x = rng.standard_normal((4, 5, 2))
    y, _ = forward_recurrence(dp, x)
    # independent 1D recurrence along each axis
    expected = np.zeros_like(y)
    for v in range(4):
        h = np.zeros((n, x.shape[2]))
        for t in range(5):
            h = dp.Abar1 @ h + np.outer(dp.Bbar1, x[v, t])
            expected[v, t] += dp.C1 @ h
    for t in range(5):
        h = np.zeros((n, x.shape[2]))
        for v in range(4):
            h = dp.Abar4 @ h + np.outer(dp.Bbar2, x[v, t])
            expected[v, t] += dp.C2 @ h
    diff = np.max(np.abs(y - expected))
    assert diff < 1e-10, f"decoupled output differs from 1D sum by {diff:.3e}"


def _assert_decode_matches_oracle(dp: DiscreteSSM2D, d1, d2, x: np.ndarray, horizon: int) -> None:
    v_count, t_ctx = x.shape[:2]
    out = closed_loop_decode(dp, d1, d2, x, horizon)
    # oracle: rerun the sequential recurrence on the context extended
    # by one fed-back column at a time
    grid = x
    for _ in range(horizon):
        _, (h1, h2) = forward_recurrence(dp, grid)
        u = np.einsum("n,vnd->vd", d1, h1[:, -1]) + np.einsum("n,vnd->vd", d2, h2[:, -1])
        grid = np.concatenate([grid, u[:, None, :]], axis=1)
    ref = forward_recurrence(dp, grid)[0][:, t_ctx:]
    rel = np.max(np.abs(out - ref) / np.abs(ref))
    assert rel < 1e-12, f"{v_count}x{t_ctx}: decode differs from the step-by-step oracle by {rel:.3e} (relative)"


@invariant("recurrence.decode_oracle")
def _check_recurrence_decode_oracle():
    rng = np.random.default_rng(34)
    n = 3
    for v_count, t_ctx in [(4, 7), (1, 7), (4, 1), (1, 1)]:
        dp = _random_dp(rng, n)
        d1, d2 = rng.standard_normal(n), rng.standard_normal(n)
        _assert_decode_matches_oracle(dp, d1, d2, rng.standard_normal((v_count, t_ctx, 2)), 5)


# ----------------------------------------------------------------------
# associative parallel scan


@invariant("scan.associativity")
def _check_scan_associativity():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        p, q, r = (_random_element(rng, n, d) for _ in range(3))
        worst = max(worst, _element_diff(op_star(op_star(p, q), r), op_star(p, op_star(q, r))))
    assert worst < 1e-9, f"associativity violated: {worst:.3e}"


@invariant("scan.split_invariance")
def _check_scan_split_invariance():
    rng = np.random.default_rng(42)
    elems = [_random_element(rng, 3, 2) for _ in range(9)]
    whole = inclusive_scan(elems)[-1]
    for k in range(1, len(elems)):
        split = op_star(inclusive_scan(elems[:k])[-1], inclusive_scan(elems[k:])[-1])
        diff = _element_diff(split, whole)
        assert diff < 1e-9, f"cut at {k}: diff {diff:.3e}"


@invariant("scan.oracle_equivalence")
def _check_scan_oracle_equivalence():
    rng = np.random.default_rng(43)
    for v_count, t_count in [(1, 8), (8, 1), (4, 7), (8, 8)]:
        dp = _random_dp(rng, 3)
        x = rng.standard_normal((v_count, t_count, 2))
        y_ref, _ = forward_recurrence(dp, x)
        diff = np.max(np.abs(scan_forward(dp, x) - y_ref))
        assert diff < 1e-9, f"{v_count}x{t_count}: diff {diff:.3e}"
        # selective (input-dependent) parameters on the same grid
        a_set = _random_a_set(rng, 3)
        proj = SelectiveProjections.init_random(3, 2, seed=v_count * 10 + t_count)
        cells = project_grid_params(proj, x, a_set)
        y_ref, _ = forward_recurrence(cells, x)
        diff = np.max(np.abs(scan_forward(cells, x) - y_ref))
        assert diff < 1e-9, f"selective {v_count}x{t_count}: diff {diff:.3e}"


@invariant("scan.shared_matches_grid")
def _check_scan_shared_matches_grid():
    rng = np.random.default_rng(44)
    # rows of one block and, at N = 2, of several 32-step blocks
    for n, v_count, t_count in [(3, 1, 1), (3, 3, 7), (3, 5, 8), (3, 2, 2 * _block_length(3) + 3),
                                (2, 2, 2 * _block_length(2) + 3)]:
        dp = _random_dp(rng, n)
        x = rng.standard_normal((v_count, t_count, 2))
        # the same parameters copied onto every cell
        grid = DiscreteSSM2D(
            **{k: np.broadcast_to(a, (v_count, t_count) + a.shape).copy() for k, a in vars(dp).items()}
        )
        y, (h1, h2) = scan_forward(dp, x, return_hidden=True)
        y_grid, (h1_grid, h2_grid) = scan_forward(grid, x, return_hidden=True)
        y_ref, _ = forward_recurrence(dp, x)
        for name, a, b in [("y", y, y_grid), ("h1", h1, h1_grid), ("h2", h2, h2_grid)]:
            diff = np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))
            assert diff < 1e-13, f"N={n} {v_count}x{t_count}: shared vs per-cell {name} diff {diff:.3e}"
        diff = np.max(np.abs(y - y_ref))
        assert diff < 1e-10, f"N={n} {v_count}x{t_count}: shared vs recurrence diff {diff:.3e}"
    # the blocked solver against the tree scan on the transition tiled,
    # inside one block, at its edges, across block-end carries and across
    # two levels of them
    for n in (3, 2):
        block = _block_length(n)
        longest = block * min(block, _LONG_BLOCK) + 1
        a = _contraction(rng, n)
        solve = _SharedChain(a, longest)
        for m in (2, block - 1, block, block + 1, 3 * block + 5, longest):
            g = rng.standard_normal((2, n, m))
            # the tree scan takes the chained axis first
            blocked = solve(g.copy())
            tiled = _scan_affine(np.tile(a, (m, 1, 1)), g.transpose(2, 1, 0)).transpose(2, 1, 0)
            diff = np.max(np.abs(blocked - tiled)) / (1.0 + np.max(np.abs(tiled)))
            assert diff < 1e-13, f"N={n} chain of {m}: blocked vs tree diff {diff:.3e}"


# ----------------------------------------------------------------------
# convolution form


def _assert_conv_matches_recurrence(dp: DiscreteSSM2D, x: np.ndarray) -> None:
    v_count, t_count = x.shape[:2]
    k1, k2 = impulse_kernels(dp, v_count, t_count)
    y_conv = conv_apply(k1, k2, dp.C1, dp.C2, x)
    y_rec, _ = forward_recurrence(dp, x)
    diff = np.max(np.abs(y_conv - y_rec))
    assert diff < 1e-10, f"{v_count}x{t_count}: conv vs recurrence diff {diff:.3e}"


@invariant("conv.matches_recurrence")
def _check_conv_matches_recurrence():
    rng = np.random.default_rng(51)
    for v_count, t_count in [(3, 5), (8, 8), (1, 8), (8, 1)]:
        dp = _random_dp(rng, 2)
        _assert_conv_matches_recurrence(dp, rng.standard_normal((v_count, t_count, 2)))


@invariant("conv.translation_invariance")
def _check_conv_translation_invariance():
    rng = np.random.default_rng(52)
    dp = _random_dp(rng, 2)
    v_count, t_count = 7, 9
    v0, t0 = 2, 3

    def impulse_response(vi, ti):
        x = np.zeros((v_count, t_count, 1))
        x[vi, ti, 0] = 1.0
        y, _ = forward_recurrence(dp, x)
        return y[..., 0]

    base = impulse_response(0, 0)
    shifted = impulse_response(v0, t0)
    interior = shifted[v0:, t0:] - base[: v_count - v0, : t_count - t0]
    diff = np.max(np.abs(interior))
    assert diff < 1e-12, f"impulse response not shift-equivariant: {diff:.3e}"
    # causality: nothing before the impulse
    assert np.max(np.abs(shifted[:, :t0])) == 0.0, "response before the impulse's time"
    assert np.max(np.abs(shifted[:v0])) == 0.0, "response before the impulse's variate"


# ----------------------------------------------------------------------
# input-dependent parameters


@invariant("selective.step_monotonicity")
def _check_selective_step_monotonicity():
    z = np.linspace(-8, 8, 200)
    dt = softplus(z)
    assert np.all(np.diff(dt) > 0), "softplus step sizes not strictly increasing"


@invariant("selective.zero_weight_degeneration")
def _check_selective_zero_weight_degeneration():
    rng = np.random.default_rng(61)
    n, d = 3, 2
    a_set = _random_a_set(rng, n)
    proj = replace(
        SelectiveProjections.zeros(n, d),
        b1=rng.standard_normal(n),
        b2=rng.standard_normal(n),
        c1=rng.standard_normal(n),
        c2=rng.standard_normal(n),
        dt1_raw=0.3,
        dt2_raw=-0.2,
    )
    x = rng.standard_normal((4, 6, d))
    y_sel = scan_forward(project_grid_params(proj, x, a_set), x)
    dp = discretize_all(
        ContinuousSSM2D(
            A1=a_set[0], A2=a_set[1], A3=a_set[2], A4=a_set[3],
            B1=proj.b1, B2=proj.b2, C1=proj.c1, C2=proj.c2,
            dt1=float(softplus(0.3)), dt2=float(softplus(-0.2)),
        )
    )
    y_const, _ = forward_recurrence(dp, x)
    diff = np.max(np.abs(y_sel - y_const))
    assert diff < 1e-10, f"zero-weight selective differs from constant by {diff:.3e}"


# ----------------------------------------------------------------------
# layered model


@invariant("model.zero_seasonal_reduction")
def _check_model_zero_seasonal_reduction():
    rng = np.random.default_rng(71)
    cfg = ModelConfig(layers=1, state_dim=2, channels=3, seed=7)
    model = ChimeraModel.init_random(cfg)
    model.params["layer0.redisc.w"] = np.zeros_like(model.params["layer0.redisc.w"])
    x = rng.standard_normal((3, 8, cfg.channels))
    y = model.forward(x)
    expected = (model.layer_forward(0, x)[0] + model.gate(x)) @ model.params["head.w"].T
    diff = np.max(np.abs(y - expected))
    assert diff < 1e-10, f"zero seasonal map does not reduce to trend path: {diff:.3e}"


@invariant("model.gate_closed_linearity")
def _check_model_gate_closed_linearity():
    rng = np.random.default_rng(72)
    cfg = ModelConfig(layers=1, state_dim=2, channels=3, seed=8)
    model = ChimeraModel.init_random(cfg)
    model.params["gate.w_in"] = np.zeros_like(model.params["gate.w_in"])
    xa = rng.standard_normal((2, 7, cfg.channels))
    xb = rng.standard_normal((2, 7, cfg.channels))
    a, b = 0.9, -1.3
    lhs = model.forward(a * xa + b * xb)
    rhs = a * model.forward(xa) + b * model.forward(xb)
    diff = np.max(np.abs(lhs - rhs))
    assert diff < 1e-9, f"gate-closed model not linear: {diff:.3e}"


@invariant("model.gradient_sanity")
def _check_model_gradient_sanity():
    rng = np.random.default_rng(73)
    cfg = ModelConfig(layers=1, state_dim=2, channels=1, seed=9, bidirectional=False)
    model = ChimeraModel.init_random(cfg)
    x = rng.standard_normal((1, 16, 1))
    y = rng.standard_normal((1, 16, 1))

    def loss_fn(m):
        return mse_loss(m.forward(x), y)

    names = [n for n in model.params if not n.startswith("decoder.")]
    g1 = fd_gradient(model, loss_fn, names)
    g2 = fd_gradient(model, loss_fn, names, step_scale=0.5)
    agree, total = 0, 0
    for name in names:
        a, b = np.ravel(g1[name]), np.ravel(g2[name])
        assert np.all(np.isfinite(a)), f"non-finite gradient in {name}"
        scale = np.maximum(np.abs(b), 1e-8)
        agree += int(np.sum(np.abs(a - b) / scale < 1e-3))
        total += a.size
    assert agree >= 0.95 * total, f"only {agree}/{total} coords step-size consistent"


def _assert_fd_stacked_exact(cfg: ModelConfig, x: np.ndarray, y: np.ndarray) -> None:
    model = ChimeraModel.init_random(cfg)
    names = [n for n in model.params if not n.startswith("decoder.")]
    grads = stacked_fd_gradient(model, x, y, names)
    ref = fd_gradient(model, lambda m: mse_loss(m.forward(x), y), names)
    for name in names:
        for i, (got, want) in enumerate(zip(grads[name].reshape(-1), ref[name].reshape(-1))):
            assert got == want, f"{name}[{i}]: stacked {got:.17g} != fd_gradient {want:.17g}"


@invariant("model.fd_stacked_exact")
def _check_model_fd_stacked_exact():
    # fit's gradient evaluates each group's variants stacked and reuses the
    # passes no variant reaches; it must equal, bit for bit, fd_gradient,
    # which reruns the whole model per evaluation
    rng = np.random.default_rng(74)
    x = rng.standard_normal((2, 6, 1))
    y = rng.standard_normal((2, 6, 1))
    for cfg in (ModelConfig(layers=2, state_dim=2, channels=1, seed=16),
                ModelConfig(layers=1, state_dim=2, channels=1, seed=17, selective=True)):
        _assert_fd_stacked_exact(cfg, x, y)


@invariant("model.dp_memo_exact")
def _check_model_dp_memo_exact():
    # a model keeps each constant block's discretization and chain solvers
    # while its parameters are unchanged; moving any one coordinate in
    # place, as fit's update does, must give the outputs of a fresh copy,
    # bit for bit, at either of two context shapes
    rng = np.random.default_rng(75)
    model = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=1, seed=18))
    contexts = (rng.standard_normal((2, 6, 1)), rng.standard_normal((3, 9, 1)))
    prefixes = tuple(f"{prefix}." for prefix in model._ssm_blocks()) + ("decoder.",)
    model.forward(contexts[0])
    model.decode(contexts[0], 3)
    for name in [n for n in model.params if n.startswith(prefixes)]:
        model.params[name].reshape(-1)[-1] += 1e-3
        # first at the shape used last, then at the other one
        for x in contexts:
            shape = f"after moving {name}, at {x.shape[:2]}"
            assert np.array_equal(model.forward(x), model.copy().forward(x)), f"forward {shape} is not a fresh copy's"
            assert np.array_equal(model.decode(x, 3), model.copy().decode(x, 3)), f"decode {shape} is not a fresh copy's"
        contexts = contexts[::-1]


# ----------------------------------------------------------------------
# decoupled variant and its matrix form


def _assert_matrix_matches_recurrence(dp_f: DiscreteSSM2D, dp_b: DiscreteSSM2D, x: np.ndarray) -> None:
    v_count, t_count = x.shape[:2]
    y_ref = bidirectional_forward(dp_f, dp_b, x)
    m_time, m_var = materialize_matrices(dp_f, dp_b, v_count, t_count)
    y_mat = matrix_form_apply(m_time, m_var, x)
    diff = np.max(np.abs(y_mat - y_ref))
    assert diff < 1e-9, f"{v_count}x{t_count}: matrix form diff {diff:.3e}"


@invariant("variants.matrix_matches_recurrence")
def _check_variants_matrix_matches_recurrence():
    rng = np.random.default_rng(81)
    for v_count, t_count in [(2, 4), (4, 4), (8, 8), (2, 2), (3, 4)]:
        dp_f = _random_dp(rng, 2, coupled=False)
        dp_b = _random_dp(rng, 2, coupled=False)
        _assert_matrix_matches_recurrence(dp_f, dp_b, rng.standard_normal((v_count, t_count, 1)))


@invariant("variants.time_matrix_causal")
def _check_variants_time_matrix_causal():
    rng = np.random.default_rng(82)
    dp_f = _random_dp(rng, 3, coupled=False)
    dp_b = _random_dp(rng, 3, coupled=False)
    m_time, _ = materialize_matrices(dp_f, dp_b, 4, 6)
    upper = np.triu(np.ones((6, 6)), k=1).astype(bool)
    leak = np.max(np.abs(m_time[:, upper]))
    assert leak == 0.0, f"time-mixing matrix has acausal entries up to {leak:.3e}"


# ----------------------------------------------------------------------
# autoregressive oracle and embedding


@invariant("ar.constructive_embedding")
def _check_ar_constructive_embedding():
    rng = np.random.default_rng(91)
    for trial in range(8):
        p = int(rng.integers(0, 4))
        q = int(rng.integers(0 if p else 1, 4))
        s = int(rng.integers(1, 5))
        phi = _stable_coeffs(rng, p)
        eta = _stable_coeffs(rng, q)
        need = max(p, q * s, 1)
        init = rng.standard_normal(need)
        series = simulate_sar(phi, eta, s, init, noise_std=0.0, t_count=50, seed=trial)
        full = np.concatenate([init, series])
        pred = sar_predict(sar_to_ssm(phi, eta, s), full)
        diff = np.max(np.abs(pred[need - 1 : -1] - full[need:]))
        assert diff < 1e-8, f"trial {trial} (p={p}, q={q}, s={s}): diff {diff:.3e}"


def _stable_coeffs(rng: np.random.Generator, order: int) -> np.ndarray:
    """Draw lag polynomials with all roots outside the unit circle."""
    while True:
        coeffs = rng.uniform(-0.9, 0.9, order)
        if order == 0:
            return coeffs
        companion = companion_from_coeffs(coeffs[::-1]).T
        if np.max(np.abs(np.linalg.eigvals(companion))) < 0.95:
            return coeffs


@invariant("ar.seed_determinism")
def _check_ar_seed_determinism():
    def draw(seed):
        return simulate_sar([0.5, 0.2], [0.3], 2, [1.0, -1.0], noise_std=0.1, t_count=30, seed=seed)

    assert np.array_equal(draw(5), draw(5)), "identical seeds produced different series"
    assert not np.array_equal(draw(5), draw(6)), "different seeds produced the same series"


# ----------------------------------------------------------------------
# command-line surface


@invariant("cli.config_roundtrip")
def _check_cli_config_roundtrip():
    from . import cli

    cfg = cli.RunConfig(layers=1, state_dim=3, steps=7, lr=0.01, horizon=12, seed=42,
                        phi=(0.4, 0.1), eta=(0.2,), season=4)
    again = cli.RunConfig.from_dict(cfg.to_dict())
    assert cfg == again, "config did not survive a serialize/parse round trip"


@invariant("cli.forecast_csv_shape")
def _check_cli_forecast_csv_shape():
    from . import cli

    v_count, horizon = 3, 4
    forecast = np.arange(v_count * horizon, dtype=float).reshape(v_count, horizon)
    buf = io.StringIO()
    cli.write_series_csv(buf, forecast)
    lines = buf.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["t"] + [f"var_{v}" for v in range(v_count)], f"bad header {header}"
    assert len(lines) - 1 == horizon, f"expected {horizon} rows, got {len(lines) - 1}"
    assert all(len(line.split(",")) == v_count + 1 for line in lines[1:]), "bad column count"


# ----------------------------------------------------------------------
# runner


def run_all() -> list[InvariantResult]:
    """Run every registered invariant in definition order and report one
    result per check."""
    results = []
    for name, check in REGISTRY.items():
        try:
            check()
        except AssertionError as exc:
            results.append(InvariantResult(name, False, str(exc)))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            results.append(InvariantResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(InvariantResult(name, True, "ok"))
    return results
