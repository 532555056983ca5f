"""Registry of executable invariant checks.

Every behavioral guarantee the library makes is registered here by name;
the part of a name before the dot is the module it checks. The
``selftest`` CLI subcommand runs the whole registry in definition order,
the test suite runs each entry as its own case and the acceptance
criteria the ones behind them, so adding an invariant takes one
decorated function.

Each check is a zero-argument callable that raises ``AssertionError``
(with a short message) on failure and returns the figure it measured, a
short string, on success. Where the tests run a check on inputs of their
own, its assertion is an ``_assert_*`` helper that both the check and
the tests call, returning the difference it measured.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .structured import companion_from_coeffs, diagonal_matrix, dense_matrix, expm
from .discretize import ContinuousSSM2D, DiscreteSSM2D, zoh_pair, discretize_all
from .recurrence import forward_recurrence, bidirectional_forward
from .scan import (
    ScanElement, _LONG_BLOCK, _SharedChain, _block_length, _scan_affine, closed_loop_decode, op_star, scan_forward,
    sweep_shared,
)
from .conv import impulse_kernels, conv_apply
from .selective import SelectiveProjections, softplus, project_grid_params
from .variants import mamba2d_forward, materialize_matrices, matrix_form_apply
from .ar import simulate_sar, sar_to_ssm, sar_predict
from .model import ChimeraModel, ModelConfig, fd_gradient, mse_loss, stacked_fd_gradient


@dataclass(frozen=True)
class InvariantResult:
    name: str
    passed: bool
    detail: str


REGISTRY: dict[str, Callable[[], str]] = {}


def invariant(name: str):
    def register(fn: Callable[[], str]) -> Callable[[], str]:
        REGISTRY[name] = fn
        return fn

    return register


# ----------------------------------------------------------------------
# shared helpers


def _within(figure: str, ok: bool) -> str:
    """The check's figure, or an AssertionError carrying it."""
    assert ok, figure
    return figure


def _max_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


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
    return ScanElement(*(rng.standard_normal(shape) for shape in [(n, n), (n, n), (n, d)] * 2))


def _element_diff(p: ScanElement, q: ScanElement) -> float:
    """Largest blockwise difference, relative to the block magnitudes
    (long products of random elements grow without bound)."""
    return max(_max_diff(a, b) / (1.0 + float(np.max(np.abs(b)))) for a, b in zip(vars(p).values(), vars(q).values()))


# ----------------------------------------------------------------------
# structured transition matrices


@invariant("structured.expm_doubling")
def _check_expm_doubling():
    rng = np.random.default_rng(13)
    diag = rng.uniform(-1, 1, 4)
    dense = 0.5 * rng.standard_normal((4, 4))
    diffs = {
        kind: _max_diff(expm(m) @ expm(m), expm(m2))
        for kind, m, m2 in [("diagonal", diagonal_matrix(diag), diagonal_matrix(2 * diag)),
                            ("dense", dense_matrix(dense), dense_matrix(2 * dense))]
    }
    return _within(f"expm(A)^2 vs expm(2A): diagonal {diffs['diagonal']:.2e}, dense {diffs['dense']:.2e}",
                   max(diffs.values()) < 1e-9)


@invariant("structured.expm_stack_exact")
def _check_expm_stack_exact():
    # fit exponentiates a block's variants in one stacked call, and a
    # bidirectional selective layer a pair's two (V, T) grids of steps: each
    # item must be its own call, bit for bit. Steps from 1e-6 to 30 span
    # norms from far below theta_18 to 6 squarings; the diagonal stack is
    # square
    rng = np.random.default_rng(15)

    def own_calls(gens, steps, what):
        stack = expm(gens, steps, stacked=True)
        for b in range(len(gens)):
            assert np.array_equal(stack[b], expm(gens[b], steps[b])), f"{what}: item {b} is not its own call"
        return len(gens)

    items = 0
    for gens in (0.5 * rng.standard_normal((9, 3, 3)), rng.uniform(-1, 0.5, (3, 3))):
        items += own_calls(gens, np.geomspace(1e-6, 30.0, len(gens)), f"{gens.shape} stack")
    # a (2, V, T) stack whose items differ in squarings: item 0 is the
    # cyclic shift of 3 states at steps near 0.12, taking no squaring, whose
    # entries two places off the diagonal start at x^2 / 2 and run through
    # every third term of the series; item 1 steps up to 300 (up to 9
    # squarings)
    steps = np.stack((rng.uniform(0.11, 0.135, (3, 4)), np.geomspace(1e-4, 300.0, 12).reshape(3, 4)))
    shift = companion_from_coeffs([1.0, 0.0, 0.0])
    for gens in (np.stack((shift, 0.5 * rng.standard_normal((3, 3)))), rng.uniform(-1, 0.5, (2, 3))):
        items += own_calls(gens, steps, f"{gens.shape} grid stack")
    # a stack whose every step takes the same 3 squarings: ||t A||_1 in [5, 8]
    gens = 0.5 * rng.standard_normal((4, 3, 3))
    steps = rng.uniform(5.0, 8.0, (4, 2, 3)) / np.abs(gens).sum(axis=-2).max(axis=-1)[:, None, None]
    items += own_calls(gens, steps, "equal squarings")
    # one state: each item's series is a (steps, 18) @ (18, 1) product,
    # whose column must be laid out as in its own call
    items += own_calls(rng.uniform(-1, 0.5, (5, 1, 1)), np.geomspace(1e-6, 30.0, 5), "(5, 1, 1) stack")
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
    return f"{items} stacked items bit for bit, overflow rejected"


# ----------------------------------------------------------------------
# zero-order-hold discretization


def _assert_step_resolution(a, b: np.ndarray, dt: float, k: int, steps: int = 1) -> float:
    abar_big, bbar_big = zoh_pair(a, b, k * dt)
    abar, bbar = zoh_pair(a, b, dt)
    # homogeneous: `steps` big steps equal k * steps small ones
    diff = _max_diff(np.linalg.matrix_power(abar_big, steps), np.linalg.matrix_power(abar, k * steps))
    assert diff < 1e-10, f"k={k}: transition resolution diff {diff:.3e}"
    # forced with input held constant over the k-block
    h_small = np.zeros(len(b))
    for _ in range(k):
        h_small = abar @ h_small + bbar
    forced = _max_diff(bbar_big, h_small)
    assert forced < 1e-10, f"k={k}: forced resolution diff {forced:.3e}"
    return max(diff, forced)


@invariant("discretize.step_resolution")
def _check_step_resolution():
    # per k: N = 3 at dt = 0.15 in one big step, then 10 draws of N <= 4
    # and dt in [0.05, 0.4) in up to 5 big steps
    rng = np.random.default_rng(21)
    a = dense_matrix(0.5 * rng.standard_normal((3, 3)))
    b = rng.standard_normal(3)
    worst = 0.0
    for k in (2, 3, 4):
        worst = max(worst, _assert_step_resolution(a, b, 0.15, k))
        for _ in range(10):
            n = int(rng.integers(1, 5))
            args = dense_matrix(0.5 * rng.standard_normal((n, n))), rng.standard_normal(n), rng.uniform(0.05, 0.4), k
            worst = max(worst, _assert_step_resolution(*args, int(rng.integers(1, 6))))
    return f"max diff {worst:.2e}"


@invariant("discretize.input_branch_agreement")
def _check_input_branch_agreement():
    # on well-conditioned A the inverse formula A^{-1} (Abar - I) B is
    # accurate, and the Van Loan input matrix must reproduce it
    rng = np.random.default_rng(22)
    n = 4
    worst, count = 0.0, 0
    for trial in range(20):
        a = rng.standard_normal((n, n))
        if np.linalg.cond(a) > 1e3:
            continue
        b = rng.standard_normal(n)
        dt = rng.uniform(0.05, 0.5)
        abar, bbar = zoh_pair(dense_matrix(a), b, dt)
        via_inverse = np.linalg.solve(a, (abar - np.eye(n)) @ b)
        rel = _max_diff(bbar, via_inverse) / (1.0 + np.max(np.abs(via_inverse)))
        assert rel < 1e-9, f"trial {trial}: Van Loan vs inverse formula {rel:.3e}"
        worst, count = max(worst, rel), count + 1
    return f"max rel diff {worst:.2e} over {count} trials"


# ----------------------------------------------------------------------
# sequential 2D recurrence


@invariant("recurrence.linearity")
def _check_recurrence_linearity():
    rng = np.random.default_rng(31)
    dp = _random_dp(rng, 3)
    xa = rng.standard_normal((4, 6, 2))
    xb = rng.standard_normal((4, 6, 2))
    a, b = 1.7, -0.4
    ya, yb, y = (forward_recurrence(dp, z)[0] for z in (xa, xb, a * xa + b * xb))
    diff = _max_diff(y, a * ya + b * yb)
    return _within(f"superposition diff {diff:.2e}", diff < 1e-10)


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
    return _within(f"acausal influence {np.max(leak):.2e}", np.max(leak) == 0.0)


@invariant("recurrence.decoupled_sum")
def _check_recurrence_decoupled_sum():
    # with zero cross blocks the decoupled variant's forward is one 1D
    # recurrence along each axis, summed
    rng = np.random.default_rng(33)
    n = 3
    worst = 0.0
    for v_count, t_count, d in [(2, 2, 1), (4, 6, 1), (5, 6, 1), (8, 8, 1), (4, 5, 2)]:
        dp = _random_dp(rng, n, coupled=False)
        x = rng.standard_normal((v_count, t_count, d))
        expected = np.zeros_like(x)
        for v in range(v_count):
            h = np.zeros((n, d))
            for t in range(t_count):
                h = dp.Abar1 @ h + np.outer(dp.Bbar1, x[v, t])
                expected[v, t] += dp.C1 @ h
        for t in range(t_count):
            h = np.zeros((n, d))
            for v in range(v_count):
                h = dp.Abar4 @ h + np.outer(dp.Bbar2, x[v, t])
                expected[v, t] += dp.C2 @ h
        worst = max(worst, _max_diff(mamba2d_forward(dp, x), expected))
    return _within(f"1d-pass {worst:.2e}", worst < 1e-10)


def _assert_decode_matches_oracle(dp: DiscreteSSM2D, d1, d2, x: np.ndarray, horizon: int) -> float:
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
    rel = float(np.max(np.abs(out - ref) / np.abs(ref)))
    assert rel < 1e-12, f"{v_count}x{t_ctx}: decode differs from the step-by-step oracle by {rel:.3e} (relative)"
    return rel


@invariant("recurrence.decode_oracle")
def _check_recurrence_decode_oracle():
    rng = np.random.default_rng(34)
    n = 3
    worst = 0.0
    for v_count, t_ctx in [(4, 7), (1, 7), (4, 1), (1, 1)]:
        dp = _random_dp(rng, n)
        d1, d2 = rng.standard_normal(n), rng.standard_normal(n)
        worst = max(worst, _assert_decode_matches_oracle(dp, d1, d2, rng.standard_normal((v_count, t_ctx, 2)), 5))
    return f"max rel diff {worst:.2e}"


# ----------------------------------------------------------------------
# associative parallel scan


@invariant("scan.associativity")
def _check_scan_associativity():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(1200):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        p, q, r = (_random_element(rng, n, d) for _ in range(3))
        worst = max(worst, _element_diff(op_star(op_star(p, q), r), op_star(p, op_star(q, r))))
    return _within(f"worst rel diff {worst:.2e}", worst < 1e-9)


@invariant("scan.oracle_equivalence")
def _check_scan_oracle_equivalence():
    # on every grid of 1, 2, 4 or 8 variates by 1, 2, 4 or 8 steps, and
    # on 4x7: constant parameters at N = 3, d = 2 and at 50 random sizes,
    # and 51 selective (input-dependent) parameter sets on one input
    rng = np.random.default_rng(43)
    sizes = (1, 2, 4, 8)
    worst_const = worst_sel = 0.0
    for v_count, t_count in [(v, t) for v in sizes for t in sizes] + [(4, 7)]:
        for n, d in [(3, 2)] + [(int(rng.integers(1, 5)), int(rng.integers(1, 4))) for _ in range(50)]:
            dp = _random_dp(rng, n)
            x = rng.standard_normal((v_count, t_count, d))
            worst_const = max(worst_const, _max_diff(scan_forward(dp, x), forward_recurrence(dp, x)[0]))
        x = rng.standard_normal((v_count, t_count, 2))
        a_set = _random_a_set(rng, 3)
        for _ in range(51):
            cells = project_grid_params(SelectiveProjections.init_random(3, 2, seed=rng), x, a_set)
            worst_sel = max(worst_sel, _max_diff(scan_forward(cells, x), forward_recurrence(cells, x)[0]))
    return _within(f"const {worst_const:.2e}, selective {worst_sel:.2e}", max(worst_const, worst_sel) < 1e-9)


@invariant("scan.shared_matches_grid")
def _check_scan_shared_matches_grid():
    rng = np.random.default_rng(44)
    worst_grid = worst_rec = worst_tree = 0.0
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
            diff = _max_diff(a, b) / (1.0 + np.max(np.abs(b)))
            assert diff < 1e-13, f"N={n} {v_count}x{t_count}: shared vs per-cell {name} diff {diff:.3e}"
            worst_grid = max(worst_grid, diff)
        diff = _max_diff(y, y_ref)
        assert diff < 1e-10, f"N={n} {v_count}x{t_count}: shared vs recurrence diff {diff:.3e}"
        worst_rec = max(worst_rec, diff)
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
            diff = _max_diff(blocked, tiled) / (1.0 + np.max(np.abs(tiled)))
            assert diff < 1e-13, f"N={n} chain of {m}: blocked vs tree diff {diff:.3e}"
            worst_tree = max(worst_tree, diff)
    return f"per-cell {worst_grid:.2e}, recurrence {worst_rec:.2e}, blocked vs tree {worst_tree:.2e}"


def _assert_one_channel_pairs_exact(dps: list[DiscreteSSM2D], x: np.ndarray) -> tuple[float, float]:
    """Stacks of 1, 2, 3 and S of the (S, V, T, 1) series x on dps[0], and
    x[:len(dps)] on a stack of dps with their own Abar1, give each item
    its lone `scan_forward`, bit for bit, and a lone series' grids, h2
    among them, are the per-cell sweep's. Returns the largest differences
    from `forward_recurrence` and from the per-cell sweep."""
    dp = dps[0]
    lone = [scan_forward(dp, series) for series in x]
    worst_rec = max(_max_diff(y, forward_recurrence(dp, series)[0]) for y, series in zip(lone, x))
    for size in sorted({1, 2, 3, len(x)}):
        y = scan_forward(dp, x[:size])
        for b in range(size):
            assert np.array_equal(y[b], lone[b]), f"N={dp.n} T={x.shape[2]}: series {b} of a stack of {size}"
    own = DiscreteSSM2D(**{f: np.stack([vars(p)[f] for p in dps]) for f in vars(dp)})
    y = sweep_shared(own, x[: len(dps)])[0]
    for b, p in enumerate(dps):
        assert np.array_equal(y[b], scan_forward(p, x[b])), f"N={dp.n} T={x.shape[2]}: set {b} of its own Abar1"
        worst_rec = max(worst_rec, _max_diff(y[b], forward_recurrence(p, x[b])[0]))
    assert worst_rec < 1e-10, f"N={dp.n} T={x.shape[2]}: recurrence diff {worst_rec:.3e}"
    y, hidden = scan_forward(dp, x[0], return_hidden=True)
    y_grid, hidden_grid = scan_forward(dp.on_grid(*x.shape[1:3]), x[0], return_hidden=True)
    worst_grid = max(_max_diff(a, b) / (1.0 + np.max(np.abs(b))) for a, b in zip((y, *hidden), (y_grid, *hidden_grid)))
    assert worst_grid < 1e-13, f"N={dp.n} T={x.shape[2]}: shared vs per-cell diff {worst_grid:.3e}"
    return worst_rec, worst_grid


@invariant("scan.one_channel_pairs_exact")
def _check_scan_one_channel_pairs_exact():
    # a one-channel grid whose rows are one block pairs two series per block
    # product and gives a series with no partner its own h2 half as the
    # second row: every item must still be its lone sweep, bit for bit
    rng = np.random.default_rng(46)
    worst_rec = worst_grid = 0.0
    for n, t_count in [(2, 1), (2, 33), (2, _block_length(2)), (3, _block_length(3))]:
        rec, grid = _assert_one_channel_pairs_exact([_random_dp(rng, n) for _ in range(3)],
                                                    rng.standard_normal((36, 3, t_count, 1)))
        worst_rec, worst_grid = max(worst_rec, rec), max(worst_grid, grid)
    return f"stacks of 1-36 bit for bit, recurrence {worst_rec:.2e}, per-cell {worst_grid:.2e}"


# ----------------------------------------------------------------------
# convolution form


def _assert_conv_matches_recurrence(dp: DiscreteSSM2D, x: np.ndarray) -> float:
    v_count, t_count = x.shape[:2]
    diff = _max_diff(conv_apply(impulse_kernels(dp, v_count, t_count), x), forward_recurrence(dp, x)[0])
    assert diff < 1e-10, f"{v_count}x{t_count}: conv vs recurrence diff {diff:.3e}"
    return diff


@invariant("conv.matches_recurrence")
def _check_conv_matches_recurrence():
    # every grid up to 8x8 at a random N <= 4, and four of them at N = 2
    rng = np.random.default_rng(51)
    cases = [(v, t, int(rng.integers(1, 5))) for v in range(1, 9) for t in range(1, 9)]
    cases += [(3, 5, 2), (8, 8, 2), (1, 8, 2), (8, 1, 2)]
    worst = 0.0
    for v_count, t_count, n in cases:
        worst = max(worst, _assert_conv_matches_recurrence(_random_dp(rng, n), rng.standard_normal((v_count, t_count, 2))))
    return f"max diff {worst:.2e}"


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
    diff = float(np.max(np.abs(interior)))
    assert diff < 1e-12, f"impulse response not shift-equivariant: {diff:.3e}"
    # causality: nothing before the impulse
    assert np.max(np.abs(shifted[:, :t0])) == 0.0, "response before the impulse's time"
    assert np.max(np.abs(shifted[:v0])) == 0.0, "response before the impulse's variate"
    return f"shift diff {diff:.2e}"


# ----------------------------------------------------------------------
# input-dependent parameters


@invariant("selective.step_monotonicity")
def _check_selective_step_monotonicity():
    z = np.linspace(-8, 8, 200)
    rise = np.min(np.diff(softplus(z)))
    return _within(f"least step increase {rise:.2e}", rise > 0)


@invariant("selective.zero_weight_degeneration")
def _check_selective_zero_weight_degeneration():
    rng = np.random.default_rng(61)
    n, d = 3, 2
    worst = 0.0
    for grid, dt1_raw, dt2_raw in [((4, 6), 0.3, -0.2), ((5, 9), 0.25, -0.1)]:
        a_set = _random_a_set(rng, n)
        b1, b2, c1, c2 = (rng.standard_normal(n) for _ in range(4))
        proj = replace(SelectiveProjections.zeros(n, d), b1=b1, b2=b2, c1=c1, c2=c2, dt1_raw=dt1_raw, dt2_raw=dt2_raw)
        x = rng.standard_normal(grid + (d,))
        dp = discretize_all(ContinuousSSM2D(*a_set, b1, b2, c1, c2, float(softplus(dt1_raw)), float(softplus(dt2_raw))))
        worst = max(worst, _max_diff(scan_forward(project_grid_params(proj, x, a_set), x), forward_recurrence(dp, x)[0]))
    return _within(f"selective {worst:.2e}", worst < 1e-10)


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
    diff = _max_diff(y, expected)
    return _within(f"trend-path diff {diff:.2e}", diff < 1e-10)


@invariant("model.gate_closed_linearity")
def _check_model_gate_closed_linearity():
    rng = np.random.default_rng(72)
    worst = 0.0
    for channels, seed, grid, (a, b) in [(3, 8, (2, 7), (0.9, -1.3)), (2, 110, (3, 7), (1.3, -0.7))]:
        model = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=channels, seed=seed))
        model.params["gate.w_in"] = np.zeros_like(model.params["gate.w_in"])
        xa, xb = rng.standard_normal((2, *grid, channels))
        worst = max(worst, _max_diff(model.forward(a * xa + b * xb), a * model.forward(xa) + b * model.forward(xb)))
    return _within(f"linearity {worst:.2e}", worst < 1e-9)


# the models whose finite differences `model.gradient_sanity` checks, with (V, T)
GRADIENT_CASES = (
    (ModelConfig(layers=1, state_dim=2, channels=1, seed=9, bidirectional=False), (1, 16)),
    (ModelConfig(layers=1, state_dim=2, channels=2, seed=107), (2, 10)),
)


@invariant("model.gradient_sanity")
def _check_model_gradient_sanity():
    rng = np.random.default_rng(73)
    counts = []
    for cfg, grid in GRADIENT_CASES:
        model = ChimeraModel.init_random(cfg)
        x, y = rng.standard_normal((2, *grid, cfg.channels))
        names = [n for n in model.params if not n.startswith("decoder.")]
        g1, g2 = (fd_gradient(model, lambda m: mse_loss(m.forward(x), y), names, step_scale=s) for s in (1.0, 0.5))
        bad = [name for name in names if not np.all(np.isfinite(g1[name]))]
        assert not bad, f"non-finite gradient in {', '.join(bad)}"
        a, b = (np.concatenate([np.ravel(g[name]) for name in names]) for g in (g1, g2))
        agree = int(np.sum(np.abs(a - b) / np.maximum(np.abs(b), 1e-8) < 1e-3))
        assert agree >= 0.95 * a.size, f"{cfg}: only {agree}/{a.size} coords step-size consistent"
        counts.append(f"{agree}/{a.size}")
    return f"{' and '.join(counts)} coords consistent"


def _assert_fd_stacked_exact(cfg: ModelConfig, x: np.ndarray, y: np.ndarray) -> int:
    model = ChimeraModel.init_random(cfg)
    names = [n for n in model.params if not n.startswith("decoder.")]
    grads = stacked_fd_gradient(model, x, y, names)
    ref = fd_gradient(model, lambda m: mse_loss(m.forward(x), y), names)
    for name in names:
        for i, (got, want) in enumerate(zip(grads[name].reshape(-1), ref[name].reshape(-1))):
            assert got == want, f"{name}[{i}]: stacked {got:.17g} != fd_gradient {want:.17g}"
    return sum(ref[name].size for name in names)


@invariant("model.fd_stacked_exact")
def _check_model_fd_stacked_exact():
    # fit's gradient evaluates each group's variants stacked and reuses the
    # passes no variant reaches; it must equal, bit for bit, fd_gradient,
    # which reruns the whole model per evaluation
    rng = np.random.default_rng(74)
    x = rng.standard_normal((2, 6, 1))
    y = rng.standard_normal((2, 6, 1))
    coords = sum(
        _assert_fd_stacked_exact(cfg, x, y)
        for cfg in (ModelConfig(layers=2, state_dim=2, channels=1, seed=16),
                    ModelConfig(layers=1, state_dim=2, channels=1, seed=17, selective=True))
    )
    return f"{coords} coords bit for bit"


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
    moved = [n for n in model.params if n.startswith(prefixes)]
    for name in moved:
        model.params[name].reshape(-1)[-1] += 1e-3
        # first at the shape used last, then at the other one
        for x in contexts:
            shape = f"after moving {name}, at {x.shape[:2]}"
            assert np.array_equal(model.forward(x), model.copy().forward(x)), f"forward {shape} is not a fresh copy's"
            assert np.array_equal(model.decode(x, 3), model.copy().decode(x, 3)), f"decode {shape} is not a fresh copy's"
        contexts = contexts[::-1]
    return f"{len(moved)} moves bit for bit"


# ----------------------------------------------------------------------
# decoupled variant and its matrix form


def _assert_matrix_matches_recurrence(dp_f: DiscreteSSM2D, dp_b: DiscreteSSM2D, x: np.ndarray) -> float:
    v_count, t_count = x.shape[:2]
    m_time, m_var = materialize_matrices(dp_f, dp_b, v_count, t_count)
    diff = _max_diff(matrix_form_apply(m_time, m_var, x), bidirectional_forward(dp_f, dp_b, x))
    assert diff < 1e-9, f"{v_count}x{t_count}: matrix form diff {diff:.3e}"
    return diff


@invariant("variants.matrix_matches_recurrence")
def _check_variants_matrix_matches_recurrence():
    rng = np.random.default_rng(81)
    worst = 0.0
    for v_count, t_count, n in [(2, 2, 3), (4, 6, 3), (5, 6, 3), (8, 8, 3),
                                (2, 4, 2), (4, 4, 2), (8, 8, 2), (2, 2, 2), (3, 4, 2)]:
        dp_f = _random_dp(rng, n, coupled=False)
        dp_b = _random_dp(rng, n, coupled=False)
        worst = max(worst, _assert_matrix_matches_recurrence(dp_f, dp_b, rng.standard_normal((v_count, t_count, 1))))
    return f"matrix {worst:.2e}"


@invariant("variants.time_matrix_causal")
def _check_variants_time_matrix_causal():
    rng = np.random.default_rng(82)
    dp_f = _random_dp(rng, 3, coupled=False)
    dp_b = _random_dp(rng, 3, coupled=False)
    m_time, _ = materialize_matrices(dp_f, dp_b, 4, 6)
    upper = np.triu(np.ones((6, 6)), k=1).astype(bool)
    leak = np.max(np.abs(m_time[:, upper]))
    return _within(f"acausal entries {leak:.2e}", leak == 0.0)


# ----------------------------------------------------------------------
# autoregressive oracle and embedding


@invariant("ar.constructive_embedding")
def _check_ar_constructive_embedding():
    # every order p, q <= 3 (not both 0) at every season s <= 4, then 8
    # drawn at random
    rng = np.random.default_rng(91)
    orders = [(p, q, s) for p in range(4) for q in range(4) for s in range(1, 5) if p + q]
    for _ in range(8):
        p = int(rng.integers(0, 4))
        orders.append((p, int(rng.integers(0 if p else 1, 4)), int(rng.integers(1, 5))))
    worst = 0.0
    for trial, (p, q, s) in enumerate(orders):
        phi = _stable_coeffs(rng, p)
        eta = _stable_coeffs(rng, q)
        need = max(p, q * s, 1)
        init = rng.standard_normal(need)
        series = simulate_sar(phi, eta, s, init, noise_std=0.0, t_count=50, seed=trial)
        full = np.concatenate([init, series])
        pred = sar_predict(sar_to_ssm(phi, eta, s), full)
        diff = _max_diff(pred[need - 1 : -1], full[need:])
        assert diff < 1e-8, f"trial {trial} (p={p}, q={q}, s={s}): diff {diff:.3e}"
        worst = max(worst, diff)
    return f"max diff {worst:.2e} over {len(orders)} orders"


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
    return "seed 5 twice equal, seeds 5 and 6 differ"


# ----------------------------------------------------------------------
# command-line surface


@invariant("cli.config_roundtrip")
def _check_cli_config_roundtrip():
    from . import cli

    cfg = cli.RunConfig(layers=1, state_dim=3, steps=7, lr=0.01, horizon=12, seed=42,
                        phi=(0.4, 0.1), eta=(0.2,), season=4)
    again = cli.RunConfig.from_dict(cfg.to_dict())
    assert cfg == again, "config did not survive a serialize/parse round trip"
    return f"{len(fields(cfg))} fields round-tripped"


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
    return f"{horizon} rows of {v_count + 1} columns"


# ----------------------------------------------------------------------
# runner


def run_all() -> list[InvariantResult]:
    """Run every registered invariant in definition order and report one
    result per check: its figure, or its failure, is the detail."""
    results = []
    for name, check in REGISTRY.items():
        try:
            figure = check()
        except AssertionError as exc:
            results.append(InvariantResult(name, False, str(exc)))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            results.append(InvariantResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(InvariantResult(name, True, figure))
    return results
