"""Tests for the associative operator and the row scan."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chimera2d.scan
from chimera2d import (
    DiscreteSSM2D, ScanElement, closed_loop_decode, op_star, scan_forward, forward_recurrence,
)
from chimera2d.invariants import _assert_one_channel_pairs_exact, _element_diff, _random_dp, _random_element
from chimera2d.scan import _LONG_BLOCK, _SharedChain, _block_length, _scan_affine, readout, sweep_shared


def test_identity_is_two_sided():
    rng = np.random.default_rng(0)
    q = _random_element(rng, 3, 2)
    eye = ScanElement.identity(3, 2)
    assert _element_diff(op_star(eye, q), q) == 0.0
    assert _element_diff(op_star(q, eye), q) == 0.0


def test_scalar_state_columns():
    # with scalar blocks (1,2,3;4,5,6) then (7,8,9;10,11,12), the carried
    # state columns compose to 7*3+8*6+9 = 78 and 10*3+11*6+12 = 108
    p = ScanElement(*(np.array([[float(v)]]) for v in (1, 2, 3, 4, 5, 6)))
    q = ScanElement(*(np.array([[float(v)]]) for v in (7, 8, 9, 10, 11, 12)))
    out = op_star(p, q)
    assert out.p3[0, 0] == 78.0
    assert out.p6[0, 0] == 108.0


@pytest.mark.parametrize("count", [2, 3, 5, 8, 13, 32])
def test_tree_matches_sequential(count):
    # the row scan's tree against the plain left-to-right chain
    rng = np.random.default_rng(count)
    a = 0.6 * rng.standard_normal((count, 3, 3))
    g = rng.standard_normal((count, 3, 2))
    h = _scan_affine(a, g.copy())
    expected = g[0]
    for i in range(count):
        if i:
            expected = a[i] @ expected + g[i]
        assert np.max(np.abs(h[i] - expected)) < 1e-9 * (1.0 + np.max(np.abs(expected)))


def _recursive_tree(a, g):
    # the tree scan as a recursion that allocates each level's output: the
    # reference for the in-place loop's products and sums, in their order
    m = g.shape[0]
    if m == 1:
        return g
    half = m // 2
    a_even, a_odd = a[0 : 2 * half : 2], a[1 : 2 * half : 2]
    g_even, g_odd = g[0 : 2 * half : 2], g[1 : 2 * half : 2]
    sg = _recursive_tree(a_odd @ a_even, a_odd @ g_even + g_odd)
    out = np.empty(g.shape)
    out[0] = g[0]
    out[1::2] = sg
    if m > 2:
        out[2::2] = a[2::2] @ sg[: len(range(2, m, 2))] + g[2::2]
    return out


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_tree_solves_in_place_as_the_recursion_bit_for_bit(layout):
    # every length up to 65 and 1,024: odd and even levels at every depth
    rng = np.random.default_rng(22)
    for count in [*range(1, 66), 1024]:
        # a stack axis of 2 behind the chained one, as a selective pair has
        a = 0.6 * rng.standard_normal((count, 2, 3, 3))
        g = rng.standard_normal((count, 2, 3, 4))
        if layout == "transposed":
            # a strided view with the chained axis last in memory
            g = np.ascontiguousarray(g.transpose(3, 2, 1, 0)).transpose(3, 2, 1, 0)
        expected = _recursive_tree(a, g.copy())
        assert _scan_affine(a, g) is g
        assert np.array_equal(g, expected), f"{layout} chain of {count}"


def test_scan_1d_reduction_along_time():
    rng = np.random.default_rng(4)
    n = 3
    dp = _random_dp(rng, n, coupled=False)
    x = rng.standard_normal((1, 9, 1))
    y = scan_forward(dp, x)
    # V = 1 decoupled: time part is a plain 1D recurrence; variate part
    # contributes only the local response
    h = np.zeros((n, 1))
    for t in range(9):
        h = dp.Abar1 @ h + np.outer(dp.Bbar1, x[0, t])
        expected = dp.C1 @ h + dp.C2 @ np.outer(dp.Bbar2, x[0, t])
        assert np.max(np.abs(y[0, t] - expected)) < 1e-10


def test_scan_1d_reduction_along_variates():
    rng = np.random.default_rng(5)
    n = 3
    dp = _random_dp(rng, n, coupled=False)
    x = rng.standard_normal((9, 1, 1))
    y = scan_forward(dp, x)
    h = np.zeros((n, 1))
    for v in range(9):
        h = dp.Abar4 @ h + np.outer(dp.Bbar2, x[v, 0])
        expected = dp.C2 @ h + dp.C1 @ np.outer(dp.Bbar1, x[v, 0])
        assert np.max(np.abs(y[v, 0] - expected)) < 1e-10


def test_scan_matches_recurrence_coupled():
    rng = np.random.default_rng(6)
    dp = _random_dp(rng, 4)
    x = rng.standard_normal((4, 4, 3))
    y = scan_forward(dp, x)
    y_ref, _ = forward_recurrence(dp, x)
    assert np.max(np.abs(y - y_ref)) < 1e-9


def test_scan_hidden_states_match_recurrence():
    rng = np.random.default_rng(7)
    dp = _random_dp(rng, 2)
    x = rng.standard_normal((3, 5, 1))
    y, (h1, h2) = scan_forward(dp, x, return_hidden=True)
    y_ref, (h1_ref, h2_ref) = forward_recurrence(dp, x)
    assert np.max(np.abs(h1 - h1_ref)) < 1e-10
    assert np.max(np.abs(h2 - h2_ref)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_shared_sweep_matches_recurrence_at_block_edges(n):
    # rows of one step, inside one block, at its edges and across
    # block-end carries, with hidden grids in the oracle's (V, T, N, d)
    k = _block_length(n)
    rng = np.random.default_rng(20 + n)
    dp = _random_dp(rng, n)
    for t_count in sorted({1, k - 1, k, k + 1, 2 * k + 5}):
        x = rng.standard_normal((3, t_count, 3))
        y, (h1, h2) = scan_forward(dp, x, return_hidden=True)
        y_ref, (h1_ref, h2_ref) = forward_recurrence(dp, x)
        assert h1.shape == h2.shape == (3, t_count, n, 3)
        for got, want in ((y, y_ref), (h1, h1_ref), (h2, h2_ref)):
            assert rel_diff(got, want) < 1e-10, f"T={t_count}"


def test_reversed_view_matches_its_copy_bit_for_bit():
    # backward blocks pass the variate-reversed view x[::-1]
    rng = np.random.default_rng(13)
    x = rng.standard_normal((5, 70, 3))[::-1]
    for dp in (_random_dp(rng, 2), materialized(_random_dp(rng, 2), 5, 70)):
        y, (h1, h2) = scan_forward(dp, x, return_hidden=True)
        y_c, (h1_c, h2_c) = scan_forward(dp, np.ascontiguousarray(x), return_hidden=True)
        for got, want in ((y, y_c), (h1, h1_c), (h2, h2_c)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_stacked_series_match_separate_scans_bit_for_bit(n):
    # a leading axis of series, as the stacked finite differences pass it:
    # reversed views, rows padded to whole blocks, carries across blocks
    # and several channels
    k = _block_length(n)
    rng = np.random.default_rng(40 + n)
    dp = _random_dp(rng, n)
    for t_count in (k - 3, k, 2 * k + 5):
        for d in (1, 3):
            stack = rng.standard_normal((4, 3, t_count, d))
            for x in (stack, stack[:, ::-1]):
                y, (h1, h2) = scan_forward(dp, x, return_hidden=True)
                assert y.shape == (4, 3, t_count, d) and h1.shape == h2.shape == (4, 3, t_count, n, d)
                for b in range(4):
                    y_b, (h1_b, h2_b) = scan_forward(dp, x[b], return_hidden=True)
                    for got, want in ((y[b], y_b), (h1[b], h1_b), (h2[b], h2_b)):
                        assert np.array_equal(got, want), f"T={t_count} d={d} series {b}"


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_parameter_sets_match_separate_scans_bit_for_bit(n):
    # the stacked finite differences' own-block sweep: parameter sets that
    # share Abar1 and each move Abar2, Abar3, Abar4 or Bbar, on one row
    # chain; and sets that move only C, as readouts of one solved grid
    k = _block_length(n)
    rng = np.random.default_rng(50 + n)
    base = _random_dp(rng, n)
    moved = [{"Abar2": _random_dp(rng, n).Abar2}, {"Abar3": _random_dp(rng, n).Abar3},
             {"Abar4": _random_dp(rng, n).Abar4, "Bbar2": rng.standard_normal(n)},
             {"Bbar1": rng.standard_normal(n)}, {}]
    sets = [DiscreteSSM2D(**{**vars(base), **fields}) for fields in moved]
    stack = DiscreteSSM2D(**{name: np.stack([vars(dp)[name] for dp in sets]) for name in vars(base)})
    readouts = [DiscreteSSM2D(**{**vars(base), "C1": rng.standard_normal(n), "C2": rng.standard_normal(n)})
                for _ in range(3)]
    c = np.stack([np.concatenate((dp.C1, dp.C2)) for dp in readouts])
    for t_count in (k, 2 * k + 5):
        x = rng.standard_normal((3, t_count, 2))[::-1]
        chain = _SharedChain(base.Abar1, t_count)
        y, _ = sweep_shared(stack, x, chain)
        assert y.shape == (len(sets), 3, t_count, 2)
        for b, dp in enumerate(sets):
            assert np.array_equal(y[b], scan_forward(dp, x)), f"T={t_count} set {b}"
        _, grid = sweep_shared(base, x, chain)
        y = readout(c, grid)
        for b, dp in enumerate(readouts):
            assert np.array_equal(y[b], scan_forward(dp, x)), f"T={t_count} readout {b}"


FIELDS = ("Abar1", "Abar2", "Abar3", "Abar4", "Bbar1", "Bbar2", "C1", "C2")


def _random_cells(rng, n, v_count, t_count):
    """A per-cell parameter set with a draw of its own in every cell."""
    def cells(*shape):
        return rng.standard_normal((v_count, t_count) + shape)

    return DiscreteSSM2D(**{name: 0.4 / n * cells(n, n) if name.startswith("Abar") else cells(n) for name in FIELDS})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_per_cell_sets_match_separate_sweeps_bit_for_bit(n):
    # a bidirectional selective layer sweeps its pair as one (2, V, T) stack
    # of per-cell sets, the backward item on the series reversed over
    # variates, which it passed alone as the view x[..., ::-1, :, :]
    rng = np.random.default_rng(70 + n)
    for v_count, t_count, d in ((1, 1, 1), (4, 9, 2), (3, 64, 4)):
        sets = [_random_cells(rng, n, v_count, t_count) for _ in range(2)]
        stack = DiscreteSSM2D(**{name: np.stack([vars(dp)[name] for dp in sets]) for name in FIELDS})
        x = rng.standard_normal((v_count, t_count, d))
        pair = np.stack((x, x))[..., ::-1, :, :]
        for series, xs in (((x, x[..., ::-1, :, :]), np.stack((x, x[..., ::-1, :, :]))), ((pair[0], pair[1]), pair)):
            y, (h1, h2) = scan_forward(stack, xs, return_hidden=True)
            assert y.shape == (2, v_count, t_count, d) and h1.shape == h2.shape == (2, v_count, t_count, n, d)
            for b, dp in enumerate(sets):
                y_b, (h1_b, h2_b) = scan_forward(dp, series[b], return_hidden=True)
                for got, want in ((y[b], y_b), (h1[b], h1_b), (h2[b], h2_b)):
                    assert np.array_equal(got, want), f"{v_count}x{t_count} d={d}: item {b}"


def test_a_stack_of_per_cell_sets_needs_one_series_per_set():
    rng = np.random.default_rng(42)
    sets = [_random_cells(rng, 2, 3, 4) for _ in range(2)]
    stack = DiscreteSSM2D(**{name: np.stack([vars(dp)[name] for dp in sets]) for name in FIELDS})
    for x in (rng.standard_normal((3, 4, 1)), rng.standard_normal((3, 3, 4, 1)), rng.standard_normal((2, 3, 5, 1))):
        with pytest.raises(ValueError, match=r"batch shape \(2, 3, 4\) does not match x of shape " + re.escape(str(x.shape))):
            scan_forward(stack, x)


def test_stacked_series_need_constant_parameters():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((2, 3, 4, 1))
    with pytest.raises(ValueError, match=r"shape \(V, T, d\)"):
        scan_forward(materialized(_random_dp(rng, 2), 3, 4), x)


def test_scan_grid_mismatch_rejected():
    rng = np.random.default_rng(9)
    dp = _random_dp(rng, 2)
    x = rng.standard_normal((4, 4, 1))
    with pytest.raises(ValueError, match=r"batch shape \(3, 3\).*grid \(4, 4\)"):
        scan_forward(dp.on_grid(3, 3), x)
    # one parameter set per variate is not a grid either
    per_variate = DiscreteSSM2D(**{k: np.stack([a] * 4) for k, a in vars(dp).items()})
    with pytest.raises(ValueError, match=r"batch shape \(4,\).*grid \(4, 4\)"):
        scan_forward(per_variate, x)


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


def materialized(dp, v_count, t_count):
    """The constant parameters copied onto every cell of the grid."""
    return DiscreteSSM2D(**{k: np.broadcast_to(a, (v_count, t_count) + a.shape).copy() for k, a in vars(dp).items()})


@given(st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 9), st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_shared_parameters_match_materialized_grid(seed, v_count, t_count, d, n):
    rng = np.random.default_rng(seed)
    dp = _random_dp(rng, n)
    x = rng.standard_normal((v_count, t_count, d))
    y, (h1, h2) = scan_forward(dp, x, return_hidden=True)
    y_grid, (h1_grid, h2_grid) = scan_forward(materialized(dp, v_count, t_count), x, return_hidden=True)
    for got, want in ((y, y_grid), (h1, h1_grid), (h2, h2_grid)):
        assert rel_diff(got, want) < 1e-13
    y_ref, _ = forward_recurrence(dp, x)
    assert rel_diff(y, y_ref) < 1e-10
    assert rel_diff(y_grid, y_ref) < 1e-10


# (N, chain length) -> block length K: a chain of up to _block_length(N)
# steps is one block; a longer one is cut into blocks of 32 steps at N <= 2
# and of _block_length(N) steps from N = 3 on
BLOCK_LENGTHS = {
    (1, 1): 1, (1, 63): 63, (1, 64): 64, (1, 65): 32, (1, 1024): 32, (1, 5000): 32,
    (2, 33): 33, (2, 64): 64, (2, 65): 32, (2, 131): 32, (2, 1024): 32, (2, 5000): 32,
    (3, 28): 28, (3, 29): 28, (3, 59): 28, (3, 1024): 28,
    (4, 16): 16, (4, 17): 16, (4, 1024): 16,
    (8, 7): 7, (8, 8): 8, (8, 9): 8, (8, 1024): 8,
}


@pytest.mark.parametrize("n, length", BLOCK_LENGTHS, ids=[f"{n}-{m}" for n, m in BLOCK_LENGTHS])
def test_block_length_depends_on_state_size_and_chain_length(n, length):
    a = 0.5 * np.eye(n)
    chain = _SharedChain(a, length)
    assert chain.k == BLOCK_LENGTHS[n, length]
    # a stack of transitions blocks its chain as one transition does
    assert _SharedChain(np.stack([a] * 3), length).k == chain.k
    # the block-end carries follow the same rule, one level down
    if chain.carries is not None:
        assert chain.carries.k == _SharedChain(a, chain.carries.length).k


def _chain_lengths(n):
    """Chain lengths around one block (K = _block_length(N)) and the 32-step
    cap, several blocks with a partial one, and the shortest length whose
    block-end carries need two levels."""
    block = _block_length(n)
    two_levels = block * min(block, _LONG_BLOCK) + 1
    return sorted({block - 1, block, block + 1, _LONG_BLOCK, _LONG_BLOCK + 1, 3 * block + 5, two_levels})


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_shared_chain_matches_sequential(n):
    rng = np.random.default_rng(n)
    a = 0.9 * rng.standard_normal((n, n))
    a /= max(1.0, float(np.max(np.abs(np.linalg.eigvals(a))))) / 0.95
    lengths = [1, *_chain_lengths(n)]
    solve = _SharedChain(a, lengths[-1])
    assert solve.carries.carries is not None
    for count in lengths:
        # the chained axis last, behind two leading axes; g is a view
        # into a larger array, as a row of the scan's hidden grid is, and
        # the solver overwrites it
        rows = rng.standard_normal((3, 2, 2 * n, count))
        g = rows[:, :, :n]
        expected = np.empty_like(g)
        expected[..., 0] = g[..., 0]
        for i in range(1, count):
            expected[..., i : i + 1] = a @ expected[..., i - 1 : i] + g[..., i : i + 1]
        # the solver built for this length, and the one for the longest
        for chain in (_SharedChain(a, count), solve):
            g = rows.copy()[:, :, :n]
            chain(g)
            diff = float(np.max(np.abs(g - expected)) / np.max(np.abs(expected)))
            assert diff < 1e-12, f"chain of {count} on a solver of {chain.length}: {diff:.3e}"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_chain_is_each_chain_alone(n):
    # rows inside one block, at its edges and the 32-step cap, of several
    # blocks and a partial one, and with two levels of carries: each
    # parameter set of a stack with its own Abar1 on one chain of the
    # stacked transitions
    rng = np.random.default_rng(40 + n)
    dps = [_random_dp(rng, n) for _ in range(4)]
    stack = DiscreteSSM2D(**{f: np.stack([vars(dp)[f] for dp in dps]) for f in vars(dps[0])})
    for t_count in _chain_lengths(n):
        x = rng.standard_normal((3, t_count, 2))
        y, _ = sweep_shared(stack, x, _SharedChain(stack.Abar1, t_count))
        g = rng.standard_normal((4, 2, n, t_count))
        solved = _SharedChain(stack.Abar1, t_count)(g.copy())
        for b, dp in enumerate(dps):
            assert np.array_equal(y[b], scan_forward(dp, x)), f"T={t_count} set {b}"
            assert np.array_equal(solved[b], _SharedChain(dp.Abar1, t_count)(g[b].copy())), f"T={t_count} set {b}"


@pytest.mark.parametrize("n", [1, 4])
def test_one_channel_stacks_are_each_series_alone(n):
    # the registry's check at the state sizes it leaves out, on rows of one
    # whole block and of one step
    rng = np.random.default_rng(60 + n)
    for t_count in (1, _block_length(n)):
        _assert_one_channel_pairs_exact([_random_dp(rng, n) for _ in range(2)], rng.standard_normal((5, 2, t_count, 1)))


def test_one_channel_rows_of_one_block_take_two_rows_per_block_product(monkeypatch):
    # two series of a one-channel stack on one operator are one product; a
    # series with no partner, each set of a stack of operators among them,
    # pairs its h1 with its own h2; a grid of several channels keeps one
    # row per channel
    shapes = []
    product = _SharedChain.block_product

    def recorded(self, rows):
        shapes.append(rows.shape)
        return product(self, rows)

    monkeypatch.setattr(_SharedChain, "block_product", recorded)
    rng = np.random.default_rng(14)
    dps = [_random_dp(rng, 2) for _ in range(3)]
    own = DiscreteSSM2D(**{f: np.stack([vars(dp)[f] for dp in dps]) for f in vars(dps[0])})
    v_count, t_count = 3, _block_length(2)
    nk = 2 * t_count
    x = rng.standard_normal((36, v_count, t_count, 4))
    for run, row_shapes in ((lambda: scan_forward(dps[0], x[..., :1]), [(18, 2, nk)]),
                            (lambda: scan_forward(dps[0], x[:3, ..., :1]), [(1, 2, nk), (1, 2, nk)]),
                            (lambda: scan_forward(dps[0], x[0, ..., :1]), [(2, nk)]),
                            (lambda: sweep_shared(own, x[:3, ..., :1]), [(3, 2, nk)]),
                            (lambda: scan_forward(dps[0], x[0]), [(4, nk)])):
        run()
        assert shapes == row_shapes * v_count
        shapes.clear()


@pytest.mark.parametrize("length, steps", [(10, 100), (100, 5000), (65, 66)])
def test_chain_rejects_a_chain_longer_than_it_was_built_for(length, steps):
    solve = _SharedChain(0.5 * np.eye(2), length)
    with pytest.raises(ValueError, match=f"built for {length} steps got a chain of {steps} steps"):
        solve(np.zeros((1, 2, steps)))


def test_shared_rows_longer_than_a_block_match_materialized_grid():
    rng = np.random.default_rng(12)
    v_count, t_count = 3, 150
    assert t_count > 2 * _block_length(2)
    dp = _random_dp(rng, 2)
    x = rng.standard_normal((v_count, t_count, 2))
    y, (h1, h2) = scan_forward(dp, x, return_hidden=True)
    y_grid, (h1_grid, h2_grid) = scan_forward(materialized(dp, v_count, t_count), x, return_hidden=True)
    for got, want in ((y, y_grid), (h1, h1_grid), (h2, h2_grid)):
        assert rel_diff(got, want) < 1e-13
    y_ref, _ = forward_recurrence(dp, x)
    assert rel_diff(y, y_ref) < 1e-10


def test_constant_parameters_take_the_shared_sweep(monkeypatch):
    calls = []
    tree = chimera2d.scan._scan_affine

    class RecordedChain(_SharedChain):
        def __init__(self, a, length):
            calls.append(("chain", length))
            super().__init__(a, length)

    def recorded_tree(a, g):
        calls.append(("tree", len(g)))
        return tree(a, g)

    monkeypatch.setattr(chimera2d.scan, "_SharedChain", RecordedChain)
    monkeypatch.setattr(chimera2d.scan, "_scan_affine", recorded_tree)
    rng = np.random.default_rng(11)
    dp = _random_dp(rng, 2)
    x = rng.standard_normal((3, _block_length(2), 2))
    # one row chain per call, and no per-cell machinery
    for _ in range(2):
        scan_forward(dp, x)
        assert calls == [("chain", x.shape[1])]
        calls.clear()
    # the same parameters with every field per-cell take the per-cell sweep
    scan_forward(materialized(dp, *x.shape[:2]), x)
    # one tree scan per row
    assert calls.count(("tree", x.shape[1])) == len(x)
    assert "chain" not in {kind for kind, _ in calls}


def test_only_per_cell_transitions_reach_the_tree_scan(monkeypatch):
    seen = []
    tree = chimera2d.scan._scan_affine

    def recorded(a, g):
        seen.append(a.shape)
        return tree(a, g)

    monkeypatch.setattr(chimera2d.scan, "_scan_affine", recorded)
    rng = np.random.default_rng(10)
    dp = _random_dp(rng, 2)
    x = rng.standard_normal((4, 64, 3))
    scan_forward(dp, x)
    closed_loop_decode(dp, rng.standard_normal(2), rng.standard_normal(2), x, 3)
    assert seen == []
    scan_forward(materialized(dp, 4, 64), x)
    # 4 rows, each one tree scan over its per-step transitions
    assert len(seen) == 4
    assert seen[0] == (64, 2, 2)


def test_decode_reads_out_only_the_generated_columns(monkeypatch):
    # the context pass solves its grid and reads out no y; one readout
    # covers the H generated columns
    grids = []
    original = chimera2d.scan.readout

    def recorded(c, hidden):
        grids.append(hidden.shape)
        return original(c, hidden)

    monkeypatch.setattr(chimera2d.scan, "readout", recorded)
    rng = np.random.default_rng(12)
    dp = _random_dp(rng, 2)
    v_count, t_ctx, d, horizon = 3, 11, 2, 5
    out = closed_loop_decode(dp, rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal((v_count, t_ctx, d)), horizon)
    assert out.shape == (v_count, horizon, d)
    # (columns, d, 2N, variates)
    assert grids == [(horizon, d, 4, v_count)]
