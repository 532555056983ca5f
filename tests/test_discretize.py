"""Tests for zero-order-hold discretization."""

import re
from dataclasses import replace

import numpy as np
import pytest

from chimera2d import (
    ContinuousSSM2D,
    DiscreteSSM2D,
    companion_from_coeffs,
    diagonal_matrix,
    dense_matrix,
    discretize_all,
    zoh_pair,
)
from chimera2d.invariants import _assert_step_resolution


def test_zero_matrix_limit():
    n = 3
    a = dense_matrix(np.zeros((n, n)))
    b = np.ones(n)
    dt = 0.25
    abar, bbar = zoh_pair(a, b, dt)
    assert np.allclose(abar, np.eye(n), atol=1e-14)
    assert np.allclose(bbar, dt * b, atol=1e-14)


def test_scalar_closed_form():
    # a = -1, step log 2: transition halves; input term is also one half
    abar, bbar = zoh_pair(dense_matrix([[-1.0]]), np.array([1.0]), np.log(2.0))
    assert abs(abar[0, 0] - 0.5) < 1e-12
    assert abs(bbar[0] - 0.5) < 1e-12


def test_diagonal_closed_form():
    a = diagonal_matrix([-1.0, -2.0])
    abar, bbar = zoh_pair(a, np.array([1.0, 1.0]), 0.1)
    assert np.allclose(np.diag(abar), [np.exp(-0.1), np.exp(-0.2)], atol=1e-14)
    expected_b = [1 - np.exp(-0.1), (1 - np.exp(-0.2)) / 2.0]
    assert np.allclose(bbar, expected_b, atol=1e-13)


def test_input_matrix_exact_at_every_step():
    # diagonalizable dense A = S diag(lam) S^{-1}: the exact ZOH input
    # matrix is S (expm1(dt lam) / lam * S^{-1} b), accurate at any dt
    rng = np.random.default_rng(4)
    n = 3
    s = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    lam = -rng.uniform(0.2, 2.0, n)
    a = dense_matrix(s @ np.diag(lam) @ np.linalg.inv(s))
    b = rng.standard_normal(n)
    for dt in (1e-2, 1e-4, 1e-8, 1e-10, 1e-12):
        _, bbar = zoh_pair(a, b, dt)
        expected = s @ (np.expm1(dt * lam) / lam * np.linalg.solve(s, b))
        assert np.allclose(bbar, expected, rtol=1e-12, atol=0.0), f"dt={dt}"


def test_singular_matrix_exact_input_matrix():
    # the nilpotent shift is singular: Bbar is the exact polynomial answer
    n = 2
    shift = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([1.0, 1.0])
    dt = 0.5
    _, bbar = zoh_pair(dense_matrix(shift), b, dt)
    # integral of exp(s*shift) @ b over [0, dt] = dt*b + dt^2/2 * shift@b
    expected = dt * b + 0.5 * dt**2 * shift @ b
    assert np.allclose(bbar, expected, atol=1e-12)


def _system(n=3, dt1=0.3, dt2=0.7, seed=5):
    rng = np.random.default_rng(seed)
    return ContinuousSSM2D(
        A1=companion_from_coeffs(rng.uniform(-0.5, 0, n)),
        A2=companion_from_coeffs(rng.uniform(-0.5, 0, n)),
        A3=diagonal_matrix(rng.uniform(-1, -0.1, n)),
        A4=diagonal_matrix(rng.uniform(-1, -0.1, n)),
        B1=rng.standard_normal(n),
        B2=rng.standard_normal(n),
        C1=rng.standard_normal(n),
        C2=rng.standard_normal(n),
        dt1=dt1,
        dt2=dt2,
    )


def test_discretize_all_pairing():
    import scipy.linalg

    p = _system()
    dp = discretize_all(p)
    # time-axis blocks use dt1, variate-axis blocks use dt2
    assert np.allclose(dp.Abar1, scipy.linalg.expm(p.dt1 * p.A1.dense()), atol=1e-12)
    assert np.allclose(dp.Abar2, scipy.linalg.expm(p.dt1 * p.A2.dense()), atol=1e-12)
    assert np.allclose(dp.Abar3, np.diag(np.exp(p.dt2 * p.A3.data)), atol=1e-12)
    assert np.allclose(dp.Abar4, np.diag(np.exp(p.dt2 * p.A4.data)), atol=1e-12)
    assert np.array_equal(dp.C1, p.C1)
    assert np.array_equal(dp.C2, p.C2)


def test_discretize_all_zero_matrices():
    n = 2
    zero = dense_matrix(np.zeros((n, n)))
    p = ContinuousSSM2D(
        A1=zero, A2=zero, A3=diagonal_matrix(np.zeros(n)), A4=diagonal_matrix(np.zeros(n)),
        B1=np.ones(n), B2=2 * np.ones(n), C1=np.ones(n), C2=np.ones(n),
        dt1=0.4, dt2=0.9,
    )
    dp = discretize_all(p)
    for abar in (dp.Abar1, dp.Abar2, dp.Abar3, dp.Abar4):
        assert np.allclose(abar, np.eye(n), atol=1e-14)
    assert np.allclose(dp.Bbar1, 0.4 * p.B1, atol=1e-14)
    assert np.allclose(dp.Bbar2, 0.9 * p.B2, atol=1e-14)


def test_step_doubling_squares_transition():
    p = _system(dt1=0.3)
    p2 = _system(dt1=0.6)
    dp, dp2 = discretize_all(p), discretize_all(p2)
    assert np.allclose(dp2.Abar1, dp.Abar1 @ dp.Abar1, atol=1e-11)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_resolution_homogeneous_and_forced(k):
    rng = np.random.default_rng(6)
    a = dense_matrix(0.5 * rng.standard_normal((3, 3)))
    _assert_step_resolution(a, rng.standard_normal(3), 0.2, k)


def test_nonpositive_step_rejected():
    with pytest.raises(ValueError):
        zoh_pair(dense_matrix(np.zeros((2, 2))), np.zeros(2), 0.0)


def test_mismatched_state_dims_rejected():
    with pytest.raises(ValueError):
        ContinuousSSM2D(
            A1=diagonal_matrix([1.0, 2.0]), A2=diagonal_matrix([1.0]),
            A3=diagonal_matrix([1.0, 2.0]), A4=diagonal_matrix([1.0, 2.0]),
            B1=np.zeros(2), B2=np.zeros(2), C1=np.zeros(2), C2=np.zeros(2),
            dt1=0.1, dt2=0.1,
        )


def test_on_grid_broadcasts_constant_and_passes_grid_through():
    rng = np.random.default_rng(7)
    n = 3
    dp = DiscreteSSM2D(*rng.standard_normal((4, n, n)), *rng.standard_normal((4, n)))
    grid = dp.on_grid(2, 5)
    assert grid.Abar2.shape == (2, 5, n, n) and grid.C1.shape == (2, 5, n)
    for name, a in vars(grid).items():
        assert np.array_equal(a[1, 4], getattr(dp, name))
    again = grid.on_grid(2, 5)
    assert all(getattr(again, k) is a for k, a in vars(grid).items())


def test_on_rows_keeps_constant_fields_single():
    rng = np.random.default_rng(9)
    n = 3
    dp = DiscreteSSM2D(*rng.standard_normal((4, n, n)), *rng.standard_normal((4, n)))
    per_cell_c1 = rng.standard_normal((2, 5, n))
    rows = replace(dp, C1=per_cell_c1).on_rows(2, 5)
    assert rows.C1 is per_cell_c1
    for name in ("Abar1", "Abar2", "Abar3", "Abar4", "Bbar1", "Bbar2", "C2"):
        a = getattr(rows, name)
        # one (1, ...) view of the constant per row, never a copy
        assert a.shape == (2, 1) + getattr(dp, name).shape
        assert np.shares_memory(a, getattr(dp, name)) and a.strides[0] == 0
        assert np.array_equal(a[1, 0], getattr(dp, name))


@pytest.mark.parametrize("batch", [(2,), (5, 2), (2, 5, 1)])
def test_on_grid_rejects_other_batch_shapes(batch):
    rng = np.random.default_rng(8)
    dp = DiscreteSSM2D(*rng.standard_normal((4,) + batch + (2, 2)), *rng.standard_normal((4,) + batch + (2,)))
    with pytest.raises(ValueError, match=rf"batch shape {re.escape(str(batch))}.*grid \(2, 5\)"):
        dp.on_grid(2, 5)
