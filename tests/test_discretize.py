"""Tests for zero-order-hold discretization."""

import re
from dataclasses import replace

import numpy as np
import pytest

import chimera2d.discretize
from chimera2d import (
    ContinuousSSM2D,
    DiscreteSSM2D,
    SelectiveProjections,
    companion_from_coeffs,
    diagonal_matrix,
    dense_matrix,
    discretize_all,
    project_grid_params,
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
    assert np.allclose(dp.Abar1, scipy.linalg.expm(p.dt1 * p.A1), atol=1e-12)
    assert np.allclose(dp.Abar2, scipy.linalg.expm(p.dt1 * p.A2), atol=1e-12)
    assert np.allclose(dp.Abar3, np.diag(np.exp(p.dt2 * p.A3)), atol=1e-12)
    assert np.allclose(dp.Abar4, np.diag(np.exp(p.dt2 * p.A4)), atol=1e-12)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, [0.1, np.nan]], ids=["nan", "inf", "nan-in-array"])
def test_nonfinite_step_rejected_by_name(bad):
    # NaN passes a `dt <= 0` check, since every comparison with NaN is False
    for a in (dense_matrix(np.zeros((2, 2))), diagonal_matrix([-1.0, -2.0])):
        with pytest.raises(ValueError, match="step size dt must be positive and finite"):
            zoh_pair(a, np.zeros(2), bad)
    for name in ("dt1", "dt2"):
        with pytest.raises(ValueError, match=f"step size {name} must be positive and finite"):
            replace(_system(), **{name: np.asarray(bad, dtype=float)})


@pytest.mark.parametrize("a", [companion_from_coeffs([1.0, 0.5]), diagonal_matrix([1.0, -1.0])],
                         ids=["companion", "diagonal"])
def test_overflowing_pair_rejected(a):
    # a finite step whose transition exceeds the float range: Abar and
    # Bbar would be inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflows"):
        zoh_pair(a, np.ones(2), 800.0)


@pytest.mark.parametrize("kind", ["dense", "diagonal"])
@pytest.mark.parametrize("b", [np.ones(2), np.ones((4, 2)), np.ones(4)], ids=["short", "short-batch", "long"])
def test_input_matrix_of_wrong_length_rejected(kind, b):
    a = dense_matrix(-np.eye(3)) if kind == "dense" else diagonal_matrix([-1.0, -2.0, -3.0])
    shape = re.escape(str(b.shape))
    with pytest.raises(ValueError, match=rf"input matrix B has shape {shape}: its last axis must have length N = 3"):
        zoh_pair(a, b, 0.1)


@pytest.mark.parametrize("kind", ["companion", "dense", "diagonal"])
def test_per_cell_pairs_match_scalar_calls_and_van_loan(kind):
    import scipy.linalg

    rng = np.random.default_rng(15)
    n = 3
    if kind == "companion":
        a = companion_from_coeffs(rng.uniform(-0.5, 0.1, n))
    elif kind == "dense":
        a = dense_matrix(0.5 * rng.standard_normal((n, n)))
    else:
        a = diagonal_matrix(rng.uniform(-1.0, 0.2, n))
    # steps from 1e-12 to 30 in shuffled cells, and a different B in each
    dt = rng.permutation(np.geomspace(1e-12, 30.0, 24)).reshape(4, 6)
    b = rng.standard_normal((4, 6, n))
    abar, bbar = zoh_pair(a, b, dt)
    assert abar.shape == (4, 6, n, n) and bbar.shape == (4, 6, n)
    for idx in np.ndindex(dt.shape):
        abar_1, bbar_1 = zoh_pair(a, b[idx], dt[idx])
        assert np.max(np.abs(abar[idx] - abar_1)) <= 1e-14 * np.max(np.abs(abar_1)), idx
        assert np.max(np.abs(bbar[idx] - bbar_1)) <= 1e-14 * np.max(np.abs(bbar_1)), idx
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = np.diag(a) if kind == "diagonal" else a
        aug[:n, n] = b[idx]
        ref = scipy.linalg.expm(dt[idx] * aug)
        assert np.max(np.abs(abar[idx] - ref[:n, :n])) <= 1e-12 * np.max(np.abs(ref[:n, :n])), idx
        assert np.max(np.abs(bbar[idx] - ref[:n, n])) <= 1e-12 * np.max(np.abs(ref[:n, n])), idx


def test_discretization_takes_four_exponentials_and_no_solve(monkeypatch):
    calls = []
    expm = chimera2d.discretize.expm

    def recorded_expm(m, t=1.0, stacked=False):
        calls.append(np.shape(t))
        return expm(m, t, stacked)

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(chimera2d.discretize, "expm", recorded_expm)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    discretize_all(_system())
    assert calls == [()] * 4
    calls.clear()
    rng = np.random.default_rng(16)
    n, d = 3, 2
    p = _system(n)
    dp = project_grid_params(SelectiveProjections.init_random(n, d, seed=16), rng.standard_normal((4, 5, d)), (p.A1, p.A2, p.A3, p.A4))
    assert dp.Abar1.shape == (4, 5, n, n) and dp.Bbar2.shape == (4, 5, n)
    assert calls == [(4, 5)] * 4


def test_mismatched_state_dims_rejected():
    with pytest.raises(ValueError):
        ContinuousSSM2D(
            A1=diagonal_matrix([1.0, 2.0]), A2=diagonal_matrix([1.0]),
            A3=diagonal_matrix([1.0, 2.0]), A4=diagonal_matrix([1.0, 2.0]),
            B1=np.zeros(2), B2=np.zeros(2), C1=np.zeros(2), C2=np.zeros(2),
            dt1=0.1, dt2=0.1,
        )


@pytest.mark.parametrize("name, a", [("A2", np.zeros((2, 3))), ("A3", np.zeros((2, 2, 2)))], ids=["2x3", "3-d"])
def test_malformed_transition_rejected_by_name(name, a):
    with pytest.raises(ValueError, match=rf"{name} has shape {re.escape(str(a.shape))}: every A must be \(N,\) or \(N, N\)"):
        replace(_system(n=2), **{name: a})


def test_mixed_constant_and_per_cell_set_rejected_by_name():
    rng = np.random.default_rng(9)
    n = 3
    dp = DiscreteSSM2D(*rng.standard_normal((4, n, n)), *rng.standard_normal((4, n)))
    with pytest.raises(ValueError, match=r"C1 has shape \(2, 5, 3\), expected \(3,\)"):
        replace(dp, C1=rng.standard_normal((2, 5, n)))
    cells = DiscreteSSM2D(**{k: np.broadcast_to(a, (2, 5) + a.shape) for k, a in vars(dp).items()})
    with pytest.raises(ValueError, match=r"Abar3 has shape \(3, 3\), expected \(2, 5, 3, 3\)"):
        replace(cells, Abar3=dp.Abar3)


def test_b_of_a_batch_shape_that_broadcasts_to_the_steps_is_valid():
    # a constant B1 and a B2 of one time row take per-cell (2, 5) steps
    rng = np.random.default_rng(10)
    p = _system(n=3)
    dt = rng.uniform(0.05, 0.2, (2, 5))
    c = rng.standard_normal((2, 5, 3))
    b2 = rng.standard_normal((1, 5, 3))
    mixed = discretize_all(replace(p, B2=b2, C1=c, C2=c, dt1=dt, dt2=dt))
    full = discretize_all(replace(
        p, B1=np.broadcast_to(p.B1, c.shape), B2=np.broadcast_to(b2, c.shape), C1=c, C2=c, dt1=dt, dt2=dt,
    ))
    for name, a in vars(full).items():
        assert np.array_equal(getattr(mixed, name), a), name


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


@pytest.mark.parametrize("batch", [(2,), (5, 2), (2, 5, 1)])
def test_on_grid_rejects_other_batch_shapes(batch):
    rng = np.random.default_rng(8)
    dp = DiscreteSSM2D(*rng.standard_normal((4,) + batch + (2, 2)), *rng.standard_normal((4,) + batch + (2,)))
    with pytest.raises(ValueError, match=rf"batch shape {re.escape(str(batch))}.*grid \(2, 5\)"):
        dp.on_grid(2, 5)
