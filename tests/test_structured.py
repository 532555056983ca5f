"""Tests for the transition-matrix constructors and the exponential."""

import numpy as np
import pytest

from chimera2d import (
    companion_from_coeffs,
    diagonal_matrix,
    dense_matrix,
    expm,
)


def test_companion_zero_coeffs_is_pure_shift():
    m = companion_from_coeffs([0.0, 0.0, 0.0])
    expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert np.array_equal(m, expected)


def test_companion_dense_formula_n3():
    a = np.array([0.7, -0.2, 0.4])
    x = np.array([1.0, 2.0, 3.0])
    out = companion_from_coeffs(a) @ x
    # shift the vector down, plus coefficients times the last entry
    expected = np.array([a[0] * 3, 1 + a[1] * 3, 2 + a[2] * 3])
    assert np.allclose(out, expected, atol=1e-14)


def test_companion_nilpotent_power():
    m = companion_from_coeffs(np.zeros(4))
    assert np.all(np.linalg.matrix_power(m, 4) == 0.0)


@pytest.mark.parametrize("kind", ["companion", "diagonal", "dense"])
def test_expm_matches_dense_reference(kind):
    import scipy.linalg

    rng = np.random.default_rng(1)
    n = 4
    if kind == "companion":
        m = companion_from_coeffs(rng.standard_normal(n))
    elif kind == "diagonal":
        m = diagonal_matrix(rng.standard_normal(n))
    else:
        m = dense_matrix(rng.standard_normal((n, n)))
    # a diagonal transition is its vector of entries
    ref = scipy.linalg.expm(0.7 * (np.diag(m) if kind == "diagonal" else m))
    assert np.max(np.abs(expm(m, 0.7) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_expm_zero_is_identity():
    assert np.allclose(expm(dense_matrix(np.zeros((3, 3)))), np.eye(3), atol=1e-14)
    # at t = 0 every M gives the identity bit for bit, alone and on a grid
    rng = np.random.default_rng(2)
    for m in (companion_from_coeffs(rng.standard_normal(3)), dense_matrix(1e3 * rng.standard_normal((3, 3)))):
        assert np.array_equal(expm(m, 0.0), np.eye(3))
        assert np.array_equal(expm(m, np.zeros((2, 4))), np.broadcast_to(np.eye(3), (2, 4, 3, 3)))


def test_expm_large_norm_small_step():
    import scipy.linalg

    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 4))
    m = dense_matrix(1e6 * z / np.abs(z).sum(axis=0).max())
    ref = scipy.linalg.expm(1e-7 * m)
    for out in (expm(m, 1e-7), expm(m, np.full((2, 3), 1e-7))[1, 2]):
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_expm_diagonal_log2():
    out = expm(diagonal_matrix([np.log(2.0)]))
    assert np.allclose(out, [[2.0]], atol=1e-14)


def test_expm_nilpotent_shift_is_linear():
    dt = 0.37
    shift = companion_from_coeffs([0.0, 0.0])
    out = expm(dense_matrix(dt * shift))
    assert np.allclose(out, np.eye(2) + dt * shift, atol=1e-14)


def test_expm_batched_steps():
    m = companion_from_coeffs([-0.3, -0.2])
    d = diagonal_matrix([-1.0, 0.5])
    ts = np.array([[1e-12, 0.1], [1.0, 30.0]])
    for mat in (m, d):
        out = expm(mat, ts)
        assert out.shape == (2, 2, 2, 2)
        for idx in np.ndindex(ts.shape):
            alone = expm(mat, ts[idx])
            assert np.max(np.abs(out[idx] - alone)) <= 1e-14 * np.max(np.abs(alone))


@pytest.mark.parametrize("mat", [companion_from_coeffs([-0.3, -0.2]), np.array([-1.0, 0.5])], ids=["dense", "diagonal"])
def test_expm_of_no_steps_is_an_empty_stack(mat):
    assert expm(mat, np.zeros(0)).shape == (0, 2, 2)
    assert expm(mat, np.zeros((3, 0))).shape == (3, 0, 2, 2)
    # a stack of two generators with no steps each, and a stack of none
    pair = np.stack((mat, mat))
    assert expm(pair, np.zeros((2, 0)), stacked=True).shape == (2, 0, 2, 2)
    assert expm(pair[:0], np.zeros(0), stacked=True).shape == (0, 2, 2)


def test_expm_rejects_nonfinite_product():
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        expm(companion_from_coeffs([-4.0, 0.0]), 1e308)


@pytest.mark.parametrize("mat", [companion_from_coeffs([1.0, 0.5]), diagonal_matrix([1.0, -1.0])],
                         ids=["companion", "diagonal"])
@pytest.mark.parametrize("t", [800.0, np.array([0.5, 800.0])], ids=["scalar", "grid"])
def test_expm_overflow_rejected(mat, t):
    # t M is finite, but exp(t M) has entries near e^800
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflows"):
        expm(mat, t)


def test_dense_requires_square():
    with pytest.raises(ValueError):
        dense_matrix(np.zeros((2, 3)))
