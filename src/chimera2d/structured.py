"""Transition matrices as plain float arrays, and their exponential.

A transition is an (N, N) array, or an (N,) array holding the entries
of a diagonal one, which exponentiates elementwise. The constructors
below validate their input and return such arrays: a companion matrix
is a shift matrix (ones on the subdiagonal) plus a rank-1 last column.

`expm` is scaling and squaring with a Taylor series in the powers of the
shared M, so no matrix is inverted (Al-Mohy & Higham, SIAM J. Matrix
Anal. Appl. 31(3), 2009, and SIAM J. Sci. Comput. 33(2), 2011).
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil, factorial, isfinite, ldexp, log2

import numpy as np


def companion_from_coeffs(a) -> np.ndarray:
    """(N, N) companion matrix with subdiagonal ones and last column `a`."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("companion coefficients must be a nonempty 1-d vector")
    out = np.eye(a.size, k=-1)
    out[:, -1] = a
    return out


def diagonal_matrix(diag) -> np.ndarray:
    """A diagonal transition: its (N,) vector of entries."""
    diag = np.asarray(diag, dtype=float)
    if diag.ndim != 1 or diag.size == 0:
        raise ValueError("diagonal must be a nonempty 1-d vector")
    return diag


def dense_matrix(entries) -> np.ndarray:
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] == 0:
        raise ValueError("dense matrix must be square and nonempty")
    return entries


# Degree m of exp(X)'s Taylor series is accurate while ||X||_1 <= theta_m:
# the remainder is at most twice the first omitted term, which theta_m puts
# at 2^-53 ||X||_1, so a block that shrinks with X (the integral in the Van
# Loan matrix of `discretize`) stays exact. Above theta_18 = 1.11 the terms
# of a decaying exponential cancel, so X is halved first.
_DEGREE = 18
_THETAS = [(2.0**-53 * factorial(m + 1) / 2) ** (1 / m) for m in range(1, _DEGREE + 1)]
_INV_FACTORIALS = np.array([1.0 / factorial(k) for k in range(_DEGREE + 1)])
_EXPONENTS = np.arange(1.0, _DEGREE + 1)


def powers(a: np.ndarray, k: int, product=np.matmul) -> np.ndarray:
    """a^1..a^k (k >= 1) along a new first axis, by doubling; `product` is
    np.matmul for a (..., N, N) stack of matrices, np.multiply for numbers."""
    out = np.empty((k,) + a.shape)
    out[0] = a
    f = 1
    while f < k:
        step = min(f, k - f)
        product(out[:step], out[f - 1], out=out[f : f + step])  # a^(f+1)..a^(f+step)
        f += step
    return out


def _finite(e: np.ndarray) -> np.ndarray:
    if not np.isfinite(e).all():
        raise ValueError("exp(t M) overflows the float range")
    return e


def expm(a, t=1.0) -> np.ndarray:
    """exp(t * A) as an (N, N) array, for a scalar t or an array of them.

    A is an (N, N) array or the (N,) entries of a diagonal one, and the
    result has shape t.shape + (N, N). Diagonal is elementwise exp.
    Otherwise each t A is halved s times (its own s) to x Z,
    Z = A / ||A||_1 and |x| <= theta_18, its Taylor series is one row of
    one (results, m) @ (m, N^2) matmul of the powers of x with the terms
    Z^k / k!, and it is squared back s times. Raises ValueError if t * A
    has a non-finite entry, or if exp(t * A) overflows.
    """
    a, t = np.asarray(a, dtype=float), np.asarray(t, dtype=float)
    if a.ndim == 1:
        z = t[..., None] * a
        if not np.isfinite(z).all():
            raise ValueError("non-finite entries")
        out = np.zeros(z.shape + z.shape[-1:])
        idx = np.arange(z.shape[-1])
        out[..., idx, idx] = _finite(np.exp(z))
        return out
    n = a.shape[-1]
    norm = float(np.abs(a).sum(axis=0).max())
    z = a / (norm or 1.0)
    if t.ndim == 0:
        # one exponential: the scaling in Python floats
        size = abs(float(t)) * norm
        if not isfinite(size):
            raise ValueError("non-finite entries")
        s = ceil(log2(size / _THETAS[-1])) if size > _THETAS[-1] else 0
        x = np.float64(ldexp(float(t) * norm, -s))
        deg = bisect_left(_THETAS, abs(x), hi=_DEGREE - 1) + 1
        coef = x ** _EXPONENTS[:deg]
    else:
        size = np.abs(t) * norm
        if not np.isfinite(size).all():
            raise ValueError("non-finite entries")
        s = np.ceil(np.log2(np.maximum(size, _THETAS[-1]) / _THETAS[-1]))
        x = t * norm * np.exp2(-s)
        deg = bisect_left(_THETAS, np.abs(x).max(), hi=_DEGREE - 1) + 1
        coef = powers(x, deg, np.multiply)  # x^k by doubling: a float ** table is slower
    # the series terms Z^k / k!, one (results, m) @ (m, N^2) matmul away
    terms = powers(z, deg).reshape(deg, n * n)
    terms *= _INV_FACTORIALS[1 : deg + 1, None]
    out = coef.reshape(deg, -1).T @ terms
    out = out.reshape(x.shape + (n * n,))
    out[..., :: n + 1] += 1.0  # the k = 0 term, on each flattened diagonal
    out = out.reshape(x.shape + (n, n))
    squared = s > 0 if isinstance(s, int) else bool(s.any())
    if isinstance(s, int):
        for _ in range(s):
            out = out @ out
    elif squared:
        # sorted by s, each pass squares one trailing run of the results
        order = np.argsort(s, axis=None)
        work = out.reshape(-1, n, n)[order]
        for start in np.searchsorted(s.ravel()[order], np.arange(s.max()), side="right"):
            work[start:] = work[start:] @ work[start:]
        out.reshape(-1, n, n)[order] = work
    # the series is at most e^theta_18 in norm: only squaring can overflow
    return _finite(out) if squared else out
