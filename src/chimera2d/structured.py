"""Structured square matrices: companion, diagonal, and dense.

A companion matrix is a shift matrix (ones on the subdiagonal) plus a
rank-1 last column. Diagonal matrices exponentiate elementwise. Dense is
the fallback used wherever structure is lost (e.g. after a matrix
exponential of a companion).

`expm` is scaling and squaring with a Taylor series in the powers of the
shared M, so no matrix is inverted (Al-Mohy & Higham, SIAM J. Matrix
Anal. Appl. 31(3), 2009, and SIAM J. Sci. Comput. 33(2), 2011).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import ceil, factorial, isfinite, ldexp, log2

import numpy as np

COMPANION = "companion"
DIAGONAL = "diagonal"
DENSE = "dense"


@dataclass(frozen=True)
class StructuredMatrix:
    """Tagged N x N matrix. `data` holds the coefficient column for
    companion, the diagonal for diagonal, and the full entries for dense."""

    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in (COMPANION, DIAGONAL, DENSE):
            raise ValueError(f"unknown matrix kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.data.shape[-1]

    def dense(self) -> np.ndarray:
        """Materialize as a plain dense array."""
        if self.kind == DENSE:
            return self.data.copy()
        if self.kind == DIAGONAL:
            return np.diag(self.data)
        n = self.data.shape[0]
        out = np.zeros((n, n))
        out[1:, :-1] = np.eye(n - 1)
        out[:, -1] = self.data
        return out


def companion_from_coeffs(a) -> StructuredMatrix:
    """Companion matrix with subdiagonal ones and last column `a`."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("companion coefficients must be a nonempty 1-d vector")
    return StructuredMatrix(COMPANION, a)


def diagonal_matrix(diag) -> StructuredMatrix:
    diag = np.asarray(diag, dtype=float)
    if diag.ndim != 1 or diag.size == 0:
        raise ValueError("diagonal must be a nonempty 1-d vector")
    return StructuredMatrix(DIAGONAL, diag)


def dense_matrix(entries) -> StructuredMatrix:
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] == 0:
        raise ValueError("dense matrix must be square and nonempty")
    return StructuredMatrix(DENSE, entries)


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


def expm(m: StructuredMatrix, t=1.0) -> np.ndarray:
    """exp(t * M) as a dense array, for a scalar t or an array of them.

    The result has shape t.shape + (N, N); a dense M may also carry
    leading stack axes, broadcast against t. Diagonal is elementwise
    exp. Companion/dense: each t M is halved s times (its own s) to x Z,
    Z = M / ||M||_1 and |x| <= theta_18, its Taylor series is one row of
    one (results, m) @ (m, N^2) matmul of the powers of x with the terms
    Z^k / k!, and it is squared back s times. Raises ValueError if t * M
    has a non-finite entry, or if exp(t * M) overflows.
    """
    t = np.asarray(t, dtype=float)
    if m.kind == DIAGONAL:
        z = t[..., None] * m.data
        if not np.isfinite(z).all():
            raise ValueError("non-finite entries")
        out = np.zeros(z.shape + z.shape[-1:])
        idx = np.arange(z.shape[-1])
        out[..., idx, idx] = _finite(np.exp(z))
        return out
    a = m.dense()
    n = a.shape[-1]
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    if t.ndim == norm.ndim == 0:
        # one exponential: the scaling in Python floats
        size = abs(float(t)) * float(norm)
        if not isfinite(size):
            raise ValueError("non-finite entries")
        s = ceil(log2(size / _THETAS[-1])) if size > _THETAS[-1] else 0
        x = np.float64(ldexp(float(t) * float(norm), -s))
        deg = bisect_left(_THETAS, abs(x), hi=_DEGREE - 1) + 1
        coef = x ** _EXPONENTS[:deg]
        z = a / (float(norm) or 1.0)
    else:
        size = np.abs(t) * norm
        if not np.isfinite(size).all():
            raise ValueError("non-finite entries")
        s = np.ceil(np.log2(np.maximum(size, _THETAS[-1]) / _THETAS[-1]))
        x = t * norm * np.exp2(-s)
        deg = bisect_left(_THETAS, np.abs(x).max(), hi=_DEGREE - 1) + 1
        coef = powers(x, deg, np.multiply)  # x^k by doubling: a float ** table is slower
        z = a / np.where(norm > 0.0, norm, 1.0)[..., None, None]
    # the series terms Z^k / k!, one (results, m) @ (m, N^2) matmul away
    terms = powers(z, deg).reshape((deg,) + z.shape[:-2] + (n * n,))
    terms *= _INV_FACTORIALS[1 : deg + 1].reshape((deg,) + (1,) * (z.ndim - 1))
    if z.ndim == 2:
        out = coef.reshape(deg, -1).T @ terms
    else:
        out = np.moveaxis(coef, 0, -1)[..., None, :] @ np.moveaxis(terms, 0, -2)
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
