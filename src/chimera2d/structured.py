"""Structured square matrices: companion, diagonal, and dense.

A companion matrix is a shift matrix (ones on the subdiagonal) plus a
rank-1 last column. Diagonal matrices exponentiate elementwise. Dense is
the fallback used wherever structure is lost (e.g. after a matrix
exponential of a companion).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

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


# Higham (2005), "The scaling and squaring method for the matrix
# exponential revisited": the 1-norm up to which the degree-m Pade
# approximant p(Z) / p(-Z) to exp is accurate in double precision, and
# the coefficients of p(Z) = sum_k (2m-k)! / (k! (m-k)!) Z^k
_PADE = [
    (theta, [factorial(2 * m - k) / (factorial(k) * factorial(m - k)) for k in range(m + 1)])
    for m, theta in (
        (3, 1.495585217958292e-2), (5, 2.539398330063230e-1), (7, 9.504178996162932e-1),
        (9, 2.097847961257068), (13, 5.371920351148152),
    )
]


def _expm_pade(z: np.ndarray) -> np.ndarray:
    """exp of every matrix in a (..., N, N) stack by scaling and squaring.

    The lowest degree accurate at the stack's largest 1-norm is used, and
    a matrix above the degree-13 bound is halved s times and squared back
    s times, so each matrix gets the accuracy of the per-matrix algorithm
    in a fixed number of array operations."""
    norm = np.abs(z).sum(axis=-2).max(axis=-1)
    top = norm.max()
    theta, coef = next((pade for pade in _PADE if top <= pade[0]), _PADE[-1])
    squarings = 0
    if top > theta:
        s = np.ceil(np.log2(np.maximum(norm, theta) / theta))
        z = z * np.exp2(-s)[..., None, None]
        squarings = int(s.max())
    ident = np.eye(z.shape[-1])
    z2 = power = z @ z
    u = coef[1] * ident + coef[3] * z2
    v = coef[0] * ident + coef[2] * z2
    for k in range(4, len(coef), 2):
        power = power @ z2
        u += coef[k + 1] * power
        v += coef[k] * power
    u = z @ u
    out = np.linalg.solve(v - u, v + u)
    for k in range(squarings):
        out = np.where((s > k)[..., None, None], out @ out, out)
    return out


def expm(m: StructuredMatrix, t=1.0) -> np.ndarray:
    """exp(t * M) as a dense array, for a scalar t or an array of them.

    The result has shape t.shape + (N, N); a dense M may also carry
    leading stack axes, broadcast against t. Diagonal is elementwise
    exp; companion/dense go through one vectorized Pade scaling-and-
    squaring over the whole stack. Raises ValueError if t * M has a
    non-finite entry.
    """
    t = np.asarray(t, dtype=float)
    if m.kind == DIAGONAL:
        z = t[..., None] * m.data
    else:
        z = t[..., None, None] * m.dense()
    if not np.isfinite(z).all():
        raise ValueError("non-finite entries")
    if m.kind != DIAGONAL:
        return _expm_pade(z)
    out = np.zeros(z.shape + z.shape[-1:])
    idx = np.arange(z.shape[-1])
    out[..., idx, idx] = np.exp(z)
    return out
