"""Transition matrices as plain float arrays, and their exponential.

A transition is an (N, N) array, or an (N,) array holding the entries
of a diagonal one, which exponentiates elementwise. The constructors
below validate their input and return such arrays: a companion matrix
is a shift matrix (ones on the subdiagonal) plus a rank-1 last column.

`expm` is scaling and squaring with a Taylor series in the powers of
M, so no matrix is inverted (Al-Mohy & Higham, SIAM J. Matrix Anal.
Appl. 31(3), 2009, and SIAM J. Sci. Comput. 33(2), 2011).
"""

from __future__ import annotations

from math import factorial

import numpy as np


def companion_from_coeffs(a) -> np.ndarray:
    """(N, N) companion matrix with subdiagonal ones and last column `a`,
    or (..., N, N) for a stack of coefficient vectors `a`, (..., N)."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0 or a.shape[-1] == 0:
        raise ValueError("companion coefficients must be nonempty vectors")
    n = a.shape[-1]
    out = np.zeros(a.shape + (n,))
    out.reshape(*a.shape[:-1], n * n)[..., n :: n + 1] = 1.0  # the subdiagonal
    out[..., -1] = a
    return out


def diagonal_matrix(diag) -> np.ndarray:
    """A diagonal transition: its (N,) vector of entries, or (..., N) for
    a stack of them."""
    diag = np.asarray(diag, dtype=float)
    if diag.ndim == 0 or diag.shape[-1] == 0:
        raise ValueError("diagonal must be a nonempty vector")
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
_THETA_TOP = _THETAS[-1]
_TINY = np.finfo(float).tiny
_INV_FACTORIALS = np.array([1.0 / factorial(k) for k in range(_DEGREE + 1)])
# searchsorted on these gives the degree: the least m with |x| <= theta_m
_DEGREE_BOUNDS = np.array([-1.0] + _THETAS[:-1])


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


def _runs(keys: np.ndarray) -> list[tuple[int, np.ndarray | slice]]:
    """(key, its items) per distinct key, keys ascending: the items'
    indices, or their slice when they are consecutive."""
    if len(keys) == 1 or (keys == keys[0]).all():
        return [(int(keys[0]), slice(None))]
    runs = []
    for key in sorted(set(keys.tolist())):
        idx = np.flatnonzero(keys == key)
        runs.append((key, slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx))
    return runs


def at_steps(a: np.ndarray, t: np.ndarray, stacked: bool) -> np.ndarray:
    """Generators a as they broadcast against the step sizes t: with
    `stacked`, a's first axis meets t's, so item b meets the steps t[b]."""
    return a.reshape(a.shape[:1] + (1,) * (t.ndim - 1) + a.shape[1:]) if stacked else a


def expm(a, t=1.0, stacked: bool = False) -> np.ndarray:
    """exp(t * A), of shape t.shape + (N, N), for generators that lead the
    steps' shape: an (N, N) array A, or the (N,) entries of a diagonal
    one, serves every step; with `stacked`, a holds one such generator
    per item of t's first axis, (B, N, N) or (B, N), and item b runs at
    the steps t[b], whatever their shape.

    Diagonal is elementwise exp. Otherwise each t A is halved s times
    (its own s) to x Z, Z = A / ||A||_1 and |x| <= theta_18, summed as
    a Taylor series in Z^k / k! and squared back s times. Each generator
    takes the degree m of its largest step, and its steps share its
    terms in one (steps, m) @ (m, N^2) matmul, so an item of a stack is
    its own call, bit for bit. Raises ValueError if t * A has a
    non-finite entry or exp(t * A) overflows.
    """
    a, t = np.asarray(a, dtype=float), np.asarray(t, dtype=float)
    lead = t.shape[:1] if stacked else ()
    if a.shape[: len(lead)] != lead or a.ndim - len(lead) not in (1, 2):
        raise ValueError(f"generators of shape {a.shape} do not lead with the step sizes' shape {lead}")
    if a.ndim == len(lead) + 1:
        z = t[..., None] * at_steps(a, t, stacked)
        if not np.isfinite(z).all():
            raise ValueError("non-finite entries")
        out = np.zeros(z.shape + z.shape[-1:])
        idx = np.arange(z.shape[-1])
        out[..., idx, idx] = _finite(np.exp(z))
        return out
    n = a.shape[-1]
    z = a.reshape(-1, n, n)  # the generators
    # ||A||_1, at least the smallest normal float (so A = 0 has Z = 0)
    norm = np.abs(z).sum(axis=-2).max(axis=-1, initial=_TINY)
    z = z / norm[:, None, None]
    x = t.reshape(len(z), -1) * norm[:, None]  # one row of steps per generator
    size = np.abs(x)
    largest = size.max()
    if not largest < np.inf:  # a NaN fails every comparison
        raise ValueError("non-finite entries")
    squarings = 0
    if largest > _THETA_TOP:
        # s = ceil(log2(size / theta_18)), or 0 when size <= theta_18
        frac, e = np.frexp(np.maximum(size, _THETA_TOP) / _THETA_TOP)
        s = e - (frac == 0.5)
        x, size, squarings = np.ldexp(x, -s), np.ldexp(size, -s), int(s.max())
    # the generators of each degree, in increasing degree
    runs = _runs(_DEGREE_BOUNDS.searchsorted(size.max(axis=1)))
    top = runs[-1][0]
    # the series terms Z^k / k!, (generators, m, N^2)
    terms = powers(z, top).swapaxes(0, 1).reshape(len(z), top, n * n)
    terms *= _INV_FACTORIALS[1 : top + 1, None]
    # x^k by doubling (a float ** table is slower), (generators, m, steps):
    # a generator's (steps, m) block has its own call's strides
    x_powers = np.ascontiguousarray(powers(x, top, np.multiply).swapaxes(0, 1))
    out = np.empty(x.shape + (n * n,))
    for m, idx in runs:
        out[idx] = x_powers[idx, :m].swapaxes(1, 2) @ terms[idx, :m]
    out[..., :: n + 1] += 1.0  # the k = 0 term, on each flattened diagonal
    out = out.reshape(-1, n, n)
    if squarings:
        # sorted by s, each pass squares one trailing run of the results
        s = s.reshape(-1)
        order = np.argsort(s)
        work = out[order]
        for start in np.searchsorted(s[order], np.arange(squarings), side="right"):
            work[start:] = work[start:] @ work[start:]
        out[order] = work
        # the series is at most e^theta_18 in norm: only squaring can overflow
        _finite(out)
    return out.reshape(t.shape + (n, n))
