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

from math import factorial, prod

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


# Degree 18 of exp(X)'s Taylor series is accurate while ||X||_1 <= theta_18
# = 1.11: the remainder is at most twice the first omitted term, which
# theta_18 puts at 2^-53 ||X||_1, so a block that shrinks with X (the
# integral in the Van Loan matrix of `discretize`) stays exact. Above
# theta_18 the terms of a decaying exponential cancel, so X is halved first.
_DEGREE = 18
_THETA_TOP = (2.0**-53 * factorial(_DEGREE + 1) / 2) ** (1 / _DEGREE)
_TINY = np.finfo(float).tiny
_INV_FACTORIALS = np.array([1.0 / factorial(k) for k in range(1, _DEGREE + 1)])


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
    a Taylor series of degree 18 in Z^k / k! and squared back s times.
    Every generator's steps share its terms in one batched
    (steps, 18) @ (18, N^2) product, each generator's blocks contiguous,
    so an item of a stack is its own call, bit for bit. Raises
    ValueError if A is not square, t * A has a non-finite entry or
    exp(t * A) overflows.
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
    if a.shape[-2] != n:
        raise ValueError(f"generators of shape {a.shape} are not square")
    z = a.reshape(-1, n, n)  # the generators
    # ||A||_1, at least the smallest normal float (so A = 0 has Z = 0)
    norm = np.abs(z).sum(axis=-2).max(axis=-1, initial=_TINY)
    z = z / norm[:, None, None]
    x = t.reshape(len(z), prod(t.shape[len(lead):])) * norm[:, None]  # one row of steps per generator
    largest = np.abs(x).max(initial=0.0)
    if not largest < np.inf:  # a NaN fails every comparison
        raise ValueError("non-finite entries")
    squarings = 0
    if largest > _THETA_TOP:
        # s = ceil(log2(|x| / theta_18)), or 0 when |x| <= theta_18
        frac, e = np.frexp(np.maximum(np.abs(x), _THETA_TOP) / _THETA_TOP)
        s = e - (frac == 0.5)
        x, squarings = np.ldexp(x, -s), int(s.max())
    # the series terms Z^k / k!, (generators, 18, N^2), and x^k by doubling
    # (a float ** table is slower), (generators, 18, steps): each
    # generator's blocks are contiguous, with its own call's strides
    terms = np.ascontiguousarray(powers(z, _DEGREE).swapaxes(0, 1)).reshape(len(z), _DEGREE, n * n)
    terms *= _INV_FACTORIALS[:, None]
    x_powers = np.ascontiguousarray(powers(x, _DEGREE, np.multiply).swapaxes(0, 1))
    out = x_powers.swapaxes(1, 2) @ terms
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
