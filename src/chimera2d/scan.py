"""Associative scan machinery for the 2D recurrence.

A scan element is a 2x3 block

    ( p1 p2 p3 )
    ( p4 p5 p6 )

with p1, p2, p4, p5 square (N x N) and p3, p6 of shape (N, d). An
element is the affine map (h1, h2) -> (p1 h1 + p2 h2 + p3,
p4 h1 + p5 h2 + p6) on the stacked hidden pair, and composition
(q applied after p) is affine-map composition:

    p * q = ( q1 p1 + q2 p4,  q1 p2 + q2 p5,  q1 p3 + q2 p6 + q3;
              q4 p1 + q5 p4,  q4 p2 + q5 p5,  q4 p3 + q5 p6 + q6 ).

The translation column (p3, p6) carries the hidden states. Composing
the matrix part blockwise (q1 p1, q2 p2, ...) instead would agree on
any left-to-right fold but is not associative, so tree scans require
the full block product used here. Scans are inclusive; the identity
element is (I, 0, 0; 0, I, 0).

This module holds the fast paths; their oracle is the explicit-loop
recurrence in `chimera2d.recurrence`. `scan_forward` is the forward
pass equivalent to the sequential recurrence. The coupled 2D recurrence
factors exactly into a sweep over variate rows: within row v the
cross-variate state h2 depends only on row v-1 (a pointwise, fully
vectorizable update), after which the cross-time state h1 along the
row is a single 1D chain

    h1[t] = Abar1[t] h1[t-1] + (Abar2[t] h2[t-1] + Bbar1[t] x[t]),

the first row of the 2x3 element with the cross term folded into the
translation. The chain has one schedule per transition kind, both on a
single thread and both gated on the sequential oracle by the test suite:

- a per-cell Abar1 (the selective path) runs each row as one
  work-efficient tree scan (Blelloch 1990, "Prefix sums and their
  applications"), `_scan_affine`;
- a constant Abar1 is one transition shared along every row, and the
  rows go through `_SharedChain`, built once per call: blocks of K steps
  (K set by N alone), each block one matmul with the lower
  block-Toeplitz operator of the powers of Abar1, and the block-end
  carries solved as the same chain in Abar1^K. This is the chunked
  schedule of the state-space duality in Mamba-2 (Dao & Gu 2024,
  "Transformers are SSMs").

Apart from that choice, constant and per-cell parameters take the same
code and differ only in the shapes numpy broadcasts. A per-cell field
enters each row as its (T, ...) slice; a constant field enters as one
(1, N, N) matrix or (1, N) vector that `@` applies to the whole row. A
transition is never broadcast to the grid. The input terms Bbar1 x and
Bbar2 x are formed for the whole grid before the row sweep and the
readout C1 h1 + C2 h2 after it.

`closed_loop_decode` consumes the context with one `scan_forward` pass
and then generates one column per step. Within a column h1 is pointwise
in v given the previous column, and h2 is the 1D chain over variates

    h2[v] = Abar4 h2[v-1] + (Abar3 h1[v-1] + Bbar2 u[v]),

a chain with the shared transition Abar4, whose solver is built once
per call and serves every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteSSM2D
from .recurrence import as_series, require_constant


@dataclass(frozen=True)
class ScanElement:
    """One 2x3 block composed by the associative operator."""

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    p4: np.ndarray
    p5: np.ndarray
    p6: np.ndarray

    def __post_init__(self):
        n = self.p1.shape[0]
        d = self.p3.shape[1] if self.p3.ndim > 1 else 1
        for name in ("p1", "p2", "p4", "p5"):
            if getattr(self, name).shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}")
        for name in ("p3", "p6"):
            if np.atleast_2d(getattr(self, name)).shape != (n, d):
                raise ValueError(f"{name} must be {n}x{d}")

    @staticmethod
    def identity(n: int, d: int = 1) -> "ScanElement":
        eye = np.eye(n)
        zsq = np.zeros((n, n))
        z = np.zeros((n, d))
        return ScanElement(eye, zsq, z, zsq.copy(), eye.copy(), z.copy())


def op_star(p: ScanElement, q: ScanElement) -> ScanElement:
    """Compose two elements (q after p)."""
    if p.p1.shape != q.p1.shape or p.p3.shape != q.p3.shape:
        raise ValueError("shape mismatch between scan elements")
    return ScanElement(
        q.p1 @ p.p1 + q.p2 @ p.p4,
        q.p1 @ p.p2 + q.p2 @ p.p5,
        q.p1 @ p.p3 + q.p2 @ p.p6 + q.p3,
        q.p4 @ p.p1 + q.p5 @ p.p4,
        q.p4 @ p.p2 + q.p5 @ p.p5,
        q.p4 @ p.p3 + q.p5 @ p.p6 + q.p6,
    )


def inclusive_scan(elems: list[ScanElement]) -> list[ScanElement]:
    """Inclusive prefix scan: output[i] = elems[0] * ... * elems[i],
    folded left to right."""
    if not elems:
        raise ValueError("empty input")
    out = [elems[0]]
    for e in elems[1:]:
        out.append(op_star(out[-1], e))
    return out


def _scan_affine(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Inclusive scan of the affine chain h[i] = a[i] h[i-1] + g[i] with
    one transition per step, a of shape (m, N, N), returning h, via pairs
    (a, g) composed as (a2 a1, a2 g1 + g2), by recursive pairing: combine
    adjacent pairs, scan the halved sequence, interleave back.
    Work-efficient, and only ever composes left to right (no identity
    needed on the right). The recursion needs only the pairwise
    products, never the scanned transitions."""
    m = g.shape[0]
    if m == 1:
        return g
    half = m // 2
    a_even, a_odd = a[0 : 2 * half : 2], a[1 : 2 * half : 2]
    g_even, g_odd = g[0 : 2 * half : 2], g[1 : 2 * half : 2]
    sg = _scan_affine(a_odd @ a_even, a_odd @ g_even + g_odd)
    out = np.empty(g.shape)
    out[0] = g[0]
    # position 2i+1 is exactly the halved scan's entry i
    out[1::2] = sg
    if m > 2:
        # position 2i (i >= 1) is the halved scan's entry i-1 composed
        # with the raw element
        n_evens = len(range(2, m, 2))
        out[2::2] = a[2::2] @ sg[:n_evens] + g[2::2]
    return out


def _block_length(n: int) -> int:
    """Steps per block of `_SharedChain` at state size N. The block
    operator spends K N^2 multiply-adds per step and channel, so K falls
    as 256 / N^2; it is capped at 64 (longer blocks were slower on long
    chains at N = 1) and kept >= 2, so that each carry level shortens
    the chain."""
    return min(64, max(2, 256 // (n * n)))


class _SharedChain:
    """Solver for the affine chain h[i] = A h[i-1] + g[i] (h[0] = g[0])
    with one transition A shared by every step, for chains of up to
    `length` steps; built once and applied to many chains.

    With block length K, h inside a block of K steps is the block's own
    inputs times the lower block-Toeplitz operator whose block (t, s) is
    A^(t-s), plus A^(t+1) times the state carried in from the previous
    block. A chain of m <= K steps is one matmul. A longer one is padded
    to whole blocks, all blocks go through the operator in one batched
    matmul, the block-end carries form the same chain in A^K (solved by
    this class again, one level down), and one more batched matmul adds
    A^1..A^K times each previous block's carry."""

    def __init__(self, a: np.ndarray, length: int):
        n = a.shape[-1]
        k = self.k = min(_block_length(n), length)
        # A^0..A^K by doubling: each pass multiplies the powers so far by
        # the next power of A
        powers = np.empty((k + 1, n, n))
        powers[0] = np.eye(n)
        filled = 1
        while filled <= k:
            step = min(filled, k + 1 - filled)
            powers[filled : filled + step] = powers[:step] @ (powers[filled - 1] @ a)
            filled += step
        # row block t of the operator is [A^t, ..., A^0, 0, ..., 0]: a
        # window of one strip [A^(K-1) ... A^0 0 ... 0] that moves N
        # columns left per block row
        strip = np.zeros((n, (2 * k - 1) * n))
        strip[:, : k * n] = powers[k - 1 :: -1].transpose(1, 0, 2).reshape(n, k * n)
        windows = np.ndarray(
            (k, n, k * n), strip.dtype, strip,
            offset=(k - 1) * n * strip.itemsize,
            strides=(-n * strip.itemsize, strip.strides[0], strip.itemsize),
        )
        self.operator = windows.reshape(k * n, k * n)
        self.powers = powers[1:]
        self.carries = _SharedChain(powers[k], -(-length // k)) if length > k else None

    def __call__(self, g: np.ndarray) -> np.ndarray:
        m, n, d = g.shape
        k = self.k
        if m <= k:
            return (self.operator[: m * n, : m * n] @ g.reshape(m * n, d)).reshape(g.shape)
        blocks = -(-m // k)
        padded = np.zeros((blocks * k, n, d))
        padded[:m] = g
        h = (self.operator @ padded.reshape(blocks, k * n, d)).reshape(blocks, k, n, d)
        carry = self.carries(h[:, -1])
        h[1:] += self.powers @ carry[:-1, None]
        return h.reshape(blocks * k, n, d)[:m]


def scan_forward(dp: DiscreteSSM2D, x, return_hidden: bool = False):
    """Scan-based forward pass, equal to the sequential recurrence.

    Each field of `dp` may be constant (batch shape ()) or per-cell on the
    input's (V, T) grid."""
    x = as_series(x)
    v_count, t_count, _ = x.shape
    p = dp.on_rows(v_count, t_count)
    # a constant Abar1 is one transition shared along every row
    row_chain = _SharedChain(np.asarray(dp.Abar1), t_count) if np.ndim(dp.Abar1) == 2 else None
    # input terms for the whole grid; the row sweep completes them in place
    h1 = p.Bbar1[..., None] * x[:, :, None, :]
    h2 = p.Bbar2[..., None] * x[:, :, None, :]
    # Abar2 at t = 1..T-1: the last T-1 columns of a per-cell field, the
    # one column of a constant one (a slice from -k keeps a shorter axis)
    abar2 = p.Abar2[:, 1 - t_count :]
    for v in range(v_count):
        if v > 0:
            # cross-variate state: pointwise in t given the previous row
            h2[v] += p.Abar3[v] @ h1[v - 1] + p.Abar4[v] @ h2[v - 1]
        # cross-time state: one inclusive scan along the row
        g = h1[v]
        g[1:] += abar2[v] @ h2[v, :-1]
        h1[v] = row_chain(g) if row_chain is not None else _scan_affine(np.ascontiguousarray(p.Abar1[v]), g)
    # the readout is one dot product per cell with no matrix to share;
    # at small N and d einsum's inner loop runs it about twice as fast as
    # matmul, which makes one BLAS call per cell
    y = np.einsum("...n,...nd->...d", p.C1, h1) + np.einsum("...n,...nd->...d", p.C2, h2)
    if return_hidden:
        return y, (h1, h2)
    return y


def closed_loop_decode(
    dp: DiscreteSSM2D,
    d1: np.ndarray,
    d2: np.ndarray,
    x_ctx,
    horizon: int,
) -> np.ndarray:
    """Autoregressive rollout: after consuming the context, D1/D2 read the
    hidden pair to predict the next input column, which is fed back; the
    emitted outputs for the `horizon` generated columns are returned."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    require_constant(dp, "closed_loop_decode")
    x_ctx = as_series(x_ctx)
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    v_count, _, d = x_ctx.shape
    if horizon == 0:
        return np.zeros((v_count, 0, d))

    _, (h1, h2) = scan_forward(dp, x_ctx, return_hidden=True)
    h1_prev, h2_prev = h1[:, -1], h2[:, -1]
    variate_chain = _SharedChain(np.asarray(dp.Abar4), v_count)
    out = np.empty((v_count, horizon, d))
    for step in range(horizon):
        u = d1 @ h1_prev + d2 @ h2_prev
        h1_col = dp.Bbar1[:, None] * u[:, None, :] + dp.Abar1 @ h1_prev + dp.Abar2 @ h2_prev
        g = dp.Bbar2[:, None] * u[:, None, :]
        g[1:] += dp.Abar3 @ h1_col[:-1]
        h2_col = variate_chain(g)
        out[:, step] = dp.C1 @ h1_col + dp.C2 @ h2_col
        h1_prev, h2_prev = h1_col, h2_col
    return out
