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
any left-to-right fold but is not associative. `ScanElement` and
`op_star` are this cell operator, identity (I, 0, 0; 0, I, 0), whose
associativity acceptance criterion 1 checks. No sweep composes them:
each below solves a row's 1D chain, by blocks of powers or (a, g) pairs.

This module holds the fast paths; their oracle is the explicit-loop
recurrence in `chimera2d.recurrence`. `scan_forward` is the forward
pass equivalent to the sequential recurrence. The coupled 2D recurrence
factors exactly into a sweep over variate rows: within row v the
cross-variate state h2 depends only on row v-1 (a pointwise, fully
vectorizable update), after which the cross-time state h1 along the
row is a single 1D chain

    h1[t] = Abar1[t] h1[t-1] + (Abar2[t] h2[t-1] + Bbar1[t] x[t]),

the first row of the 2x3 element with the cross term folded into the
translation. Each transition kind has one sweep, with its own layout
and its own schedule for the chain, both on a single thread and both
gated on the sequential oracle by the test suite:

- Constant parameters (every field of batch shape ()): `sweep_shared`
  keeps h1 and h2 as the two halves of one (V, d, 2N, T) grid, time
  innermost, in three steps. The input terms Bbar x are one broadcast
  multiply (`input_terms`). The row solve (`solve_rows`) completes them
  in place: a row's h2 update is one [Abar3 Abar4] (N, 2N) @ (d, 2N, T)
  product on the row before and its Abar2 cross term one
  (N, N) @ (d, N, T-1) product, each one BLAS call per channel slab,
  and every row's time chain goes through one `_SharedChain`: blocks of
  K steps, each one matmul with a block-Toeplitz operator of the powers
  of Abar1, the chunked schedule of the state-space duality in Mamba-2
  (Dao & Gu 2024, "Transformers are SSMs"). A row of one block is one
  (d, N K) @ (N K, N K) product per series; on one channel, where that
  would be a gemv, it takes two rows (`_one_channel_chains`): two series
  of a stack on one chain, streaming the operator once, or a series and
  its own h2 half, read and not written. The block length trades the
  within-block product (quadratic in K) against the recurrence between
  blocks: a chain of up to `_block_length(N)` steps (64 at N <= 2, 28 at
  N = 3, 16 at N = 4, 8 from N = 8 on) is one block, and a longer one is
  cut into blocks of min(that, 32) steps, which at N = 2 takes a row of
  1,024 steps, 4 channels, from about 61 to 49 us (`_block_length` has
  the timings). The readout (`readout`) is one [C1 C2] product with the
  grid per channel slab. A stack of series, x of shape (..., V, T, d),
  keeps its leading axes outside every product but those pairs, so each
  series meets a BLAS call of the shape it meets alone, and each result
  is bit-identical to its own call: a gemm of one shape rounds each row
  alone, while its rows round differently with the row count for many
  shapes (OpenBLAS 0.3.31 on 2 cores: from 4 rows on where N K = 1, 2
  or 3 mod 8 from 17, and from 64-256 rows on where N K = 4 mod 8 from
  68, 84 among them), so folding more of a stack into one product would
  not be exact. The same holds for a stack of parameter sets (batch
  shape (B,)) on one chain, of a shared Abar1 or of their stacked ones,
  and for a stack of readout rows on one solved grid; `fit`'s finite
  differences use all.
- Per-cell parameters (the selective path, every field of batch shape
  (V, T), or (B, V, T) for a stack of sets on x of shape (B, V, T, d)):
  `_sweep_cells` keeps the oracle's (V, T, N, d) layout, state
  innermost, behind the stack axis. Each field enters a row as its
  (T, ...) slice, with the stack inside it, and each row's chain is one
  work-efficient tree scan over its per-step transitions (Blelloch
  1990, "Prefix sums and their applications"), `_scan_affine`, which
  solves the row in place, one tree level per loop pass. The stack
  stays outside every product, so item b is its own set's sweep bit for
  bit; a bidirectional selective layer sweeps its pair this way.

Either way `scan_forward` returns y as (V, T, d) and the hidden grids as
(V, T, N, d); the shared sweep's are transposed views of its grid.

`closed_loop_decode` solves the context's grid (input terms and row
solve, no readout), keeps its last column, and then generates one column
per step. The fed-back input is u = D1 h1 + D2 h2 of the column before,
so a column's h1 and its h2 input terms are one product G h with the
(2N, 2N) matrix G = [[Abar1 Abar2], [0 0]] + [Bbar1; Bbar2] [D1 D2],
formed once per call. Within the column h2 is then the 1D chain over
variates

    h2[v] = Abar4 h2[v-1] + (Abar3 h1[v-1] + Bbar2 u[v]),

a chain with the shared transition Abar4. The column is held as
(d, 2N, V), variates last, so one solver serves every step. The H
columns go into one buffer, which one [C1 C2] product reads out after
the last step.

A chain solver depends only on its transition and its length. Each call
builds its own, unless its parameter set is a `KeptSSM2D`, which keeps
the solvers of its Abar1 and Abar4 chains: then each is built once per
parameter set and length, when the caller keeps the set (a served model
does, `chimera2d.model`), with the same result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteSSM2D
from .recurrence import as_series, check_integer, finite_array, require_constant
from .structured import powers


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


def _scan_affine(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Inclusive scan of the affine chain h[i] = a[i] h[i-1] + g[i] with
    one transition per step, a of shape (m, ..., N, N), in place: g, of
    shape (m, ..., N, d), holds the inputs, is overwritten with h and
    returned. Pairs (a, g) compose as (a2 a1, a2 g1 + g2). Going up, each
    level composes its adjacent pairs into its odd entries, which are the
    next level (a strided view of g, with the pairs' products as its
    transitions); coming down, each even entry past the first composes
    the solved odd entry before it. Work-efficient, and only ever
    composes left to right (no identity needed on the right)."""
    levels = []
    while len(g) > 1:
        even = len(g) - len(g) % 2
        g[1:even:2] += a[1:even:2] @ g[0:even:2]
        levels.append((a, g))
        a, g = a[1:even:2] @ a[0:even:2], g[1:even:2]
    for a, g in reversed(levels):
        g[2::2] += a[2::2] @ g[1 : len(g) - 1 : 2]
    # the last level down is the first, g as passed in
    return g


# the block length of a chain longer than one block: no more than this
_LONG_BLOCK = 32


def _block_length(n: int) -> int:
    """The longest chain `_SharedChain` solves as one block at state size
    N. The block operator spends K N^2 multiply-adds per step and
    channel, so K falls as 256 / N^2; it is capped at 64 (longer blocks
    were slower on long chains at N = 1) and kept >= 8, because a chain
    of several blocks moves its state and step axes apart and back,
    which short blocks make slow (at N = 8, K = 8 beat K = 4 on every
    timed shape).

    A chain of up to this many steps is one block, K = its length; a
    longer one is cut into blocks of min(this, 32) steps. So K depends
    on N and the chain's length only, never on how many series or
    parameter sets share the chain, and a stacked chain rounds as each
    chain alone does. Only N <= 2 meets the 32-step cap. The operator
    spends 2 N^2 K flops per step, half of them on its zero triangle,
    so past one block halving K saves more than the carries it adds
    cost, while a chain of one block is fastest as one product.
    Microseconds per row chain of 4 channels at N = 2, best of 15, range
    of 3 runs (2 cores, numpy 2.4):

        K                 64      32      16       8
        64 steps         6-8   15-24   14-20   14-20
        1,024 steps    61-73      49   44-45      61

    K = 16 solves a lone long row a little faster, but on the whole
    forward of a V8 x T1024, d = 4 model (two layers, N = 2) the
    32-step cap took 7.1 ms, against 7.5 ms for 16 and 8.9 ms for 64
    (median of 6 rounds of 30 calls each, in one process).
    """
    return min(64, max(8, 256 // (n * n)))


class _SharedChain:
    """Solver for the affine chain h[..., i] = A h[..., i-1] + g[..., i]
    (h[..., 0] = g[..., 0]) along the last axis of g, shape (..., N, m),
    with one transition A shared by every step, for chains of up to
    `length` steps; built once and applied to many chains. A (B, N, N)
    stack of transitions solves g of shape (B, c, N, m), item b as A[b]
    alone would, bit for bit. Every product of a chain of one block is
    `block_product`, which `solve_rows` also calls on the rows it pairs.

    With block length K (set from N and `length`, see `_block_length`),
    a block's K steps of one leading index are a row of N K entries
    ordered (state, step), and h inside the block is that row of the
    block's own inputs times the block-Toeplitz operator
    whose entry ((i, s), (j, t)) is A^(t-s)[j, i] for t >= s, plus
    A^(t+1) times the state carried in from the previous block. A chain
    of K steps is one matmul over every leading index. A longer one is
    padded to whole blocks (only if m is not a multiple of K) and its
    blocks moved to rows; one matmul with the operator's last-step
    columns gives every block's end state from its own inputs, those
    carries form the same chain in A^K (solved by this class again, one
    level down), A times each carry joins the first step of the next
    block, and one matmul with the operator solves all blocks."""

    def __init__(self, a: np.ndarray, length: int):
        self.length = length
        *stack, n, _ = a.shape
        block = _block_length(n)
        k = self.k = length if length <= block else min(block, _LONG_BLOCK)
        pows = powers(a, k)
        # block (i, j) of the operator is the upper-triangular Toeplitz
        # matrix of A^0[j, i] .. A^(K-1)[j, i]: a window of one strip
        # [0 ... 0 A^0[j, i] ... A^(K-1)[j, i]] that moves one step right
        # per row
        strip = np.zeros((*stack, n, n, 2 * k - 1))
        # strip[..., i, j, K - 1 + t] = A^t[j, i]
        tail = strip[..., k - 1 :].transpose(-1, *range(len(stack)), -2, -3)
        tail[0] = np.eye(n)
        tail[1:] = pows[: k - 1]
        *s_b, s_i, s_j, s_t = strip.strides
        windows = np.ndarray((*stack, n, k, n, k), strip.dtype, strip, (k - 1) * s_t, (*s_b, s_i, -s_t, s_j, s_t))
        self.operator = windows.reshape(*stack, n * k, n * k)
        # in a chain of several blocks a stack's axis meets g's first axis,
        # past its channel axis
        row_stack = (*stack, 1) if stack else ()
        self.row_operator = self.operator.reshape(*row_stack, n * k, n * k)
        # the columns of each state's last step: a block's end state from
        # its own inputs
        self.ends = np.ascontiguousarray(self.operator[..., k - 1 :: k]).reshape(*row_stack, n * k, n)
        self.a_t = np.ascontiguousarray(a.swapaxes(-1, -2)).reshape(*row_stack, n, n)
        self.carries = _SharedChain(pows[k - 1], -(-length // k)) if length > k else None

    def __call__(self, g: np.ndarray) -> np.ndarray:
        """Solves the chain in place: g holds the inputs and is
        overwritten with the states, and returned."""
        *lead, n, m = g.shape
        if m > self.length:
            raise ValueError(f"a chain solver built for {self.length} steps got a chain of {m} steps")
        k = self.k
        blocks = -(-m // k)
        padded = g if m == blocks * k else np.concatenate((g, np.zeros((*lead, n, blocks * k - m))), axis=-1)
        if blocks == 1:
            padded[...] = self.block_product(padded.reshape(*lead, n * k)).reshape(padded.shape)
        else:
            # one row per block, ordered (block, state, step)
            rows = padded.reshape(*lead, n, blocks, k).swapaxes(-3, -2).reshape(*lead, blocks, n * k)
            carry = self.carries((rows @ self.ends).swapaxes(-1, -2))
            rows[..., 1:, ::k] += carry[..., :-1].swapaxes(-1, -2) @ self.a_t
            # splitting the last axis of padded gives a view of it
            padded.reshape(*lead, n, blocks, k)[...] = (rows @ self.row_operator).reshape(*lead, blocks, n, k).swapaxes(-3, -2)
        if padded is not g:
            g[...] = padded[..., :m]
        return g

    def block_product(self, rows: np.ndarray) -> np.ndarray:
        """rows @ the block operator, for rows (..., r, N K) of one block's
        inputs ordered (state, step): their states, as a new array."""
        return rows @ self.operator


class KeptSSM2D(DiscreteSSM2D):
    """A constant parameter set, made read-only, that keeps the solvers
    of its Abar1 and Abar4 chains: at most one per transition, for the
    length last asked, so a set kept across calls builds each once per
    length. Its fields are a `DiscreteSSM2D`'s, and `vars` gives only
    those."""

    __slots__ = ("chains",)

    def __post_init__(self):
        super().__post_init__()
        for a in vars(self).values():
            a.flags.writeable = False
        self.chains: dict[str, _SharedChain] = {}

    def chain(self, transition: str, length: int) -> _SharedChain:
        """The solver of the chain of `transition` ("Abar1" or "Abar4")
        over `length` steps; one kept for another length is replaced."""
        chain = self.chains.get(transition)
        if chain is None or chain.length != length:
            chain = self.chains[transition] = _SharedChain(getattr(self, transition), length)
        return chain


def _chain(dp: DiscreteSSM2D, transition: str, length: int) -> _SharedChain:
    """The solver of dp's `transition` chain over `length` steps: the one
    a `KeptSSM2D` keeps, else a new one."""
    if isinstance(dp, KeptSSM2D):
        return dp.chain(transition, length)
    return _SharedChain(getattr(dp, transition), length)


def input_terms(bbar: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The shared sweep's hidden grid before its row solve: Bbar x as one
    (..., V, d, 2N, T) grid whose halves are h1 and h2, time innermost,
    for bbar = [Bbar1 Bbar2] of shape (..., 2N) and x of shape
    (..., V, T, d); their leading axes broadcast."""
    # a contiguous (..., V, d, T) copy of x first makes the broadcast
    # multiply read it in order
    x_rows = np.ascontiguousarray(x.swapaxes(-1, -2))
    return np.multiply(bbar[..., None, None, :, None], x_rows[..., None, :], order="C")


def solve_rows(hidden: np.ndarray, abar2, abar3, abar4, row_chain: _SharedChain) -> np.ndarray:
    """Completes a grid of input terms (`input_terms`'s layout) to the
    hidden states in place, row by row, and returns it. Abar2-4 are
    (N, N), or (B, N, N) for a grid with the one leading axis (B,), one
    transition set per leading index; `row_chain` solves Abar1's chain
    over rows of T steps. A grid of one channel whose rows are one block
    of the chain solves each row's chains two rows per block product
    (`_one_channel_chains`); any other grid calls `row_chain`. Each
    leading index gets the result it gets alone, bit for bit."""
    n = abar2.shape[-1]
    # variate rows first: rows[v] is row v of every leading index
    rows = hidden.swapaxes(0, -4)
    h1, h2 = rows[..., :n, :], rows[..., n:, :]
    # the transitions meet the grid's leading axes outside its channel axis
    cross = np.concatenate((abar3, abar4), axis=-1)[..., None, :, :]
    abar2 = abar2[..., None, :, :]
    two_rows = hidden.shape[-3] == 1 and row_chain.k == hidden.shape[-1]
    for v in range(len(rows)):
        if v > 0:
            # cross-variate state: pointwise in t given the previous row
            h2[v] += cross @ rows[v - 1]
        # cross-time state: one chain along the row
        g = h1[v]
        g[..., 1:] += abar2 @ h2[v, ..., :-1]
        if two_rows:
            _one_channel_chains(rows[v], row_chain)
        else:
            row_chain(g)
    return hidden


def _one_channel_chains(row: np.ndarray, row_chain: _SharedChain) -> None:
    """Solves the h1 chains of a one-channel row of one block, row of
    shape (..., 1, 2N, K), in place, two rows of N K per block product:
    two series on one operator (paired along the last leading axis), or
    a series with no partner and its own h2 half, read and not written.
    A gemm of one shape rounds each row alone; a gemv would not match."""
    *lead, _, width, k = row.shape
    n = width // 2
    # with one channel, the leading index's [h1; h2] rows
    halves = row.reshape(*lead, 2, n * k)
    h1 = row[..., 0, :n, :]
    count = lead[-1] if lead and row_chain.operator.ndim == 2 else 0
    paired = count - count % 2
    if paired:
        pairs = halves[..., :paired, 0, :].reshape(*lead[:-1], paired // 2, 2, n * k)
        h1[..., :paired, :, :] = row_chain.block_product(pairs).reshape(*lead[:-1], paired, n, k)
        halves, h1 = halves[..., paired:, :, :], h1[..., paired:, :, :]
    if h1.size:
        h1[...] = row_chain.block_product(halves)[..., 0, :].reshape(h1.shape)


def readout(c: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """y = [C1 C2] h as (..., V, T, d), for c = [C1 C2] of shape (..., 2N)
    and a solved grid; their leading axes broadcast."""
    y = (c[..., None, None, None, :] @ hidden)[..., 0, :]
    return np.ascontiguousarray(y.swapaxes(-1, -2))


def sweep_shared(dp: DiscreteSSM2D, x: np.ndarray, row_chain: _SharedChain | None = None):
    """The row sweep for constant parameters on x, (..., V, T, d), with
    `row_chain` Abar1's solver for rows of T steps, dp's own (`_chain`)
    when none is given: returns y and the solved (..., V, d, 2N, T) grid.
    dp may also be a stack of parameter sets (batch shape (B,)) on a
    chain of their shared Abar1, given, or of their own stacked Abar1;
    its leading axis meets the grid's."""
    if row_chain is None:
        row_chain = _chain(dp, "Abar1", x.shape[-2])
    hidden = input_terms(np.concatenate((dp.Bbar1, dp.Bbar2), axis=-1), x)
    solve_rows(hidden, dp.Abar2, dp.Abar3, dp.Abar4, row_chain)
    return readout(np.concatenate((dp.C1, dp.C2), axis=-1), hidden), hidden


def _sweep_cells(dp: DiscreteSSM2D, x: np.ndarray):
    """The row sweep for per-cell parameters on x's grid, with the state
    axes innermost: each row's time chain is one `_scan_affine` tree scan
    over its per-step transitions, which solves the row in place. A stack
    of per-cell sets, batch shape (B, V, T), sweeps a stack of series, x
    of shape (B, V, T, d), with the stack axis outside every product, so
    item b is its own set's sweep of x[b], bit for bit."""
    batch = dp.Abar1.shape[:-2]
    if len(batch) == 3 and batch != x.shape[:-1]:
        raise ValueError(f"a stack of per-cell parameters of batch shape {batch} does not match x of shape {x.shape}")
    p = dp if len(batch) == 3 else dp.on_grid(*x.shape[-3:-1])  # raises unless dp is on x's grid
    # input terms for the whole grid; the row sweep completes them in place
    h1 = p.Bbar1[..., None] * x[..., None, :]
    h2 = p.Bbar2[..., None] * x[..., None, :]

    # views with variates first, then time (the tree scan's axis), then
    # the stack: every field has the stack axes k, then (V, T) and two more
    k = len(batch) - 2
    rows = (k, k + 1, *range(k), k + 2, k + 3)
    h1_rows, h2_rows = h1.transpose(rows), h2.transpose(rows)
    abar1, abar2, abar3, abar4 = (a.transpose(rows) for a in (p.Abar1, p.Abar2, p.Abar3, p.Abar4))
    for v in range(len(h1_rows)):
        if v > 0:
            # cross-variate state: pointwise in t given the previous row
            h2_rows[v] += abar3[v] @ h1_rows[v - 1] + abar4[v] @ h2_rows[v - 1]
        # cross-time state: one inclusive scan along the row, in place
        g = h1_rows[v]
        g[1:] += abar2[v, 1:] @ h2_rows[v, :-1]
        _scan_affine(abar1[v], g)
    # the readout is one dot product per cell with no matrix to share;
    # at small N and d einsum's inner loop runs it about twice as fast as
    # matmul, which makes one BLAS call per cell
    y = np.einsum("...n,...nd->...d", p.C1, h1) + np.einsum("...n,...nd->...d", p.C2, h2)
    return y, h1, h2


def scan_forward(dp: DiscreteSSM2D, x, return_hidden: bool = False):
    """Scan-based forward pass, equal to the sequential recurrence.

    `dp` is constant (batch shape ()) or per-cell on the input's (V, T)
    grid. Returns y of shape (V, T, d), and with
    `return_hidden` also the hidden grids (h1, h2), each (V, T, N, d).
    Constant parameters also take a stack of series, x of shape
    (..., V, T, d), and a stack of per-cell sets (batch shape (B, V, T))
    takes one series per set, x of shape (B, V, T, d); each series gets
    the result it gets alone, bit for bit, and the outputs carry the
    same leading axes."""
    batch = dp.Abar1.shape[:-2]
    # only a (V, T) per-cell set takes a single series alone
    x = as_series(x, stacked=len(batch) != 2)
    if not batch:
        y, hidden = sweep_shared(dp, x)
        # (V, T, N, d) views of the grid's two halves
        h1, h2 = hidden[..., : dp.n, :].swapaxes(-1, -3), hidden[..., dp.n :, :].swapaxes(-1, -3)
    else:
        y, h1, h2 = _sweep_cells(dp, x)
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
    emitted outputs for the `horizon` generated columns are returned as
    (V, horizon, d). Each step is one product with the fused column map G
    (see the module docstring), the Abar3 cross term and the variate
    chain; one readout after the last step gives every output."""
    check_integer("horizon", horizon, 0)
    require_constant(dp, "closed_loop_decode")
    x_ctx = as_series(x_ctx)
    d1, d2 = finite_array("d1", d1), finite_array("d2", d2)
    for name, row in (("d1", d1), ("d2", d2)):
        if row.shape != (dp.n,):
            raise ValueError(f"{name} must have length N={dp.n}, got shape {row.shape}")
    v_count, t_count, d = x_ctx.shape
    n = dp.n
    bbar = np.concatenate((dp.Bbar1, dp.Bbar2))
    # the context's solved (V, d, 2N, T) grid, of which only the last column
    # is read
    hidden = solve_rows(input_terms(bbar, x_ctx), dp.Abar2, dp.Abar3, dp.Abar4, _chain(dp, "Abar1", t_count))
    # g h is a column's h1 and its h2 input terms, the fed-back input
    # included: [[Abar1 Abar2], [0 0]] h + [Bbar1; Bbar2] [D1 D2] h
    g = np.outer(bbar, np.concatenate((d1, d2)))
    g[:n] += np.concatenate((dp.Abar1, dp.Abar2), axis=-1)
    variate_chain = _chain(dp, "Abar4", v_count)
    # the generated columns, h1 over h2 with variates innermost
    columns = np.empty((horizon, d, 2 * n, v_count))
    h = hidden[..., -1].transpose(1, 2, 0)
    for step in range(horizon):
        h = np.matmul(g, h, out=columns[step])
        h[:, n:, 1:] += dp.Abar3 @ h[:, :n, :-1]
        variate_chain(h[:, n:])
    # readout takes the (H, d, 2N, V) columns as rows of V steps: (H, V, d)
    return readout(np.concatenate((dp.C1, dp.C2)), columns).swapaxes(0, 1)
