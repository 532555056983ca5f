"""Zero-order-hold discretization of the continuous 2D SSM.

The continuous model carries four transition matrices, input columns
B1/B2, readout rows C1/C2, and one step size per axis. A transition is
a plain float array: (N, N), or (N,) for the entries of a diagonal one
(see `chimera2d.structured`). ZOH gives

    Abar = exp(dt * A),   Bbar = Phi(dt) B,   Phi(dt) = integral of exp(sA) on [0, dt].

For an (N, N) A both come from one exponential of the augmented
matrix (Van Loan 1978, "Computing integrals involving the matrix
exponential"), exp(dt * [[A, I], [0, 0]]) = [[Abar, Phi(dt)], [0, I]],
with no inverse of A, so they are exact at every step size and for
singular A alike. For a diagonal A both are elementwise, Abar =
exp(dt*a) and Bbar = expm1(dt*a) / a * B (dt * B where dt*a == 0).
Abar1/Abar2 use the time step, Abar3/Abar4 the variate step.

B, C and the step sizes may carry any leading batch shape (one entry per
grid cell on the selective path). The augmented matrix holds A, not B,
so one `expm` call serves a whole grid; a cell costs a row of a matmul,
log2(dt ||A||_1) squarings (2N x 2N) and the product Phi(dt) B. A
stacked continuous set holds one set per item of a leading axis (B,),
its As included, and discretizes each item as its own set, bit for bit.

A discrete parameter set is either constant, every field of batch shape
(), or per-cell, every field of one batch shape; nothing in between.
The batch shapes are (V, T) for a per-cell set on a grid, (B, V, T) for
a stack of them (a bidirectional selective layer's pair, see
`chimera2d.model`), and (B,) for a stack of constant sets
(`scan.sweep_shared`); a stacked continuous set discretizes into the
last two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structured import at_steps, expm

# smallest step size: softplus underflows to 0.0 for very negative
# preactivations, and the step must stay strictly positive
DT_FLOOR = 1e-12


def finite_array(name: str, values) -> np.ndarray:
    """values as a float array. Raises ValueError naming the field unless
    every entry is finite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contains non-finite values")
    return values


def _checked_step(name: str, dt) -> np.ndarray:
    dt = np.asarray(dt, dtype=float)
    if not 0.0 < dt.min() <= dt.max() < np.inf:  # a NaN fails every comparison
        raise ValueError(f"step size {name} must be positive and finite")
    return dt


def _broadcasts(shape: tuple, to: tuple) -> bool:
    """Whether an array of `shape` broadcasts to `to` unchanged."""
    return len(shape) <= len(to) and all(a in (1, b) for a, b in zip(shape[::-1], to[::-1]))


@dataclass(frozen=True)
class ContinuousSSM2D:
    """Continuous-time parameter set, before discretization. Each A is
    (N, N) or the (N,) diagonal, B/C have shape (..., N) and dt1/dt2 the
    batch shape (...): () for one cell, (V, T) for a selective grid. A
    `stacked` set is one set per item of the steps' first axis (B,),
    which leads every field: A (B, N, N) or (B, N), B and C (B, ..., N)
    for steps of shape (B, ...). dt2 takes dt1's shape, and B's batch
    shape broadcasts to it. A field of another shape, or an A, B or C
    with a non-finite entry, is refused by name."""

    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    A4: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    dt1: float | np.ndarray
    dt2: float | np.ndarray
    stacked: bool = False

    def __post_init__(self):
        _checked_step("dt1", self.dt1)
        _checked_step("dt2", self.dt2)
        steps = np.shape(self.dt1)
        if np.shape(self.dt2) != steps:
            raise ValueError(f"step sizes dt2 have shape {np.shape(self.dt2)}, but dt1 {steps}: every field takes one batch shape")
        lead = steps[:1] if self.stacked else ()
        n = np.shape(self.A1)[-1:]  # (N,)
        for name in ("A1", "A2", "A3", "A4"):
            shape = np.shape(getattr(self, name))
            if shape not in (lead + n, lead + n + n):
                stack = f" behind the stack axes {lead}" if lead else ""
                raise ValueError(f"{name} has shape {shape}: every A must be (N,) or (N, N){stack}, N from A1 {np.shape(self.A1)}")
            finite_array(name, getattr(self, name))
        for name in ("B1", "B2", "C1", "C2"):
            shape = np.shape(getattr(self, name))
            if shape[-1:] != n:
                raise ValueError(f"{name} has shape {shape}: B and C vectors must have length N, N from A1 {np.shape(self.A1)}")
            if name[0] == "B" and not _broadcasts(shape[:-1], steps):
                raise ValueError(f"{name} has shape {shape}: its batch shape does not broadcast to the steps' shape {steps}")
            finite_array(name, getattr(self, name))


@dataclass(frozen=True)
class DiscreteSSM2D:
    """Discrete parameter set driving the 2D recurrence. Abar* have shape
    (..., N, N) and Bbar*/C* shape (..., N), with one batch shape (...)
    for every field: () for constant parameters and (V, T) for per-cell
    (selective) ones, or (B,) for a stack of constant ones and
    (B, V, T) for a stack of per-cell ones."""

    Abar1: np.ndarray
    Abar2: np.ndarray
    Abar3: np.ndarray
    Abar4: np.ndarray
    Bbar1: np.ndarray
    Bbar2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray

    def __post_init__(self):
        shape = self.Abar1.shape
        batch, n = shape[:-2], shape[-1:]
        square, vector = batch + n + n, batch + n
        for name, a in vars(self).items():
            want = square if name.startswith("Abar") else vector
            if a.shape != want:
                raise ValueError(
                    f"{name} has shape {a.shape}, expected {want}: every field takes the batch shape "
                    f"of Abar1 {shape}, () when constant, with Abar* (..., N, N) and Bbar*/C* (..., N)"
                )

    @property
    def n(self) -> int:
        return self.Abar1.shape[-1]

    def on_grid(self, v_count: int, t_count: int) -> "DiscreteSSM2D":
        """The parameters with batch shape (V, T): constant ones broadcast,
        per-cell ones on that grid unchanged. Raises for any other batch
        shape."""
        grid = (v_count, t_count)
        batch = self.Abar1.shape[:-2]
        if batch == grid:
            return self
        if batch:
            raise ValueError(f"parameters have batch shape {batch}; expected () or the grid {grid}")
        return DiscreteSSM2D(**{name: np.broadcast_to(a, grid + a.shape) for name, a in vars(self).items()})


def _checked_input(b, n: int) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape[-1:] != (n,):
        raise ValueError(f"input matrix B has shape {b.shape}: its last axis must have length N = {n}")
    if not np.isfinite(b).all():
        raise ValueError("non-finite input matrix")
    return b


def zoh_pair(a, b, dt) -> tuple[np.ndarray, np.ndarray]:
    """Discretize one (A, B) pair: returns (exp(dt*A), ZOH input matrix)
    for A (N, N) or its (N,) diagonal, B of shape (..., N) and dt of a
    batch shape (...); Abar has dt's."""
    return _zoh(a, b, _checked_step("dt", dt), False)


def _zoh(a, b, dt: np.ndarray, stacked: bool) -> tuple[np.ndarray, np.ndarray]:
    """`zoh_pair` on a float array dt of step sizes already checked. With
    `stacked`, a holds one A per item of dt's first axis (`expm`'s rule)."""
    a = np.asarray(a, dtype=float)
    b = _checked_input(b, a.shape[-1])
    if a.ndim == len(dt.shape[:1] if stacked else ()) + 1:
        a_at = at_steps(a, dt, stacked)
        diag = dt[..., None] * a_at
        # expm1(dt*a) / a elementwise, and its limit dt where dt*a == 0
        phi = np.where(diag == 0.0, dt[..., None], np.expm1(diag) / np.where(diag == 0.0, 1.0, a_at))
        return expm(a, dt, stacked), phi * b
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise ValueError(f"A has shape {a.shape}: a dense transition must be square")
    aug = np.zeros(a.shape[:-2] + (2 * n, 2 * n))
    aug[...] = np.eye(2 * n, k=n)  # [[0, I], [0, 0]]
    aug[..., :n, :n] = a
    e = expm(aug, dt, stacked)
    return e[..., :n, :n], (e[..., :n, n:] @ b[..., None])[..., 0]


def discretize_all(p: ContinuousSSM2D) -> DiscreteSSM2D:
    """Discretize the full parameter set (time step for A1/A2, variate
    step for A3/A4; B1 rides the (A1, dt1) pair, B2 the (A4, dt2) pair).
    Each field has the batch shape of its inputs (Abar its step's); an
    item of a stacked set is bit for bit its own set's discretization.
    The step sizes are not checked again: the set checked them when made."""
    abar1, bbar1 = _zoh(p.A1, p.B1, np.asarray(p.dt1, dtype=float), p.stacked)
    abar4, bbar2 = _zoh(p.A4, p.B2, np.asarray(p.dt2, dtype=float), p.stacked)
    return DiscreteSSM2D(
        Abar1=abar1, Abar2=expm(p.A2, p.dt1, p.stacked), Abar3=expm(p.A3, p.dt2, p.stacked), Abar4=abar4,
        Bbar1=bbar1, Bbar2=bbar2,
        C1=np.asarray(p.C1, dtype=float).copy(), C2=np.asarray(p.C2, dtype=float).copy(),
    )
