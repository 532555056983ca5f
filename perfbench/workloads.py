"""The benchmark's workloads: shapes, set-up, and the ops they time.

Every workload is a closed loop with one caller in one process: each op
starts when the previous one returns. A cycle is the workload's main op
followed by its forecasts. The model always comes from
`ChimeraModel.init_random` with default settings apart from the shape,
seeded from the workload seed; inputs come from `seriesgen`.

Why these three (see README.md for the layer table):

- fit: the training step, the end-to-end wall. On a short grid each
  forward is dominated by fixed per-call costs (discretizing 8 blocks,
  the per-row scan loop, FD bookkeeping), which is where batched
  discretization and adjoint gradients show.
- serve: a long grid, where the scan's per-cell work dominates and
  discretization is a few percent; its forecast op runs the sequential
  decoder, a different layer.
- selective: the mirror of serve; per-cell projection and per-cell
  discretization dominate, and the scan gets full per-cell arrays.

All three also time a forecast (decode H steps, then score them), so
that every workload reports every end-to-end metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seriesgen import seasonal_ar_grid

HORIZON = 16
STATE_DIM = 2
LR = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    v_count: int
    t_count: int
    channels: int
    layers: int
    selective: bool
    main: str  # kind of the main op: "fit" or "forward"
    # forecasts per cycle, so that every run gets enough forecast samples
    forecasts: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit", 8, 64, 1, 2, False, "fit", 8),
        Workload("serve", 8, 1024, 4, 2, False, "forward", 1),
        Workload("selective", 8, 64, 4, 1, True, "forward", 2),
    )
}


@dataclass
class Inputs:
    """Everything an op reads; built once per process by `setup`."""

    model: object
    x: np.ndarray  # (V, T, d) context / training input
    y: np.ndarray  # one-step-ahead targets for x
    truth: np.ndarray  # the HORIZON held-out steps after x


def setup(w: Workload, seed: int) -> Inputs:
    """Import the library, generate the inputs, and build the model."""
    from chimera2d import ChimeraModel, ModelConfig

    grid = seasonal_ar_grid(seed, w.v_count, w.t_count + HORIZON, w.channels)
    config = ModelConfig(
        layers=w.layers, state_dim=STATE_DIM, channels=w.channels,
        selective=w.selective, seed=seed,
    )
    t = w.t_count
    return Inputs(
        model=ChimeraModel.init_random(config),
        x=grid[:, :t],
        y=grid[:, 1 : t + 1],
        truth=grid[:, t : t + HORIZON],
    )


def cycle(w: Workload) -> tuple[str, ...]:
    """Op kinds of one cycle, in order."""
    return (w.main,) + ("forecast",) * w.forecasts


def run_op(kind: str, inp: Inputs):
    """One op; returns its output as a dict of arrays. The library is
    looked up at call time so that a tracer's wrappers are used."""
    import chimera2d.metrics
    import chimera2d.model

    if kind == "fit":
        fitted = chimera2d.model.fit(inp.model, (inp.x, inp.y), steps=1, lr=LR)
        out = dict(fitted.params)
        out["loss_history"] = np.asarray(fitted.loss_history)
        return out
    if kind == "forward":
        return {"y": inp.model.forward(inp.x)}
    if kind == "forecast":
        pred = inp.model.decode(inp.x, HORIZON)
        scores = chimera2d.metrics.compute_metrics(pred, inp.truth, inp.x)
        return {"pred": pred, **scores}
    raise ValueError(f"unknown op kind {kind!r}")
