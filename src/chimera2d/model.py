"""Layered trend/seasonal architecture on top of the 2D SSM.

Each layer runs a trend block (one 2D SSM, bi-directional along
variates) and a seasonal block whose time-axis step size is its own
learnable parameter, followed by a linear re-discretization map.
The blocks are combined by residual decomposition:

    trend_l    = trend_block(residual_{l-1})
    residual_l = redisc(seasonal_block(residual_{l-1} - trend_l))

The model output sums the trend components and the final residual, adds
a SwiGLU gate branch computed from the raw input, and applies a linear
readout. Training is plain gradient descent with central-difference
gradients over the flat parameter store; the same store is what the
JSON checkpoint format serializes.

Every SSM block stores `CONT_PARAM_NAMES`. A selective trend or seasonal
block adds the six `PROJ_WEIGHT_NAMES`, in Mamba's form (Gu & Dao, arXiv
2312.00752): its parameters are the `SelectiveProjections` fields, whose
biases are its continuous set's b1..c2 and step raws, so with zero
weights it is its constant block. The decoder is constant. Every trend
and seasonal block runs through one method, `ChimeraModel._passes`, which
names the block in the error of a pass that fails. A bidirectional
selective layer runs each pair of blocks as one stack of two (one
projection, discretization and per-cell sweep for both, the backward
block on the series reversed over variates), and a single selective
block is a stack of one; each equals its pass alone, bit for bit.

`fit` evaluates the differences one group of parameters at a time (one
SSM block's, or one weight matrix), with the group's 2 x (coordinates)
perturbed copies stacked on a leading variant axis: a pass no variant
reaches runs once per gradient, and a later one once on the (B, V, T,
d) stack, both as `ChimeraModel._passes` runs them, a selective pair as
one stack of two. The variants stand in for the group in the table
the forward reads, for one forward: a block's outputs for its base
pass's, a weight matrix's stack for its `params` entry. A perturbed
constant block discretizes its variants as one stack and runs them in
at most two stacked sweeps and one readout, by the fields each moves; a
selective block runs one variant per pass. On one channel, a stacked
pass solves a shared row chain two variants per block product
(`scan.solve_rows`). Each variant's loss is the one a fresh forward of
it gives, bit for bit (`fd_gradient`, which reruns the whole model per
evaluation, is the oracle).

A model keeps each constant block's discretization, the decoder's too,
until one of the parameters it comes from changes (`_block_dp`), and
with it the block's chain solvers (`scan.KeptSSM2D`): Abar1's over rows
of T steps, and the decoder's Abar4's over V variates, one per
transition, for the last length used. So a served model, whose
parameters do not change between calls, discretizes each block once and
builds its solvers once per context shape, and every output still
equals a fresh model's bit for bit.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .discretize import ContinuousSSM2D, DiscreteSSM2D, discretize_all
from .recurrence import as_series, check_integer, check_real, transition_probe
from .scan import KeptSSM2D, closed_loop_decode, readout, scan_forward, sweep_shared
from .selective import DT_INIT, SelectiveProjections, continuous_set, inv_softplus, project_grid_params
from .structured import companion_from_coeffs, diagonal_matrix


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters. `channels` is the width d of the input, of the
    gate and of the readout; `season_hint` is the seasonal block's
    initial time-axis step size (every other step starts at `DT_INIT`)."""

    layers: int = 2
    state_dim: int = 4
    channels: int = 8
    season_hint: float = 1.0
    selective: bool = False
    bidirectional: bool = True
    seed: int = 0

    def __post_init__(self):
        for name, least in (("layers", 0), ("state_dim", 1), ("channels", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), least)
        for name in ("selective", "bidirectional"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        check_real("season_hint", self.season_hint, "positive")


# every SSM block's parameters: its continuous set
CONT_PARAM_NAMES = ("a1", "a2", "a3", "a4", "dt1_raw", "dt2_raw", "b1", "b2", "c1", "c2")

# a selective block's parameters by the names of its SelectiveProjections
# fields, and its projection weights, the fields that are not its continuous set's
PROJ_FIELDS = tuple(f.name for f in fields(SelectiveProjections))
PROJ_WEIGHT_NAMES = tuple(name for name in PROJ_FIELDS if name not in CONT_PARAM_NAMES)


def _swish(z):
    return z / (1.0 + np.exp(-z))


# Every intermediate of the forward may carry a leading variant axis,
# (B, V, T, d), and every weight matrix a leading (B, 1) pair of axes.


def _transitions(a1, a2, a3, a4) -> tuple[np.ndarray, ...]:
    """A block's (A1, A2, A3, A4) from its a1..a4, or from stacks of them:
    two companions and two diagonals."""
    return companion_from_coeffs(a1), companion_from_coeffs(a2), diagonal_matrix(a3), diagonal_matrix(a4)


def _flip(x: np.ndarray) -> np.ndarray:
    """x with its variate axis reversed."""
    return x[..., ::-1, :, :]


def _linear(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w^T over the channel axis."""
    return x @ w.swapaxes(-1, -2)


def _continuous(values: list[np.ndarray]) -> ContinuousSSM2D:
    """A block's continuous set from its `CONT_PARAM_NAMES` values, or
    from (B, ...) stacks of them."""
    return continuous_set(_transitions(*values[:4]), *values[4:], stacked=values[4].ndim > 0)


def _naming(prefixes: tuple[str, ...], run):
    """run(), with a ValueError raised again naming the blocks it ran."""
    try:
        return run()
    except ValueError as exc:
        raise ValueError(f"block{'s' * (len(prefixes) > 1)} {' and '.join(prefixes)}: {exc}") from exc


@dataclass
class ChimeraModel:
    config: ModelConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)
    loss_history: list[float] = field(default_factory=list)
    # prefix -> (the key of its CONT_PARAM_NAMES values, their discretization)
    _dp_memo: dict[str, tuple[tuple, KeptSSM2D]] = field(default_factory=dict, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # construction / serialization

    @staticmethod
    def init_random(config: ModelConfig) -> "ChimeraModel":
        rng = np.random.default_rng(config.seed)
        n, d = config.state_dim, config.channels
        p: dict[str, np.ndarray] = {}

        def ssm_block(prefix: str, dt_time: float, selective: bool = config.selective):
            # mildly contractive transition structure; B/C near unit scale
            p[f"{prefix}.a1"] = rng.uniform(-0.4, -0.05, n)
            p[f"{prefix}.a2"] = rng.uniform(-0.4, -0.05, n)
            p[f"{prefix}.a3"] = rng.uniform(-1.0, -0.1, n)
            p[f"{prefix}.a4"] = rng.uniform(-1.0, -0.1, n)
            p[f"{prefix}.dt1_raw"] = np.array(inv_softplus(dt_time))
            p[f"{prefix}.dt2_raw"] = np.array(inv_softplus(DT_INIT))
            if selective:
                # every field but the step raws, which the block sets above
                proj = SelectiveProjections.init_random(n, d, seed=rng)
                p.update({f"{prefix}.{name}": getattr(proj, name) for name in PROJ_FIELDS if f"{prefix}.{name}" not in p})
            else:
                for name in CONT_PARAM_NAMES[6:]:
                    p[f"{prefix}.{name}"] = rng.normal(0.0, 1.0 / np.sqrt(n), n)

        dirs = ("f", "b") if config.bidirectional else ("f",)
        for layer in range(config.layers):
            for tau in dirs:
                ssm_block(f"layer{layer}.trend.{tau}", DT_INIT)
            for tau in dirs:
                ssm_block(f"layer{layer}.seasonal.{tau}", config.season_hint)
            p[f"layer{layer}.redisc.w"] = np.eye(d) + rng.normal(0.0, 0.02, (d, d))
        lim = 1.0 / np.sqrt(d)
        p["gate.w_in"] = rng.uniform(-lim, lim, (d, d))
        p["gate.w_val"] = rng.uniform(-lim, lim, (d, d))
        p["gate.w_out"] = rng.uniform(-lim, lim, (d, d))
        p["head.w"] = np.eye(d) + rng.normal(0.0, 0.02, (d, d))
        # closed_loop_decode is data-independent: a constant decoder block
        ssm_block("decoder", DT_INIT, selective=False)
        p["decoder.d1"] = rng.normal(0.0, 1.0 / np.sqrt(n), n)
        p["decoder.d2"] = rng.normal(0.0, 1.0 / np.sqrt(n), n)
        return ChimeraModel(config=config, params=p)

    def copy(self) -> "ChimeraModel":
        return ChimeraModel(
            config=self.config,
            params={k: v.copy() for k, v in self.params.items()},
            loss_history=list(self.loss_history),
        )

    def to_checkpoint(self) -> dict:
        return {
            "config": asdict(self.config),
            "params": {k: v.tolist() for k, v in self.params.items()},
        }

    @staticmethod
    def from_checkpoint(blob: dict) -> "ChimeraModel":
        for key in ("config", "params"):
            if not isinstance(blob, dict) or not isinstance(blob.get(key), dict):
                raise TypeError(f"checkpoint {key} must be a JSON object")
        unknown = sorted(set(blob["config"]) - {f.name for f in fields(ModelConfig)})
        if unknown:
            raise TypeError(f"unknown model config keys: {', '.join(unknown)}")
        config = ModelConfig(**blob["config"])
        given, params = blob["params"], {}
        for k, v in given.items():
            try:
                v = np.asarray(v)
            except ValueError:  # a ragged list
                continue
            if v.dtype.kind in "iuf":  # not text, a bool, an object or an int past 64 bits
                params[k] = v.astype(float)
        expected = {k: v.shape for k, v in ChimeraModel.init_random(config).params.items()}
        problems = [f"missing {k}" for k in sorted(expected.keys() - given.keys())]
        problems += [f"unexpected {k}" for k in sorted(given.keys() - expected.keys())]
        problems += [f"{k} is not an array of numbers" for k in sorted(given.keys() - params.keys())]
        problems += [
            f"{k} has shape {params[k].shape}, expected {expected[k]}"
            for k in sorted(expected.keys() & params.keys())
            if params[k].shape != expected[k]
        ]
        problems += [f"{k} has non-finite values" for k in sorted(params) if not np.isfinite(params[k]).all()]
        if problems:
            raise ValueError(f"invalid checkpoint parameters: {'; '.join(problems)}")
        return ChimeraModel(config=config, params=params)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_checkpoint(), fh)

    @staticmethod
    def load(path) -> "ChimeraModel":
        with open(path, encoding="utf-8") as fh:
            return ChimeraModel.from_checkpoint(json.load(fh))

    # ------------------------------------------------------------------
    # forward pieces

    def _block_dp(self, prefix: str) -> KeptSSM2D:
        """The block's discretization, kept as a read-only `KeptSSM2D`,
        which keeps its chain solvers too, and returned again while the
        (shape, bytes) of each of the `CONT_PARAM_NAMES` values it came
        from is unchanged, so an in-place update of any one discretizes
        afresh and drops the solvers. Every copy, checkpoint load and
        `_StackedVariants` starts with nothing kept."""
        values = [self.params[f"{prefix}.{name}"] for name in CONT_PARAM_NAMES]
        key = tuple((v.shape, v.tobytes()) for v in values)
        kept = self._dp_memo.get(prefix)
        if kept is None or kept[0] != key:
            kept = self._dp_memo[prefix] = (key, KeptSSM2D(**vars(discretize_all(_continuous(values)))))
        return kept[1]

    def _ssm_blocks(self) -> list[str]:
        """The trend and seasonal block prefixes, in the order `forward`
        runs them."""
        dirs = ("f", "b") if self.config.bidirectional else ("f",)
        return [
            f"layer{layer}.{kind}.{tau}"
            for layer in range(self.config.layers) for kind in ("trend", "seasonal") for tau in dirs
        ]

    def _first_unstable_block(self) -> str:
        """Names the first SSM block, in forward order, whose joint
        transition has spectral radius >= 1 (or cannot be formed), with
        that radius. A selective block is probed at its continuous set,
        which its projections give a zero input."""
        for prefix in self._ssm_blocks():
            try:
                rho = transition_probe(self._block_dp(prefix))["rho_joint"]
            except (ValueError, np.linalg.LinAlgError) as exc:
                return f"block {prefix} has no finite transition ({exc})"
            if not rho < 1.0:
                return f"block {prefix} has joint transition spectral radius {rho:.4g} >= 1"
        return "every block's joint transition has spectral radius < 1"

    def _passes(self, prefixes: tuple[str, ...], xs: tuple[np.ndarray, ...]):
        """Block prefixes[k]'s pass on xs[k], each x (V, T, d) or a stack
        (B, V, T, d), as item k of the result. A constant block is one
        scan, of a stack too. Selective blocks, whose parameters depend on
        their input, run as one stack: one projection, discretization and
        per-cell sweep per series, item k bit for bit block k's pass
        alone. A ValueError is raised again naming the block, or the
        whole stack."""
        if not self.config.selective:
            return [_naming((prefix,), lambda: scan_forward(self._block_dp(prefix), x)) for prefix, x in zip(prefixes, xs)]

        def stack(name):
            return np.array([self.params[f"{prefix}.{name}"] for prefix in prefixes])

        proj = SelectiveProjections(**{name: stack(name) for name in PROJ_FIELDS})
        a_set = _transitions(*map(stack, CONT_PARAM_NAMES[:4]))

        def scan(series):
            return scan_forward(project_grid_params(proj, series, a_set), series)

        # block k on xs[..., k, :, :, :]
        series = np.stack(xs, axis=-4)
        ys = _naming(prefixes, lambda: scan(series) if series.ndim == 4 else np.stack([scan(s) for s in series]))
        return np.moveaxis(ys, -4, 0)

    def _directional_pass(self, prefix: str, x: np.ndarray) -> np.ndarray:
        """The forward block `prefix`.f on x, plus with `bidirectional` the
        backward block .b on x reversed over variates, in one `_passes`."""
        if not self.config.bidirectional:
            return self._passes((f"{prefix}.f",), (x,))[0]
        ys = self._passes((f"{prefix}.f", f"{prefix}.b"), (x, _flip(x)))
        return ys[0] + _flip(ys[1])

    def layer_forward(self, layer: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The layer's trend on x, and its residual: the re-discretized
        seasonal pass on x minus the trend."""
        trend = self._directional_pass(f"layer{layer}.trend", x)
        seasonal = self._directional_pass(f"layer{layer}.seasonal", x - trend)
        return trend, _linear(seasonal, self.params[f"layer{layer}.redisc.w"])

    def gate(self, x: np.ndarray) -> np.ndarray:
        p = self.params
        return _linear(_swish(_linear(x, p["gate.w_in"])) * _linear(x, p["gate.w_val"]), p["gate.w_out"])

    def _series(self, x) -> np.ndarray:
        """x as a (V, T, d) series with the model's channel count d."""
        x = as_series(x)
        if x.shape[-1] != self.config.channels:
            raise ValueError(f"input has {x.shape[-1]} channels, but the model takes channels={self.config.channels}")
        return x

    def forward(self, x) -> np.ndarray:
        x = self._series(x)
        residual = x
        combined = np.zeros_like(x)
        for layer in range(self.config.layers):
            trend, residual = self.layer_forward(layer, residual)
            combined = combined + trend
        if self.config.layers > 0:
            combined = combined + residual
        combined = combined + self.gate(x)
        return _linear(combined, self.params["head.w"])

    __call__ = forward

    def decode(self, x_ctx, horizon: int) -> np.ndarray:
        """Closed-loop forecast through the decoder SSM and the readout."""
        dp = self._block_dp("decoder")
        out = closed_loop_decode(
            dp, self.params["decoder.d1"], self.params["decoder.d2"], self._series(x_ctx), horizon
        )
        return out @ self.params["head.w"].T


# ----------------------------------------------------------------------
# finite-difference training


def _fd_step(theta: float, step_scale: float = 1.0) -> float:
    return 1e-4 * max(1.0, abs(theta)) * step_scale


def fd_gradient(
    model: ChimeraModel,
    loss_fn,
    names: list[str] | None = None,
    step_scale: float = 1.0,
) -> dict[str, np.ndarray]:
    """Central-difference gradient of loss_fn(model) with respect to the
    named parameters (all of them by default); per-coordinate step is
    1e-4 * max(1, |theta|) * step_scale.

    loss_fn receives a private copy of the model, with one coordinate
    moved, and evaluates it from scratch every time. This is the oracle
    of the stacked evaluation that `fit` uses (`stacked_fd_gradient`)."""
    names = list(model.params) if names is None else names
    grads: dict[str, np.ndarray] = {}
    work = model.copy()
    for name in names:
        theta = work.params[name]
        grad = np.zeros_like(theta)
        flat = theta.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            h = _fd_step(orig, step_scale)
            flat[i] = orig + h
            up = loss_fn(work)
            flat[i] = orig - h
            down = loss_fn(work)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise FloatingPointError(f"non-finite loss while differentiating {name}")
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = grad
    return grads


def _variant_stacks(params: dict[str, np.ndarray], names, values: list[tuple[str, int, float]]) -> dict:
    """params[name] once per variant for each of the names, (B, *shape),
    coordinate i of variant b set to value in the stack of name for
    (name, i, value) = values[b]; every variant moves one of the names."""
    stacks = {name: np.repeat(params[name][None], len(values), axis=0) for name in names}
    for b, (name, i, value) in enumerate(values):
        stacks[name].reshape(len(values), -1)[b, i] = value
    return stacks


@dataclass
class _BasePass:
    """A block pass that no variant reaches: its input and output, and for
    a constant block its solved (V, d, 2N, T) grid."""

    x: np.ndarray
    y: np.ndarray
    hidden: np.ndarray | None = None


class _StackedVariants(ChimeraModel):
    """A model on one series x that evaluates the perturbed copies
    (variants) of one group of parameters at a time, stacked on a
    leading axis: `outputs` gives their B forwards as one (B, V, T, d)
    array, and `gradient` the central differences of an MSE from them.

    Of the forward's methods it overrides `_passes` alone. A call on the
    stack, after the group, is the model's own. A call that no variant
    reaches runs once, when the object is built, and keeps its blocks'
    base passes in `base`: a selective pair's as one stack, a constant
    block's with its solved grid, and a failure names its blocks as the
    model's own pass does. That forward is `y`, the unperturbed model's
    output. A group's variants stand in for the group in the table the
    forward reads: a block's outputs (`_variant_passes`) as the y of its
    base pass, a weight matrix's as a (B, 1, d, d) stack in `params`. It
    holds the model's own parameter arrays and writes into none: a
    variant's are items of `_variant_stacks`."""

    def __init__(self, model: ChimeraModel, x: np.ndarray):
        super().__init__(model.config, dict(model.params))
        self.x = x
        self.base: dict[str, _BasePass] = {}
        self.y = self.forward(x)

    def _passes(self, prefixes, xs):
        if xs[0].ndim == 4:
            # a variant reached the input
            return super()._passes(prefixes, xs)
        if prefixes[0] not in self.base:
            # no variant reached the input: the base passes
            if self.config.selective:
                ys = [(y,) for y in super()._passes(prefixes, xs)]
            else:
                ys = [_naming((p,), lambda: sweep_shared(self._block_dp(p), as_series(x))) for p, x in zip(prefixes, xs)]
            self.base.update({p: _BasePass(x, *y) for p, x, y in zip(prefixes, xs, ys)})
        return [self.base[p].y for p in prefixes]

    def _variant_passes(self, prefix: str, values: list[tuple[str, int, float]]) -> np.ndarray:
        """The block's pass on its base input for each variant, (B, V, T, d).
        A selective block runs one variant per pass, with the one array it
        moves swapped into `params`, as a stack of one. A constant block
        discretizes its variants once, as (B, ...) stacks, and routes each
        by the fields in which it differs, bit for bit, from the block's
        kept discretization: the variants that move only C1 and C2 are one
        readout of the base grid; the others that keep Abar1 are one sweep
        on the kept row chain, and those that move it one sweep on a chain
        of their own stack of Abar1."""
        base, p = self.base[prefix], self.params
        out = np.empty((len(values),) + base.y.shape)
        if self.config.selective:
            stacks = _variant_stacks(p, dict.fromkeys(name for name, _, _ in values), values)
            for b, (name, _, _) in enumerate(values):
                value, p[name] = p[name], stacks[name][b]
                out[b] = super()._passes((prefix,), (base.x,))[0]
                p[name] = value
            return out
        kept = self._block_dp(prefix)
        names = [f"{prefix}.{name}" for name in CONT_PARAM_NAMES]
        stacks = _variant_stacks(p, names, values)
        dp = discretize_all(_continuous([stacks[name] for name in names]))
        # moved[f][b]: field f of variant b differs from the kept one in some bit
        bits = {f: (v.view(np.uint64) != getattr(kept, f).view(np.uint64)) for f, v in vars(dp).items()}
        moved = {f: b.reshape(len(values), -1).any(axis=1) for f, b in bits.items()}
        reads = ~np.any([moved[f] for f in moved if f not in ("C1", "C2")], axis=0)
        rechained = moved["Abar1"]
        if reads.any():
            out[reads] = readout(np.concatenate((dp.C1[reads], dp.C2[reads]), axis=-1), base.hidden)
        for group, chain in ((~(reads | rechained), kept.chain("Abar1", base.x.shape[-2])), (rechained, None)):
            if group.any():
                part = DiscreteSSM2D(**{f: v[group] for f, v in vars(dp).items()})
                out[group] = sweep_shared(part, base.x, chain)[0]
        return out

    def outputs(self, group: str, values: list[tuple[str, int, float]]) -> np.ndarray:
        """The forward of each variant, variant b setting coordinate i of
        parameter name to value for (name, i, value) = values[b]; `group`
        is an SSM block's prefix or the name of the one parameter. The
        variants replace the group's entry in the table the forward reads
        for one forward, and the entry is put back."""
        if group in self.base:
            table, entry = self.base, self.base[group]
            table[group] = replace(entry, y=self._variant_passes(group, values))
        else:
            table, entry = self.params, self.params[group]
            table[group] = _variant_stacks(table, (group,), values)[group].reshape(len(values), 1, *entry.shape)
        out = self.forward(self.x)
        table[group] = entry
        # a parameter the forward never reads leaves every variant at the base
        return np.broadcast_to(out, (len(values),) + self.x.shape)

    def gradient(self, y: np.ndarray, names: list[str]) -> dict[str, np.ndarray]:
        """`fd_gradient` of the MSE between the forward and y, bit for
        bit, one group at a time with the group's variants stacked. A
        group is one SSM block's parameters or one other parameter, so
        the stacks never hold more than the largest group's variants."""
        groups: dict[str, list[str]] = {}
        for name in names:
            prefix = name.rpartition(".")[0]
            groups.setdefault(prefix if prefix in self.base else name, []).append(name)
        grads = {name: np.zeros_like(self.params[name]) for name in names}
        for group, members in groups.items():
            coords = [
                (name, i, orig, _fd_step(orig))
                for name in members for i, orig in enumerate(self.params[name].reshape(-1))
            ]
            # coordinate j moved up in variant 2j and down in variant 2j + 1
            out = self.outputs(group, [(name, i, orig + sign * h) for name, i, orig, h in coords for sign in (1.0, -1.0)])
            # each variant's mse_loss, the mean over its own contiguous grid
            losses = np.mean((out - y) ** 2, axis=(1, 2, 3))
            for j, (name, i, _, h) in enumerate(coords):
                up, down = losses[2 * j], losses[2 * j + 1]
                if not (np.isfinite(up) and np.isfinite(down)):
                    raise FloatingPointError(f"non-finite loss while differentiating {name}")
                grads[name].reshape(-1)[i] = (up - down) / (2.0 * h)
        return grads


def _paired(model: ChimeraModel, x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as series of one shape, x with the model's channel count."""
    x, y = model._series(x), as_series(y)
    if x.shape != y.shape:
        raise ValueError(f"inputs x {x.shape} and targets y {y.shape} must have the same shape")
    return x, y


def stacked_fd_gradient(model: ChimeraModel, x, y, names: list[str] | None = None) -> dict[str, np.ndarray]:
    """`fd_gradient` of the MSE between model(x) and y, bit for bit,
    evaluated one group at a time with the group's variants stacked.

    Raises ValueError, before any pass, unless x has the model's channel
    count and x and y have one shape; FloatingPointError naming the
    parameter when a variant's loss is not finite; and ValueError when a
    pass cannot be formed, naming its blocks as a forward does."""
    x, y = _paired(model, x, y)
    names = list(model.params) if names is None else names
    return _StackedVariants(model, x).gradient(y, names)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((pred - target) ** 2))


def fit(
    model: ChimeraModel,
    data: tuple[np.ndarray, np.ndarray],
    steps: int,
    lr: float,
    tol: float = 0.0,
) -> ChimeraModel:
    """Plain gradient descent on the MSE between model(x) and y.

    Returns an updated copy; the per-step losses are recorded on its
    `loss_history`; a step whose loss is below `tol` ends the descent
    (the default 0.0 never does; np.inf stops after the first loss).
    Raises ValueError, before any pass, unless lr is a positive finite
    number, tol a nonnegative number, x has the model's channel count and
    x and y have one shape; aborts with FloatingPointError if the loss
    diverges.
    """
    check_integer("steps", steps, 0)
    check_real("lr", lr, "positive")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol >= 0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    x, y = _paired(model, *data)
    model = model.copy()
    # the decoder is not trained: forward never reads it
    names = [n for n in model.params if not n.startswith("decoder.")]
    # overflow inside a diverging step surfaces as FloatingPointError
    # below; the intermediate numpy warnings are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            try:
                # the gradient's base pass is the step's forward
                work = _StackedVariants(model, x)
                loss = mse_loss(work.y, y)
                if not np.isfinite(loss):
                    raise ValueError(f"loss={loss}")
                model.loss_history.append(loss)
                if loss < tol:
                    break
                grads = work.gradient(y, names)
            except ValueError as exc:
                # a pass or the loss overflowed
                raise FloatingPointError(f"training diverged: {exc}; {model._first_unstable_block()}") from exc
            for name, g in grads.items():
                model.params[name] -= lr * g
    return model
