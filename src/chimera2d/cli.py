"""Command-line surface.

Subcommands: ``generate`` (synthetic trend+seasonal series), ``fit``
(gradient-descent training to a JSON checkpoint), ``forecast``
(closed-loop rollout), ``eval`` (forecast metrics), and ``selftest``
(the full invariant registry; its last output line is a JSON summary).
Series are univariate per variate: the model runs with one channel.

Exit codes: 0 success, 1 runtime failure, 2 bad configuration or usage.
Errors are reported as a single machine-parsable line on stderr of the
form ``error: <kind>: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .ar import simulate_sar
from .metrics import compute_metrics
from .model import ChimeraModel, ModelConfig, fit
from .recurrence import check_integer, check_real
from . import invariants


class ConfigError(ValueError):
    """Configuration or usage problem; maps to exit code 2."""


@dataclasses.dataclass(frozen=True)
class RunConfig(ModelConfig):
    """Everything a run needs beyond command-line flags, loaded from the
    ``--config`` JSON file with unknown keys rejected. The model's keys and
    defaults are :class:`ModelConfig`'s; ``channels`` is 1 and not a key."""

    channels: int = dataclasses.field(default=1, init=False)
    # training
    steps: int = 100
    lr: float = 0.05
    tol: float = 0.0
    # data / forecasting
    data: str = ""
    horizon: int = 8
    # synthetic generation
    variates: int = 2
    length: int = 128
    phi: tuple[float, ...] = (0.5,)
    eta: tuple[float, ...] = ()
    season: int = 1
    noise_std: float = 0.0

    def __post_init__(self):
        try:
            if not isinstance(self.data, str):
                raise ValueError(f"data must be a path string, got {self.data!r}")
            super().__post_init__()
            for name, least in (("steps", 0), ("horizon", 1), ("variates", 1), ("length", 1), ("season", 1)):
                check_integer(name, getattr(self, name), least)
            check_real("lr", self.lr, "positive")
            for name in ("tol", "noise_std"):
                check_real(name, getattr(self, name), "nonnegative")
            for name in ("phi", "eta"):
                coeffs = getattr(self, name)
                if not isinstance(coeffs, (list, tuple)):
                    raise ValueError(f"{name} must be a list of numbers, got {coeffs!r}")
                for i, value in enumerate(coeffs):
                    check_real(f"{name}[{i}]", value)
                object.__setattr__(self, name, tuple(coeffs))  # frozen: set once, here
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.init}

    @staticmethod
    def from_dict(blob: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(RunConfig) if f.init}
        unknown = sorted(set(blob) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return RunConfig(**blob)

    @staticmethod
    def load(path: str | None, seed_override: int | None = None) -> "RunConfig":
        blob = {}
        if path:
            try:
                with open(path, encoding="utf-8") as fh:
                    blob = json.load(fh)
            except FileNotFoundError as exc:
                raise ConfigError(f"config file not found: {path}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
            if not isinstance(blob, dict):
                raise ConfigError("config must be a JSON object")
        if seed_override is not None:
            blob["seed"] = seed_override
        return RunConfig.from_dict(blob)

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(ModelConfig)})


# ----------------------------------------------------------------------
# CSV plumbing


def write_series_csv(fh, series: np.ndarray) -> None:
    """Write a (V, T) series with header ``t,var_0,...,var_{V-1}``, one
    row per time step."""
    series = np.atleast_2d(np.asarray(series, dtype=float))
    v_count, t_count = series.shape
    fh.write("t," + ",".join(f"var_{v}" for v in range(v_count)) + "\n")
    for t in range(t_count):
        fh.write(f"{t}," + ",".join(repr(float(x)) for x in series[:, t]) + "\n")


def read_series_csv(path: str) -> np.ndarray:
    """Read the CSV written by :func:`write_series_csv` back to (V, T)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(lineno, line.strip()) for lineno, line in enumerate(fh, 1) if line.strip()]
    except FileNotFoundError as exc:
        raise ConfigError(f"series file not found: {path}") from exc
    if not lines:
        raise ConfigError(f"empty series file: {path}")
    header = lines[0][1].split(",")
    if header[0] != "t" or any(not c.startswith("var_") for c in header[1:]):
        raise ConfigError(f"unrecognized CSV header in {path}: {lines[0][1]}")
    v_count = len(header) - 1
    if v_count == 0:
        raise ConfigError(f"no variate columns in {path}")
    rows = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != v_count + 1:
            raise ConfigError(f"ragged CSV row in {path}: {line}")
        try:
            rows.append([float(c) for c in cells[1:]])
        except ValueError:
            raise ConfigError(f"non-numeric value in {path} line {lineno}: {line}") from None
        if not np.all(np.isfinite(rows[-1])):
            raise ConfigError(f"non-finite value in {path} line {lineno}: {line}")
    if not rows:
        raise ConfigError(f"no data rows in series file {path}")
    return np.asarray(rows, dtype=float).T


def _out_path(args, name: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


# ----------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    cfg = RunConfig.load(args.config, args.seed)
    rng = np.random.default_rng(cfg.seed)
    need = max(len(cfg.phi), len(cfg.eta) * cfg.season, 1)
    series = np.empty((cfg.variates, cfg.length))
    for v in range(cfg.variates):
        init = rng.standard_normal(need)
        series[v] = simulate_sar(
            cfg.phi, cfg.eta, cfg.season, init,
            noise_std=cfg.noise_std, t_count=cfg.length,
            seed=int(rng.integers(2**32)),
        )
    path = _out_path(args, "series.csv")
    with open(path, "w", encoding="utf-8") as fh:
        write_series_csv(fh, series)
    print(f"wrote {path} ({cfg.variates} variates x {cfg.length} steps)")
    return 0


def cmd_fit(args) -> int:
    cfg = RunConfig.load(args.config, args.seed)
    if not cfg.data:
        raise ConfigError("fit requires a 'data' path in the config")
    series = read_series_csv(cfg.data)
    if series.shape[1] < 2:
        raise ConfigError("training series needs at least 2 time steps")
    x = series[:, :-1, None]
    y = series[:, 1:, None]
    model = ChimeraModel.init_random(cfg.model_config())
    trained = fit(model, (x, y), steps=cfg.steps, lr=cfg.lr, tol=cfg.tol)
    ckpt = _out_path(args, "checkpoint.json")
    trained.save(ckpt)
    losses = _out_path(args, "loss_log.json")
    with open(losses, "w", encoding="utf-8") as fh:
        json.dump(trained.loss_history, fh)
    final = trained.loss_history[-1] if trained.loss_history else float("nan")
    print(f"wrote {ckpt} and {losses} (final loss {final:.6g})")
    return 0


def cmd_forecast(args) -> int:
    cfg = RunConfig.load(args.config, args.seed)
    if not cfg.data:
        raise ConfigError("forecast requires a 'data' path in the config")
    try:
        model = ChimeraModel.load(args.checkpoint)
    except FileNotFoundError as exc:
        raise ConfigError(f"checkpoint file not found: {args.checkpoint}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        # invalid JSON, a config key this version does not know, bad values,
        # parameters missing, unexpected or misshapen for the config
        raise ConfigError(
            f"cannot load checkpoint {args.checkpoint}: {type(exc).__name__}: {exc}"
        ) from exc
    if model.config.channels != 1:
        raise ConfigError(
            f"checkpoint {args.checkpoint} has channels={model.config.channels}; forecast feeds the model one channel"
        )
    series = read_series_csv(cfg.data)
    forecast = model.decode(series[:, :, None], cfg.horizon)[..., 0]
    path = _out_path(args, "forecast.csv")
    with open(path, "w", encoding="utf-8") as fh:
        write_series_csv(fh, forecast)
    print(f"wrote {path} ({forecast.shape[0]} variates x {cfg.horizon} steps)")
    return 0


def cmd_eval(args) -> int:
    if args.season < 1:
        raise ConfigError(f"--season must be >= 1, got {args.season}")
    pred = read_series_csv(args.pred)
    truth = read_series_csv(args.truth)
    insample = read_series_csv(args.insample)
    if pred.shape != truth.shape:
        raise ConfigError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    if insample.shape[0] != pred.shape[0]:
        raise ConfigError(f"in-sample has {insample.shape[0]} variates, the prediction {pred.shape[0]}")
    try:
        metrics = compute_metrics(pred, truth, insample, season=args.season)
    except ValueError as exc:  # an in-sample series too short or too flat to scale by
        raise ConfigError(f"cannot score against in-sample {args.insample}: {exc}") from None
    path = _out_path(args, "metrics.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2)
    print(json.dumps(metrics))
    return 0


def cmd_selftest(args) -> int:
    results = invariants.run_all()
    failures = sum(not res.passed for res in results)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    print(f"{len(results) - failures}/{len(results)} invariants passed")
    print(json.dumps({
        "passed": len(results) - failures,
        "failed": failures,
        "results": [dataclasses.asdict(res) for res in results],
    }))
    return 1 if failures else 0


# ----------------------------------------------------------------------
# dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line, exit 2 via ConfigError
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chimera2d", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="PRNG seed (overrides config)")
        p.add_argument("--out", default=".", help="output directory")
        return p

    common(sub.add_parser("generate", help="write a synthetic series CSV")) \
        .set_defaults(fn=cmd_generate)
    common(sub.add_parser("fit", help="train a model, write checkpoint + loss log")) \
        .set_defaults(fn=cmd_fit)
    p = common(sub.add_parser("forecast", help="closed-loop multi-step forecast CSV"))
    p.add_argument("--checkpoint", required=True, help="model checkpoint JSON")
    p.set_defaults(fn=cmd_forecast)
    p = sub.add_parser("eval", help="forecast metrics JSON")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--pred", required=True, help="forecast CSV")
    p.add_argument("--truth", required=True, help="ground-truth CSV")
    p.add_argument("--insample", required=True, help="in-sample history CSV")
    p.add_argument("--season", type=int, default=1, help="seasonal period for MASE")
    p.set_defaults(fn=cmd_eval)
    sub.add_parser("selftest", help="run the invariant registry").set_defaults(fn=cmd_selftest)
    return parser


def cmd_dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return status
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout: exit quietly, flushing the rest to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"error: runtime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cmd_dispatch())


if __name__ == "__main__":
    main()
