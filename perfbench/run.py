"""chimera2d benchmark: one workload, one process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 35 --trace 0

--trace 0 times the ops with no tracing and prints every end-to-end
metric. Op and set-up times are scaled to a reference CPU speed with a
speed probe timed between ops (see SpeedProbe); the wall-clock figures
are printed beside them. --trace 1 times half the run untraced and half with span
wrappers around the library's layers, and prints the per-layer metrics
(per cycle) plus the tracing overhead. Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Details (environment, sample counts,
gates, spans) go to perfbench/out/. The exit code is 1 if any op or
correctness gate failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

import gates
import workloads
from spantrace import Tracer, child_counts, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# a p90 is printed only when at least ten samples lie beyond it
P90_MIN_SAMPLES = 100

SETUP_SCRIPT = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
t0 = time.perf_counter()
import workloads
workloads.setup(workloads.WORKLOADS[{name!r}], {seed})
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library() -> None:
    """Import chimera2d from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import chimera2d

    if Path(chimera2d.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"chimera2d imported from {chimera2d.__file__}, not {SRC}")


def blas_info() -> tuple[str, int | None]:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return name, int(getattr(lib, fn)())
    return name, None


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git (the
    benchmark may run in a plain copy)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    blas, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
    }


class SpeedProbe:
    """A fixed, library-independent mix of the kinds of calls chimera2d's
    ops are made of: an interpreted loop of small-array steps, batched
    einsum, tiny LAPACK calls and matrix exponentials, and stacked small
    matmuls. This host is shared and its speed drifts by up to 2x within
    minutes; the probe, timed between ops, measures that speed, and each
    op's time is scaled by it (see Run.ref_ms)."""

    # probe time that defines one reference millisecond (its median on
    # the 2-core reference box)
    REF_MS = 6.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = np.array([[0.5, 0.1], [0.0, 0.4]])
        self.b = np.array([1.0, 0.5])
        self.x = np.ones(4)
        self.batch_a = 0.3 * rng.standard_normal((1024, 2, 2))
        self.batch_h = rng.standard_normal((1024, 2, 4))
        self.stack = 0.5 * rng.standard_normal((32, 2, 2))
        self.companion = np.array([[0.0, -0.2], [1.0, -0.3]])
        self.ms()  # first calls pay lazy imports

    def ms(self) -> float:
        t0 = time.perf_counter()
        h = np.zeros((2, 4))
        for _ in range(250):
            h = self.a @ h + np.outer(self.b, self.x)
        g = self.batch_h
        for _ in range(15):
            g = np.einsum("tij,tjd->tid", self.batch_a, g) + self.batch_h
        for _ in range(25):
            scipy.linalg.expm(0.1 * self.companion)
            np.linalg.svd(self.companion, compute_uv=False)
            np.linalg.solve(self.companion, self.b)
        for _ in range(60):
            self.stack @ self.stack
        return 1e3 * (time.perf_counter() - t0)


def setup_seconds(name: str, seed: int, probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Set-up time (import, input generation, model init) of fresh
    processes, each waited for before the next starts: wall-clock
    seconds, and seconds scaled to the reference speed."""
    code = SETUP_SCRIPT.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    wall, ref = [], []
    before = probe.ms()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        after = probe.ms()
        wall.append(float(done.stdout.strip().splitlines()[-1]))
        ref.append(wall[-1] * SpeedProbe.REF_MS / (0.5 * (before + after)))
        before = after
    return wall, ref


class Run:
    """Closed-loop op runner that keeps per-kind timings and the
    attempted/failed tally (ops and correctness gates alike)."""

    def __init__(self, w, inp, probe: SpeedProbe):
        self.inp = inp
        self.kinds = workloads.cycle(w)
        self.probe = probe
        self.ref: dict = {}
        # every probe reading, in order, and per op that passed its
        # kind, whether it was traced, its wall-clock ms and the index
        # of the probe read right after it
        self.probe_ms: list[float] = []
        self.samples: list[tuple[str, bool, float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.gates: dict[str, bool] = {}

    def gate(self, name: str, fn, *args) -> None:
        self.attempted += 1
        ok = bool(fn(*args))
        self.gates[name] = ok
        self.failed += not ok

    def op(self, kind: str, tracer=None) -> float | None:
        """One timed op, checked after timing; None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workloads.run_op(kind, self.inp)
            else:
                with tracer.span(f"op.{kind}"):
                    out = workloads.run_op(kind, self.inp)
        except (ArithmeticError, ValueError) as exc:
            print(f"op {kind} failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None
        elapsed = time.perf_counter() - t0
        ok = gates.finite(out) and gates.same_output(out, self.ref.setdefault(kind, out))
        self.failed += not ok
        return elapsed if ok else None

    def loop(self, seconds: float, tracer=None) -> int:
        """Run whole cycles until `seconds` have passed, with a speed
        probe between ops; returns the number of cycles."""
        deadline = time.perf_counter() + seconds
        cycles = 0
        self.probe_ms.append(self.probe.ms())
        while True:
            for kind in self.kinds:
                elapsed = self.op(kind, tracer)
                self.probe_ms.append(self.probe.ms())
                if elapsed is not None:
                    self.samples.append((kind, tracer is not None, 1e3 * elapsed, len(self.probe_ms) - 1))
            cycles += 1
            if time.perf_counter() >= deadline:
                return cycles

    def wall_ms(self, kind: str, traced: bool = False) -> list[float]:
        return [ms for k, t, ms, _ in self.samples if k == kind and t == traced]

    def ref_ms(self, kind: str, traced: bool = False) -> list[float]:
        """Op times scaled to the reference speed; the host's speed
        during an op is taken from the median of the two probes before
        it and the two after it."""
        return [
            ms * SpeedProbe.REF_MS / statistics.median(self.probe_ms[max(0, j - 2) : j + 2])
            for k, t, ms, j in self.samples if k == kind and t == traced
        ]


def install_tracer(tracer) -> None:
    """Wrap the library's public functions where the library calls them."""
    import chimera2d.conv
    import chimera2d.discretize
    import chimera2d.metrics
    import chimera2d.model
    import chimera2d.selective

    def grid(x):
        shape = np.shape(x)
        return shape[0], shape[1], (shape[2] if len(shape) > 2 else 1)

    def scan_count(cells, x, *args, **kwargs):
        v, t, d = grid(x)
        n = cells.n
        arrays = [getattr(cells, f) for f in ("Abar1", "Abar2", "Abar3", "Abar4", "Bbar1", "Bbar2", "C1", "C2")]
        # broadcast (constant) per-cell arrays occupy one cell's worth
        param_floats = sum(a.size if a.ndim < 3 or a.strides[0] else a[0, 0].size for a in arrays)
        return {
            "cells": v * t,
            # per cell: four N x N by N x d products, two outer-product
            # inputs, two state sums, two readouts
            "flops": v * t * (8 * n * n * d + 10 * n * d + d),
            # x and y, the h1/h2 grids, and the parameter buffers
            "computed_bytes": 8 * (2 * v * t * d + 2 * v * t * n * d + param_floats),
        }

    def selective_count(proj, x, *args, **kwargs):
        v, t, _ = grid(x)
        return {"cells": v * t}

    def decode_count(dp, d1, d2, x_ctx, horizon, *args, **kwargs):
        return {"columns": grid(x_ctx)[1] + int(horizon)}

    model = chimera2d.model
    tracer.wrap(model, "scan_forward", "scan", scan_count)
    tracer.wrap(model, "discretize_all", "discretize")
    tracer.wrap(model, "project_grid_params", "selective", selective_count)
    tracer.wrap(model, "closed_loop_decode", "recurrence.decode", decode_count)
    tracer.wrap(model, "fd_gradient", "model.fd")
    tracer.wrap(chimera2d.selective, "discretize_all", "discretize")
    tracer.wrap(chimera2d.discretize, "expm", "structured.expm")
    tracer.wrap(model.ChimeraModel, "forward", "model.forward")
    tracer.wrap(model.ChimeraModel, "gate", "model.gate")
    tracer.wrap(model.ChimeraModel, "decode", "model.decode")
    tracer.wrap(chimera2d.conv, "impulse_kernels", "conv")
    tracer.wrap(chimera2d.conv, "conv_apply", "conv")
    tracer.wrap(chimera2d.metrics, "compute_metrics", "metrics")


def layer_metrics(tracer, cycles: int, run: Run, main: str) -> dict:
    """Per-layer metrics, per cycle, from the traced half of the run."""
    st = self_times(tracer.spans)

    def per_cycle(name, field):
        return st.get(name, {}).get(field, 0.0) / cycles

    def counter(key):
        return tracer.counts.get(key, 0.0) / cycles

    def ratio(num, den):
        return num / den if den else 0.0

    roots = [v for k, v in st.items() if k.startswith("op.")]
    op_total = sum(r["total_s"] for r in roots)
    scan_self = per_cycle("scan", "self_s")
    sel = st.get("selective", {})
    y = run.ref.get("forward", {}).get("y")
    if y is None:
        y = run.inp.model.forward(run.inp.x)
    m = {
        "discretize.calls": (per_cycle("discretize", "calls"), "count"),
        "discretize.self_s": (per_cycle("discretize", "self_s"), "s"),
        "structured.expm.calls": (per_cycle("structured.expm", "calls"), "count"),
        "structured.expm.self_s": (per_cycle("structured.expm", "self_s"), "s"),
        "selective.cells": (counter("selective.cells"), "count"),
        "selective.self_s": (per_cycle("selective", "self_s"), "s"),
        "selective.us_per_cell": (1e6 * ratio(sel.get("total_s", 0.0), tracer.counts.get("selective.cells", 0)), "us"),
        "scan.calls": (per_cycle("scan", "calls"), "count"),
        "scan.cells": (counter("scan.cells"), "count"),
        "scan.self_s": (scan_self, "s"),
        "scan.ns_per_cell": (1e9 * ratio(scan_self, counter("scan.cells")), "ns"),
        "scan.flops": (counter("scan.flops"), "flop"),
        "scan.flops_per_s": (ratio(counter("scan.flops"), scan_self), "flop/s"),
        "scan.computed_bytes": (counter("scan.computed_bytes"), "B"),
        "recurrence.decode.calls": (per_cycle("recurrence.decode", "calls"), "count"),
        "recurrence.decode.columns": (counter("recurrence.decode.columns"), "count"),
        "recurrence.decode.self_s": (per_cycle("recurrence.decode", "self_s"), "s"),
        "model.fd.loss_evals": (child_counts(tracer.spans, "model.forward", "model.fd") / cycles, "count"),
        "model.fd.self_s": (per_cycle("model.fd", "self_s"), "s"),
        "model.forward.self_s": (per_cycle("model.forward", "self_s"), "s"),
        "model.gate.self_s": (per_cycle("model.gate", "self_s"), "s"),
        "model.decode.self_s": (per_cycle("model.decode", "self_s"), "s"),
        "conv.calls": (per_cycle("conv", "calls"), "count"),
        "conv.self_s": (per_cycle("conv", "self_s"), "s"),
        "metrics.self_s": (per_cycle("metrics", "self_s"), "s"),
        "model.out_log10_gain": (float(np.log10(np.abs(y).max() / np.abs(run.inp.x).max())), "log10"),
        "metrics.owa": (float(run.ref["forecast"]["OWA"]), "ratio"),
        "trace.overhead_ratio": (ratio(statistics.median(run.ref_ms(main, traced=True)), statistics.median(run.ref_ms(main))), "ratio"),
        "trace.outside_share": (ratio(sum(r["self_s"] for r in roots), op_total), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if "CHIMERA2D_THREADS" in os.environ:
        print("refusing to run: CHIMERA2D_THREADS is set, which switches the scan "
              "to its threaded code path; unset it", file=sys.stderr)
        return 2
    try:
        import_library()
    except ImportError as exc:
        print(f"cannot import chimera2d from {SRC}: {exc}", file=sys.stderr)
        return 1

    w = workloads.WORKLOADS[args.workload]
    env = environment()
    probe = SpeedProbe()
    setup_wall, setup_ref = setup_seconds(w.name, args.seed, probe)
    inp = workloads.setup(w, args.seed)
    run = Run(w, inp, probe)

    # gates on the layers this workload exercises, before timing
    n = workloads.STATE_DIM
    run.gate("scan_vs_recurrence", gates.scan_matches_recurrence, n, inp.x[:4, :12], args.seed)
    if w.selective:
        run.gate("grid_vs_cell_projection", gates.projection_matches_cells, n, inp.x, args.seed)

    result: dict = {}
    spans_json = None
    if args.trace:
        run.loop(args.seconds / 2)
        with Tracer() as tracer:
            install_tracer(tracer)
            traced = run.loop(args.seconds / 2, tracer)
        result["metrics"] = layer_metrics(tracer, traced, run, w.main)
        spans_json = tracer.to_json()
    else:
        run.loop(args.seconds)

    if w.main == "fit" and "fit" in run.ref:
        run.gate("fit_step_vs_fd_gradient", gates.fit_gradient_matches, inp, run.ref["fit"], workloads.LR, args.seed)

    main_label = {"fit": "fit step", "forward": "full-grid forward"}[w.main]
    e2e = {}
    for name, kind in (("op_ms.p50", w.main), ("forecast_ms.p50", "forecast")):
        xs = run.ref_ms(kind)
        e2e[name] = {"value": statistics.median(xs) if xs else float("nan"), "unit": "ref_ms", "n": len(xs)}
    e2e["setup_s"] = {"value": statistics.median(setup_ref), "unit": "s", "n": len(setup_ref)}
    e2e["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB", "n": 1,
    }
    # wall-clock figures as the host ran them, for reading alongside
    wall = {
        "probe_ms.p50": {"value": statistics.median(run.probe_ms), "unit": "ms", "n": len(run.probe_ms)},
        "setup_wall_s.p50": {"value": statistics.median(setup_wall), "unit": "s", "n": len(setup_wall)},
    }
    for name, kind in (("op_wall_ms", w.main), ("forecast_wall_ms", "forecast")):
        xs = run.wall_ms(kind)
        if xs:
            wall[f"{name}.p50"] = {"value": statistics.median(xs), "unit": "ms", "n": len(xs)}
        if len(xs) >= P90_MIN_SAMPLES:
            wall[f"{name}.p90"] = {"value": statistics.quantiles(xs, n=10)[-1], "unit": "ms", "n": len(xs)}

    correct = run.failed == 0
    env_line = " ".join(f"{k}={v}" for k, v in env.items())
    print(f"env: {env_line}")
    print(f"workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace} main_op={main_label}")
    for name, m in {**e2e, **wall}.items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(f"ops_attempted = {run.attempted}")
    print(f"ops_failed = {run.failed}")
    for name, ok in run.gates.items():
        print(f"gate {name}: {'ok' if ok else 'FAILED'}")

    if not args.trace:
        result["metrics"] = {k: {"value": v["value"], "unit": v["unit"]} for k, v in e2e.items()}
    else:
        for name, m in result["metrics"].items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    details = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "end_to_end": e2e, "wall_clock": wall, "gates": run.gates,
        "attempted": run.attempted, "failed": run.failed, "metrics": result["metrics"],
    }
    (OUT / f"{w.name}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    if spans_json is not None:
        (OUT / f"{w.name}-spans.json").write_text(json.dumps(spans_json))

    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
