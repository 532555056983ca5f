"""The library names that perfbench's tracer wraps (`install_tracer` in
perfbench/run.py) exist at the owners it wraps them at, and the model
calls through them: a refactor that moves a call past a name would
leave the benchmark's per-layer counts reading nothing."""

from pathlib import Path

import numpy as np
import pytest

import chimera2d.conv
import chimera2d.discretize
import chimera2d.metrics
import chimera2d.model
import chimera2d.selective
from chimera2d import ChimeraModel, ModelConfig
from test_model import _count_calls

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

WRAPPED = [
    (chimera2d.model, "scan_forward"),
    (chimera2d.model, "discretize_all"),
    (chimera2d.model, "project_grid_params"),
    (chimera2d.model, "closed_loop_decode"),
    (chimera2d.model, "fd_gradient"),
    (chimera2d.selective, "discretize_all"),
    (chimera2d.discretize, "expm"),
    (ChimeraModel, "forward"),
    (ChimeraModel, "gate"),
    (ChimeraModel, "decode"),
    (chimera2d.conv, "impulse_kernels"),
    (chimera2d.conv, "conv_apply"),
    (chimera2d.metrics, "compute_metrics"),
]


@pytest.mark.parametrize("owner, name", WRAPPED, ids=[f"{owner.__name__}.{name}" for owner, name in WRAPPED])
def test_a_wrapped_name_is_its_owners_own(owner, name):
    assert callable(vars(owner).get(name))


def test_a_bidirectional_selective_forward_calls_through_the_wrapped_names(monkeypatch):
    m = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=2, selective=True, seed=5))
    x = 0.1 * np.random.default_rng(5).standard_normal((3, 8, 2))
    projections = _count_calls(monkeypatch, chimera2d.model, "project_grid_params")
    scans = _count_calls(monkeypatch, chimera2d.model, "scan_forward")
    m.forward(x)
    # the trend pair and the seasonal pair, each one stack of two blocks
    assert (len(projections), len(scans)) == (2, 2)


def test_a_forecast_calls_through_the_wrapped_decoder(monkeypatch):
    m = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=2, seed=5))
    decodes = _count_calls(monkeypatch, chimera2d.model, "closed_loop_decode")
    m.decode(np.random.default_rng(5).standard_normal((3, 8, 2)), 4)
    assert len(decodes) == 1


# the stages each workload's cycle runs, by the span names install_tracer gives
STAGES = ("scan", "discretize", "structured.expm", "model.forward", "model.gate", "model.decode",
          "recurrence.decode", "metrics")


@pytest.mark.parametrize("name", ["fit", "serve", "selective"])
def test_the_benchmark_tracer_sees_every_stage_of_a_workload(monkeypatch, name):
    # one cycle (the main op and one forecast) on a fresh model, traced
    # and not, through the benchmark's own workloads and tracer
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads
    from spantrace import Tracer, self_times

    w = workloads.WORKLOADS[name]

    def cycle():
        inp = workloads.setup(w, 5)
        return [workloads.run_op(kind, inp) for kind in (w.main, "forecast")]

    plain = cycle()
    with Tracer() as tracer:
        run.install_tracer(tracer)
        traced = cycle()
    for a, b in zip(plain, traced):
        assert a.keys() == b.keys()
        assert all(np.asarray(a[k]).tobytes() == np.asarray(b[k]).tobytes() for k in a)
    calls = {stage: st["calls"] for stage, st in self_times(tracer.spans).items()}
    silent = [stage for stage in STAGES + ("selective",) * w.selective if not calls.get(stage)]
    assert not silent, f"{name}: no traced call in {silent}"
