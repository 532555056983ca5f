"""Tests for the benchmark's own machinery (not for chimera2d)."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gates
from seriesgen import seasonal_ar_grid
from spantrace import NO_PARENT, Span, Tracer, child_counts, self_times

HERE = Path(__file__).resolve().parent


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, NO_PARENT),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("a", 5.0, 7.0, 0),
        Span("b", 7.5, 9.0, 0),
    ]
    st = self_times(spans)
    assert st["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0 - 1.5)
    assert st["a"] == pytest.approx({"calls": 2, "total_s": 5.0, "self_s": 4.0})
    assert st["leaf"]["self_s"] == pytest.approx(1.0)
    assert st["b"]["self_s"] == pytest.approx(1.5)
    assert child_counts(spans, "a", "root") == 2
    assert child_counts(spans, "leaf", "root") == 0


def test_overlapping_children_are_counted_once():
    spans = [
        Span("root", 0.0, 10.0, NO_PARENT),
        Span("c", 1.0, 5.0, 0),
        Span("c", 3.0, 6.0, 0),
        Span("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrapped_library_calls_are_traced_and_restored():
    import chimera2d.discretize
    import chimera2d.model
    from chimera2d import ChimeraModel, ModelConfig

    originals = (
        chimera2d.model.scan_forward,
        vars(ChimeraModel)["forward"],
        chimera2d.discretize.expm,
    )
    model = ChimeraModel.init_random(ModelConfig(layers=1, state_dim=2, channels=1))
    x = seasonal_ar_grid(0, 2, 5, 1)
    with Tracer() as tracer:
        tracer.wrap(chimera2d.model, "scan_forward", "scan", lambda cells, x: {"cells": x.shape[0] * x.shape[1]})
        tracer.wrap(ChimeraModel, "forward", "model.forward")
        tracer.wrap(chimera2d.discretize, "expm", "structured.expm")
        y = model.forward(x)
    assert np.array_equal(y, model.forward(x))
    st = self_times(tracer.spans)
    assert st["model.forward"]["calls"] == 1
    assert st["scan"]["calls"] == 4  # trend and seasonal, forward and backward
    assert st["structured.expm"]["calls"] == 16
    assert tracer.counts["scan.cells"] == 4 * 10
    assert child_counts(tracer.spans, "scan", "model.forward") == 4
    now = (chimera2d.model.scan_forward, vars(ChimeraModel)["forward"], chimera2d.discretize.expm)
    assert all(a is b for a, b in zip(now, originals))


def test_wrappers_are_restored_after_an_error():
    import chimera2d.model

    original = chimera2d.model.scan_forward
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            tracer.wrap(chimera2d.model, "scan_forward", "scan")
            raise RuntimeError("boom")
    assert chimera2d.model.scan_forward is original


def test_generator_is_deterministic_and_unit_scale():
    a = seasonal_ar_grid(7, 3, 50, 2)
    assert a.tobytes() == seasonal_ar_grid(7, 3, 50, 2).tobytes()
    assert a.tobytes() != seasonal_ar_grid(8, 3, 50, 2).tobytes()
    assert a.shape == (3, 50, 2)
    assert np.allclose(a.mean(axis=1), 0.0) and np.allclose(a.std(axis=1), 1.0)


def test_generator_does_not_import_the_library():
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import seriesgen; print('chimera2d' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_same_output_gate_flags_a_perturbed_output():
    ref = {"y": seasonal_ar_grid(1, 2, 8, 3)}
    assert gates.same_output({"y": ref["y"].copy()}, ref)
    bumped = ref["y"].copy()
    bumped[1, 3, 0] *= 1 + 1e-9
    assert not gates.same_output({"y": bumped}, ref)
    broken = ref["y"].copy()
    broken[0, 0, 0] = np.nan
    assert not gates.finite({"y": broken})
    assert not gates.same_output({"y": broken}, ref)


def test_scan_gate_flags_a_perturbed_scan(monkeypatch):
    import chimera2d.scan

    x = seasonal_ar_grid(3, 3, 6, 2)
    assert gates.scan_matches_recurrence(2, x, seed=3)
    original = chimera2d.scan.scan_forward
    monkeypatch.setattr(chimera2d.scan, "scan_forward", lambda dp, x: original(dp, x) * (1 + 1e-8))
    assert not gates.scan_matches_recurrence(2, x, seed=3)


def test_op_times_are_scaled_by_the_neighbouring_probes():
    import run
    import workloads

    r = run.Run(workloads.WORKLOADS["serve"], inp=None, probe=None)
    ref = run.SpeedProbe.REF_MS
    # each op is scaled by the two probe readings before it and the two
    # after it; the host runs at half the reference speed mid-run
    r.probe_ms = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, ref, ref]
    r.samples = [("forward", False, 10.0, 2), ("forward", False, 30.0, 4), ("forecast", False, 5.0, 7),
                 ("forward", True, 40.0, 4)]
    assert r.wall_ms("forward") == [10.0, 30.0]
    assert r.ref_ms("forward") == pytest.approx([10.0 / 1.5, 30.0 / 2.0])
    assert r.ref_ms("forecast") == pytest.approx([5.0])
    assert r.ref_ms("forward", traced=True) == pytest.approx([20.0])


def test_projection_gate_passes_on_the_library():
    assert gates.projection_matches_cells(2, seasonal_ar_grid(4, 2, 5, 3), seed=4, samples=3)
