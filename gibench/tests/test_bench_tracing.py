"""Span recording: self time, counts, restoration and missing targets."""

import subprocess
import sys
import types
from pathlib import Path

import pytest

import gihelm.field
import gihelm.operators
import gihelm.training
from gihelm import NeuralField
from gihelm.training import grid_encoding

from checks import Lens
from tracing import LAYER_METRICS, TARGETS, Target, Tracer
from workloads import lens_problem


@pytest.fixture
def fake_layers(monkeypatch):
    module = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) + module.inner(x)

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module


def test_self_time_excludes_children_and_wrappers_are_removed(fake_layers):
    inner, outer = fake_layers.inner, fake_layers.outer
    tracer = Tracer(targets=[Target("fake_layers", "outer", "outer"),
                             Target("fake_layers", "inner", "inner")],
                    metrics=[("outer_self_s", "s", ["outer"], "self"),
                             ("inner_calls", "count", ["inner"], "calls")])
    assert tracer.install() == []
    assert fake_layers.outer(1) == 4
    tracer.uninstall()
    assert (fake_layers.inner, fake_layers.outer) == (inner, outer)

    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"], abs=1e-12)
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert tracer.layer_metrics()["inner_calls"]["value"] == 2


def test_missing_target_is_reported_and_its_metrics_kept(monkeypatch):
    monkeypatch.delattr(gihelm.field, "_sincos")
    tracer = Tracer()
    missing = tracer.install()
    try:
        assert missing == ["gihelm.field._sincos"]
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert [name for name, *_ in LAYER_METRICS] + ["trace.missing_targets"] == list(metrics)
    assert metrics["field.sincos_s"] == {"value": 0, "unit": "s"}
    assert metrics["trace.missing_targets"]["value"] == 1
    assert tracer.metrics_missing_a_target() == ["field.sincos_s", "field.sincos_values"]


def test_missing_module_is_reported():
    tracer = Tracer(targets=TARGETS + [Target("gihelm.no_such_module", "f", "grid.medium")])
    try:
        assert tracer.install() == ["gihelm.no_such_module.f"]
    finally:
        tracer.uninstall()
    assert "grid.medium_s" in tracer.metrics_missing_a_target()


def test_gi_loss_is_traced_where_training_looks_its_calls_up():
    lens = Lens(12, 0.1, 1.0, 1.0, -0.2, 0.3)
    medium, _, kernel, u0 = lens_problem(lens, (0.3, 0.4))
    net = NeuralField.init(0, width=8, k_bands=2, n_hidden=3)
    feats = grid_encoding(net, medium)
    tracer = Tracer()
    assert tracer.install() == []
    try:
        gihelm.training.gi_loss(net, kernel, medium, u0, feats)
    finally:
        tracer.uninstall()
    assert gihelm.training.convolve is gihelm.operators.convolve
    m = tracer.layer_metrics()
    assert m["operators.convolve_calls"]["value"] == 1
    assert m["operators.convolve_adjoint_calls"]["value"] == 1
    assert m["field.sincos_values"]["value"] == lens.n * lens.n * 8 * 3
    pz, px = kernel.padded_shape
    assert m["operators.fft_bytes"]["value"] == 2 * 7 * 16 * pz * px
    assert m["training.gi_loss_self_s"]["value"] > 0
    assert m["trace.missing_targets"]["value"] == 0


def test_run_refuses_a_tree_without_the_source(tmp_path):
    bench = Path(__file__).resolve().parent.parent
    copy = tmp_path / "gibench"
    copy.mkdir()
    for path in bench.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "gibench/run.py", "--workload", "gi-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no gihelm source tree" in proc.stderr
