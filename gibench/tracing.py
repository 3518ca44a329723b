"""Spans around gihelm's layers, recorded from outside the package.

A traced run replaces each wrap target (a function or method of a gihelm
module) by a wrapper that records a span: its name, its parent span, its
start and end, and any counts taken from the call's arguments or result.
Each function is wrapped where its caller looks it up, so a function that
a module imports by name is wrapped in that module too (for example
``gihelm.training.convolve`` as well as ``gihelm.operators.convolve``).
Spans stay in memory; a layer's self time is its duration minus the
durations of its direct children.

A wrap target that no longer exists is reported as missing; the metrics
that depend on it still appear, with value 0, and ``trace.missing_targets``
counts the missing targets.
"""

import importlib
import os
import time
from dataclasses import dataclass, field


def _n_values(args, kwargs):
    return {"values": int(getattr(args[0], "size", 1))}


def _fft_bytes(args, kwargs):
    # computed, not measured: seven passes over the padded complex128
    # array per call (FFT in and out, spectrum product two in and one
    # out, inverse FFT in and out)
    pz, px = args[0].padded_shape
    return {"bytes": 7 * 16 * pz * px}


def _layer_macs(net):
    return [fi * fo for fi, fo in net.layer_dims]


def _forward_flop(args, kwargs):
    net, feats = args[0], args[1]
    return {"flop": 2 * feats.shape[0] * sum(_layer_macs(net))}


def _backward_flop(args, kwargs):
    # weight gradient for every layer, input gradient for all but the first
    net, d_out = args[0], args[2]
    macs = _layer_macs(net)
    return {"flop": 2 * d_out.shape[0] * (2 * sum(macs) - macs[0])}


def _laplacian_forward_flop(args, kwargs):
    # value, two first and two second derivatives per hidden layer;
    # value, two first derivatives and the summed Laplacian at the output
    net, points = args[0], args[1]
    macs = _layer_macs(net)
    return {"flop": 2 * len(points) * (5 * sum(macs[:-1]) + 4 * macs[-1])}


def _laplacian_backward_flop(args, kwargs):
    net = args[0]
    n = len(kwargs["value_adjoint"] if "value_adjoint" in kwargs else args[2])
    macs = _layer_macs(net)
    return {"flop": 2 * n * (10 * sum(macs[:-1]) - 5 * macs[0] + 4 * macs[-1])}


def _power_iters(args, kwargs):
    return {"iterations": int(kwargs.get("iters", args[1] if len(args) > 1 else 200))}


def _trace_steps(result, args, kwargs):
    return {"iterations": len(result[1].steps)}


def _epochs_run(result, args, kwargs):
    return {"epochs": int(result[1].epochs_run)}


def _file_bytes(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


@dataclass(frozen=True)
class Target:
    """One wrap target: ``attr`` (dotted) looked up from module ``module``.

    ``before`` derives counts from the call's arguments, ``after`` from
    its result as well.
    """

    module: str
    attr: str
    span: str
    before: object = None
    after: object = None

    @property
    def qualname(self):
        return f"{self.module}.{self.attr}"


def _targets(span, names, **kw):
    return [Target(module, attr, span, **kw) for module, attr in names]


TARGETS = [
    *_targets("grid.medium", [("gihelm.grid", "gaussian_lens_medium"),
                              ("gihelm.cli", "gaussian_lens_medium")]),
    *_targets("special.bessel", [("gihelm.kernel", "bessel_j0_y0"),
                                 ("gihelm.special", "bessel_j0_y0")], before=_n_values),
    *_targets("kernel.build", [("gihelm.kernel", "build_kernel"),
                               ("gihelm.cli", "build_kernel")]),
    *_targets("kernel.background", [("gihelm.kernel", "background_field"),
                                    ("gihelm.cli", "background_field"),
                                    ("gihelm.training", "background_field")]),
    *_targets("operators.convolve", [("gihelm.operators", "convolve"),
                                     ("gihelm.training", "convolve")], before=_fft_bytes),
    *_targets("operators.convolve_adjoint", [("gihelm.operators", "convolve_adjoint"),
                                             ("gihelm.training", "convolve_adjoint")],
              before=_fft_bytes),
    Target("gihelm.operators", "LinearSystemView.assemble_dense", "operators.assemble_dense"),
    *_targets("solvers.lu", [("gihelm.solvers", "scipy.linalg.lu_factor"),
                             ("gihelm.solvers", "scipy.linalg.lu_solve")]),
    *_targets("solvers.direct", [("gihelm.solvers", "solve_direct"),
                                 ("gihelm.cli", "solve_direct")]),
    Target("gihelm.cli", "born_iterate", "solvers.born", after=_trace_steps),
    Target("gihelm.cli", "landweber_iterate", "solvers.landweber", after=_trace_steps),
    Target("gihelm.cli", "estimate_sigma_max", "solvers.sigma_max", before=_power_iters),
    Target("gihelm.field", "_sincos", "field.sincos", before=_n_values),
    Target("gihelm.field", "NeuralField._forward_from_features", "field.forward",
           before=_forward_flop),
    Target("gihelm.field", "NeuralField._backward_from_cache", "field.backward",
           before=_backward_flop),
    *_targets("field.laplacian_forward", [("gihelm.field", "NeuralField.laplacian_with_cache"),
                                          ("gihelm.field", "NeuralField.laplacian")],
              before=_laplacian_forward_flop),
    Target("gihelm.field", "NeuralField.laplacian_param_gradient", "field.laplacian_backward",
           before=_laplacian_backward_flop),
    Target("gihelm.field", "NeuralField.set_flat", "field.set_flat"),
    Target("gihelm.training", "adam_step", "field.adam"),
    Target("gihelm.training", "gi_loss", "training.gi_loss"),
    Target("gihelm.training", "pde_loss", "training.pde_loss"),
    Target("gihelm.training", "build_pool", "training.pool"),
    *_targets("training.eval", [("gihelm.training", "_predict_grid"),
                                ("gihelm.training", "nmse")]),
    Target("gihelm.training", "train", "training.train", after=_epochs_run),
    Target("gihelm.cli", "write_field", "fieldfile.write", after=_file_bytes),
    Target("gihelm.cli", "_write_manifest", "cli.manifest"),
    Target("gihelm.cli", "main", "cli.main"),
]

# (metric, unit, span names, what): what is "total" (summed duration),
# "self" (summed self time), "calls", or a count key.
LAYER_METRICS = [
    ("special.bessel_s", "s", ["special.bessel"], "total"),
    ("special.bessel_values", "count", ["special.bessel"], "values"),
    ("kernel.build_s", "s", ["kernel.build"], "total"),
    ("kernel.background_s", "s", ["kernel.background"], "total"),
    ("grid.medium_s", "s", ["grid.medium"], "total"),
    ("operators.convolve_s", "s", ["operators.convolve"], "total"),
    ("operators.convolve_calls", "count", ["operators.convolve"], "calls"),
    ("operators.convolve_adjoint_s", "s", ["operators.convolve_adjoint"], "total"),
    ("operators.convolve_adjoint_calls", "count", ["operators.convolve_adjoint"], "calls"),
    ("operators.fft_bytes", "bytes", ["operators.convolve", "operators.convolve_adjoint"],
     "bytes"),
    ("operators.assemble_dense_s", "s", ["operators.assemble_dense"], "total"),
    ("solvers.lu_s", "s", ["solvers.lu"], "total"),
    ("solvers.direct_s", "s", ["solvers.direct"], "total"),
    ("solvers.born_iterations", "count", ["solvers.born"], "iterations"),
    ("solvers.landweber_iterations", "count", ["solvers.landweber"], "iterations"),
    ("solvers.power_iterations", "count", ["solvers.sigma_max"], "iterations"),
    ("solvers.iterate_self_s", "s", ["solvers.born", "solvers.landweber"], "self"),
    ("solvers.sigma_max_s", "s", ["solvers.sigma_max"], "total"),
    ("field.sincos_s", "s", ["field.sincos"], "total"),
    ("field.sincos_values", "count", ["field.sincos"], "values"),
    ("field.forward_self_s", "s", ["field.forward"], "self"),
    ("field.backward_s", "s", ["field.backward"], "total"),
    ("field.matmul_gflop", "GFLOP", ["field.forward", "field.backward",
                                     "field.laplacian_forward", "field.laplacian_backward"],
     "flop"),
    ("field.laplacian_forward_self_s", "s", ["field.laplacian_forward"], "self"),
    ("field.laplacian_backward_s", "s", ["field.laplacian_backward"], "total"),
    ("field.adam_s", "s", ["field.adam"], "total"),
    ("field.set_flat_s", "s", ["field.set_flat"], "total"),
    ("training.gi_loss_self_s", "s", ["training.gi_loss"], "self"),
    ("training.pde_loss_self_s", "s", ["training.pde_loss"], "self"),
    ("training.eval_s", "s", ["training.eval"], "total"),
    ("training.loop_self_s", "s", ["training.train"], "self"),
    ("training.epochs", "count", ["training.train"], "epochs"),
    ("training.pool_s", "s", ["training.pool"], "total"),
    ("fieldfile.write_s", "s", ["fieldfile.write"], "total"),
    ("fieldfile.bytes", "bytes", ["fieldfile.write"], "bytes"),
    ("cli.manifest_s", "s", ["cli.manifest"], "total"),
    ("cli.self_s", "s", ["cli.main"], "self"),
]

MISSING_METRIC = ("trace.missing_targets", "count")


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


def _resolve(target):
    """(owner object, attribute name) of a target, or None if it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self, targets=TARGETS, metrics=LAYER_METRICS):
        self.targets = list(targets)
        self.metrics = list(metrics)
        self.spans = []
        self.missing = []
        self._stack = []
        self._installed = []

    def _wrap(self, target, func):
        tracer = self

        def wrapper(*args, **kwargs):
            span = Span(target.span, tracer._stack[-1] if tracer._stack else -1, 0.0)
            if target.before is not None:
                span.counts.update(target.before(args, kwargs))
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if span.parent >= 0:
                    tracer.spans[span.parent].child_time += span.duration
            if target.after is not None:
                span.counts.update(target.after(result, args, kwargs))
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        """Wrap every target that exists; returns the missing ones' names."""
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                self.missing.append(target.qualname)
                continue
            owner, name = found
            original = getattr(owner, name)
            setattr(owner, name, self._wrap(target, original))
            self._installed.append((owner, name, original))
        return list(self.missing)

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def summary(self):
        """{span name: {"calls", "total_s", "self_s", counts...}}."""
        out = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.self_time
            for key, value in span.counts.items():
                row[key] = row.get(key, 0) + value
        return out

    def layer_metrics(self):
        """Every layer metric, by name, with its unit; 0 where nothing ran."""
        summary = self.summary()
        result = {}
        for name, unit, spans, what in self.metrics:
            key = {"total": "total_s", "self": "self_s"}.get(what, what)
            value = sum(summary.get(s, {}).get(key, 0) for s in spans)
            if what == "flop":
                value = value / 1e9
            result[name] = {"value": value, "unit": unit}
        result[MISSING_METRIC[0]] = {"value": len(self.missing), "unit": MISSING_METRIC[1]}
        return result

    def metrics_missing_a_target(self):
        """Names of the layer metrics that lost at least one wrap target."""
        gone = {t.span for t in self.targets if t.qualname in self.missing}
        return [name for name, _, spans, _ in self.metrics if gone.intersection(spans)]

    def raw_spans(self):
        return [[s.name, s.parent, s.start, s.end, s.counts] for s in self.spans]
