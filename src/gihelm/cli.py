"""Experiment runner.

Subcommands
    solve        direct / born / landweber solve of the scattered field
    train        neural-field training (gi / hybrid / pde_only)
    render       field file -> grayscale PGM (re / im / abs)
    kernel-dump  write the padded kernel sample table as a field file
    pool-dump    write the collocation pool as CSV

Runs are configured by a JSON file (see README for the schema); unknown
keys anywhere in the config are rejected.  Relative paths inside the
config resolve against the config file's directory.  Every run writes a
manifest.json listing the exact config used, the seed, input hashes,
and a SHA-256 checksum per output file, so a run is reproducible and
verifiable from the manifest alone.

Exit codes: 0 success (converged or completed), 1 configuration or
usage error, 2 solver diverged, 3 training loss or gradient became non-finite.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
from dataclasses import fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, GihelmError, NonFiniteLossError
from .fieldfile import read_field, write_field
from .grid import (
    ComplexField,
    Grid2D,
    SourceSpec,
    gaussian_lens_medium,
    homogeneous_medium,
    layered_medium,
    normalize_points,
    read_velocity_model,
    taper_perturbation,
)
from .kernel import SELF_TERM_MODES, background_field, build_kernel
from .operators import linear_system_view, residual
from .solvers import (
    IterationTrace,
    born_iterate,
    estimate_sigma_max,
    landweber_iterate,
    solve_direct,
)
from .field import save_checkpoint
from .training import TrainConfig, build_pool, train, write_rows_csv

_REQUIRED = object()


# ---------------------------------------------------------------------------
# config parsing


def _load_config(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be a JSON object")
    return cfg


def _check_keys(mapping, allowed, where):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _section(cfg, name, required=False):
    if name not in cfg:
        if required:
            raise ConfigError(f"config section '{name}' is required")
        return None
    sec = cfg[name]
    if not isinstance(sec, dict):
        raise ConfigError(f"config section '{name}' must be a JSON object")
    return sec


def _field_of(sec, where, key, kind, default=_REQUIRED, choices=None, minimum=None):
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigError(f"'{where}.{key}' is required")
        return default
    val = sec[key]
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"'{where}.{key}' must be a number, got {val!r}")
        val = float(val)
    elif kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"'{where}.{key}' must be an integer, got {val!r}")
    elif kind is str:
        if not isinstance(val, str):
            raise ConfigError(f"'{where}.{key}' must be a string, got {val!r}")
    elif kind is list:
        if not isinstance(val, list):
            raise ConfigError(f"'{where}.{key}' must be a list, got {val!r}")
    if choices is not None and val not in choices:
        raise ConfigError(f"'{where}.{key}' must be one of {choices}, got {val!r}")
    if minimum is not None and not (math.isfinite(val) and val >= minimum):
        raise ConfigError(f"'{where}.{key}' must be finite and >= {minimum}, got {val!r}")
    return val


def _pair(sec, where, key, default=_REQUIRED):
    val = _field_of(sec, where, key, list, default=default)
    if val is default and val is not _REQUIRED:
        return val
    if len(val) != 2 or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
        for v in val
    ):
        raise ConfigError(f"'{where}.{key}' must be a pair of finite numbers, got {val!r}")
    return float(val[0]), float(val[1])


def _omega(cfg):
    f = _field_of(cfg, "config", "frequency_hz", float)
    if not (math.isfinite(f) and f > 0):
        raise ConfigError(f"'config.frequency_hz' must be finite and positive, got {f!r}")
    return 2.0 * np.pi * f


_TOP_KEYS = (
    "grid",
    "medium",
    "frequency_hz",
    "source",
    "taper",
    "self_term_mode",
    "solve",
    "train",
)

_MEDIUM_KEYS = {
    "homogeneous": ("kind", "v0"),
    "gaussian_lens": ("kind", "v0", "contrast", "sigma", "center"),
    "layered": ("kind", "v0", "interfaces", "velocities"),
    "file": ("kind", "path", "sidecar"),
}


def _build_grid(cfg):
    sec = _section(cfg, "grid", required=True)
    _check_keys(sec, ("nz", "nx", "dz", "dx", "z0", "x0"), "'grid'")
    try:
        return Grid2D(
            nz=_field_of(sec, "grid", "nz", int),
            nx=_field_of(sec, "grid", "nx", int),
            dz=_field_of(sec, "grid", "dz", float),
            dx=_field_of(sec, "grid", "dx", float),
            z0=_field_of(sec, "grid", "z0", float, default=0.0),
            x0=_field_of(sec, "grid", "x0", float, default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _build_medium(cfg, config_dir):
    """Returns (medium, input_paths) where input_paths are files to hash."""
    sec = _section(cfg, "medium", required=True)
    kind = _field_of(sec, "medium", "kind", str, choices=sorted(_MEDIUM_KEYS))
    _check_keys(sec, _MEDIUM_KEYS[kind], f"'medium' (kind {kind})")

    if kind == "file":
        raw = config_dir / _field_of(sec, "medium", "path", str)
        sidecar = config_dir / _field_of(sec, "medium", "sidecar", str)
        for p in (raw, sidecar):
            if not p.is_file():
                raise ConfigError(f"velocity file not found: {p}")
        if "grid" in cfg:
            raise ConfigError(
                "'grid' conflicts with a file medium (the sidecar carries the grid)"
            )
        medium = read_velocity_model(raw, sidecar)
        if "frequency_hz" in cfg:
            medium = replace(medium, omega=_omega(cfg))
        return medium, [raw, sidecar]

    grid = _build_grid(cfg)
    omega = _omega(cfg)
    v0 = _field_of(sec, "medium", "v0", float)
    try:
        if kind == "homogeneous":
            return homogeneous_medium(grid, v0, omega), []
        if kind == "gaussian_lens":
            return (
                gaussian_lens_medium(
                    grid,
                    v0,
                    omega,
                    contrast=_field_of(sec, "medium", "contrast", float),
                    sigma=_field_of(sec, "medium", "sigma", float),
                    center=_pair(sec, "medium", "center", default=None),
                ),
                [],
            )
        return (
            layered_medium(
                grid,
                v0,
                omega,
                interfaces=_field_of(sec, "medium", "interfaces", list),
                velocities=_field_of(sec, "medium", "velocities", list),
            ),
            [],
        )
    except ValueError as exc:
        raise ConfigError(f"medium: {exc}") from exc


def _build_source(cfg):
    sec = _section(cfg, "source", required=True)
    _check_keys(sec, ("position", "amplitude"), "'source'")
    position = _pair(sec, "source", "position")
    amp = sec.get("amplitude", 1.0)
    if isinstance(amp, list):
        amp = complex(*_pair(sec, "source", "amplitude"))
    elif (isinstance(amp, bool) or not isinstance(amp, (int, float))
          or not math.isfinite(amp)):
        raise ConfigError(
            f"'source.amplitude' must be a finite number or [re, im] pair, got {amp!r}"
        )
    return SourceSpec(position=position, amplitude=complex(amp))


def _build_problem(cfg, config_dir):
    """Shared front half of every subcommand: medium, source, kernel."""
    _check_keys(cfg, _TOP_KEYS, "the config")
    medium, input_paths = _build_medium(cfg, config_dir)

    taper = _section(cfg, "taper")
    if taper is not None:
        _check_keys(taper, ("pad_cells", "taper_width_cells"), "'taper'")
        try:
            medium = taper_perturbation(
                medium,
                pad_cells=_field_of(taper, "taper", "pad_cells", int),
                taper_width_cells=_field_of(taper, "taper", "taper_width_cells", int),
            )
        except ValueError as exc:
            raise ConfigError(f"taper: {exc}") from exc

    mode = _field_of(cfg, "config", "self_term_mode", str,
                     default="cell_averaged", choices=SELF_TERM_MODES)
    source = _build_source(cfg)
    grid = medium.grid
    if not grid.contains(*source.position):
        raise ConfigError(
            f"'source.position' {list(source.position)} lies outside the grid "
            f"(z in [{grid.z0}, {grid.z0 + (grid.nz - 1) * grid.dz}], "
            f"x in [{grid.x0}, {grid.x0 + (grid.nx - 1) * grid.dx}])")
    kernel = build_kernel(grid, medium.k0, mode=mode)
    return medium, source, kernel, input_paths


_SOLVE_KEYS = {
    "direct": ("method",),
    "born": ("method", "max_iters", "tol"),
    "landweber": ("method", "max_iters", "tol", "eta", "power_iters", "seed"),
}

_TRAIN_FIELDS = {f.name: f.type for f in fields(TrainConfig)}
_TRAIN_KEYS = (*_TRAIN_FIELDS, "reference")
# keys whose JSON value is not simply of the field's type
_TRAIN_SPECIAL = ("pde_residual_scale", "early_stop_nmse")


def _build_train_config(cfg, medium, seed_override=None, epochs_override=None):
    """Returns (TrainConfig, reference_mode)."""
    sec = _section(cfg, "train", required=True)
    _check_keys(sec, _TRAIN_KEYS, "'train'")
    reference = _field_of(sec, "train", "reference", str,
                          default="direct", choices=("direct", "none"))

    kwargs = {
        key: _field_of(sec, "train", key, kind)
        for key, kind in _TRAIN_FIELDS.items()
        if key in sec and key not in _TRAIN_SPECIAL
    }

    if "early_stop_nmse" in sec and sec["early_stop_nmse"] is not None:
        kwargs["early_stop_nmse"] = _field_of(sec, "train", "early_stop_nmse", float)

    if "pde_residual_scale" in sec:
        scale = sec["pde_residual_scale"]
        if scale == "normalized":
            # 1/(omega^2 m0): puts the PDE residual in field units so
            # lambda_max weighs it directly against the GI mismatch.
            scale = (medium.v0 / medium.omega) ** 2
        elif isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise ConfigError(
                "'train.pde_residual_scale' must be a number or \"normalized\", "
                f"got {scale!r}"
            )
        kwargs["pde_residual_scale"] = float(scale)

    if seed_override is not None:
        kwargs["seed"] = seed_override
    if epochs_override is not None:
        kwargs["epochs"] = epochs_override
    try:
        return TrainConfig(**kwargs), reference
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc


# ---------------------------------------------------------------------------
# manifests


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _utc_now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_manifest(out_dir, command, config, seed, input_paths, output_names,
                    started, extra=None):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in input_paths},
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": {name: _sha256(out_dir / name) for name in sorted(output_names)},
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path


def _snapshot(cfg, **overrides):
    snap = copy.deepcopy(cfg)
    for dotted, value in overrides.items():
        if value is None:
            continue
        section, key = dotted.split(".")
        snap.setdefault(section, {})[key] = value
    return snap


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args):
    started = _utc_now()
    cfg = _load_config(args.config)
    config_dir = Path(args.config).resolve().parent
    medium, source, kernel, inputs = _build_problem(cfg, config_dir)

    sec = _section(cfg, "solve", required=True)
    method = _field_of(sec, "solve", "method", str, choices=sorted(_SOLVE_KEYS))
    _check_keys(sec, _SOLVE_KEYS[method], f"'solve' (method {method})")

    u0 = background_field(medium, source)
    view = linear_system_view(kernel, medium, u0)
    seed = None

    if method == "direct":
        t0 = time.perf_counter()
        us = solve_direct(view)
        trace = IterationTrace(status="converged")
        r = residual(view, us.values)
        trace.record(0, float(np.linalg.norm(r)), 1e3 * (time.perf_counter() - t0))
    elif method == "born":
        us, trace = born_iterate(
            view,
            max_iters=_field_of(sec, "solve", "max_iters", int, default=200, minimum=1),
            tol=_field_of(sec, "solve", "tol", float, default=1e-12, minimum=0.0),
        )
    else:
        seed = _field_of(sec, "solve", "seed", int, default=0)
        if args.seed_override is not None:
            seed = args.seed_override
        eta = sec.get("eta", "auto")
        if eta == "auto":
            sigma = estimate_sigma_max(
                view,
                iters=_field_of(sec, "solve", "power_iters", int, default=200,
                                minimum=1),
                seed=seed,
            )
            eta = 1.0 / sigma**2
        elif (isinstance(eta, bool) or not isinstance(eta, (int, float))
              or not (math.isfinite(eta) and eta >= 0)):
            raise ConfigError(
                f"'solve.eta' must be a finite number >= 0 or \"auto\", got {eta!r}"
            )
        us, trace = landweber_iterate(
            view,
            eta=float(eta),
            max_iters=_field_of(sec, "solve", "max_iters", int, default=500, minimum=1),
            tol=_field_of(sec, "solve", "tol", float, default=1e-12, minimum=0.0),
        )

    out = _out_dir(args)
    write_field(out / "solution.gihf", us)
    trace.to_csv(out / "trace.csv")
    snap = _snapshot(cfg, **{"solve.seed": args.seed_override})
    _write_manifest(out, "solve", snap, seed, inputs,
                    ["solution.gihf", "trace.csv"], started,
                    extra={"status": trace.status})
    print(f"solve [{method}]: status={trace.status} "
          f"final_residual={trace.final_norm:.6e} steps={len(trace.steps)}")
    return 2 if trace.status == "diverged" else 0


def cmd_train(args):
    started = _utc_now()
    cfg = _load_config(args.config)
    config_dir = Path(args.config).resolve().parent
    medium, source, kernel, inputs = _build_problem(cfg, config_dir)
    tcfg, ref_mode = _build_train_config(
        cfg, medium,
        seed_override=args.seed_override,
        epochs_override=args.epochs_override,
    )

    reference = None
    if ref_mode == "direct":
        reference = solve_direct(
            linear_system_view(kernel, medium, background_field(medium, source))
        )

    out = _out_dir(args)
    net, report = train(tcfg, medium, kernel, source,
                        reference=reference, workdir=out)

    save_checkpoint(net, out / "checkpoint.gihc")
    g = medium.grid
    zz, xx = np.meshgrid(g.z_coords(), g.x_coords(), indexing="ij")
    points = normalize_points(
        np.column_stack([zz.ravel(), xx.ravel()]), medium.omega, medium.v0
    )
    predicted = ComplexField(g, net.forward(points).reshape(g.shape))
    write_field(out / "predicted.gihf", predicted)

    snap = _snapshot(cfg, **{"train.seed": args.seed_override,
                             "train.epochs": args.epochs_override})
    _write_manifest(
        out, "train", snap, tcfg.seed, inputs,
        ["checkpoint.gihc", "predicted.gihf", "loss.csv", "eval.csv"], started,
        extra={"status": report.status, "epochs_run": report.epochs_run,
               "nmse": report.nmse, "wall_time_s": report.wall_time_s},
    )
    nmse = "n/a" if reference is None else f"{report.nmse:.6f}"
    print(f"train [{tcfg.mode}]: status={report.status} "
          f"epochs={report.epochs_run} nmse={nmse} "
          f"wall={report.wall_time_s:.1f}s")
    return 0


def _to_pgm(values, part):
    if part == "re":
        data = values.real
    elif part == "im":
        data = values.imag
    else:
        data = np.abs(values)

    if part == "abs":
        lo, hi = float(data.min()), float(data.max())
    else:
        # symmetric range keeps zero at mid-gray
        hi = float(np.max(np.abs(data)))
        lo = -hi
    if hi == lo:
        pixels = np.full(data.shape, 128, dtype=np.uint8)
    else:
        scaled = np.round((data - lo) / (hi - lo) * 255.0)
        pixels = np.clip(scaled, 0, 255).astype(np.uint8)

    nz, nx = data.shape
    return f"P5\n{nx} {nz}\n255\n".encode("ascii") + pixels.tobytes()


def cmd_render(args):
    field = read_field(args.field)
    Path(args.out).write_bytes(_to_pgm(field.values, args.part))
    print(f"render [{args.part}]: {args.field} -> {args.out}")
    return 0


def cmd_kernel_dump(args):
    started = _utc_now()
    cfg = _load_config(args.config)
    config_dir = Path(args.config).resolve().parent
    medium, source, kernel, inputs = _build_problem(cfg, config_dir)

    out = _out_dir(args)
    write_field(out / "kernel.gihf", kernel.as_field())
    _write_manifest(out, "kernel-dump", _snapshot(cfg), None, inputs,
                    ["kernel.gihf"], started,
                    extra={"padded_shape": list(kernel.padded_shape),
                           "k0": kernel.k0,
                           "self_term_mode": kernel.self_term_mode})
    pz, px = kernel.padded_shape
    print(f"kernel-dump: {pz}x{px} table, k0={kernel.k0:.6g}")
    return 0


def cmd_pool_dump(args):
    started = _utc_now()
    cfg = _load_config(args.config)
    config_dir = Path(args.config).resolve().parent
    medium, source, kernel, inputs = _build_problem(cfg, config_dir)
    tcfg, _ = _build_train_config(cfg, medium, seed_override=args.seed_override)

    pool = build_pool(medium, source, tcfg.n_pool, tcfg.n_raw,
                      tcfg.alpha, tcfg.eps_fraction,
                      np.random.default_rng(tcfg.seed))
    rows = [
        (repr(float(z)), repr(float(x)), repr(float(dm)),
         repr(float(u.real)), repr(float(u.imag)))
        for (z, x), dm, u in zip(pool.physical_points, pool.dm, pool.u0)
    ]
    out = _out_dir(args)
    write_rows_csv(out / "pool.csv",
                   ["z", "x", "delta_m", "u0_re", "u0_im"], rows)
    snap = _snapshot(cfg, **{"train.seed": args.seed_override})
    _write_manifest(out, "pool-dump", snap, tcfg.seed, inputs,
                    ["pool.csv"], started)
    print(f"pool-dump: {pool.n_pool} points")
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for divergence here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="gihelm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_run_parser(name, func, seed=True, epochs=False):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out-dir", default=".", help="output directory")
        if seed:
            p.add_argument("--seed-override", type=int, default=None)
        if epochs:
            p.add_argument("--epochs-override", type=int, default=None)
        p.set_defaults(func=func)
        return p

    add_run_parser("solve", cmd_solve)
    add_run_parser("train", cmd_train, epochs=True)
    add_run_parser("kernel-dump", cmd_kernel_dump, seed=False)
    add_run_parser("pool-dump", cmd_pool_dump)

    render = sub.add_parser("render")
    render.add_argument("field", help="input field file")
    render.add_argument("out", help="output PGM path")
    render.add_argument("--part", required=True, choices=("re", "im", "abs"))
    render.set_defaults(func=cmd_render)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.checkpoint_path:
            print(f"diagnostic checkpoint: {exc.checkpoint_path}", file=sys.stderr)
        return 3
    except GihelmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
