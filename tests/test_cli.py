"""End-to-end runs of the command line interface (subprocess level)."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gihelm import (
    ComplexField,
    Grid2D,
    TrainConfig,
    cli,
    homogeneous_medium,
    read_field,
    write_field,
    write_velocity_model,
)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    # the child imports gihelm from this checkout, as the test process does
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "gihelm.cli", *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def lens_config(contrast, solve=None, train=None):
    cfg = {
        "grid": {"nz": 12, "nx": 12, "dz": 0.14, "dx": 0.14},
        "frequency_hz": 1.0,
        "medium": {"kind": "gaussian_lens", "v0": 1.0,
                   "contrast": contrast, "sigma": 0.27},
        "source": {"position": [0.3, 0.55]},
    }
    if solve is not None:
        cfg["solve"] = solve
    if train is not None:
        cfg["train"] = train
    return cfg


TINY_TRAIN = {
    "mode": "gi", "epochs": 8, "width": 8, "k_bands": 2, "n_hidden": 2,
    "seed": 2, "eval_every": 4, "n_x": 8, "n_pool": 16, "n_raw": 64,
}


class TestSolve:
    def test_direct_on_homogeneous_medium_is_zero(self, tmp_path):
        cfg = {
            "grid": {"nz": 8, "nx": 9, "dz": 0.1, "dx": 0.1},
            "frequency_hz": 2.0,
            "medium": {"kind": "homogeneous", "v0": 1.5},
            "source": {"position": [0.2, 0.4]},
            "solve": {"method": "direct"},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli("solve", "--config", path, "--out-dir", out)
        assert res.returncode == 0, res.stderr
        assert "solve [direct]" in res.stdout
        us = read_field(out / "solution.gihf")
        assert np.all(us.values == 0.0)

    def test_born_weak_lens_converges_with_verifiable_manifest(self, tmp_path):
        path = write_config(tmp_path, lens_config(
            -0.10, solve={"method": "born", "max_iters": 60, "tol": 1e-10}))
        out = tmp_path / "out"
        res = run_cli("solve", "--config", path, "--out-dir", out)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["status"] == "converged"
        assert set(manifest["outputs"]) == {"solution.gihf", "trace.csv"}
        for name, digest in manifest["outputs"].items():
            assert sha256(out / name) == digest

    def test_born_strong_lens_diverges_with_exit_2(self, tmp_path):
        path = write_config(tmp_path, lens_config(
            -0.60, solve={"method": "born", "max_iters": 40, "tol": 1e-10}))
        out = tmp_path / "out"
        res = run_cli("solve", "--config", path, "--out-dir", out)
        assert res.returncode == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "diverged"
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0] == "step,residual_norm,elapsed_ms"
        norms = [float(r.split(",")[1]) for r in rows[1:]]
        assert norms[-1] > 100.0 * norms[0]

    def test_landweber_auto_eta_with_seed_override(self, tmp_path):
        path = write_config(tmp_path, lens_config(
            -0.10, solve={"method": "landweber", "max_iters": 200,
                          "tol": 1e-6}))
        out = tmp_path / "out"
        res = run_cli("solve", "--config", path, "--out-dir", out,
                      "--seed-override", 5)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "converged"
        assert manifest["seed"] == 5
        assert manifest["config"]["solve"]["seed"] == 5

    def test_direct_and_born_agree_on_weak_lens(self, tmp_path):
        outs = {}
        for method, extra in (("direct", {}),
                              ("born", {"max_iters": 100, "tol": 1e-12})):
            path = write_config(tmp_path, lens_config(
                -0.10, solve={"method": method, **extra}), f"{method}.json")
            out = tmp_path / method
            assert run_cli("solve", "--config", path,
                           "--out-dir", out).returncode == 0
            outs[method] = read_field(out / "solution.gihf").values
        err = np.linalg.norm(outs["born"] - outs["direct"])
        assert err <= 1e-9 * np.linalg.norm(outs["direct"])


class TestTrain:
    def test_tiny_run_writes_outputs_and_manifest(self, tmp_path):
        path = write_config(tmp_path, lens_config(-0.10, train=TINY_TRAIN))
        out = tmp_path / "out"
        res = run_cli("train", "--config", path, "--out-dir", out,
                      "--epochs-override", 3)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["epochs_run"] == 3
        assert manifest["config"]["train"]["epochs"] == 3
        assert manifest["status"] == "complete"
        assert np.isfinite(manifest["nmse"])
        assert set(manifest["outputs"]) == {
            "checkpoint.gihc", "predicted.gihf", "loss.csv", "eval.csv"}
        for name, digest in manifest["outputs"].items():
            assert sha256(out / name) == digest
        predicted = read_field(out / "predicted.gihf")
        assert predicted.grid.shape == (12, 12)

    def test_lambda_zero_hybrid_reproduces_gi_run(self, tmp_path):
        blobs = {}
        for tag, overrides in (("gi", {}),
                               ("hyb", {"mode": "hybrid", "lambda_max": 0.0})):
            cfg = lens_config(-0.10, train={**TINY_TRAIN, **overrides})
            path = write_config(tmp_path, cfg, f"{tag}.json")
            out = tmp_path / tag
            assert run_cli("train", "--config", path,
                           "--out-dir", out).returncode == 0
            blobs[tag] = ((out / "loss.csv").read_bytes(),
                          (out / "eval.csv").read_bytes())
        gi_loss_csv, gi_eval_csv = blobs["gi"]
        hyb_loss_csv, hyb_eval_csv = blobs["hyb"]
        assert hyb_eval_csv == gi_eval_csv
        assert hyb_loss_csv == gi_loss_csv

    def test_nonfinite_loss_exits_3_with_diagnostic(self, tmp_path):
        cfg = lens_config(-0.10, train={**TINY_TRAIN, "lr0": 1e160})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli("train", "--config", path, "--out-dir", out)
        assert res.returncode == 3
        assert "non-finite" in res.stderr
        assert "diagnostic checkpoint" in res.stderr
        assert (out / "diagnostic.gihc").is_file()


class TestConfigErrors:
    def test_malformed_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"grid": }')
        res = run_cli("solve", "--config", path, "--out-dir", tmp_path)
        assert res.returncode == 1
        assert f"{path}:1:" in res.stderr

    def test_unknown_key_rejected(self, tmp_path):
        cfg = lens_config(-0.10, solve={"method": "direct", "tol": 1e-9})
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path, "--out-dir", tmp_path)
        assert res.returncode == 1
        assert "unknown key(s)" in res.stderr and "tol" in res.stderr

    def test_boolean_is_not_a_number(self, tmp_path):
        cfg = lens_config(-0.10, solve={"method": "direct"})
        cfg["frequency_hz"] = True
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path, "--out-dir", tmp_path)
        assert res.returncode == 1
        assert "frequency_hz" in res.stderr

    def test_missing_velocity_file_names_the_path(self, tmp_path):
        cfg = {
            "frequency_hz": 1.0,
            "medium": {"kind": "file", "path": "nope.bin",
                       "sidecar": "nope.json"},
            "source": {"position": [0.1, 0.1]},
            "solve": {"method": "direct"},
        }
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path, "--out-dir", tmp_path)
        assert res.returncode == 1
        assert "velocity file not found" in res.stderr
        assert "nope.bin" in res.stderr

    @pytest.mark.parametrize("command,section", [
        ("solve", {"solve": {"method": "born"}}),
        ("train", {"train": TINY_TRAIN}),
        ("pool-dump", {"train": TINY_TRAIN}),
    ])
    def test_source_outside_grid_names_the_position(self, tmp_path, command, section):
        cfg = {**lens_config(-0.10), **section}
        cfg["source"]["position"] = [5.0, 0.05]
        path = write_config(tmp_path, cfg)
        res = run_cli(command, "--config", path, "--out-dir", tmp_path / "out")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "[5.0, 0.05]" in res.stderr and "outside the grid" in res.stderr

    @pytest.mark.parametrize("sigma", [0.0, float("nan")])
    def test_lens_sigma_must_be_positive(self, tmp_path, sigma):
        cfg = lens_config(-0.10, solve={"method": "born"})
        cfg["medium"]["sigma"] = sigma
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path, "--out-dir", tmp_path / "out")
        assert res.returncode == 1
        assert res.stderr.startswith("error: medium:")
        assert "sigma" in res.stderr

    @pytest.mark.parametrize("key,edit", [
        ("frequency_hz", lambda cfg: cfg.update(frequency_hz=float("nan"))),
        ("source.amplitude",
         lambda cfg: cfg["source"].update(amplitude=float("nan"))),
        ("solve.eta", lambda cfg: cfg.update(
            solve={"method": "landweber", "eta": -1})),
        ("solve.power_iters", lambda cfg: cfg.update(
            solve={"method": "landweber", "power_iters": 0})),
        ("solve.max_iters", lambda cfg: cfg.update(
            solve={"method": "born", "max_iters": -3})),
        ("solve.tol", lambda cfg: cfg.update(
            solve={"method": "born", "tol": float("nan")})),
    ])
    def test_invalid_number_names_the_key(self, tmp_path, key, edit):
        cfg = lens_config(-0.10, solve={"method": "born"})
        edit(cfg)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli("solve", "--config", path, "--out-dir", out)
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert key in res.stderr
        assert not (out / "solution.gihf").exists()

    @pytest.mark.parametrize("key,value", [
        ("medium.interfaces", [float("nan")]),
        ("medium.interfaces", ["a"]),
        ("medium.velocities", [1.0, float("inf")]),
        ("medium.velocities", [1.0, True]),
        ("velocities", [1.0, -2.0]),
    ])
    def test_layered_values_name_the_key(self, tmp_path, key, value):
        cfg = lens_config(-0.10, solve={"method": "born"})
        cfg["medium"] = {"kind": "layered", "v0": 1.0, "interfaces": [0.8],
                         "velocities": [1.0, 1.2], key.split(".")[-1]: value}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli("solve", "--config", path, "--out-dir", out)
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert key in res.stderr
        assert not (out / "solution.gihf").exists()

    @pytest.mark.parametrize("command,key,section,args", [
        ("solve", "solve.seed",
         {"solve": {"method": "landweber", "seed": -1}}, ()),
        ("train", "seed", {"train": {**TINY_TRAIN, "seed": -2}}, ()),
        ("train", "--seed-override", {"train": TINY_TRAIN}, ("--seed-override", -1)),
        ("pool-dump", "--seed-override", {"train": TINY_TRAIN}, ("--seed-override", -1)),
    ], ids=["solve.seed", "train.seed", "train-override", "pool-dump-override"])
    def test_negative_seed_names_the_key(self, tmp_path, command, key, section, args):
        path = write_config(tmp_path, {**lens_config(-0.10), **section})
        res = run_cli(command, "--config", path, "--out-dir", tmp_path / "out", *args)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert any("error:" in line and key in line for line in res.stderr.splitlines())
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("command,key", [
        ("solve", "frequency_hz"), ("solve", "grid.dz"), ("solve", "medium.contrast"),
        ("solve", "medium.center"), ("solve", "source.amplitude"), ("solve", "solve.eta"),
        ("solve", "solve.tol"), ("pool-dump", "train.lr0"),
        ("pool-dump", "train.pde_residual_scale"),
    ])
    def test_integer_beyond_float_range_names_the_key(self, tmp_path, capsys, command, key):
        # JSON integers have no size limit; float() of this one overflows
        cfg = lens_config(-0.10, solve={"method": "landweber"}, train={**TINY_TRAIN})
        section, _, name = key.rpartition(".")
        huge = 10**400
        (cfg[section] if section else cfg)[name] = [huge, 0.5] if name == "center" else huge
        path = write_config(tmp_path, cfg)
        code = cli.main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("key", ["dz", "dx"])
    def test_nan_grid_spacing_names_the_spacing(self, tmp_path, key):
        cfg = lens_config(-0.10, solve={"method": "born"})
        cfg["grid"][key] = float("nan")
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path, "--out-dir", tmp_path / "out")
        assert res.returncode == 1
        assert res.stderr.startswith("error: grid:")
        assert f"{key}=nan" in res.stderr

    def test_malformed_sidecar_names_the_sidecar(self, tmp_path):
        grid = Grid2D(nz=6, nx=6, dz=0.2, dx=0.2)
        write_velocity_model(homogeneous_medium(grid, 1.0, 2 * np.pi),
                             tmp_path / "v.bin", tmp_path / "v.json")
        cfg = {
            "frequency_hz": 1.0,
            "medium": {"kind": "file", "path": "v.bin", "sidecar": "v.json"},
            "source": {"position": [0.3, 0.3]},
            "solve": {"method": "direct"},
        }
        path = write_config(tmp_path, cfg)
        meta = json.loads((tmp_path / "v.json").read_text())
        for sidecar, key in ((5, "JSON object"), ({**meta, "nz": 4.7}, "'nz'")):
            (tmp_path / "v.json").write_text(json.dumps(sidecar))
            res = run_cli("solve", "--config", path, "--out-dir", tmp_path / "out")
            assert res.returncode == 1
            assert res.stderr.startswith("error:")
            assert "v.json" in res.stderr and key in res.stderr
            assert "Traceback" not in res.stderr

    def test_nan_frequency_on_a_file_medium_names_the_key(self, tmp_path):
        grid = Grid2D(nz=6, nx=6, dz=0.2, dx=0.2)
        write_velocity_model(homogeneous_medium(grid, 1.0, 2 * np.pi),
                             tmp_path / "v.bin", tmp_path / "v.json")
        cfg = {
            "frequency_hz": float("nan"),
            "medium": {"kind": "file", "path": "v.bin", "sidecar": "v.json"},
            "source": {"position": [0.3, 0.3]},
            "solve": {"method": "direct"},
        }
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path, "--out-dir", tmp_path / "out")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "frequency_hz" in res.stderr

    def test_usage_errors_exit_1(self, tmp_path):
        assert run_cli().returncode == 1
        assert run_cli("frobnicate").returncode == 1
        assert run_cli("solve").returncode == 1  # --config is required
        field = tmp_path / "f.gihf"
        write_field(field, ComplexField(Grid2D(2, 2, 0.1, 0.1),
                                        np.zeros((2, 2), complex)))
        assert run_cli("render", field, tmp_path / "x.pgm").returncode == 1


class TestTrainConfigKeys:
    def test_every_field_accepted_with_its_default(self):
        defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        train = json.loads(json.dumps({**defaults, "reference": "direct"}))
        cfg = lens_config(-0.10, train=train)
        medium, _ = cli._build_medium(cfg, Path("."))
        tcfg, reference = cli._build_train_config(cfg, medium)
        assert tcfg == TrainConfig()
        assert reference == "direct"

    def test_normalized_residual_scale(self):
        cfg = lens_config(-0.10, train={"pde_residual_scale": "normalized"})
        medium, _ = cli._build_medium(cfg, Path("."))
        tcfg, _ = cli._build_train_config(cfg, medium)
        assert tcfg.pde_residual_scale == (medium.v0 / medium.omega) ** 2


def read_pgm(path):
    blob = path.read_bytes()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"255"
    nx, nz = map(int, dims.split())
    pixels = np.frombuffer(rest, dtype=np.uint8)
    assert pixels.size == nz * nx
    return pixels.reshape(nz, nx)


class TestRender:
    def test_zero_field_renders_mid_gray(self, tmp_path):
        field = ComplexField(Grid2D(4, 6, 0.1, 0.1), np.zeros((4, 6), complex))
        src = tmp_path / "f.gihf"
        write_field(src, field)
        out = tmp_path / "f.pgm"
        res = run_cli("render", src, out, "--part", "re")
        assert res.returncode == 0, res.stderr
        pixels = read_pgm(out)
        assert pixels.shape == (4, 6)
        assert np.all(pixels == 128)

    def test_rendering_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(0)
        field = ComplexField(Grid2D(5, 5, 0.1, 0.1),
                             rng.standard_normal((5, 5))
                             + 1j * rng.standard_normal((5, 5)))
        src = tmp_path / "f.gihf"
        write_field(src, field)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        for out in (a, b):
            assert run_cli("render", src, out, "--part", "im").returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_centered_impulse_renders_symmetric_magnitude(self, tmp_path):
        values = np.zeros((5, 5), complex)
        values[2, 2] = 1.0 + 1.0j
        src = tmp_path / "f.gihf"
        write_field(src, ComplexField(Grid2D(5, 5, 0.1, 0.1), values))
        out = tmp_path / "f.pgm"
        assert run_cli("render", src, out, "--part", "abs").returncode == 0
        pixels = read_pgm(out)
        np.testing.assert_array_equal(pixels, np.flipud(pixels))
        np.testing.assert_array_equal(pixels, np.fliplr(pixels))
        assert pixels[2, 2] == 255 and pixels[0, 0] == 0

    def test_corrupt_field_file_exits_1(self, tmp_path):
        field = ComplexField(Grid2D(3, 3, 0.1, 0.1), np.ones((3, 3), complex))
        src = tmp_path / "f.gihf"
        write_field(src, field)
        src.write_bytes(b"XXXX" + src.read_bytes()[4:])
        res = run_cli("render", src, tmp_path / "f.pgm", "--part", "abs")
        assert res.returncode == 1
        assert "magic" in res.stderr


class TestDumps:
    def test_kernel_dump(self, tmp_path):
        path = write_config(tmp_path, lens_config(-0.10))
        out = tmp_path / "out"
        res = run_cli("kernel-dump", "--config", path, "--out-dir", out)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        table = read_field(out / "kernel.gihf")
        assert list(table.grid.shape) == manifest["padded_shape"]
        assert table.grid.shape == (24, 24)  # next 5-smooth >= 2 * 12

    def test_pool_dump(self, tmp_path):
        path = write_config(tmp_path, lens_config(-0.10, train=TINY_TRAIN))
        out = tmp_path / "out"
        res = run_cli("pool-dump", "--config", path, "--out-dir", out)
        assert res.returncode == 0, res.stderr
        rows = (out / "pool.csv").read_text().splitlines()
        assert rows[0] == "z,x,delta_m,u0_re,u0_im"
        assert len(rows) == 1 + TINY_TRAIN["n_pool"]
        table = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.all(np.isfinite(table))

    def test_pool_dump_is_seeded(self, tmp_path):
        path = write_config(tmp_path, lens_config(-0.10, train=TINY_TRAIN))
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli("pool-dump", "--config", path, "--out-dir", out,
                           "--seed-override", 11).returncode == 0
            blobs.append((out / "pool.csv").read_bytes())
        assert blobs[0] == blobs[1]
