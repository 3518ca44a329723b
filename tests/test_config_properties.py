"""Property test: a malformed run config fails only as a typed gihelm error.

Each example takes a small valid config (a 12x12 solve or train run),
puts one random JSON value at one of its keys, and runs the command
through ``gihelm.cli.main`` in the test process.  The run may succeed or
fail, but it must end with one of the documented exit codes (0 success,
1 configuration error, 2 divergence, 3 non-finite training); any
exception escaping ``main`` fails the test, since ``main`` turns every
GihelmError into exit code 1 and nothing else may reach the caller.

Integers are drawn from a small range: an ``epochs`` or ``nz`` in the
millions is a valid request for a long run, not a malformed config.  For
the same reason the train section is fuzzed key by key and never replaced
whole: an empty object there asks for a default-length run.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gihelm import cli

PROPERTY_SETTINGS = settings(
    max_examples=600, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

LENS = {
    "grid": {"nz": 12, "nx": 12, "dz": 0.14, "dx": 0.14, "z0": 0.0, "x0": 0.0},
    "frequency_hz": 1.0,
    "medium": {"kind": "gaussian_lens", "v0": 1.0, "contrast": -0.1,
               "sigma": 0.27, "center": [0.7, 0.8]},
    "source": {"position": [0.3, 0.55], "amplitude": [1.0, 0.5]},
    "taper": {"pad_cells": 2, "taper_width_cells": 1},
    "self_term_mode": "cell_averaged",
}
LAYERED = {**LENS, "medium": {"kind": "layered", "v0": 1.0, "interfaces": [0.5, 1.0],
                              "velocities": [1.0, 1.1, 0.95]}}
SOLVE = {"method": "landweber", "max_iters": 20, "tol": 1e-9, "eta": "auto",
         "power_iters": 10, "seed": 0}
TRAIN = {"mode": "hybrid", "epochs": 3, "width": 6, "k_bands": 1, "n_hidden": 2,
         "seed": 0, "lr0": 1e-3, "lr_decay_ratio": 0.34, "adam_beta1": 0.9,
         "adam_beta2": 0.999, "adam_eps": 1e-8, "lambda_max": 0.01, "lambda_mid": 0.5,
         "lambda_steepness": 20.0, "n_x": 8, "n_pool": 16, "n_raw": 32, "alpha": 1.0,
         "eps_fraction": 0.01, "pde_residual_scale": "normalized", "eval_every": 2,
         "early_stop_nmse": None, "reference": "direct"}

RUNS = {
    "solve-landweber": ("solve", {**LENS, "solve": SOLVE}),
    "solve-born": ("solve", {**LAYERED, "solve": {"method": "born", "max_iters": 20,
                                                  "tol": 1e-9}}),
    "train": ("train", {**LENS, "train": TRAIN}),
}

WORDS = ["gi", "hybrid", "pde_only", "direct", "born", "landweber", "none", "auto",
         "normalized", "zero", "cell_averaged", "homogeneous", "gaussian_lens",
         "layered", "file", ""]

EDGES = [-2, -1, 0, 1, 2, 40, -1.0, 0.0, 0.5, 36.0, 1e-300, 1e300,
         float("nan"), float("inf"), float("-inf")]

scalars = (st.sampled_from(EDGES) | st.integers(-3, 40) | st.floats() | st.none()
           | st.booleans() | st.sampled_from(WORDS) | st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)


def _key_paths(cfg):
    """Every section but train and every key inside one, as (section,) or (section, key)."""
    paths = []
    for name, value in cfg.items():
        if name != "train":
            paths.append((name,))
        if isinstance(value, dict):
            paths.extend((name, key) for key in value)
    return paths


@pytest.mark.parametrize("run", sorted(RUNS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_random_value_at_any_key_fails_only_as_a_typed_error(tmp_path, run, data):
    command, base = RUNS[run]
    path = data.draw(st.sampled_from(_key_paths(base)), label="key")
    value = data.draw(json_values, label="value")
    cfg = copy.deepcopy(base)
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value

    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([command, "--config", str(config), "--out-dir", str(tmp_path / "out")])
    assert code in (0, 1, 2, 3), err.getvalue()
    if code == 1:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines()), \
            err.getvalue()
