"""Property tests: damaged input files fail only as typed gihelm errors.

Each test starts from a valid file, overwrites some of its bytes, cuts
it short or replaces a value, and reads it back.  The reader may accept
the result (a changed payload value is still a valid file) or raise
FieldFormatError (ConfigError as well for a velocity-model sidecar);
any other exception escaping the reader fails the test.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gihelm import (
    ComplexField,
    ConfigError,
    FieldFormatError,
    Grid2D,
    NeuralField,
    homogeneous_medium,
    load_checkpoint,
    read_field,
    read_velocity_model,
    save_checkpoint,
    write_field,
    write_velocity_model,
)
from gihelm.fieldfile import HEADER_SIZE
from gihelm.grid import SIDECAR_KEYS

PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    net = NeuralField.init(np.random.default_rng(0), width=3, k_bands=1, n_hidden=2)
    path = tmp_path_factory.mktemp("ckpt") / "net.gihc"
    save_checkpoint(net, path)
    # header (14 bytes) and layer table (8 per layer) come before the payload
    return path.read_bytes(), 14 + 8 * len(net.layer_dims)


@pytest.fixture(scope="module")
def field_blob(tmp_path_factory):
    grid = Grid2D(nz=3, nx=4, dz=0.1, dx=0.2, z0=-0.5, x0=1.0)
    values = np.arange(12).reshape(3, 4) * (1.0 - 0.5j)
    path = tmp_path_factory.mktemp("field") / "f.gihf"
    write_field(path, ComplexField(grid, values))
    return path.read_bytes(), HEADER_SIZE


def _edits(blob, head):
    """(position, byte) overwrites, half of them aimed at the header."""
    position = st.integers(0, head - 1) | st.integers(0, len(blob) - 1)
    return st.lists(st.tuples(position, st.integers(0, 255)), min_size=1, max_size=6)


def _apply(blob, edits):
    out = bytearray(blob)
    for pos, byte in edits:
        out[pos] = byte
    return bytes(out)


READERS = {"checkpoint": load_checkpoint, "field": read_field}


@pytest.mark.parametrize("kind", ["checkpoint", "field"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_overwritten_bytes_raise_only_format_errors(kind, data, tmp_path,
                                                    checkpoint_blob, field_blob):
    blob, head = checkpoint_blob if kind == "checkpoint" else field_blob
    path = tmp_path / "damaged"
    path.write_bytes(_apply(blob, data.draw(_edits(blob, head))))
    try:
        READERS[kind](path)
    except FieldFormatError:
        pass


@pytest.mark.parametrize("kind", ["checkpoint", "field"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_truncated_files_raise_format_errors(kind, data, tmp_path,
                                             checkpoint_blob, field_blob):
    blob, _ = checkpoint_blob if kind == "checkpoint" else field_blob
    cut = data.draw(st.integers(0, len(blob) - 1))
    path = tmp_path / "truncated"
    path.write_bytes(blob[:cut])
    with pytest.raises(FieldFormatError):
        READERS[kind](path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4)


@PROPERTY_SETTINGS
@given(key=st.sampled_from(SIDECAR_KEYS), value=JSON_VALUES)
def test_sidecar_values_raise_only_typed_errors(key, value, tmp_path):
    raw, sidecar = tmp_path / "v.f32", tmp_path / "v.json"
    grid = Grid2D(nz=3, nx=4, dz=0.1, dx=0.2)
    write_velocity_model(homogeneous_medium(grid, 1.5, 6.0), raw, sidecar)
    meta = json.loads(sidecar.read_text())
    meta[key] = value
    sidecar.write_text(json.dumps(meta))
    try:
        read_velocity_model(raw, sidecar)
    except (ConfigError, FieldFormatError):
        pass
