"""Binary field-file layout and malformed-input diagnostics."""

import struct

import numpy as np
import pytest

from gihelm import ComplexField, FieldFormatError, Grid2D, read_field, write_field
from gihelm.fieldfile import HEADER_SIZE, MAGIC, VERSION, payload_size


def sample_field(nz=3, nx=2):
    grid = Grid2D(nz=nz, nx=nx, dz=0.5, dx=0.25, z0=-1.0, x0=2.0)
    rng = np.random.default_rng(0)
    values = rng.standard_normal((nz, nx)) + 1j * rng.standard_normal((nz, nx))
    # quantize so the round trip is exact, not merely close
    values = values.astype(np.complex64).astype(np.complex128)
    return ComplexField(grid, values)


class TestRoundTrip:
    def test_values_and_grid_survive(self, tmp_path):
        field = sample_field(5, 7)
        path = tmp_path / "f.gihf"
        write_field(path, field)
        back = read_field(path)
        assert back.grid == field.grid
        np.testing.assert_array_equal(back.values, field.values)
        assert back.values.dtype == np.complex128

    def test_file_bytes_are_stable(self, tmp_path):
        field = sample_field()
        a, b = tmp_path / "a.gihf", tmp_path / "b.gihf"
        write_field(a, field)
        write_field(b, field)
        assert a.read_bytes() == b.read_bytes()

    def test_size_and_header_layout(self, tmp_path):
        field = sample_field(3, 2)
        path = tmp_path / "f.gihf"
        write_field(path, field)
        blob = path.read_bytes()
        assert payload_size(3, 2) == 48
        assert len(blob) == HEADER_SIZE + 48
        assert blob[:4] == MAGIC
        assert struct.unpack_from("<H", blob, 4)[0] == VERSION
        assert struct.unpack_from("<II", blob, 6) == (3, 2)
        assert struct.unpack_from("<dddd", blob, 14) == (0.5, 0.25, -1.0, 2.0)

    def test_payload_is_interleaved_row_major_f32(self, tmp_path):
        field = sample_field(3, 2)
        path = tmp_path / "f.gihf"
        write_field(path, field)
        raw = np.frombuffer(path.read_bytes()[HEADER_SIZE:], dtype="<f4")
        want = np.stack([field.values.real, field.values.imag], axis=-1)
        np.testing.assert_array_equal(raw.reshape(3, 2, 2), want.astype("<f4"))


def _mutate(blob, offset, payload):
    return blob[:offset] + payload + blob[offset + len(payload):]


class TestMalformedFiles:
    @pytest.fixture()
    def good(self, tmp_path):
        path = tmp_path / "good.gihf"
        write_field(path, sample_field(3, 2))
        return path, path.read_bytes()

    def _expect(self, tmp_path, blob, offset, match=None):
        bad = tmp_path / "bad.gihf"
        bad.write_bytes(blob)
        with pytest.raises(FieldFormatError, match=match) as err:
            read_field(bad)
        assert err.value.byte_offset == offset

    def test_short_header(self, tmp_path, good):
        _, blob = good
        self._expect(tmp_path, blob[:10], 10, match="header")

    def test_bad_magic(self, tmp_path, good):
        _, blob = good
        self._expect(tmp_path, _mutate(blob, 0, b"NOPE"), 0, match="magic")

    def test_unknown_version(self, tmp_path, good):
        _, blob = good
        self._expect(tmp_path, _mutate(blob, 4, struct.pack("<H", 9)), 4,
                     match="version")

    def test_degenerate_axes(self, tmp_path, good):
        _, blob = good
        self._expect(tmp_path, _mutate(blob, 6, struct.pack("<I", 0)), 6)
        self._expect(tmp_path, _mutate(blob, 10, struct.pack("<I", 1)), 10)

    def test_bad_spacings_and_origins(self, tmp_path, good):
        _, blob = good
        self._expect(tmp_path, _mutate(blob, 14, struct.pack("<d", 0.0)), 14)
        self._expect(tmp_path, _mutate(blob, 22, struct.pack("<d", float("nan"))), 22)
        self._expect(tmp_path, _mutate(blob, 30, struct.pack("<d", float("inf"))), 30)
        self._expect(tmp_path, _mutate(blob, 38, struct.pack("<d", float("-inf"))), 38)

    def test_non_finite_payload_value(self, tmp_path, good):
        _, blob = good
        at = HEADER_SIZE + 4 * 3  # imaginary part of the second node
        self._expect(tmp_path, _mutate(blob, at, struct.pack("<f", float("nan"))), at,
                     match="non-finite")
        self._expect(tmp_path, _mutate(blob, HEADER_SIZE, struct.pack("<f", float("inf"))),
                     HEADER_SIZE, match="non-finite")

    def test_truncated_payload(self, tmp_path, good):
        _, blob = good
        self._expect(tmp_path, blob[:-8], len(blob) - 8, match="truncated")

    def test_trailing_bytes(self, tmp_path, good):
        _, blob = good
        self._expect(tmp_path, blob + b"\x00" * 4, len(blob), match="trailing")
