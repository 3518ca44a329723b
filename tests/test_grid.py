"""Grid, medium, and velocity-model I/O."""

import json

import numpy as np
import pytest

from gihelm import (
    ComplexField,
    ConfigError,
    FieldFormatError,
    Grid2D,
    Medium,
    SourceSpec,
    gaussian_lens_medium,
    homogeneous_medium,
    layered_medium,
    normalize_coords,
    normalize_points,
    read_velocity_model,
    taper_perturbation,
    write_velocity_model,
)


def test_grid_basic_geometry():
    g = Grid2D(nz=3, nx=4, dz=0.5, dx=0.25, z0=1.0, x0=-2.0)
    assert g.shape == (3, 4)
    assert g.n == 12
    assert g.w == pytest.approx(0.125)
    np.testing.assert_allclose(g.z_coords(), [1.0, 1.5, 2.0])
    np.testing.assert_allclose(g.x_coords(), [-2.0, -1.75, -1.5, -1.25])


def test_grid_rejects_degenerate_axes():
    with pytest.raises(ValueError):
        Grid2D(nz=1, nx=4, dz=0.1, dx=0.1)
    with pytest.raises(ValueError):
        Grid2D(nz=4, nx=4, dz=0.0, dx=0.1)
    with pytest.raises(ValueError):
        Grid2D(nz=4, nx=4, dz=0.1, dx=-0.1)


def test_grid_contains():
    g = Grid2D(nz=5, nx=5, dz=0.1, dx=0.1)
    assert g.contains(0.0, 0.0)
    assert g.contains(0.4, 0.4)
    assert not g.contains(0.41, 0.2)
    assert not g.contains(-0.01, 0.2)


def test_medium_slowness_identities():
    g = Grid2D(nz=4, nx=4, dz=0.1, dx=0.1)
    med = homogeneous_medium(g, 2.0, omega=6.0)
    np.testing.assert_array_equal(med.m, np.full((4, 4), 0.25))
    np.testing.assert_array_equal(med.delta_m, np.zeros((4, 4)))
    assert med.m0 == pytest.approx(0.25)
    assert med.k0 == pytest.approx(3.0)
    assert med.wavelength == pytest.approx(2.0 * np.pi / 3.0)


def test_medium_rejects_nonpositive_velocity():
    g = Grid2D(nz=3, nx=3, dz=0.1, dx=0.1)
    v = np.ones((3, 3))
    v[1, 1] = 0.0
    with pytest.raises(ValueError):
        Medium(g, v, 1.0, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_medium_rejects_bad_background(bad):
    g = Grid2D(nz=3, nx=3, dz=0.1, dx=0.1)
    v = np.ones((3, 3))
    with pytest.raises(ValueError, match="omega"):
        Medium(g, v, 1.0, bad)
    with pytest.raises(ValueError, match="v0"):
        Medium(g, v, bad, 1.0)


def test_gaussian_lens_slow_lens_has_positive_delta_m():
    g = Grid2D(nz=21, nx=21, dz=0.05, dx=0.05)
    med = gaussian_lens_medium(g, 1.0, 2 * np.pi, contrast=-0.1, sigma=0.2)
    assert med.delta_m.max() > 0
    # bump peaks at the domain center by default
    assert med.velocity.argmin() == np.ravel_multi_index((10, 10), (21, 21))
    with pytest.raises(ValueError):
        gaussian_lens_medium(g, 1.0, 2 * np.pi, contrast=-1.0, sigma=0.2)


@pytest.mark.parametrize("sigma", [0.0, -0.2, np.nan, np.inf])
def test_gaussian_lens_rejects_bad_sigma(sigma):
    g = Grid2D(nz=5, nx=5, dz=0.1, dx=0.1)
    with pytest.raises(ValueError, match="sigma"):
        gaussian_lens_medium(g, 1.0, 2 * np.pi, contrast=-0.1, sigma=sigma)


def test_layered_medium_profile():
    g = Grid2D(nz=6, nx=3, dz=0.1, dx=0.1)
    med = layered_medium(g, 1.5, 2 * np.pi, interfaces=[0.25], velocities=[1.0, 2.0])
    np.testing.assert_array_equal(med.velocity[:3, :], 1.0)
    np.testing.assert_array_equal(med.velocity[3:, :], 2.0)
    with pytest.raises(ValueError):
        layered_medium(g, 1.5, 1.0, interfaces=[0.3, 0.1], velocities=[1, 2, 3])
    with pytest.raises(ValueError):
        layered_medium(g, 1.5, 1.0, interfaces=[0.1], velocities=[1.0])


def test_normalize_coords_is_wavelength_units():
    # scale = omega/(2 pi v0) = 1/wavelength: one wavelength -> one unit
    g = Grid2D(nz=3, nx=3, dz=0.5, dx=0.5, z0=1.0, x0=0.0)
    z, x = normalize_coords(g, omega=4.0 * np.pi, v0=2.0)
    np.testing.assert_allclose(z, [1.0, 1.5, 2.0])
    np.testing.assert_allclose(x, [0.0, 0.5, 1.0])
    pts = normalize_points(np.array([[1.0, 0.5]]), omega=4.0 * np.pi, v0=2.0)
    np.testing.assert_allclose(pts, [[1.0, 0.5]])


def test_complex_field_validation():
    g = Grid2D(nz=2, nx=2, dz=0.1, dx=0.1)
    with pytest.raises(ValueError):
        ComplexField(g, np.zeros((3, 2), dtype=complex))
    bad = np.zeros((2, 2), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ComplexField(g, bad)
    f = ComplexField(g, np.ones((2, 2), dtype=complex))
    g2 = f.copy()
    g2.values[0, 0] = 5.0
    assert f.values[0, 0] == 1.0


def test_source_spec_defaults():
    s = SourceSpec((0.1, 0.2))
    assert s.amplitude == 1.0 + 0.0j


class TestTaper:
    def _tapered(self, pad=6, width=4):
        g = Grid2D(nz=11, nx=13, dz=0.1, dx=0.1, z0=0.3, x0=-0.2)
        med = gaussian_lens_medium(g, 1.0, 2 * np.pi, contrast=0.1, sigma=0.3)
        return med, taper_perturbation(med, pad_cells=pad, taper_width_cells=width)

    def test_interior_is_bit_identical(self):
        med, big = self._tapered()
        sl = big.interior
        np.testing.assert_array_equal(big.delta_m[sl], med.delta_m)
        assert big.grid.shape == (11 + 12, 13 + 12)
        # interior keeps its physical coordinates
        assert big.grid.z0 == pytest.approx(med.grid.z0 - 6 * 0.1)
        np.testing.assert_allclose(
            big.grid.z_coords()[sl[0]], med.grid.z_coords()
        )

    def test_boundary_ring_is_exactly_zero(self):
        _, big = self._tapered()
        dm = big.delta_m
        assert np.all(dm[0, :] == 0.0) and np.all(dm[-1, :] == 0.0)
        assert np.all(dm[:, 0] == 0.0) and np.all(dm[:, -1] == 0.0)

    def test_velocity_pinned_to_v0_where_flat(self):
        _, big = self._tapered()
        flat = big.delta_m == 0.0
        assert np.all(big.velocity[flat] == big.v0)

    def test_ramp_is_monotone_into_the_pad(self):
        med, big = self._tapered(pad=8, width=8)
        iz = big.interior[0].start + 2  # row crossing the lens
        row = np.abs(big.delta_m[iz, :])
        lead = row[: big.interior[1].start + 1]
        assert np.all(np.diff(lead) >= -1e-15)

    def test_rejects_width_longer_than_pad(self):
        med, _ = self._tapered()
        with pytest.raises(ValueError):
            taper_perturbation(med, pad_cells=2, taper_width_cells=3)


class TestVelocityModelIO:
    def _medium(self):
        g = Grid2D(nz=5, nx=7, dz=0.2, dx=0.1, z0=0.0, x0=1.0)
        return gaussian_lens_medium(g, 2.0, 10.0, contrast=0.05, sigma=0.3)

    def test_round_trip(self, tmp_path):
        med = self._medium()
        raw, sidecar = tmp_path / "v.f32", tmp_path / "v.json"
        write_velocity_model(med, raw, sidecar)
        back = read_velocity_model(raw, sidecar)
        assert back.grid == med.grid
        assert back.v0 == med.v0 and back.omega == med.omega
        np.testing.assert_array_equal(
            back.velocity, med.velocity.astype(np.float32).astype(np.float64)
        )

    def test_sidecar_unknown_key_rejected(self, tmp_path):
        med = self._medium()
        raw, sidecar = tmp_path / "v.f32", tmp_path / "v.json"
        write_velocity_model(med, raw, sidecar)
        meta = json.loads(sidecar.read_text())
        meta["extra"] = 1
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match="extra"):
            read_velocity_model(raw, sidecar)

    def test_sidecar_missing_key_rejected(self, tmp_path):
        med = self._medium()
        raw, sidecar = tmp_path / "v.f32", tmp_path / "v.json"
        write_velocity_model(med, raw, sidecar)
        meta = json.loads(sidecar.read_text())
        del meta["omega"]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match="omega"):
            read_velocity_model(raw, sidecar)

    @pytest.mark.parametrize("key,value,match", [
        ("omega", float("nan"), "omega"),
        ("v0", -1.0, "v0"),
        ("dz", 0.0, "dz"),
        ("nz", "five", "five"),
    ])
    def test_sidecar_bad_value_rejected(self, tmp_path, key, value, match):
        med = self._medium()
        raw, sidecar = tmp_path / "v.f32", tmp_path / "v.json"
        write_velocity_model(med, raw, sidecar)
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match=match):
            read_velocity_model(raw, sidecar)

    def test_size_mismatch_reports_byte_offset(self, tmp_path):
        med = self._medium()
        raw, sidecar = tmp_path / "v.f32", tmp_path / "v.json"
        write_velocity_model(med, raw, sidecar)
        raw.write_bytes(raw.read_bytes()[:-4])
        with pytest.raises(FieldFormatError, match="byte"):
            read_velocity_model(raw, sidecar)
