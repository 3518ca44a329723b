"""Green's-function kernel table and background field."""

import numpy as np
import pytest

from gihelm import (
    Grid2D,
    SingularEvaluationError,
    SourceSpec,
    background_field,
    build_kernel,
    green0,
    homogeneous_medium,
    self_term,
)
from gihelm.kernel import EULER_GAMMA, equivalent_disk_radius
from gihelm.special import hankel_h0_second


def test_green0_matches_quarter_i_hankel():
    r = np.array([0.3, 1.0, 2.5])
    k0 = 1.7
    want = 0.25j * hankel_h0_second(k0 * r)
    np.testing.assert_allclose(green0(r, k0), want, rtol=1e-14)


def test_green0_scalar_in_complex_out():
    val = green0(1.0, 1.0)
    assert isinstance(val, complex)
    assert val == pytest.approx(0.25j * (0.7651976866 - 0.0882569642j), abs=1e-9)


def test_green0_rejects_zero_radius():
    with pytest.raises(SingularEvaluationError):
        green0(0.0, 1.0)
    with pytest.raises(SingularEvaluationError):
        green0(np.array([0.5, 0.0]), 1.0)


def test_self_term_modes():
    h, k0 = 0.05, 3.0
    assert self_term(h, k0, mode="zero") == 0.0
    want = (np.log(h) + np.log(0.5 * k0) + EULER_GAMMA - 0.5) / (2.0 * np.pi) + 0.25j
    assert self_term(h, k0, mode="cell_averaged") == pytest.approx(want)
    with pytest.raises(ValueError):
        self_term(h, k0, mode="other")


def test_equivalent_disk_radius_preserves_cell_area():
    g = Grid2D(nz=4, nx=4, dz=0.2, dx=0.1)
    R = equivalent_disk_radius(g)
    assert np.pi * R**2 == pytest.approx(g.w)


def _is_5smooth(m):
    for f in (2, 3, 5):
        while m % f == 0:
            m //= f
    return m == 1


class TestBuildKernel:
    def _kernel(self, nz=9, nx=12, d=0.1, k0=4.0, mode="cell_averaged"):
        g = Grid2D(nz=nz, nx=nx, dz=d, dx=d)
        return g, build_kernel(g, k0, mode=mode)

    def test_padding_is_5smooth_and_at_least_double(self):
        # the smallest 2-3-5-smooth length >= 2n per axis
        for nz, nx in [(9, 12), (7, 11), (13, 64), (33, 50)]:
            _, ker = self._kernel(nz, nx)
            for n, p in zip((nz, nx), ker.padded_shape):
                assert p >= 2 * n and _is_5smooth(p)
                assert not any(_is_5smooth(m) for m in range(2 * n, p))
        # doubled 7, 11, 13 and 64 pad to 15, 24, 27 and 128
        for n, want in [(7, 15), (11, 24), (13, 27), (64, 128)]:
            assert self._kernel(n, n)[1].padded_shape == (want, want)

    def test_zero_offset_entry_is_the_self_term(self):
        _, ker = self._kernel()
        assert ker.samples[0, 0] == self_term(
            equivalent_disk_radius(ker.physical_grid), ker.k0, mode="cell_averaged"
        )
        _, ker0 = self._kernel(mode="zero")
        assert ker0.samples[0, 0] == 0.0

    def test_wrapped_offsets_give_even_symmetry(self):
        _, ker = self._kernel()
        pz, px = ker.padded_shape
        s = ker.samples
        for i, j in [(1, 0), (3, 2), (5, 7), (8, 1)]:
            assert s[i, j] == s[(-i) % pz, (-j) % px]

    def test_offsets_sample_green0_radially(self):
        g, ker = self._kernel()
        assert ker.samples[2, 3] == green0(np.hypot(2 * g.dz, 3 * g.dx), ker.k0)

    def test_spectrum_is_fft_of_samples(self):
        _, ker = self._kernel()
        np.testing.assert_allclose(
            ker.spectrum, np.fft.fft2(ker.samples), rtol=1e-13, atol=1e-13
        )

    def test_rectangular_cells_sample_anisotropic_offsets(self):
        g = Grid2D(nz=6, nx=6, dz=0.1, dx=0.15)
        ker = build_kernel(g, 2.0)
        assert ker.samples[1, 2] == green0(np.hypot(0.1, 0.3), 2.0)
        want = self_term(equivalent_disk_radius(g), 2.0, mode="cell_averaged")
        assert ker.samples[0, 0] == want


class TestBackgroundField:
    def _setup(self):
        g = Grid2D(nz=11, nx=11, dz=0.1, dx=0.1)
        med = homogeneous_medium(g, 1.0, omega=3.0)
        return g, med

    def test_grid_eval_off_source_is_green0(self):
        g, med = self._setup()
        src = SourceSpec((0.5, 0.5), amplitude=2.0 - 1.0j)
        u0 = background_field(med, src)
        r = np.hypot(0.5 - 0.2, 0.5 - 0.8)
        assert u0.values[2, 8] == pytest.approx(src.amplitude * green0(r, med.k0))

    def test_grid_eval_at_source_uses_cell_average(self):
        g, med = self._setup()
        src = SourceSpec((0.5, 0.5))
        u0 = background_field(med, src)
        want = self_term(equivalent_disk_radius(g), med.k0, mode="cell_averaged")
        assert u0.values[5, 5] == pytest.approx(want)

    def test_point_eval_at_source_raises(self):
        _, med = self._setup()
        src = SourceSpec((0.5, 0.5))
        pts = np.array([[0.5, 0.5]])
        with pytest.raises(SingularEvaluationError):
            background_field(med, src, eval_points=pts)

    def test_point_eval_matches_grid_eval(self):
        g, med = self._setup()
        src = SourceSpec((0.5, 0.5))
        u_grid = background_field(med, src)
        pts = np.array([[0.2, 0.8], [0.0, 0.0]])
        u_pts = background_field(med, src, eval_points=pts)
        assert u_pts[0] == pytest.approx(u_grid.values[2, 8])
        assert u_pts[1] == pytest.approx(u_grid.values[0, 0])

    def test_source_outside_domain_rejected(self):
        _, med = self._setup()
        with pytest.raises(ValueError):
            background_field(med, SourceSpec((1.5, 0.5)))

    def test_zero_amplitude_gives_zero_field(self):
        _, med = self._setup()
        u0 = background_field(med, SourceSpec((0.5, 0.5), amplitude=0.0))
        assert np.all(u0.values == 0.0)

    def test_radial_symmetry_about_centered_source(self):
        g, med = self._setup()
        u0 = background_field(med, SourceSpec((0.5, 0.5)))
        v = u0.values
        np.testing.assert_allclose(v, v[::-1, :], rtol=1e-14)
        np.testing.assert_allclose(v, v[:, ::-1], rtol=1e-14)
        np.testing.assert_allclose(v, v.T, rtol=1e-14)
