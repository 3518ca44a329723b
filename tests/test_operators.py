"""Scattering operator: the linear-system view against the dense oracle."""

import numpy as np
import pytest

from gihelm import (
    ComplexField,
    Grid2D,
    Medium,
    ResourceLimitError,
    build_kernel,
    gi_reconstruct_dense,
    green0,
    homogeneous_medium,
    linear_system_view,
    residual,
    scattering_weights,
    self_term,
)
from gihelm.kernel import equivalent_disk_radius
from gihelm.operators import convolve, convolve_adjoint

from util import make_lens, make_view, random_field_values, random_medium, rel_l2


def _fields(rng, grid):
    u0 = ComplexField(grid, random_field_values(rng, grid.shape))
    us = ComplexField(grid, random_field_values(rng, grid.shape))
    return u0, us


def _fft_reconstruction(ker, med, u0, us):
    """Us_hat = A us + b through the view the solvers run."""
    view = linear_system_view(ker, med, u0)
    return view.apply_A(us.values) + view.b.values


def test_scattering_weights_formula():
    g = Grid2D(nz=3, nx=3, dz=0.5, dx=0.25)
    v = np.full((3, 3), 2.0)
    v[1, 2] = 1.6
    med = Medium(g, v, 2.0, omega=3.0)
    dm = np.zeros((3, 3))
    dm[1, 2] = 1.0 / 1.6**2 - 1.0 / 2.0**2
    want = 3.0**2 * (0.5 * 0.25) * dm
    np.testing.assert_allclose(scattering_weights(med), want, rtol=1e-15)


def test_fft_matches_dense_on_random_media():
    rng = np.random.default_rng(7)
    for trial in range(5):
        nz, nx = rng.integers(8, 17, size=2)
        med = random_medium(rng, int(nz), int(nx))
        ker = build_kernel(med.grid, med.k0)
        u0, us = _fields(rng, med.grid)
        fast = _fft_reconstruction(ker, med, u0, us)
        slow = gi_reconstruct_dense(med, ker, u0, us)
        assert rel_l2(fast, slow.values) < 1e-12


def test_dense_route_recomputes_green0_independently():
    # the dense path must not read the FFT kernel table (aside from the
    # self-term rule): corrupting the table changes only the fast route.
    # b is computed when the view is built, so the view is rebuilt after
    # the corruption.
    med, ker, _, u0 = make_lens(8, 8)
    rng = np.random.default_rng(1)
    us = ComplexField(med.grid, random_field_values(rng, med.grid.shape))
    fast0 = _fft_reconstruction(ker, med, u0, us)
    slow0 = gi_reconstruct_dense(med, ker, u0, us)
    ker.samples[3, 4] += 0.5
    ker.spectrum[:] = np.fft.fft2(ker.samples)
    fast1 = _fft_reconstruction(ker, med, u0, us)
    slow1 = gi_reconstruct_dense(med, ker, u0, us)
    assert not np.allclose(fast0, fast1)
    np.testing.assert_array_equal(slow0.values, slow1.values)


def test_dense_cap_enforced():
    med, ker, _, u0 = make_lens(8, 8)
    us = ComplexField(med.grid, np.zeros(med.grid.shape, complex))
    with pytest.raises(ResourceLimitError):
        gi_reconstruct_dense(med, ker, u0, us, cap=63)


def test_convolve_adjoint_inner_product_identity():
    med, ker, _, _ = make_lens(10, 9)
    rng = np.random.default_rng(3)
    x = random_field_values(rng, med.grid.shape)
    y = random_field_values(rng, med.grid.shape)
    lhs = np.vdot(y, convolve(ker, x))
    rhs = np.vdot(convolve_adjoint(ker, y), x)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_view_adjoint_identity():
    view = make_view(9, 11, contrast=-0.2)
    rng = np.random.default_rng(4)
    x = random_field_values(rng, view.grid.shape)
    y = random_field_values(rng, view.grid.shape)
    lhs = np.vdot(y, view.apply_A(x))
    rhs = np.vdot(view.apply_AH(y), x)
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_view_b_is_convolved_background_density():
    med, ker, src, u0 = make_lens(9, 8, contrast=-0.15)
    view = linear_system_view(ker, med, u0)
    zero = ComplexField(med.grid, np.zeros(med.grid.shape, complex))
    want = gi_reconstruct_dense(med, ker, u0, zero)
    assert rel_l2(view.b.values, want.values) <= 1e-12


def test_assemble_dense_matches_operator_application():
    view = make_view(8, 9, contrast=-0.3)
    a = view.assemble_dense()
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = random_field_values(rng, view.grid.shape)
        np.testing.assert_allclose(
            (a @ x.ravel()).reshape(view.grid.shape),
            view.apply_A(x),
            rtol=1e-12,
            atol=1e-14,
        )


def test_assemble_dense_cap():
    view = make_view(8, 9)
    with pytest.raises(ResourceLimitError):
        view.assemble_dense(cap=10)


def test_apply_A_translation_structure():
    # a homogeneous patch and input shifted together shift the output
    g = Grid2D(nz=16, nx=16, dz=0.1, dx=0.1)
    omega, v0 = 2.0, 1.0

    def patched(iz, ix):
        v = np.full(g.shape, v0)
        v[iz : iz + 3, ix : ix + 3] = 0.8
        return Medium(g, v, v0, omega)

    rng = np.random.default_rng(6)
    u = np.zeros(g.shape, complex)
    u[4:7, 3:6] = random_field_values(rng, (3, 3))

    ker = build_kernel(g, omega / v0)
    zero_bg = ComplexField(g, np.zeros(g.shape, complex))
    base = linear_system_view(ker, patched(4, 3), zero_bg)
    out_base = base.apply_A(u)

    sz, sx = 5, 7
    shifted = linear_system_view(ker, patched(4 + sz, 3 + sx), zero_bg)
    out_shift = shifted.apply_A(np.roll(u, (sz, sx), axis=(0, 1)))
    np.testing.assert_allclose(
        out_shift[sz:, sx:], out_base[: g.nz - sz, : g.nx - sx], rtol=1e-12, atol=1e-14
    )


def test_single_active_cell_scalar_formula():
    # one scattering cell turns A into a scalar on that cell's value
    g = Grid2D(nz=2, nx=2, dz=0.2, dx=0.2)
    omega, v0 = 3.0, 1.0
    v = np.full(g.shape, v0)
    v[0, 0] = 0.7
    med = Medium(g, v, v0, omega)
    ker = build_kernel(g, med.k0)
    view = linear_system_view(ker, med, ComplexField(g, np.zeros(g.shape, complex)))

    u = np.zeros(g.shape, complex)
    u[0, 0] = 1.0 + 0.5j
    out = view.apply_A(u)
    dm = 1.0 / 0.7**2 - 1.0
    coupling = omega**2 * g.w * dm
    g_self = self_term(equivalent_disk_radius(g), med.k0, mode="cell_averaged")
    assert out[0, 0] == pytest.approx(coupling * g_self * u[0, 0], rel=1e-13)
    assert out[1, 1] == pytest.approx(
        coupling * green0(np.hypot(0.2, 0.2), med.k0) * u[0, 0], rel=1e-13
    )


def test_residual_identity():
    view = make_view(8, 8)
    rng = np.random.default_rng(8)
    u = random_field_values(rng, view.grid.shape)
    r = residual(view, u)
    np.testing.assert_allclose(
        r, u - view.apply_A(u) - view.b.values, rtol=1e-15
    )
