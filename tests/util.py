"""Shared problem factories for the test suite."""

import numpy as np

from gihelm import (
    Grid2D,
    SourceSpec,
    background_field,
    build_kernel,
    estimate_rho,
    gaussian_lens_medium,
    homogeneous_medium,
    linear_system_view,
)


def make_lens(nz=12, nx=14, v0=1.0, freq=1.0, contrast=-0.1, sigma_frac=0.18,
              span=2.0, mode="cell_averaged"):
    """Gaussian-lens scattering problem, `span` wavelengths across depth.

    Returns (medium, kernel, source, u0).
    """
    omega = 2.0 * np.pi * freq
    wavelength = v0 / freq
    depth = span * wavelength
    dz = depth / (nz - 1)
    grid = Grid2D(nz=nz, nx=nx, dz=dz, dx=dz)
    medium = gaussian_lens_medium(grid, v0, omega, contrast, sigma_frac * depth)
    kernel = build_kernel(grid, medium.k0, mode=mode)
    source = SourceSpec((grid.z0 + 0.21 * depth, grid.x0 + 0.36 * (nx - 1) * dz))
    u0 = background_field(medium, source)
    return medium, kernel, source, u0


def make_view(nz=12, nx=14, **kw):
    medium, kernel, source, u0 = make_lens(nz, nx, **kw)
    return linear_system_view(kernel, medium, u0)


def random_medium(rng, nz, nx, v0=1.0, freq=1.0, amplitude=0.2, span=2.0):
    """Rough random velocity perturbation over the grid."""
    omega = 2.0 * np.pi * freq
    dz = span * (v0 / freq) / (nz - 1)
    grid = Grid2D(nz=nz, nx=nx, dz=dz, dx=dz)
    medium = homogeneous_medium(grid, v0, omega)
    bump = rng.uniform(-amplitude, amplitude, size=grid.shape)
    return type(medium)(grid, v0 * (1.0 + bump), v0, omega)


def random_field_values(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class FixedGridField:
    """Stands in for a network that outputs exactly the given grid values."""

    k_bands = 1

    def __init__(self, values):
        self._out = np.column_stack([values.real.ravel(), values.imag.ravel()])

    def _forward_from_features(self, feats, keep_cache=True, buffers=None):
        return self._out, None

    def _backward_from_cache(self, cache, adjoint):
        return np.zeros(1)


def rel_l2(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def bisect_to_rho(make_view, target_rho, lo=0.0, hi=0.5, band=0.05,
                  rho_iters=300, max_steps=60, seed=0):
    """Find a parameter value whose system has estimate_rho near target_rho.

    make_view(value) must build the linear-system view for that value,
    with rho monotone nondecreasing in the value (true when the value
    scales the perturbation strength).  Returns (value, rho) with rho in
    [target_rho, (1 + band) target_rho].
    """
    rho_hi = estimate_rho(make_view(hi), iters=rho_iters, seed=seed)
    grow = 0
    while rho_hi < target_rho:
        lo, hi = hi, 2.0 * hi
        rho_hi = estimate_rho(make_view(hi), iters=rho_iters, seed=seed)
        grow += 1
        if grow > 20:
            raise ValueError("could not bracket target rho; perturbation too weak")

    value, rho = hi, rho_hi
    for _ in range(max_steps):
        if target_rho <= rho <= (1.0 + band) * target_rho:
            break
        mid = 0.5 * (lo + hi)
        rho_mid = estimate_rho(make_view(mid), iters=rho_iters, seed=seed)
        if rho_mid >= target_rho:
            hi, value, rho = mid, mid, rho_mid
        else:
            lo = mid
    return value, rho
