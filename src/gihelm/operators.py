"""Discrete scattering integral: the linear system and its dense oracle.

The scattered field obeys Us(x) = sum_k G0(x, y_k) D(y_k) with the
scattering source D = w^2 dm (U0 + Us) W on the grid.  Writing M for the
diagonal map u -> w^2 dm W u (scattering_weights) and C for convolution
with the kernel table, that is Us_hat = C M (u0 + us) = A us + b with
A = C M and b = C M u0.  LinearSystemView applies A and its adjoint by
padded FFT convolution; every solver and the training loss go through
it or through convolve / convolve_adjoint.  gi_reconstruct_dense
evaluates the same sum entry by entry from recomputed distances and is
kept deliberately independent of the FFT machinery.
"""

import numpy as np

from .errors import ResourceLimitError
from .grid import ComplexField
from .kernel import equivalent_disk_radius, green0, self_term

DENSE_CAP = 16384

_DENSE_BLOCK_ROWS = 1024


def _require_same_grid(kernel, medium, *fields):
    if kernel.physical_grid != medium.grid:
        raise ValueError("kernel was built for a different grid than the medium")
    for f in fields:
        if f.grid != medium.grid:
            raise ValueError("field grid does not match the medium grid")


def scattering_weights(medium):
    """Diagonal of M: w^2 W dm per grid node, zero wherever dm = 0."""
    return medium.omega**2 * medium.grid.w * medium.delta_m


def convolve(kernel, density_values):
    """Circular convolution of the kernel table with a padded density.

    density_values is (nz, nx) on the physical grid; the result is the
    linear convolution restricted back to the physical grid (exact
    because the table is padded to at least twice the extent).
    """
    nz, nx = kernel.physical_grid.shape
    spec = np.fft.fft2(density_values, s=kernel.padded_shape)
    return np.fft.ifft2(kernel.spectrum * spec)[:nz, :nx]


def convolve_adjoint(kernel, values):
    """Adjoint of convolve under the unweighted complex dot product."""
    nz, nx = kernel.physical_grid.shape
    spec = np.fft.fft2(values, s=kernel.padded_shape)
    return np.fft.ifft2(np.conj(kernel.spectrum) * spec)[:nz, :nx]


def gi_reconstruct_dense(medium, kernel, u0, us):
    """Us_hat by direct summation over scatterer points (oracle path).

    Recomputes G0 from pairwise node distances instead of reading the
    kernel table, so it shares no convolution machinery with the FFT
    path; the self interaction uses the kernel's self-term mode.  Work
    is O(N^2), blocked over rows; grids beyond DENSE_CAP points are refused.
    """
    _require_same_grid(kernel, medium, u0, us)
    g = medium.grid
    if g.n > DENSE_CAP:
        raise ResourceLimitError(f"dense path refused: {g.n} points exceeds cap {DENSE_CAP}")
    d = (scattering_weights(medium) * (u0.values + us.values)).ravel()
    coords = g.node_coords()
    diag = self_term(equivalent_disk_radius(g), kernel.k0, kernel.self_term_mode)

    out = np.empty(g.n, dtype=np.complex128)
    for start in range(0, g.n, _DENSE_BLOCK_ROWS):
        stop = min(start + _DENSE_BLOCK_ROWS, g.n)
        block = coords[start:stop]
        r = np.hypot(block[:, 0, None] - coords[None, :, 0],
                     block[:, 1, None] - coords[None, :, 1])
        hit = r == 0.0
        r[hit] = 1.0  # placeholder under the self-term entries
        gmat = green0(r, kernel.k0)
        gmat[hit] = diag
        out[start:stop] = gmat @ d
    return ComplexField(g, out.reshape(g.shape))


class LinearSystemView:
    """(I - A) us = b with A = C M and b = C M u0.

    apply_A and apply_AH take and return bare (nz, nx) complex arrays,
    which carry no finiteness checks: the iterative solvers need that in
    order to observe divergence rather than trip a constructor guard.
    b is a ComplexField.
    """

    def __init__(self, kernel, medium, u0):
        _require_same_grid(kernel, medium, u0)
        self.kernel = kernel
        self.medium = medium
        self.grid = medium.grid
        self.m_values = scattering_weights(medium)
        self.b = ComplexField(self.grid, convolve(kernel, self.m_values * u0.values))

    def apply_A(self, u):
        return convolve(self.kernel, self.m_values * u)

    def apply_AH(self, y):
        return self.m_values * convolve_adjoint(self.kernel, y)

    def assemble_dense(self):
        """Explicit A as an (N, N) matrix, via kernel-table lookups."""
        g = self.grid
        if g.n > DENSE_CAP:
            raise ResourceLimitError(
                f"dense assembly refused: {g.n} points exceeds cap {DENSE_CAP}")
        pz, px = self.kernel.padded_shape
        iz, ix = np.divmod(np.arange(g.n), g.nx)
        m_flat = self.m_values.ravel()
        a = np.empty((g.n, g.n), dtype=np.complex128)
        for start in range(0, g.n, _DENSE_BLOCK_ROWS):
            stop = min(start + _DENSE_BLOCK_ROWS, g.n)
            oz = (iz[start:stop, None] - iz[None, :]) % pz
            ox = (ix[start:stop, None] - ix[None, :]) % px
            a[start:stop] = self.kernel.samples[oz, ox] * m_flat[None, :]
        return a


def linear_system_view(kernel, medium, u0):
    return LinearSystemView(kernel, medium, u0)


def residual(view, us):
    """r = (I - A) us - b as an array; identically zero at the exact solution."""
    return us - view.apply_A(us) - view.b.values
