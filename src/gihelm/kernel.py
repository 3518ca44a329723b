"""Free-space 2D Helmholtz Green's function and its convolution kernel.

The outgoing (e^{-iwt} convention) point response at distance r is
G0(r) = (i/4) H0(2)(k0 r), which solves (lap + k0^2) G0 = -delta in 2D.
The kernel table samples G0 at every node offset of the physical grid,
embedded in a padded grid of at least twice the physical extent per axis
so that circular convolution reproduces the linear one.  The zero-offset
entry is singular and is replaced by a self-interaction value: either 0
or the average of G0 over the disk of area W = dz*dx centred on the node
(the accurate choice; see self_term).
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import SingularEvaluationError
from .grid import ComplexField, Grid2D
from .special import bessel_j0_y0

EULER_GAMMA = 0.5772156649015329

SELF_TERM_MODES = ("zero", "cell_averaged")


def green0(r, k0):
    """G0(r) = (i/4) H0(2)(k0 r); function of the product k0*r only.

    r may be a scalar or array, strictly positive; r = 0 is the singular
    point and must go through self_term instead.
    """
    if not np.isfinite(k0) or k0 <= 0:
        raise ValueError(f"k0 must be positive and finite, got {k0}")
    arr = np.asarray(r, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("r must be finite")
    if (arr <= 0).any():
        raise SingularEvaluationError(
            "green0 is singular at r = 0; use self_term for the zero offset")
    j0, y0 = bessel_j0_y0(k0 * arr)
    out = 0.25 * y0 + 0.25j * j0  # (i/4)(J0 - i Y0)
    if np.isscalar(r) or arr.ndim == 0:
        return complex(out)
    return out


def self_term(h, k0, mode="cell_averaged"):
    """Self-interaction value replacing G0(0) in the discrete operator.

    mode="cell_averaged" returns the small-argument disk average of G0
    over a disk of radius h (area W = pi h^2):

        (1/2pi)(ln h + ln(k0/2) + gamma - 1/2) + i/4

    mode="zero" returns 0, which leaves a first-order error that decays
    as the grid is refined.
    """
    if mode not in SELF_TERM_MODES:
        raise ValueError(f"unknown self-term mode {mode!r}, expected one of {SELF_TERM_MODES}")
    if h <= 0 or k0 <= 0:
        raise ValueError(f"h and k0 must be positive, got h={h}, k0={k0}")
    if mode == "zero":
        return 0.0 + 0.0j
    real = (np.log(h) + np.log(0.5 * k0) + EULER_GAMMA - 0.5) / (2.0 * np.pi)
    return complex(real, 0.25)


def equivalent_disk_radius(grid):
    """Radius of the disk with the same area as one grid cell, sqrt(W/pi)."""
    return np.sqrt(grid.w / np.pi)


@dataclass(frozen=True, eq=False)
class GreensKernel:
    """Padded convolution table of G0 for one physical grid.

    samples[pz, px] holds G0 at the node offset (dz*wrap(pz), dx*wrap(px))
    where wrap maps padded indices to signed offsets (index i means offset
    i if i <= size//2, else i - size); samples[0, 0] is the self term.
    spectrum is the unnormalized forward FFT of samples, ready for
    circular convolution on the padded grid.
    """

    physical_grid: Grid2D
    kernel_grid: Grid2D
    samples: np.ndarray
    spectrum: np.ndarray
    k0: float
    self_term_mode: str

    def __post_init__(self):
        pg, kg = self.physical_grid, self.kernel_grid
        if (kg.dz, kg.dx) != (pg.dz, pg.dx):
            raise ValueError("kernel grid spacing must equal physical grid spacing")
        if kg.nz < 2 * pg.nz or kg.nx < 2 * pg.nx:
            raise ValueError(
                f"kernel grid {kg.nz}x{kg.nx} must be at least twice the "
                f"physical grid {pg.nz}x{pg.nx} per axis")

    @property
    def padded_shape(self):
        return (self.kernel_grid.nz, self.kernel_grid.nx)

    def as_field(self):
        """Kernel table as a ComplexField on the padded grid (wrap layout)."""
        return ComplexField(self.kernel_grid, self.samples.copy())


def _wrapped_offsets(size):
    idx = np.arange(size)
    return np.where(idx <= size // 2, idx, idx - size)


def build_kernel(physical_grid, k0, mode="cell_averaged"):
    """Build the padded G0 kernel table and its spectrum for one grid."""
    if not np.isfinite(k0) or k0 <= 0:
        raise ValueError(f"k0 must be positive and finite, got {k0}")
    g = physical_grid
    # smallest 2-3-5-smooth length at least twice the grid per axis
    pz = scipy.fft.next_fast_len(2 * g.nz, real=True)
    px = scipy.fft.next_fast_len(2 * g.nx, real=True)
    kernel_grid = Grid2D(pz, px, g.dz, g.dx, 0.0, 0.0)

    off_z = _wrapped_offsets(pz) * g.dz
    off_x = _wrapped_offsets(px) * g.dx
    radius = np.sqrt(off_z[:, None] ** 2 + off_x[None, :] ** 2)
    radius[0, 0] = 1.0  # placeholder, overwritten by the self term below
    samples = green0(radius, k0)
    samples[0, 0] = self_term(equivalent_disk_radius(g), k0, mode)
    spectrum = np.fft.fft2(samples)
    return GreensKernel(g, kernel_grid, samples, spectrum, float(k0), mode)


def background_field(medium, source, eval_points=None):
    """Homogeneous-background response U0 = amplitude * G0(|x - x_s|).

    With eval_points=None the field is evaluated at the medium's grid
    nodes; a node exactly at the source position takes the cell-averaged
    self term (the grid provides the averaging cell).  With an explicit
    (N, 2) array of (z, x) points there is no cell to average over, so a
    point exactly at the source raises SingularEvaluationError.
    """
    zs, xs = source.position
    if not medium.grid.contains(zs, xs):
        raise ValueError(f"source position {source.position} lies outside the grid bounding box")
    k0 = medium.k0
    amp = complex(source.amplitude)
    if amp == 0:
        shape = medium.grid.shape if eval_points is None else (len(np.atleast_2d(eval_points)),)
        values = np.zeros(shape, dtype=np.complex128)
        return ComplexField(medium.grid, values) if eval_points is None else values

    if eval_points is None:
        zz, xx = np.meshgrid(medium.grid.z_coords(), medium.grid.x_coords(), indexing="ij")
        r = np.hypot(zz - zs, xx - xs)
        values = np.empty(medium.grid.shape, dtype=np.complex128)
        hit = r == 0.0
        if hit.any():
            values[hit] = amp * self_term(equivalent_disk_radius(medium.grid), k0)
        values[~hit] = amp * green0(r[~hit], k0)
        return ComplexField(medium.grid, values)

    pts = np.atleast_2d(np.asarray(eval_points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("eval_points must be an (N, 2) array of (z, x) coordinates")
    r = np.hypot(pts[:, 0] - zs, pts[:, 1] - xs)
    if (r == 0.0).any():
        raise SingularEvaluationError(
            "background_field evaluated exactly at the source point without a grid context")
    return amp * green0(r, k0)
