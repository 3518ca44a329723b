"""Grids, media, sources, and complex fields.

Array convention used everywhere in this package: fields are stored as
row-major (C-order) ``(nz, nx)`` arrays with depth z as the slow (first)
axis.  Node j of grid g sits at ``(g.z0 + iz*g.dz, g.x0 + ix*g.dx)`` and
carries the midpoint quadrature weight ``W = dz*dx``.

Coordinates are in km, velocities in km/s, omega in rad/s.  The squared
slowness is ``m = 1/v^2``; the scattering potential is ``delta_m = m - m0``
with ``m0 = 1/v0^2`` the homogeneous background.
"""

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, FieldFormatError


@dataclass(frozen=True)
class Grid2D:
    """Regular rectangular grid: nz x nx nodes, spacing (dz, dx), origin (z0, x0)."""

    nz: int
    nx: int
    dz: float
    dx: float
    z0: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        if self.nz < 2 or self.nx < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.nz}x{self.nx}")
        if self.dz <= 0 or self.dx <= 0:
            raise ValueError(f"grid spacing must be positive, got dz={self.dz}, dx={self.dx}")

    @property
    def shape(self):
        return (self.nz, self.nx)

    @property
    def n(self):
        return self.nz * self.nx

    @property
    def w(self):
        """Cell quadrature weight W = dz*dx."""
        return self.dz * self.dx

    def z_coords(self):
        return self.z0 + self.dz * np.arange(self.nz)

    def x_coords(self):
        return self.x0 + self.dx * np.arange(self.nx)

    def node_coords(self):
        """All node coordinates as an (nz*nx, 2) array of (z, x) rows."""
        zz, xx = np.meshgrid(self.z_coords(), self.x_coords(), indexing="ij")
        return np.column_stack([zz.ravel(), xx.ravel()])

    def contains(self, z, x):
        return (
            self.z0 <= z <= self.z0 + (self.nz - 1) * self.dz
            and self.x0 <= x <= self.x0 + (self.nx - 1) * self.dx
        )


@dataclass(frozen=True, eq=False)
class Medium:
    """Velocity model v(x) over a grid with homogeneous background (v0, omega).

    ``interior`` marks the observed block of the grid: loss evaluation is
    restricted to it.  It covers the whole grid unless the medium came out of
    :func:`taper_perturbation`, in which case it excludes the absorbing pad.
    """

    grid: Grid2D
    velocity: np.ndarray
    v0: float
    omega: float
    interior: tuple = field(default=None)

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"velocity shape {v.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(v).all() or (v <= 0).any():
            raise ValueError("velocity must be finite and strictly positive")
        if not (np.isfinite(self.v0) and self.v0 > 0):
            raise ValueError(f"v0 must be finite and positive, got {self.v0}")
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and positive, got {self.omega}")
        object.__setattr__(self, "velocity", v)
        if self.interior is None:
            object.__setattr__(self, "interior", (slice(0, self.grid.nz), slice(0, self.grid.nx)))

    @property
    def m(self):
        """Squared slowness 1/v^2."""
        return 1.0 / (self.velocity * self.velocity)

    @property
    def m0(self):
        return 1.0 / (self.v0 * self.v0)

    @property
    def delta_m(self):
        return self.m - self.m0

    @property
    def k0(self):
        """Background wavenumber omega/v0."""
        return self.omega / self.v0

    @property
    def wavelength(self):
        return 2.0 * np.pi * self.v0 / self.omega

    def interior_mask(self):
        mask = np.zeros(self.grid.shape, dtype=bool)
        mask[self.interior] = True
        return mask


@dataclass(frozen=True)
class SourceSpec:
    """Point source: position (z, x) in km and a complex amplitude."""

    position: tuple
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if len(self.position) != 2:
            raise ValueError("source position must be (z, x)")
        if not np.isfinite(self.position).all() or not np.isfinite(self.amplitude):
            raise ValueError("source position and amplitude must be finite")


@dataclass(eq=False)
class ComplexField:
    """Complex samples over a grid, stored (nz, nx) with z the slow axis."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise ValueError(f"field shape {v.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(v).all():
            raise ValueError("field values must all be finite")
        self.values = v

    def copy(self):
        return ComplexField(self.grid, self.values.copy())


def normalize_coords(grid, omega, v0):
    """Wavelength-normalized node coordinates, one array per axis.

    x_tilde = omega*x/(2*pi*v0): one background wavelength maps to unit
    length, so the background phase advances by 2*pi per unit coordinate.
    """
    if omega <= 0 or v0 <= 0:
        raise ValueError("omega and v0 must be positive")
    scale = omega / (2.0 * np.pi * v0)
    return scale * grid.z_coords(), scale * grid.x_coords()


def normalize_points(points, omega, v0):
    """Wavelength-normalize an (N, 2) array of (z, x) coordinates."""
    if omega <= 0 or v0 <= 0:
        raise ValueError("omega and v0 must be positive")
    return np.asarray(points, dtype=np.float64) * (omega / (2.0 * np.pi * v0))


def taper_perturbation(medium, pad_cells, taper_width_cells):
    """Extend the model by pad_cells per side and taper delta_m to zero.

    The perturbation is edge-replicated into the pad and multiplied by a
    raised-cosine ramp over the outermost taper_width_cells, so delta_m is
    bit-identical in the interior, decays smoothly in the pad, and is exactly
    zero on the outer boundary ring.  Velocity is rebuilt from the tapered
    delta_m and pinned to exactly v0 wherever delta_m vanishes.  The returned
    medium's ``interior`` records where the original grid landed.
    """
    pad = int(pad_cells)
    width = int(taper_width_cells)
    if not pad >= width >= 0:
        raise ValueError(f"need pad_cells >= taper_width_cells >= 0, got {pad} < {width}")
    g = medium.grid
    if pad == 0:
        return medium

    new_grid = Grid2D(g.nz + 2 * pad, g.nx + 2 * pad, g.dz, g.dx,
                      g.z0 - pad * g.dz, g.x0 - pad * g.dx)
    dm = np.pad(medium.delta_m, pad, mode="edge")

    # distance (in cells) outside the interior block, 0 inside
    iz = np.arange(new_grid.nz)
    ix = np.arange(new_grid.nx)
    dist_z = np.maximum(pad - iz, iz - (pad + g.nz - 1)).clip(min=0)
    dist_x = np.maximum(pad - ix, ix - (pad + g.nx - 1)).clip(min=0)
    dist = np.maximum(dist_z[:, None], dist_x[None, :]).astype(np.float64)

    ramp_start = pad - width
    factor = np.ones_like(dist)
    if width > 0:
        in_ramp = dist > ramp_start
        factor[in_ramp] = 0.5 * (1.0 + np.cos(np.pi * (dist[in_ramp] - ramp_start) / width))
    factor[dist >= pad] = 0.0
    if width < pad:
        factor[dist > ramp_start + width] = 0.0  # beyond the ramp: hard zero
    dm = dm * factor

    interior = (slice(pad, pad + g.nz), slice(pad, pad + g.nx))
    dm[interior] = medium.delta_m  # keep interior bit-identical

    velocity = 1.0 / np.sqrt(medium.m0 + dm)
    velocity[dm == 0.0] = medium.v0
    velocity[interior] = medium.velocity

    return replace(medium, grid=new_grid, velocity=velocity, interior=interior)


# ---------------------------------------------------------------------------
# synthetic media

def homogeneous_medium(grid, v0, omega):
    return Medium(grid, np.full(grid.shape, float(v0)), v0, omega)


def gaussian_lens_medium(grid, v0, omega, contrast, sigma, center=None):
    """Gaussian velocity lens: v = v0*(1 + contrast*exp(-r^2/(2 sigma^2))).

    Negative contrast gives a slow (focusing) lens with delta_m > 0.
    """
    if center is None:
        center = (grid.z0 + 0.5 * (grid.nz - 1) * grid.dz,
                  grid.x0 + 0.5 * (grid.nx - 1) * grid.dx)
    if abs(contrast) >= 1.0:
        raise ValueError("lens contrast must satisfy |contrast| < 1")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"lens sigma must be finite and > 0, got {sigma}")
    zz, xx = np.meshgrid(grid.z_coords(), grid.x_coords(), indexing="ij")
    bump = np.exp(-((zz - center[0]) ** 2 + (xx - center[1]) ** 2) / (2.0 * sigma**2))
    return Medium(grid, v0 * (1.0 + contrast * bump), v0, omega)


def layered_medium(grid, v0, omega, interfaces, velocities):
    """Horizontal layers: velocities[i] between interfaces[i-1] and interfaces[i]."""
    interfaces = list(interfaces)
    velocities = list(velocities)
    if len(velocities) != len(interfaces) + 1:
        raise ValueError("need one more velocity than interfaces")
    if sorted(interfaces) != interfaces:
        raise ValueError("interface depths must be increasing")
    z = grid.z_coords()
    idx = np.searchsorted(interfaces, z, side="right")
    profile = np.asarray(velocities, dtype=np.float64)[idx]
    return Medium(grid, np.repeat(profile[:, None], grid.nx, axis=1), v0, omega)


# ---------------------------------------------------------------------------
# velocity model files: raw little-endian float32 grid + JSON sidecar

SIDECAR_KEYS = ("nz", "nx", "dz", "dx", "z0", "x0", "v0", "omega")


def read_velocity_model(raw_path, sidecar_path):
    """Load a medium from a raw float32 grid file and its JSON sidecar."""
    try:
        meta = json.loads(Path(sidecar_path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"sidecar {sidecar_path} is not valid JSON: {exc}") from exc
    missing = [k for k in SIDECAR_KEYS if k not in meta]
    if missing:
        raise ConfigError(f"sidecar {sidecar_path} missing keys: {missing}")
    unknown = [k for k in meta if k not in SIDECAR_KEYS]
    if unknown:
        raise ConfigError(f"sidecar {sidecar_path} has unknown keys: {unknown}")

    try:
        grid = Grid2D(int(meta["nz"]), int(meta["nx"]), float(meta["dz"]),
                      float(meta["dx"]), float(meta["z0"]), float(meta["x0"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sidecar {sidecar_path}: {exc}") from exc
    blob = Path(raw_path).read_bytes()
    expected = 4 * grid.n
    if len(blob) != expected:
        raise FieldFormatError(
            f"velocity file {raw_path} holds {len(blob)} bytes, expected {expected} "
            f"({grid.nz}x{grid.nx} float32)", byte_offset=min(len(blob), expected))
    velocity = np.frombuffer(blob, dtype="<f4").astype(np.float64).reshape(grid.shape)
    try:
        return Medium(grid, velocity, float(meta["v0"]), float(meta["omega"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"velocity model {raw_path}: {exc}") from exc


def write_velocity_model(medium, raw_path, sidecar_path):
    """Inverse of read_velocity_model (velocity is cast to float32)."""
    g = medium.grid
    Path(raw_path).write_bytes(medium.velocity.astype("<f4").tobytes())
    meta = {"nz": g.nz, "nx": g.nx, "dz": g.dz, "dx": g.dx,
            "z0": g.z0, "x0": g.x0, "v0": medium.v0, "omega": medium.omega}
    Path(sidecar_path).write_text(json.dumps(meta, indent=1) + "\n")
