"""Output checks that share no code with gihelm's Bessel, FFT or solvers.

Every field that a workload produces is checked against the discrete
integral equation it must satisfy,

    us(x) = sum_y G0(x, y) w^2 dm(y) W (u0 + us)(y),

evaluated directly at a sample of grid rows with G0 = (i/4) H0^(2)(k0 r)
from ``scipy.special.hankel2``.  The zero-offset entry is the average of
G0 over the disk of area W, written out below.  The medium, the
background field and the file layout are recomputed here from their
documented definitions, not imported from gihelm.
"""

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import hankel2

EULER_GAMMA = 0.5772156649015329

# Documented .gihf layout: magic, version u16, nz/nx u32, dz/dx/z0/x0 f64,
# then row-major float32 (Re, Im) pairs, all little-endian.
GIHF_HEADER = struct.Struct("<4sHIIdddd")


class CheckFailed(Exception):
    """An output did not pass its check."""


@dataclass(frozen=True)
class Lens:
    """Gaussian lens v = v0 (1 + contrast exp(-r^2 / 2 sigma^2)) on an n x n grid.

    The lens is centred on the grid's midpoint; node (iz, ix) sits at
    (iz d, ix d).
    """

    n: int
    d: float
    v0: float
    freq_hz: float
    contrast: float
    sigma: float

    @property
    def omega(self):
        return 2.0 * math.pi * self.freq_hz

    @property
    def k0(self):
        return self.omega / self.v0

    @property
    def extent(self):
        return (self.n - 1) * self.d

    def node(self, iz, ix):
        """Physical (z, x) of a grid node, as the grid computes it."""
        return (0.0 + self.d * iz, 0.0 + self.d * ix)

    def delta_m(self):
        c = 0.5 * self.extent
        coords = self.d * np.arange(self.n)
        r2 = (coords[:, None] - c) ** 2 + (coords[None, :] - c) ** 2
        v = self.v0 * (1.0 + self.contrast * np.exp(-r2 / (2.0 * self.sigma**2)))
        return 1.0 / v**2 - 1.0 / self.v0**2

    def config(self, source, solve=None):
        cfg = {
            "grid": {"nz": self.n, "nx": self.n, "dz": self.d, "dx": self.d},
            "frequency_hz": self.freq_hz,
            "medium": {"kind": "gaussian_lens", "v0": self.v0,
                       "contrast": self.contrast, "sigma": self.sigma},
            "source": {"position": [float(source[0]), float(source[1])]},
        }
        if solve is not None:
            cfg["solve"] = solve
        return cfg


def self_term(lens):
    """Average of G0 over the disk of area W = d^2 centred on a node."""
    h = math.sqrt(lens.d * lens.d / math.pi)
    real = (math.log(h) + math.log(0.5 * lens.k0) + EULER_GAMMA - 0.5) / (2.0 * math.pi)
    return complex(real, 0.25)


def green(lens, r):
    """G0 at distances r, with the cell-averaged value where r == 0."""
    r = np.asarray(r, dtype=np.float64)
    out = np.full(r.shape, self_term(lens), dtype=np.complex128)
    hit = r > 0.0
    out[hit] = 0.25j * hankel2(0, lens.k0 * r[hit])
    return out


def background(lens, source):
    """u0 = G0(|x - x_s|) at every node, for a unit-amplitude source."""
    coords = lens.d * np.arange(lens.n)
    r = np.hypot(coords[:, None] - source[0], coords[None, :] - source[1])
    return green(lens, r)


def sample_rows(rng, lens, count):
    """Seeded sample of distinct flat node indices."""
    return np.sort(rng.choice(lens.n * lens.n, size=count, replace=False))


def green_rows(lens, rows):
    """G0 between each sampled node and every node, (len(rows), n*n)."""
    iz, ix = np.divmod(np.arange(lens.n * lens.n), lens.n)
    rz, rx = np.divmod(np.asarray(rows), lens.n)
    r = lens.d * np.hypot(rz[:, None] - iz[None, :], rx[:, None] - ix[None, :])
    return green(lens, r)


def check_row_residual(lens, rows, g_rows, u0, us, bound):
    """max |us - us_hat| over the sampled rows, as a share of max |us|."""
    scatter = (lens.omega**2 * lens.d * lens.d) * lens.delta_m() * (u0 + us)
    res = us.ravel()[rows] - g_rows @ scatter.ravel()
    rel = float(np.max(np.abs(res)) / np.max(np.abs(us)))
    if not rel <= bound:
        raise CheckFailed(f"sampled-row residual {rel:.3e} exceeds {bound:.1e}")
    return rel


def grid_residual_nmse(lens, u0, us):
    """sum |us - us_hat|^2 / sum |us|^2 over the whole grid.

    us_hat is the same sum as in check_row_residual, taken for every node
    at once by zero-padded circular convolution with a G0 table built here.
    """
    p = 2 * lens.n
    offsets = np.arange(p)
    offsets = lens.d * np.where(offsets <= p // 2, offsets, offsets - p)
    table = green(lens, np.hypot(offsets[:, None], offsets[None, :]))
    scatter = (lens.omega**2 * lens.d * lens.d) * lens.delta_m() * (u0 + us)
    rec = np.fft.ifft2(np.fft.fft2(table) * np.fft.fft2(scatter, s=(p, p)))
    return nmse(rec[:lens.n, :lens.n], us)


def read_gihf(path, lens):
    """Field values of a .gihf file, checked against the lens's grid."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, nz, nx, dz, dx, z0, x0 = GIHF_HEADER.unpack_from(raw, 0)
    if magic != b"GIHF" or version != 1:
        raise CheckFailed(f"{path}: bad magic {magic!r} or version {version}")
    if (nz, nx, dz, dx, z0, x0) != (lens.n, lens.n, lens.d, lens.d, 0.0, 0.0):
        raise CheckFailed(f"{path}: grid header {(nz, nx, dz, dx, z0, x0)} does not "
                          f"match the {lens.n}x{lens.n} input grid")
    if len(raw) != GIHF_HEADER.size + 8 * nz * nx:
        raise CheckFailed(f"{path}: {len(raw)} bytes for a {nz}x{nx} field")
    pairs = np.frombuffer(raw, dtype="<f4", offset=GIHF_HEADER.size).reshape(nz, nx, 2)
    return pairs[..., 0].astype(np.float64) + 1j * pairs[..., 1].astype(np.float64)


def check_reciprocity(us_a, us_b, node_a, node_b, bound):
    """Shot A's field at source B equals shot B's field at source A."""
    ab, ba = us_a[node_b], us_b[node_a]
    rel = abs(ab - ba) / max(abs(ab), abs(ba))
    if not rel <= bound:
        raise CheckFailed(f"reciprocity {node_a}<->{node_b}: relative gap {rel:.3e} "
                          f"exceeds {bound:.1e}")
    return rel


def nmse(pred, ref):
    diff = pred - ref
    return float(np.sum(np.abs(diff) ** 2) / np.sum(np.abs(ref) ** 2))


def check_regime(born_code, landweber_code, landweber_status, nmse_direct, bound):
    """Born diverges (exit 2) where Landweber converges to the direct solution."""
    if born_code != 2:
        raise CheckFailed(f"born exited {born_code} on the divergent medium, expected 2")
    if landweber_code != 0 or landweber_status != "converged":
        raise CheckFailed(f"landweber exited {landweber_code} with status "
                          f"{landweber_status!r}, expected 0 and 'converged'")
    if not nmse_direct <= bound:
        raise CheckFailed(f"landweber nmse against direct {nmse_direct:.3e} exceeds {bound:.1e}")


def read_loss_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def lambda_ramp(epoch, epochs, lambda_max, mid, steepness):
    return lambda_max / (1.0 + math.exp(-steepness * (epoch / epochs - mid)))


def check_loss_columns(rows, mode, epochs, lambda_max, mid, steepness):
    """gi: the pde_loss column is empty; hybrid: lambda follows the ramp."""
    if len(rows) != epochs:
        raise CheckFailed(f"loss.csv has {len(rows)} rows, expected {epochs}")
    for row in rows:
        epoch = int(row["epoch"])
        if mode == "gi":
            if row["pde_loss"] != "" or row["lambda"] != "":
                raise CheckFailed(f"gi run wrote a pde_loss or lambda at epoch {epoch}")
            continue
        want = lambda_ramp(epoch, epochs, lambda_max, mid, steepness)
        got = float(row["lambda"])
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
            raise CheckFailed(f"lambda {got!r} at epoch {epoch}, ramp gives {want!r}")


def check_training_nmse(final, first):
    """The trained field beats the zero field and its own first evaluation."""
    if not final < 1.0:
        raise CheckFailed(f"final nmse {final:.4f} does not beat the zero field")
    if not final < first:
        raise CheckFailed(f"final nmse {final:.4f} is not below the first evaluation "
                          f"{first:.4f}")
