"""Binary complex-field files and CSV tables.

Field file layout (all little-endian):

    magic   4 bytes  b"GIHF"
    version u16
    nz, nx  u32 each
    dz, dx, z0, x0  f64 each
    payload 2*4*nz*nx bytes: float32 pairs (Re, Im), row-major

Values are stored as float32; a field whose values are exactly
representable in float32 round-trips bitwise (anything produced by
``read_field`` is). Malformed input raises FieldFormatError carrying
the byte offset at which parsing failed.

CSV tables (loss.csv, eval.csv, trace.csv, pool.csv) all go through
write_rows_csv, whose float formatting keeps their bytes reproducible.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .errors import FieldFormatError
from .grid import ComplexField, Grid2D

MAGIC = b"GIHF"
VERSION = 1

_HEADER = struct.Struct("<4sHIIdddd")
HEADER_SIZE = _HEADER.size


def payload_size(nz: int, nx: int) -> int:
    return 2 * 4 * nz * nx


def write_field(path, field: ComplexField) -> None:
    g = field.grid
    header = _HEADER.pack(MAGIC, VERSION, g.nz, g.nx, g.dz, g.dx, g.z0, g.x0)
    pairs = np.empty((g.nz, g.nx, 2), dtype="<f4")
    pairs[..., 0] = field.values.real
    pairs[..., 1] = field.values.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pairs.tobytes())


def read_field(path) -> ComplexField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER_SIZE:
        raise FieldFormatError(
            f"file ends inside the header ({len(raw)} of {HEADER_SIZE} bytes)",
            byte_offset=len(raw),
        )
    magic, version, nz, nx, dz, dx, z0, x0 = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise FieldFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", byte_offset=0)
    if version != VERSION:
        raise FieldFormatError(f"unsupported version {version}", byte_offset=4)
    if nz < 2:
        raise FieldFormatError(f"nz = {nz} (need at least 2)", byte_offset=6)
    if nx < 2:
        raise FieldFormatError(f"nx = {nx} (need at least 2)", byte_offset=10)
    if not (np.isfinite(dz) and dz > 0.0):
        raise FieldFormatError(f"dz = {dz!r} is not a positive spacing", byte_offset=14)
    if not (np.isfinite(dx) and dx > 0.0):
        raise FieldFormatError(f"dx = {dx!r} is not a positive spacing", byte_offset=22)
    if not np.isfinite(z0):
        raise FieldFormatError(f"z0 = {z0!r} is not finite", byte_offset=30)
    if not np.isfinite(x0):
        raise FieldFormatError(f"x0 = {x0!r} is not finite", byte_offset=38)

    expected = payload_size(nz, nx)
    got = len(raw) - HEADER_SIZE
    if got < expected:
        raise FieldFormatError(
            f"payload truncated: {got} of {expected} bytes", byte_offset=len(raw)
        )
    if got > expected:
        raise FieldFormatError(
            f"{got - expected} trailing bytes after payload",
            byte_offset=HEADER_SIZE + expected,
        )

    pairs = np.frombuffer(raw, dtype="<f4", count=2 * nz * nx, offset=HEADER_SIZE)
    bad = np.flatnonzero(~np.isfinite(pairs))
    if bad.size:
        raise FieldFormatError("payload holds a non-finite value",
                               byte_offset=HEADER_SIZE + 4 * int(bad[0]))
    pairs = pairs.reshape(nz, nx, 2).astype(np.float64)
    values = pairs[..., 0] + 1j * pairs[..., 1]
    grid = Grid2D(nz=nz, nx=nx, dz=dz, dx=dx, z0=z0, x0=x0)
    return ComplexField(grid, values)


def write_rows_csv(path, header, rows):
    """RFC-4180 CSV (CRLF, header row); floats via repr for stable bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
