"""3D occupancy grids: core types, rasterization, and the SKYGRID1 file format.

Grid cells are stored flat with the fixed linearization

    index(i, j, k) = i + nx * (j + ny * k)

so i varies fastest. A cell value of 1 means obstacle, 0 means free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ParseError, UnsupportedFormatError

GRID_MAGIC = b"SKYGRID1"
DEFAULT_CELL_CAP = 2**28


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finite (x, y, z) samples in meters.

    ``dropped`` counts non-finite input points discarded while parsing; they
    are not part of ``points``.
    """

    points: np.ndarray  # float64, shape (n, 3)
    dropped: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise ValueError("point cloud contains non-finite coordinates")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return len(self.points)

    def __eq__(self, other):
        if not isinstance(other, PointCloud):
            return NotImplemented
        return (
            self.dropped == other.dropped
            and self.points.shape == other.points.shape
            and bool((self.points == other.points).all())
        )


@dataclass(frozen=True, eq=False)
class GroundMap2D:
    """Single-layer occupancy map; (x=0, y=0) is the minimum-y corner.

    ``occupancy`` is flat with index x + width * y.
    """

    width: int
    height: int
    resolution: float
    occupancy: np.ndarray  # uint8, length width * height

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("map dimensions must be positive")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        occ = np.ascontiguousarray(self.occupancy, dtype=np.uint8).reshape(-1)
        if len(occ) != self.width * self.height:
            raise ValueError("occupancy length does not match width * height")
        occ = occ.copy()
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)

    def occupied(self, x: int, y: int) -> bool:
        return bool(self.occupancy[x + self.width * y])

    @property
    def occupied_count(self) -> int:
        return int(self.occupancy.sum())

    def __eq__(self, other):
        if not isinstance(other, GroundMap2D):
            return NotImplemented
        return (
            (self.width, self.height, self.resolution)
            == (other.width, other.height, other.resolution)
            and self.occupancy.tobytes() == other.occupancy.tobytes()
        )


@dataclass(frozen=True, eq=False)
class OccupancyGrid3D:
    """Dense 0/1 voxel world used by every planner and simulator component."""

    origin: tuple[float, float, float]
    resolution: float
    dims: tuple[int, int, int]
    cells: np.ndarray  # uint8, length nx * ny * nz, i fastest

    def __post_init__(self):
        origin = tuple(float(v) for v in self.origin)
        dims = tuple(int(v) for v in self.dims)
        if len(origin) != 3 or len(dims) != 3:
            raise ValueError("origin and dims must have three components")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if any(d < 1 for d in dims):
            raise ValueError("dims must each be >= 1")
        cells = np.ascontiguousarray(self.cells, dtype=np.uint8).reshape(-1)
        if len(cells) != dims[0] * dims[1] * dims[2]:
            raise ValueError("cell count does not match dims")
        cells = cells.copy()
        cells.setflags(write=False)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "resolution", float(self.resolution))
        object.__setattr__(self, "cells", cells)

    def index(self, i: int, j: int, k: int) -> int:
        nx, ny, _ = self.dims
        return i + nx * (j + ny * k)

    def in_bounds(self, i: int, j: int, k: int) -> bool:
        nx, ny, nz = self.dims
        return 0 <= i < nx and 0 <= j < ny and 0 <= k < nz

    def is_occupied(self, i: int, j: int, k: int) -> bool:
        return bool(self.occ_bytes[self.index(i, j, k)])

    def as_array(self) -> np.ndarray:
        """View with shape (nx, ny, nz), indexable as arr[i, j, k]."""
        nx, ny, nz = self.dims
        return self.cells.reshape(nz, ny, nx).transpose(2, 1, 0)

    @cached_property
    def occ_bytes(self) -> bytes:
        return self.cells.tobytes()

    @cached_property
    def neighbour_lists(self) -> dict:
        """The planners' per-grid cache: agent kind -> each cell's free neighbours, filled by ``astar``."""
        return {}

    @cached_property
    def occupied_count(self) -> int:
        return int(self.cells.sum())

    @cached_property
    def free_cell_count(self) -> int:
        return len(self.cells) - self.occupied_count

    def __eq__(self, other):
        if not isinstance(other, OccupancyGrid3D):
            return NotImplemented
        return (
            self.origin == other.origin
            and self.resolution == other.resolution
            and self.dims == other.dims
            and self.occ_bytes == other.occ_bytes
        )


def empty_grid(dims, origin=(0.0, 0.0, 0.0), resolution=1.0) -> OccupancyGrid3D:
    nx, ny, nz = dims
    return OccupancyGrid3D(origin, resolution, tuple(dims), np.zeros(nx * ny * nz, dtype=np.uint8))


def rasterize(
    cloud: PointCloud,
    resolution: float,
    bounds=None,
    padding: int = 1,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> OccupancyGrid3D:
    """Rasterize a point cloud into an occupancy grid.

    A cell is marked 1 exactly when at least one point lands in it under
    floor((p - origin) / resolution). Points sitting exactly on the max
    boundary are clamped into the last cell so wall geometry on the bounding
    face is kept; points strictly outside explicit bounds are ignored.

    When ``bounds`` is omitted they default to the cloud's axis-aligned
    bounding box grown by ``padding`` cells on every face.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if padding < 0:
        raise ValueError("padding must be >= 0")
    pts = cloud.points
    if bounds is None:
        if cloud.count == 0:
            raise ValueError("empty cloud requires explicit bounds")
        mins = pts.min(axis=0) - padding * resolution
        maxs = pts.max(axis=0) + padding * resolution
    else:
        mins = np.asarray(bounds[0], dtype=np.float64)
        maxs = np.asarray(bounds[1], dtype=np.float64)
        if mins.shape != (3,) or maxs.shape != (3,):
            raise ValueError("bounds must be ((x,y,z), (x,y,z))")
        if not (maxs > mins).all():
            raise ValueError("bounds max must exceed min on every axis")

    dims = tuple(max(1, math.ceil((maxs[a] - mins[a]) / resolution)) for a in range(3))
    n_cells = dims[0] * dims[1] * dims[2]
    if n_cells > cell_cap:
        raise CapacityError(f"grid would hold {n_cells} cells, above the cap of {cell_cap}")

    cells = np.zeros(n_cells, dtype=np.uint8)
    if cloud.count:
        idx = np.floor((pts - mins) / resolution).astype(np.int64)
        dims_arr = np.asarray(dims, dtype=np.int64)
        for a in range(3):
            idx[pts[:, a] == maxs[a], a] = dims_arr[a] - 1
        inside = ((idx >= 0) & (idx < dims_arr)).all(axis=1)
        idx = idx[inside]
        lin = idx[:, 0] + dims[0] * (idx[:, 1] + dims[1] * idx[:, 2])
        cells[np.unique(lin)] = 1
    return OccupancyGrid3D(tuple(float(v) for v in mins), float(resolution), dims, cells)


def extrude_ground(ground: GroundMap2D, nz: int, walls: bool = False) -> OccupancyGrid3D:
    """Lift a 2D map into a 3D grid.

    Layer k = 0 copies the 2D occupancy. Higher layers stay free unless
    ``walls`` is set, in which case occupied columns run through all layers.
    """
    if nz < 1:
        raise ValueError("nz must be >= 1")
    nx, ny = ground.width, ground.height
    layers = nz if walls else 1
    cells = np.zeros(nx * ny * nz, dtype=np.uint8)
    for k in range(layers):
        cells[k * nx * ny : (k + 1) * nx * ny] = ground.occupancy
    return OccupancyGrid3D((0.0, 0.0, 0.0), ground.resolution, (nx, ny, nz), cells)


# --- SKYGRID1 serialization -------------------------------------------------

def _write_uvarint(out: bytearray, n: int) -> None:
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ParseError("payload truncated inside a varint", offset=pos)
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


def grid_to_bytes(grid: OccupancyGrid3D) -> bytes:
    """Serialize a grid: text header, blank line, then run-length payload.

    The payload is a sequence of (count, bit) unsigned-varint pairs covering
    all cells in linearization order.
    """
    ox, oy, oz = grid.origin
    nx, ny, nz = grid.dims
    header = (
        f"SKYGRID1\n"
        f"origin {ox!r} {oy!r} {oz!r}\n"
        f"resolution {grid.resolution!r}\n"
        f"dims {nx} {ny} {nz}\n"
        f"encoding rle\n"
        f"\n"
    ).encode("ascii")
    flat = grid.cells
    payload = bytearray()
    breaks = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [len(flat)]))
    for s, e in zip(starts, ends):
        _write_uvarint(payload, int(e - s))
        _write_uvarint(payload, int(flat[s]))
    return header + bytes(payload)


def grid_from_bytes(data: bytes) -> OccupancyGrid3D:
    """Parse a SKYGRID1 file. Inverse of :func:`grid_to_bytes`, bit for bit."""
    sep = data.find(b"\n\n")
    if sep < 0:
        raise ParseError("missing blank line between header and payload", offset=len(data))
    header_lines = data[:sep].split(b"\n")
    if not header_lines or header_lines[0] != GRID_MAGIC:
        magic = bytes(header_lines[0][:16]) if header_lines else b""
        if magic.startswith(b"SKYGRID"):
            raise UnsupportedFormatError(f"unsupported grid format version {magic!r}", offset=0)
        raise ParseError(f"bad magic {magic!r}, expected {GRID_MAGIC!r}", offset=0)

    fields = {}
    offset = len(GRID_MAGIC) + 1
    for line in header_lines[1:]:
        text = line.decode("ascii", errors="replace")
        key, _, rest = text.partition(" ")
        if key in fields:
            raise ParseError(f"duplicate header key {key!r}", offset=offset)
        fields[key] = rest
        offset += len(line) + 1
    for key in ("origin", "resolution", "dims", "encoding"):
        if key not in fields:
            raise ParseError(f"missing header key {key!r}", offset=sep)
    if fields["encoding"] != "rle":
        raise UnsupportedFormatError(f"unsupported encoding {fields['encoding']!r}", offset=sep)
    try:
        origin = tuple(float(v) for v in fields["origin"].split())
        resolution = float(fields["resolution"])
        dims = tuple(int(v) for v in fields["dims"].split())
    except ValueError as exc:
        raise ParseError(f"bad header value: {exc}", offset=sep) from None
    if len(origin) != 3 or len(dims) != 3:
        raise ParseError("origin and dims must each have three values", offset=sep)

    n_cells = dims[0] * dims[1] * dims[2]
    cells = np.zeros(n_cells, dtype=np.uint8)
    pos = sep + 2  # absolute, so an error names the file offset of the offending varint
    filled = 0
    while pos < len(data):
        count, bit_at = _read_uvarint(data, pos)
        bit, end = _read_uvarint(data, bit_at)
        if bit not in (0, 1):
            raise ParseError(f"run bit must be 0 or 1, got {bit}", offset=bit_at)
        if filled + count > n_cells:
            raise ParseError(f"payload describes more than the {n_cells} cells in the header", offset=pos)
        if bit:
            cells[filled : filled + count] = 1
        filled += count
        pos = end
    if filled != n_cells:
        raise ParseError(f"payload covers {filled} cells, header declares {n_cells}", offset=len(data))
    return OccupancyGrid3D(origin, resolution, dims, cells)


def write_grid(grid: OccupancyGrid3D, path) -> None:
    with open(path, "wb") as fh:
        fh.write(grid_to_bytes(grid))


def read_grid(path) -> OccupancyGrid3D:
    with open(path, "rb") as fh:
        return grid_from_bytes(fh.read())
