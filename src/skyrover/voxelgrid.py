"""3D occupancy grids: core types, rasterization, and the SKYGRID1 file format.

Grid cells are stored flat with the fixed linearization

    index(i, j, k) = i + nx * (j + ny * k)

so i varies fastest. A cell value of 1 means obstacle, 0 means free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CapacityError, ParseError, UnsupportedFormatError
from .mapf import as_cell, as_int, as_origin, as_positive

GRID_MAGIC = b"SKYGRID1"
DEFAULT_CELL_CAP = 2**28


def cell_count(dims) -> int:
    """The number of cells in a grid of ``dims``, checked before anything is allocated.

    Raises ValueError when an axis is below 1 and CapacityError when the
    count is above ``DEFAULT_CELL_CAP``. Every grid producer calls it.
    """
    nx, ny, nz = dims
    if min(nx, ny, nz) < 1:
        raise ValueError("dims must each be >= 1")
    n_cells = nx * ny * nz
    if n_cells > DEFAULT_CELL_CAP:
        raise CapacityError(f"grid would hold {n_cells} cells, above the cap of {DEFAULT_CELL_CAP}")
    return n_cells


def grid_frame(origin, resolution, dims):
    """The checked (origin, resolution, dims) of a grid and its ``cell_count``: the rule of its constructor and the SKYGRID1 reader."""
    frame, dims = as_origin(origin), as_cell(dims, "dims")
    return frame, as_positive(resolution, "resolution"), dims, cell_count(dims)


def _frozen(values: np.ndarray) -> np.ndarray:
    """Copy ``values`` once into a ``bytes`` object and return a flat read-only view of it.

    The view's ``.base`` is those bytes. numpy refuses ``setflags(write=True)``
    on an array over ``bytes``, so the copy cannot change once made.
    """
    return np.frombuffer(values.tobytes(), dtype=values.dtype)


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
        object.__setattr__(self, "points", _frozen(pts).reshape(-1, 3))

    @property
    def count(self) -> int:
        return len(self.points)

    def __reduce__(self):  # a copied or unpickled cloud is built anew, read-only again
        return PointCloud, (self.points, self.dropped)

    def __eq__(self, other):
        if not isinstance(other, PointCloud):
            return NotImplemented
        return (
            self.dropped == other.dropped
            and self.points.shape == other.points.shape
            and bool((self.points == other.points).all())
        )


@dataclass(frozen=True, eq=False)
class OccupancyGrid3D:
    """Dense 0/1 voxel world used by every planner and simulator component.

    ``cells`` is a read-only view of the one ``bytes`` object ``occ_bytes``.
    """

    origin: tuple[float, float, float]
    resolution: float
    dims: tuple[int, int, int]
    cells: np.ndarray  # uint8, length nx * ny * nz, i fastest

    def __post_init__(self):
        origin, resolution, dims, n_cells = grid_frame(self.origin, self.resolution, self.dims)
        cells = np.asarray(self.cells, dtype=np.uint8)
        if cells.size != n_cells:
            raise ValueError("cell count does not match dims")
        cells = _frozen(cells)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_occ", cells.base)  # read by is_occupied without a property call

    def index(self, i: int, j: int, k: int) -> int:
        nx, ny, _ = self.dims
        return i + nx * (j + ny * k)

    def in_bounds(self, i: int, j: int, k: int) -> bool:
        nx, ny, nz = self.dims
        return 0 <= i < nx and 0 <= j < ny and 0 <= k < nz

    def is_occupied(self, i: int, j: int, k: int) -> bool:
        return bool(self._occ[self.index(i, j, k)])

    @property
    def occ_bytes(self) -> bytes:
        """The cells, one byte each: the ``bytes`` object that ``cells`` views."""
        return self._occ

    @cached_property
    def derived(self) -> dict:
        """What is computed from the grid once and kept for its lifetime, filled only by ``mapf.per_grid``."""
        return {}

    @cached_property
    def occupied_count(self) -> int:
        return int(self.cells.sum())

    def __reduce__(self):  # a copied or unpickled grid is built anew: one read-only copy again, no caches
        return OccupancyGrid3D, (self.origin, self.resolution, self.dims, self.cells)

    def __eq__(self, other):
        if not isinstance(other, OccupancyGrid3D):
            return NotImplemented
        return (
            self.origin == other.origin
            and self.resolution == other.resolution
            and self.dims == other.dims
            and np.array_equal(self.cells, other.cells)
        )


def empty_grid(dims) -> OccupancyGrid3D:
    return OccupancyGrid3D((0.0, 0.0, 0.0), 1.0, tuple(dims), np.zeros(cell_count(dims), dtype=np.uint8))


def rasterize(
    cloud: PointCloud,
    resolution: float,
    bounds=None,
    padding: int = 1,
) -> OccupancyGrid3D:
    """Rasterize a point cloud into an occupancy grid.

    A cell is marked 1 exactly when at least one point lands in it under
    floor((p - origin) / resolution). Points sitting exactly on the max
    boundary are clamped into the last cell so wall geometry on the bounding
    face is kept; points strictly outside explicit bounds are ignored.

    When ``bounds`` is omitted they default to the cloud's axis-aligned
    bounding box grown by ``padding`` cells on every face. Non-finite bounds,
    or a box too many cells wide for a float, raise ``ValueError``. A zero minimum takes the
    sign of its axis's last zero in point order, which the header's origin shows at ``padding=0``.
    """
    resolution = as_positive(resolution, "resolution")
    padding = as_int(padding, "padding")
    if padding < 0:
        raise ValueError("padding must be >= 0")
    cols = np.ascontiguousarray(cloud.points.T)  # one row per axis, so every pass below is contiguous
    if bounds is None:
        if cloud.count == 0:
            raise ValueError("empty cloud requires explicit bounds")
        try:
            pad = padding * resolution
        except OverflowError:  # an int padding past the largest float
            pad = math.inf
        mins = cols.min(axis=1)
        for a in np.flatnonzero(mins == 0):  # with padding 0, the sign of a zero minimum reaches the header
            mins[a] = cols[a][cols[a] == 0][-1]
        mins -= pad
        maxs = cols.max(axis=1) + pad  # the sign of a zero maximum never shows
    else:
        mins = np.asarray(bounds[0], dtype=np.float64)
        maxs = np.asarray(bounds[1], dtype=np.float64)
        if mins.shape != (3,) or maxs.shape != (3,):
            raise ValueError("bounds must be ((x,y,z), (x,y,z))")
        if not (maxs > mins).all():
            raise ValueError("bounds max must exceed min on every axis")
    if not (np.isfinite(mins).all() and np.isfinite(maxs).all()):
        raise ValueError(f"bounds must be finite, got {mins.tolist()} to {maxs.tolist()}")
    extent = [(hi - lo) / resolution for lo, hi in zip(mins.tolist(), maxs.tolist())]  # floats overflow to inf
    if not all(map(math.isfinite, extent)):
        raise ValueError(f"grid extent must be finite, got {extent} cells at resolution {resolution!r}")

    dims = tuple(max(1, math.ceil(e)) for e in extent)
    n_cells = cell_count(dims)

    lin = np.zeros(cloud.count, dtype=np.int64)
    inside = np.ones(cloud.count, dtype=bool)
    for a in (2, 1, 0):  # lin = i + nx * (j + ny * k), built from k inwards
        idx = np.floor((cols[a] - mins[a]) / resolution).astype(np.int64)
        idx[cols[a] == maxs[a]] = dims[a] - 1
        inside &= (idx >= 0) & (idx < dims[a])
        lin *= dims[a]
        lin += idx
    cells = np.zeros(n_cells, dtype=np.uint8)
    cells[lin[inside]] = 1  # repeated indices write the same 1
    return OccupancyGrid3D(tuple(float(v) for v in mins), resolution, dims, cells)


def extrude_ground(ground: OccupancyGrid3D, nz: int, walls: bool = False) -> OccupancyGrid3D:
    """Lift a one-layer grid (a 2D map) into ``nz`` layers, keeping its origin and resolution.

    Layer k = 0 copies the map. Higher layers stay free unless ``walls`` is
    set, in which case occupied columns run through all layers. A grid of
    more than one layer is a ``ValueError``.
    """
    nz = as_int(nz, "nz")
    if nz < 1:
        raise ValueError("nz must be >= 1")
    nx, ny, layers = ground.dims
    if layers != 1:
        raise ValueError(f"extrude_ground takes a one-layer grid, got {layers} layers")
    n_cells = cell_count((nx, ny, nz))
    cells = np.tile(ground.cells, nz) if walls else np.pad(ground.cells, (0, n_cells - nx * ny))
    return OccupancyGrid3D(ground.origin, ground.resolution, (nx, ny, nz), cells)


# --- SKYGRID1 serialization -------------------------------------------------

# The codec works in numpy blocks: the writer BLOCK_SIZE cells at a time, the reader BLOCK_SIZE
# payload bytes. A block holds at most BLOCK_SIZE runs, and the reader's run fill at most the
# cells they cover, so peak memory stays the cells, the file bytes and one copy of the cells.
BLOCK_SIZE = 2**15
_FAST_VARINT_BYTES = 9  # 63 bits: the longest varint decoded in int64
_INT64_MAX = 2**63 - 1
_VARINT_FLOORS = 1 << 7 * np.arange(1, _FAST_VARINT_BYTES, dtype=np.int64)  # the least value of 2, 3, ... 9 bytes


def _encode_uvarints(values: np.ndarray) -> bytes:
    """LEB128 bytes of the non-negative int64 ``values``, back to back."""
    multi = np.flatnonzero(values > 0x7F)  # the varints with bytes past their first
    tails = np.searchsorted(_VARINT_FLOORS, values[multi], side="right")  # how many bytes past the first
    heads = multi + np.cumsum(tails) - tails  # where each one's first byte lands
    p = np.arange(1, tails.max(initial=0) + 1)
    within = p <= tails[:, None]
    at = (heads[:, None] + p)[within]  # where each one's byte p lands
    out = np.empty(len(values) + len(at), dtype=np.uint8)
    out[at] = ((values[multi, None] >> 7 * p) & 0x7F | 0x80 * (p < tails[:, None]))[within]
    first = np.ones(len(out), dtype=bool)  # every byte outside a tail is a first byte
    first[at] = False
    out[first] = values.astype(np.uint8) & 0x7F
    out[heads] |= 0x80
    return out.tobytes()


def _decode_uvarints(block: np.ndarray, term: np.ndarray):
    """Values and block offsets of the varints that end at ``term`` in ``block``.

    The varints sit back to back from ``block[0]``. Values past int64 (only a
    non-canonical varint of 10 or more bytes can get there) read as the
    int64 maximum.
    """
    starts = np.empty_like(term)
    starts[0] = 0
    starts[1:] = term[:-1] + 1
    sizes = term - starts + 1
    values = (block[starts] & 0x7F).astype(np.int64)
    live = np.flatnonzero(sizes > 1)
    for p in range(1, _FAST_VARINT_BYTES):
        if not len(live):
            break
        values[live] |= (block[starts[live] + p] & 0x7F).astype(np.int64) << (7 * p)
        live = live[sizes[live] > p + 1]
    for v in np.flatnonzero(sizes > _FAST_VARINT_BYTES):  # within int64 only if the rest is zero padding
        if (block[starts[v] + _FAST_VARINT_BYTES : term[v] + 1] & 0x7F).any():
            values[v] = _INT64_MAX
    return values, starts


def _uvarint_value(varint: np.ndarray) -> int:
    """The exact value of one varint of any length."""
    groups = np.unpackbits((varint & 0x7F)[:, None], axis=1, bitorder="little")[:, :7]
    return int.from_bytes(np.packbits(groups.reshape(-1), bitorder="little").tobytes(), "little")


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
    chunks = [header]
    run_start = 0
    for first in range(0, len(flat), BLOCK_SIZE):
        run_start, payload = _write_block(flat, first, run_start)
        chunks.append(payload)
    return b"".join(chunks)


def _write_block(flat: np.ndarray, first: int, run_start: int) -> tuple[int, bytes]:
    """The varint pairs of the runs from ``run_start`` that end in cells ``first + 1`` to ``first + BLOCK_SIZE``.

    Returns the start of the next run and the bytes.
    """
    seg = flat[first : first + BLOCK_SIZE + 1]
    ends = np.flatnonzero(seg[1:] != seg[:-1])
    ends += first + 1
    if first + BLOCK_SIZE >= len(flat):  # the last block also ends the last run
        ends = np.append(ends, len(flat))
    edges = np.concatenate(([run_start], ends))
    pairs = np.empty(2 * len(ends), dtype=np.int64)
    pairs[0::2] = np.diff(edges)
    pairs[1::2] = flat[edges[:-1]]
    return int(edges[-1]), _encode_uvarints(pairs)


def grid_from_bytes(data: bytes) -> OccupancyGrid3D:
    """Parse a SKYGRID1 file. Inverse of :func:`grid_to_bytes`, bit for bit.

    Each payload block's runs fill their cells by one ``np.repeat``, a temporary no larger than those cells.
    """
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
        origin, resolution, dims, n_cells = grid_frame(
            [float(v) for v in fields["origin"].split()],
            float(fields["resolution"]),
            [int(v) for v in fields["dims"].split()],
        )
    except ValueError as exc:
        raise ParseError(f"bad header value: {exc}", offset=sep) from None
    cells = np.zeros(n_cells, dtype=np.uint8)
    pos = sep + 2  # absolute, so an error names the file offset of the offending varint
    filled = 0
    span = BLOCK_SIZE  # payload bytes per block; a pair takes two or more
    while pos < len(data):
        step = _read_block(data, pos, span, cells, filled)
        if step:
            (pos, filled), span = step, BLOCK_SIZE
        elif pos + span >= len(data):  # no whole pair left
            raise ParseError("payload truncated inside a varint", offset=len(data))
        else:  # a pair longer than the block
            span *= 2
    if filled != n_cells:
        raise ParseError(f"payload covers {filled} cells, header declares {n_cells}", offset=len(data))
    return OccupancyGrid3D(origin, resolution, dims, cells)


def _read_block(data, pos: int, span: int, cells: np.ndarray, filled: int):
    """Decode and check the whole (count, bit) pairs in ``data[pos : pos + span]``, at most BLOCK_SIZE / 2.

    Once every pair has passed its checks, the runs fill ``cells[filled:]`` by one ``np.repeat`` of
    their bits. Returns the next (pos, filled), or None when the span holds no whole pair. A function
    of its own, so that a block's temporaries are freed before the next block allocates.
    """
    n_cells = len(cells)
    block = np.frombuffer(data, dtype=np.uint8, count=min(span, len(data) - pos), offset=pos)
    term = np.flatnonzero(block < 0x80)[: BLOCK_SIZE]  # the last byte of each varint
    if len(term) < 2:
        return None
    term = term[: len(term) // 2 * 2]
    values, starts = _decode_uvarints(block, term)
    counts, bits = values[0::2], values[1::2]
    covered = np.cumsum(np.minimum(counts, n_cells + 1))
    covered += filled
    bad_bit = bits > 1
    bad = np.flatnonzero(bad_bit | (covered > n_cells))
    if len(bad):  # the first bad pair in stream order; a pair's bit is checked before its count
        i = int(bad[0])
        if bad_bit[i]:
            at = int(starts[2 * i + 1])
            bit = _uvarint_value(block[at : term[2 * i + 1] + 1])
            try:
                shown = str(bit)
            except ValueError:  # past Python's limit on digits in an int's text
                shown = f"a {bit.bit_length()}-bit number"
            raise ParseError(f"run bit must be 0 or 1, got {shown}", offset=pos + at)
        raise ParseError(
            f"payload describes more than the {n_cells} cells in the header", offset=pos + int(starts[2 * i])
        )
    cells[filled : int(covered[-1])] = np.repeat(bits.astype(np.uint8), counts)
    return pos + int(term[-1]) + 1, int(covered[-1])


def write_grid(grid: OccupancyGrid3D, path) -> None:
    Path(path).write_bytes(grid_to_bytes(grid))  # a refused grid opens no file


def read_grid(path) -> OccupancyGrid3D:
    return grid_from_bytes(Path(path).read_bytes())
