"""Reader for PCD v0.7 point-cloud files (DATA ascii and DATA binary).

Only the x, y, z fields are extracted; any other fields are skipped. The
binary layout is little-endian, matching the common PCD writers.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError, UnsupportedFormatError
from .voxelgrid import PointCloud

_REQUIRED = ("FIELDS", "POINTS", "DATA")
_TYPE_CODES = ("F", "I", "U")


def _scan_header(data: bytes):
    """Collect header key/value lines up to and including the DATA line."""
    fields = {}
    pos = 0
    while True:
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise ParseError("header ended before a DATA line", offset=len(data))
        line = data[pos:nl]
        line_offset = pos
        pos = nl + 1
        text = line.decode("ascii", errors="replace").strip()
        if not text or text.startswith("#"):
            continue
        key, _, rest = text.partition(" ")
        fields[key.upper()] = (rest.split(), line_offset)
        if key.upper() == "DATA":
            return fields, pos
    # unreachable


def parse_pcd(data: bytes) -> PointCloud:
    """Parse PCD file content into a :class:`PointCloud`.

    Points are returned in file order. Non-finite points are dropped and
    counted in ``cloud.dropped``.

    Raises:
        ParseError: missing, inconsistent or out-of-range header values (SIZE
            and COUNT below 1, POINTS, WIDTH or HEIGHT below 0), an unknown
            TYPE code or DATA mode, or a body that does not match the header.
        UnsupportedFormatError: DATA binary_compressed or a VERSION other than 0.7.
    """
    header, body_offset = _scan_header(data)
    for key in _REQUIRED:
        if key not in header:
            raise ParseError(f"header is missing {key}", offset=body_offset)

    version = header.get("VERSION")
    if version and version[0] and version[0][0] not in ("0.7", ".7"):
        raise UnsupportedFormatError(f"unsupported PCD version {version[0][0]}", offset=version[1])

    names, fields_offset = header["FIELDS"]
    n_fields = len(names)

    def _int_list(key, default=None):
        if key not in header:
            if default is None:
                raise ParseError(f"header is missing {key}", offset=body_offset)
            return [default] * n_fields, body_offset
        tokens, off = header[key]
        if len(tokens) != n_fields:
            raise ParseError(f"{key} lists {len(tokens)} entries for {n_fields} fields", offset=off)
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise ParseError(f"non-integer value in {key}", offset=off) from None
        if min(values, default=1) < 1:
            raise ParseError(f"{key} values must be >= 1, got {' '.join(tokens)}", offset=off)
        return values, off

    def _count(key):
        tokens, off = header[key]
        try:
            value = int(tokens[0])
        except (IndexError, ValueError):
            raise ParseError(f"{key} value is not an integer", offset=off) from None
        if value < 0:
            raise ParseError(f"{key} must be >= 0, got {value}", offset=off)
        return value

    sizes, _ = _int_list("SIZE")
    counts, _ = _int_list("COUNT", default=1)
    if "TYPE" not in header:
        raise ParseError("header is missing TYPE", offset=body_offset)
    types, types_offset = header["TYPE"]
    if len(types) != n_fields:
        raise ParseError(f"TYPE lists {len(types)} entries for {n_fields} fields", offset=types_offset)
    for t in types:
        if t not in _TYPE_CODES:
            raise ParseError(f"unknown TYPE code {t!r}", offset=types_offset)

    n_points = _count("POINTS")
    if "WIDTH" in header and "HEIGHT" in header:
        w, h = _count("WIDTH"), _count("HEIGHT")
        if w * h != n_points:
            raise ParseError(
                f"WIDTH*HEIGHT = {w * h} disagrees with POINTS = {n_points}",
                offset=header["WIDTH"][1],
            )

    xyz_idx = {}
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise ParseError(f"FIELDS does not include {axis}", offset=fields_offset)
        f = names.index(axis)
        if types[f] != "F" or sizes[f] != 4 or counts[f] != 1:
            raise ParseError(
                f"field {axis} must be a single 4-byte float, got TYPE {types[f]} SIZE {sizes[f]} COUNT {counts[f]}",
                offset=fields_offset,
            )
        xyz_idx[axis] = f

    mode_tokens, mode_offset = header["DATA"]
    mode = mode_tokens[0] if mode_tokens else ""
    if mode == "binary_compressed":
        raise UnsupportedFormatError("DATA binary_compressed is not supported", offset=mode_offset)
    if mode not in ("ascii", "binary"):
        raise ParseError(f"unknown DATA mode {mode!r}", offset=mode_offset)

    if mode == "ascii":
        pts = _parse_ascii_body(data[body_offset:], body_offset, names, counts, xyz_idx, n_points)
    else:
        pts = _parse_binary_body(data[body_offset:], body_offset, types, sizes, counts, xyz_idx, n_points)

    finite = np.isfinite(pts[:, 0]) & np.isfinite(pts[:, 1]) & np.isfinite(pts[:, 2])  # not a reduction over rows of 3
    return PointCloud(pts if finite.all() else pts.compress(finite, axis=0), dropped=int(len(pts) - finite.sum()))


def _parse_ascii_body(body: bytes, base: int, names, counts, xyz_idx, n_points) -> np.ndarray:
    token_pos = {}
    at = 0
    for f, name in enumerate(names):
        if name in xyz_idx:
            token_pos[name] = at
        at += counts[f]
    tokens_per_row = at

    text = body.decode("ascii", errors="replace")  # one character per byte
    rows = [r for r in text.splitlines() if r.strip()]
    if len(rows) != n_points:
        raise ParseError(
            f"body holds {len(rows)} points but header declares {n_points}",
            offset=base,
        )
    pts = np.empty((n_points, 3), dtype=np.float64)
    for r, row in enumerate(rows):
        tokens = row.split()
        if len(tokens) != tokens_per_row:
            raise ParseError(
                f"point {r} has {len(tokens)} values, expected {tokens_per_row}",
                offset=base + _row_start(text, r),
            )
        try:
            pts[r, 0] = float(tokens[token_pos["x"]])
            pts[r, 1] = float(tokens[token_pos["y"]])
            pts[r, 2] = float(tokens[token_pos["z"]])
        except ValueError:
            raise ParseError(f"point {r} has a non-numeric coordinate", offset=base + _row_start(text, r)) from None
    return pts


def _row_start(text: str, r: int) -> int:
    """Where the ``r``-th non-blank line of ``text`` starts: only errors need it."""
    starts = []
    at = 0
    for line in text.splitlines(keepends=True):
        if line.strip():
            starts.append(at)
        at += len(line)
    return starts[r]


def _parse_binary_body(body: bytes, base: int, types, sizes, counts, xyz_idx, n_points) -> np.ndarray:
    offsets = {}
    stride = 0
    for f in range(len(types)):
        for axis, idx in xyz_idx.items():
            if idx == f:
                offsets[axis] = stride
        stride += sizes[f] * counts[f]

    needed = n_points * stride
    if len(body) < needed:
        raise ParseError(
            f"body holds {len(body) // stride if stride else 0} points but header declares {n_points}",
            offset=base + len(body),
        )
    if len(body) > needed:
        raise ParseError(f"{len(body) - needed} trailing bytes after the last point", offset=base + needed)

    dtype = np.dtype(
        {
            "names": ["x", "y", "z"],
            "formats": ["<f4", "<f4", "<f4"],
            "offsets": [offsets["x"], offsets["y"], offsets["z"]],
            "itemsize": stride,
        }
    )
    raw = np.frombuffer(body, dtype=dtype, count=n_points)
    return np.stack([raw["x"], raw["y"], raw["z"]], axis=1).astype(np.float64)
