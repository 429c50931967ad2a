"""Reader for PGM occupancy images (P2 ascii and P5 binary, maxval <= 255).

Dark pixels are obstacles: a value below the threshold maps to occupancy 1.
The result is a one-layer grid: pixel (x, y) is cell (x, y, 0). Image row 0
(the top of the picture) maps to the maximum-y row, so the grid is y-up.
"""

from __future__ import annotations

import re
from itertools import islice

import numpy as np

from .errors import ParseError, UnsupportedFormatError
from .mapf import as_int, as_positive
from .voxelgrid import OccupancyGrid3D, cell_count

DEFAULT_OCCUPIED_THRESHOLD = 128
_SAMPLE = re.compile(rb"\S+")  # a P2 sample: the same ASCII whitespace splits them as bytes.split()


def _header_tokens(data: bytes, n_tokens: int):
    """Yield the first header tokens, skipping '#' comments; return end offset."""
    tokens = []
    pos = 0
    while len(tokens) < n_tokens:
        if pos >= len(data):
            raise ParseError("file ended inside the header", offset=len(data))
        c = data[pos]
        if c in b" \t\r\n":
            pos += 1
        elif c == ord("#"):
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        else:
            end = pos
            while end < len(data) and data[end] not in b" \t\r\n#":
                end += 1
            tokens.append((data[pos:end], pos))
            pos = end
    return tokens, pos


def _is_int(token: bytes) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _sample_start(data: bytes, pos: int, n: int) -> int:
    """Where the ``n``-th whitespace-separated sample from ``pos`` starts: only errors need it."""
    return next(islice(_SAMPLE.finditer(data, pos), n, None)).start()


def parse_pgm(
    data: bytes,
    resolution: float = 1.0,
    occupied_threshold: int = DEFAULT_OCCUPIED_THRESHOLD,
) -> OccupancyGrid3D:
    """Parse PGM bytes into an :class:`OccupancyGrid3D` of dims (width, height, 1) at the origin.

    ``resolution`` is attached to the result (PGM itself carries no scale).

    Raises:
        ValueError: ``resolution`` is not positive and finite, or ``occupied_threshold`` is not an integer.
        UnsupportedFormatError: magic number is neither P2 nor P5.
        ParseError: bad dimensions or maxval, a short/overlong raster, or a
            sample outside 0..maxval.
        CapacityError: width * height is above the cell cap, checked before the raster is read.
    """
    resolution = as_positive(resolution, "resolution")
    occupied_threshold = as_int(occupied_threshold, "occupied_threshold")
    tokens, body_pos = _header_tokens(data, 4)
    magic = tokens[0][0]
    if magic not in (b"P2", b"P5"):
        raise UnsupportedFormatError(f"bad magic {magic!r}, expected P2 or P5", offset=tokens[0][1])
    try:
        width = int(tokens[1][0])
        height = int(tokens[2][0])
        maxval = int(tokens[3][0])
    except ValueError:
        raise ParseError("width, height, and maxval must be integers", offset=tokens[1][1]) from None
    if width < 1 or height < 1:
        raise ParseError(f"dimensions must be positive, got {width}x{height}", offset=tokens[1][1])
    if not 0 < maxval <= 255:
        raise ParseError(f"maxval {maxval} outside the supported range 1..255", offset=tokens[3][1])

    n_pixels = cell_count((width, height, 1))
    if magic == b"P2":
        raw = data[body_pos:].split()
        if len(raw) != n_pixels:
            raise ParseError(f"raster holds {len(raw)} samples, expected {n_pixels}", offset=body_pos)
        try:
            pixels = np.array([int(t) for t in raw], dtype=np.int64)
        except ValueError:
            n = next(n for n, t in enumerate(raw) if not _is_int(t))
            raise ParseError("non-integer sample in raster", offset=_sample_start(data, body_pos, n)) from None
    else:
        # exactly one whitespace byte separates maxval from the raster
        body = memoryview(data)[body_pos + 1 :]  # a view: the samples stay the caller's bytes, as uint8
        if len(body) < n_pixels:
            raise ParseError(f"raster holds {len(body)} bytes, expected {n_pixels}", offset=len(data))
        if len(body) > n_pixels:
            raise ParseError(f"{len(body) - n_pixels} trailing bytes after the raster", offset=body_pos + 1 + n_pixels)
        pixels = np.frombuffer(body, dtype=np.uint8)

    if pixels.min() < 0 or pixels.max() > maxval:  # reductions: no temporary the size of the image
        n = int(np.argmax((pixels < 0) | (pixels > maxval)))  # the first bad sample
        at = _sample_start(data, body_pos, n) if magic == b"P2" else body_pos + 1 + n
        raise ParseError(f"sample is negative or exceeds maxval {maxval}", offset=at)

    image = pixels.reshape(height, width)[::-1]  # row 0 = top of the picture, so flip it to the grid's j order
    threshold = min(max(occupied_threshold, 0), 256)  # below 0 nothing is occupied, above 255 everything is
    occupancy = (image < threshold).reshape(-1).view(np.uint8)  # the one image-sized temporary: 0/1 bools read as bytes
    return OccupancyGrid3D((0.0, 0.0, 0.0), resolution, (width, height, 1), occupancy)
