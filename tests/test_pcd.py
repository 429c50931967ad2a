import math
import random
import struct

import numpy as np
import pytest

from skyrover import ParseError, UnsupportedFormatError, parse_pcd

from oracles import pcd_ascii_bytes, pcd_binary_bytes


def test_ascii_three_points_transcribed():
    data = pcd_ascii_bytes([(0, 0, 0), (1, 0, 0), (0, 2, 0)])
    cloud = parse_pcd(data)
    assert cloud.count == 3
    assert cloud.dropped == 0
    assert np.array_equal(cloud.points, [[0, 0, 0], [1, 0, 0], [0, 2, 0]])


def test_ascii_truncated_body_reports_counts():
    data = pcd_ascii_bytes([(0, 0, 0)], points_override=2)
    with pytest.raises(ParseError, match=r"holds 1 points but header declares 2"):
        parse_pcd(data)


def test_binary_matches_ascii_for_same_points():
    points = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 2.0, 0.0)]
    assert parse_pcd(pcd_binary_bytes(points)) == parse_pcd(pcd_ascii_bytes(points))


def test_binary_with_extra_field_skips_it():
    points = [(1.5, -2.25, 3.0), (0.125, 0.5, -0.75)]
    cloud = parse_pcd(pcd_binary_bytes(points, extra_field=True))
    assert np.allclose(cloud.points, points)


def test_ascii_with_extra_field_skips_it():
    points = [(4.0, 5.0, 6.0)]
    cloud = parse_pcd(pcd_ascii_bytes(points, extra_field=True))
    assert np.array_equal(cloud.points, [[4.0, 5.0, 6.0]])


def test_nonfinite_points_dropped_and_counted():
    data = pcd_ascii_bytes([(0, 0, 0), ("nan", 1, 1), (2, 2, 2), (3, "inf", 3)])
    cloud = parse_pcd(data)
    assert cloud.count == 2
    assert cloud.dropped == 2
    assert np.array_equal(cloud.points, [[0, 0, 0], [2, 2, 2]])


def test_binary_nonfinite_dropped():
    data = pcd_binary_bytes([(0, 0, 0), (math.nan, 1, 1)])
    cloud = parse_pcd(data)
    assert cloud.count == 1 and cloud.dropped == 1


_COORDS = (0.0, -0.0, 1.5, -2.25, math.nan, math.inf, -math.inf)


def _finite_rows_reference(points, as_float32):
    """The rows a parse keeps and the count it drops, one row at a time with ``math.isfinite``."""
    rows = [[float(np.float32(v)) if as_float32 else float(v) for v in p] for p in points]
    kept = [r for r in rows if all(map(math.isfinite, r))]
    return np.array(kept, dtype=np.float64).reshape(-1, 3), len(rows) - len(kept)


def _clouds_with_non_finite_values():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 80)
        yield [tuple(rng.choice(_COORDS + (rng.uniform(-9, 9),) * 4) for _ in range(3)) for _ in range(n)]
    rng = random.Random(40)
    yield [(rng.uniform(-9, 9), -0.0, rng.choice((0.0, -0.0))) for _ in range(50)]  # every point finite
    yield [tuple(bad if a == axis else 1.0 for a in range(3)) for bad in _COORDS[4:] for axis in range(3)]  # all dropped
    yield []


@pytest.mark.parametrize(
    "encode, as_float32", [(pcd_ascii_bytes, False), (pcd_binary_bytes, True)], ids=["ascii", "binary"]
)
def test_finite_filter_matches_a_per_row_reference(encode, as_float32):
    for points in _clouds_with_non_finite_values():
        cloud = parse_pcd(encode(points))
        want, dropped = _finite_rows_reference(points, as_float32)
        assert cloud.dropped == dropped
        assert cloud.points.shape == want.shape
        assert np.array_equal(np.signbit(cloud.points), np.signbit(want))
        assert cloud.points.tobytes() == want.tobytes()


def test_binary_truncated_body():
    data = pcd_binary_bytes([(0, 0, 0), (1, 1, 1)], truncate=4)
    with pytest.raises(ParseError, match=r"holds 1 points but header declares 2"):
        parse_pcd(data)


def test_binary_compressed_rejected_by_name():
    data = pcd_ascii_bytes([(0, 0, 0)]).replace(b"DATA ascii", b"DATA binary_compressed")
    with pytest.raises(UnsupportedFormatError, match="binary_compressed"):
        parse_pcd(data)


def test_missing_data_line_reports_offset():
    data = pcd_ascii_bytes([(0, 0, 0)])
    headless = data[: data.find(b"DATA")]
    with pytest.raises(ParseError, match="byte offset") as err:
        parse_pcd(headless)
    assert err.value.offset == len(headless)


def test_missing_points_key():
    data = pcd_ascii_bytes([(0, 0, 0)])
    broken = data.replace(b"POINTS 1\n", b"")
    with pytest.raises(ParseError, match="POINTS"):
        parse_pcd(broken)


def test_missing_fields_key():
    data = pcd_ascii_bytes([(0, 0, 0)])
    broken = data.replace(b"FIELDS x y z\n", b"")
    with pytest.raises(ParseError, match="FIELDS"):
        parse_pcd(broken)


def test_xyz_must_be_4_byte_floats():
    data = pcd_ascii_bytes([(0, 0, 0)]).replace(b"SIZE 4 4 4", b"SIZE 8 8 8")
    with pytest.raises(ParseError, match="4-byte float"):
        parse_pcd(data)


def test_width_height_points_consistency():
    data = pcd_ascii_bytes([(0, 0, 0)]).replace(b"WIDTH 1", b"WIDTH 7")
    with pytest.raises(ParseError, match="disagrees"):
        parse_pcd(data)


def test_roundtrip_random_clouds_ascii_and_binary():
    import random

    rng = random.Random(20)
    for _ in range(25):
        pts = [
            (
                round(rng.uniform(-50, 50), 3),
                round(rng.uniform(-50, 50), 3),
                round(rng.uniform(-50, 50), 3),
            )
            for _ in range(rng.randrange(1, 40))
        ]
        via_ascii = parse_pcd(pcd_ascii_bytes(pts))
        via_binary = parse_pcd(pcd_binary_bytes(pts))
        assert via_ascii.count == len(pts)
        # binary stores float32; compare at float32 precision
        assert np.array_equal(
            via_ascii.points.astype(np.float32), via_binary.points.astype(np.float32)
        )


def _pcd(mode, body, **lines):
    """A PCD file of x, y, z floats with some header lines replaced; a line set to None is left out."""
    header = {"VERSION": "0.7", "FIELDS": "x y z", "SIZE": "4 4 4", "TYPE": "F F F", "COUNT": "1 1 1"}
    header.update(WIDTH="1", HEIGHT="1", POINTS="1", DATA=mode)
    header.update(lines)
    return "".join(f"{k} {v}\n" for k, v in header.items() if v is not None).encode("ascii") + body


_ONE_BINARY_POINT = struct.pack("<fff", 1.0, 2.0, 3.0)
_FOUR_FIELDS = {"FIELDS": "x y z q", "SIZE": "4 4 4 4", "COUNT": "1 1 1 1"}


# each case: the file, the error, the message, and where the error points: a
# header line by its key, or a byte offset counted from the start of the body
@pytest.mark.parametrize(
    "data, error, message, at",
    [
        (_pcd("ascii", b"1 2\n", COUNT="-1 1 1"), ParseError, "COUNT values must be >= 1", "COUNT"),
        (_pcd("ascii", b"2 3\n", COUNT="1 0 1"), ParseError, "COUNT values must be >= 1", "COUNT"),
        (_pcd("binary", _ONE_BINARY_POINT, SIZE="4 4 -4"), ParseError, "SIZE values must be >= 1", "SIZE"),
        (
            _pcd("binary", _ONE_BINARY_POINT * 2, POINTS="-1", WIDTH=None, HEIGHT=None),
            ParseError,
            "POINTS must be >= 0",
            "POINTS",
        ),
        (_pcd("ascii", b"1 2 3\n", WIDTH="-1", HEIGHT="-1"), ParseError, "WIDTH must be >= 0", "WIDTH"),
        (_pcd("ascii", b"1 2 3\n", HEIGHT="-1"), ParseError, "HEIGHT must be >= 0", "HEIGHT"),
        (_pcd("ascii", b"1 2 3\n", POINTS="one"), ParseError, "POINTS value is not an integer", "POINTS"),
        (_pcd("ascii", b"1 2 3\n", HEIGHT="1.0"), ParseError, "HEIGHT value is not an integer", "HEIGHT"),
        (_pcd("ascii", b"1 2 3\n", VERSION="0.6"), UnsupportedFormatError, "unsupported PCD version", "VERSION"),
        (_pcd("ascii", b"1 2 3\n", SIZE="4 4"), ParseError, "SIZE lists 2 entries for 3 fields", "SIZE"),
        (_pcd("ascii", b"1 2 3\n", COUNT="1 1 1 1"), ParseError, "COUNT lists 4 entries for 3 fields", "COUNT"),
        (_pcd("ascii", b"1 2 3\n", TYPE="F F"), ParseError, "TYPE lists 2 entries for 3 fields", "TYPE"),
        (_pcd("ascii", b"1 2 3\n", SIZE="4 four 4"), ParseError, "non-integer value in SIZE", "SIZE"),
        (_pcd("ascii", b"1 2 3\n", COUNT="1 1 1.0"), ParseError, "non-integer value in COUNT", "COUNT"),
        (_pcd("ascii", b"1 2 3\n", FIELDS="x y w"), ParseError, "FIELDS does not include z", "FIELDS"),
        (_pcd("text", b"1 2 3\n"), ParseError, "unknown DATA mode 'text'", "DATA"),
        (_pcd("ascii", b"1 2 3 4\n", TYPE="F F F X", **_FOUR_FIELDS), ParseError, "unknown TYPE code 'X'", "TYPE"),
        (_pcd("binary", _ONE_BINARY_POINT * 2, TYPE="F F F X", **_FOUR_FIELDS), ParseError, "unknown TYPE code 'X'", "TYPE"),
        (_pcd("ascii", b"1 2\n"), ParseError, "point 0 has 2 values, expected 3", 0),
        (_pcd("ascii", b"1 two 3\n"), ParseError, "point 0 has a non-numeric coordinate", 0),
        (_pcd("ascii", b"1 2 3\n7 x 9\n4 5 6\n", WIDTH="3", POINTS="3"), ParseError, "point 1 has a non-numeric", 6),
        (_pcd("ascii", b"1 2 3\r\n\r\n 7 9\r\n", WIDTH="2", POINTS="2"), ParseError, "point 1 has 2 values", 9),
        (_pcd("binary", _ONE_BINARY_POINT + b"\0\0\0\0"), ParseError, "4 trailing bytes after the last point", 12),
    ],
    ids=[
        "negative-count", "zero-count", "negative-size", "negative-points", "negative-width", "negative-height",
        "points-not-an-int", "height-not-an-int", "version", "size-length", "count-length", "type-length",
        "size-not-an-int", "count-not-an-int", "missing-axis", "data-mode", "ascii-type-code", "binary-type-code",
        "ascii-value-count", "ascii-non-numeric", "ascii-non-numeric-row-2", "ascii-value-count-after-blank-line",
        "binary-trailing-bytes",
    ],
)
def test_bad_header_and_body_values_are_errors_at_their_offset(data, error, message, at):
    with pytest.raises(error, match=message) as info:
        parse_pcd(data)
    if isinstance(at, str):
        assert info.value.offset == data.index(f"{at} ".encode("ascii"))
    else:
        assert info.value.offset == data.index(b"\n", data.index(b"DATA ")) + 1 + at


def test_bad_ascii_row_is_reported_at_its_first_byte():
    header = b"VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\nWIDTH 3\nHEIGHT 1\nPOINTS 3\nDATA ascii\n"
    assert len(header) == 96
    with pytest.raises(ParseError, match=r"point 1 has a non-numeric coordinate \(byte offset 102\)"):
        parse_pcd(header + b"1 2 3\n7 x 9\n4 5 6\n")
