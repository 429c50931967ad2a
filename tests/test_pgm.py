import random
import tracemalloc

import numpy as np
import pytest

from skyrover import OccupancyGrid3D, ParseError, UnsupportedFormatError, extrude_ground, parse_pgm

from oracles import pgm_p2_bytes, pgm_p5_bytes


def test_2x2_threshold_and_flip():
    # picture rows top-down: [255, 0] over [0, 255]
    ground = parse_pgm(pgm_p2_bytes([[255, 0], [0, 255]]))
    # top picture row lands on the maximum-y map row
    assert ground.is_occupied(0, 1, 0) is False and ground.is_occupied(1, 1, 0) is True
    assert ground.is_occupied(0, 0, 0) is True and ground.is_occupied(1, 0, 0) is False


def test_1x1_binary_zero_is_occupied():
    ground = parse_pgm(pgm_p5_bytes([[0]]))
    assert ground.dims == (1, 1, 1)
    assert ground.is_occupied(0, 0, 0) is True


def test_p2_p5_equivalent_on_same_pattern():
    rng = random.Random(7)
    rows = [[rng.randrange(256) for _ in range(8)] for _ in range(8)]
    assert parse_pgm(pgm_p2_bytes(rows)) == parse_pgm(pgm_p5_bytes(rows))


def test_threshold_boundary_is_exclusive():
    ground = parse_pgm(pgm_p2_bytes([[127, 128]]))
    assert ground.is_occupied(0, 0, 0) is True  # below threshold: obstacle
    assert ground.is_occupied(1, 0, 0) is False  # at threshold: free


def test_threshold_parameter():
    ground = parse_pgm(pgm_p2_bytes([[10, 200]]), occupied_threshold=250)
    assert ground.is_occupied(0, 0, 0) and ground.is_occupied(1, 0, 0)


@pytest.mark.parametrize("threshold", [-(10**30), -1, 0, 1, 255, 256, 10**30])
@pytest.mark.parametrize("encode", [pgm_p2_bytes, pgm_p5_bytes], ids=["p2", "p5"])
def test_a_threshold_outside_the_samples_frees_or_fills_the_map(encode, threshold):
    rows = [[0, 1, 254], [255, 128, 127]]
    layer = [int(v < threshold) for row in reversed(rows) for v in row]
    assert parse_pgm(encode(rows), occupied_threshold=threshold).cells.tolist() == layer


def test_a_large_p5_map_peaks_at_a_few_rasters():
    """A 1500x1500 P5 map is thresholded as uint8: the parse allocates at most four rasters' worth at its peak."""
    width, height = 1500, 1500
    pixels = np.random.default_rng(25).integers(0, 200, (height, width), dtype=np.uint8)
    data = b"P5\n%d %d\n199\n" % (width, height) + pixels.tobytes()
    tracemalloc.start()
    try:
        grid = parse_pgm(data, occupied_threshold=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * width * height, peak
    assert np.array_equal(grid.cells, (pixels[::-1] < 100).reshape(-1))


def test_comments_allowed_between_header_tokens():
    data = b"P2\n# c1\n2 # inline\n# c2\n1\n255\n7 200\n"
    ground = parse_pgm(data)
    assert ground.dims == (2, 1, 1)
    assert ground.is_occupied(0, 0, 0) and not ground.is_occupied(1, 0, 0)


def test_bad_magic():
    with pytest.raises(UnsupportedFormatError, match="P2 or P5"):
        parse_pgm(b"P6\n1 1\n255\n\x00")


def test_maxval_above_255_rejected():
    with pytest.raises(ParseError, match="maxval"):
        parse_pgm(pgm_p2_bytes([[0]], maxval=65535))


def test_non_integer_dimensions():
    with pytest.raises(ParseError, match="integers"):
        parse_pgm(b"P2\nw h\n255\n0\n")


def test_short_p5_raster():
    data = pgm_p5_bytes([[0, 0], [0, 0]])[:-1]
    with pytest.raises(ParseError, match="expected 4"):
        parse_pgm(data)


def test_short_p2_raster():
    with pytest.raises(ParseError, match="expected 4"):
        parse_pgm(b"P2\n2 2\n255\n0 0 0\n")


def test_sample_above_maxval_rejected():
    with pytest.raises(ParseError, match="exceeds maxval"):
        parse_pgm(pgm_p2_bytes([[200]], maxval=100))


def test_negative_p2_sample_rejected():
    with pytest.raises(ParseError, match="negative"):
        parse_pgm(b"P2 2 1 255\n-5 200")


@pytest.mark.parametrize(
    "data, message, offset",
    [
        (b"P2 3 1 255\n1 2 300", "exceeds maxval 255", 15),
        (b"P2 3 1 255\n1 -2 -3", "negative", 13),
        (b"P2 3 1 255\n1\r\n\t 2.5 x", "non-integer sample", 16),
        (b"P2 2 2 9\n0 9\n9 10\n", "exceeds maxval 9", 15),
        (b"P5 3 1 100\n\x01\x65\xff", "exceeds maxval 100", 12),
    ],
    ids=["p2-over-maxval", "p2-negative", "p2-non-integer", "p2-second-row", "p5-over-maxval"],
)
def test_bad_sample_is_reported_at_its_first_byte(data, message, offset):
    with pytest.raises(ParseError, match=message) as info:
        parse_pgm(data)
    assert info.value.offset == offset


@pytest.mark.parametrize(
    "data, message, offset",
    [
        (b"P2 3 1", "file ended inside the header", 6),
        (b"P5 3 1 # no maxval\n", "file ended inside the header", 19),
        (b"P2 0 1 255\n", "dimensions must be positive, got 0x1", 3),
        (b"P5 2 1 255\n\x00\x01\x02", "1 trailing bytes after the raster", 13),
    ],
    ids=["header-ends-early", "header-ends-in-a-comment", "zero-dimensions", "p5-trailing-bytes"],
)
def test_bad_header_or_raster_length_is_reported_at_its_offset(data, message, offset):
    with pytest.raises(ParseError, match=message) as info:
        parse_pgm(data)
    assert type(info.value) is ParseError
    assert info.value.offset == offset


def test_resolution_attached():
    assert parse_pgm(pgm_p5_bytes([[0]]), resolution=0.25).resolution == 0.25


@pytest.mark.parametrize("walls", [False, True])
@pytest.mark.parametrize("nz", [1, 2, 3, 4])
@pytest.mark.parametrize("encode", [pgm_p2_bytes, pgm_p5_bytes], ids=["p2", "p5"])
def test_an_extruded_map_is_its_flipped_pixel_rows_stacked(encode, nz, walls):
    """Seeded differential check against layers built straight from the picture rows."""
    rng = random.Random(f"{encode.__name__}-{nz}-{walls}")
    for _ in range(5):
        width, height = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.randrange(256) for _ in range(width)] for _ in range(height)]
        threshold = rng.randrange(1, 256)
        grid = extrude_ground(parse_pgm(encode(rows), 0.5, threshold), nz, walls=walls)
        layer = [int(v < threshold) for row in reversed(rows) for v in row]  # the bottom picture row is y = 0
        upper = layer if walls else [0] * len(layer)
        assert grid == OccupancyGrid3D((0.0, 0.0, 0.0), 0.5, (width, height, nz), layer + upper * (nz - 1))
