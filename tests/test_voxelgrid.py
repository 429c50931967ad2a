import copy
import hashlib
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from skyrover import (
    CapacityError,
    OccupancyGrid3D,
    ParseError,
    PointCloud,
    Scenario,
    UnsupportedFormatError,
    empty_grid,
    extrude_ground,
    grid_from_bytes,
    grid_to_bytes,
    parse_pcd,
    parse_pgm,
    rasterize,
    warehouse_grid,
)
from skyrover.voxelgrid import BLOCK_SIZE

from oracles import pcd_binary_bytes, pgm_p5_bytes


def test_refused_grid_writes_no_file(tmp_path, monkeypatch):
    import skyrover.voxelgrid
    from skyrover import write_grid

    def refuse(grid):
        raise ValueError("refused")

    monkeypatch.setattr(skyrover.voxelgrid, "grid_to_bytes", refuse)
    path = tmp_path / "g.grid"
    with pytest.raises(ValueError, match="refused"):
        write_grid(empty_grid((2, 2, 1)), path)
    assert not path.exists()


def _witness_check(cloud, grid):
    """Independent per-point pass for the membership invariant, both ways."""
    nx, ny, nz = grid.dims
    ox, oy, oz = grid.origin
    res = grid.resolution
    expected = set()
    for p in cloud.points:
        cell = []
        for a, o, n in ((0, ox, nx), (1, oy, ny), (2, oz, nz)):
            v = (p[a] - o) / res
            idx = math.floor(v)
            if p[a] == o + n * res:  # exactly on the max face
                idx = n - 1
            cell.append(idx)
        if all(0 <= cell[a] < (nx, ny, nz)[a] for a in range(3)):
            expected.add(tuple(cell))
    actual = {
        (i, j, k)
        for k in range(nz)
        for j in range(ny)
        for i in range(nx)
        if grid.is_occupied(i, j, k)
    }
    return expected, actual


def test_single_point_occupies_exactly_one_of_eight_cells():
    cloud = PointCloud(np.array([[0.5, 0.5, 0.5]]))
    grid = rasterize(cloud, 1.0, bounds=((0, 0, 0), (2, 2, 2)))
    assert grid.dims == (2, 2, 2)
    assert grid.occupied_count == 1
    assert grid.is_occupied(0, 0, 0)


def test_empty_cloud_explicit_bounds_all_free():
    grid = rasterize(PointCloud(np.empty((0, 3))), 1.0, bounds=((0, 0, 0), (3, 3, 3)))
    assert grid.dims == (3, 3, 3)
    assert grid.occupied_count == 0


def test_lattice_of_cell_centers_fills_grid():
    pts = [(i + 0.5, j + 0.5, k + 0.5) for i in range(10) for j in range(10) for k in range(10)]
    cloud = PointCloud(np.array(pts))
    grid = rasterize(cloud, 1.0, bounds=((0, 0, 0), (10, 10, 10)))
    assert grid.occupied_count == 1000
    expected, actual = _witness_check(cloud, grid)
    assert expected == actual


def test_max_boundary_clamps_into_last_cell():
    cloud = PointCloud(np.array([[2.0, 2.0, 2.0]]))
    grid = rasterize(cloud, 1.0, bounds=((0, 0, 0), (2, 2, 2)))
    assert grid.is_occupied(1, 1, 1)
    assert grid.occupied_count == 1


def test_points_outside_explicit_bounds_ignored():
    cloud = PointCloud(np.array([[5.0, 5.0, 5.0], [-1.0, 0.5, 0.5], [0.5, 0.5, 0.5]]))
    grid = rasterize(cloud, 1.0, bounds=((0, 0, 0), (2, 2, 2)))
    assert grid.occupied_count == 1 and grid.is_occupied(0, 0, 0)


def test_default_bounds_pad_the_bounding_box():
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    grid = rasterize(cloud, 1.0, padding=1)
    assert grid.origin == (-1.0, -1.0, -1.0)
    assert grid.dims == (3, 3, 3)
    expected, actual = _witness_check(cloud, grid)
    assert expected == actual


def test_empty_cloud_without_bounds_rejected():
    with pytest.raises(ValueError, match="explicit bounds"):
        rasterize(PointCloud(np.empty((0, 3))), 1.0)


@pytest.mark.parametrize("resolution", [0.0, -1.0, math.nan, math.inf])
def test_rasterize_rejects_a_resolution_the_grid_would_reject(resolution):
    with pytest.raises(ValueError, match="resolution must be positive and finite"):
        rasterize(PointCloud(np.array([[0.5, 0.5, 0.5]])), resolution)


@pytest.mark.parametrize(
    "resolution, bounds, padding",
    [
        (0.5, ((0, 0, 0), (math.inf, 1, 1)), 1),
        (0.5, ((-math.inf, 0, 0), (1, 1, 1)), 1),
        (1e308, None, 1),  # the padded box is 2e308 wide
        (1e300, None, 10**9),  # the padding alone is past the largest float
        (1.0, None, 10**400),  # so is this padding, before it meets the resolution
        (1e-310, ((0, 0, 0), (1, 1, 1)), 1),  # 1e310 cells along each axis
    ],
    ids=["inf-max", "inf-min", "padded-overflow", "padding-overflow", "padding-past-float", "subnormal-resolution"],
)
def test_non_finite_bounds_or_extent_are_value_errors(resolution, bounds, padding):
    with pytest.raises(ValueError, match="must be finite"):
        rasterize(PointCloud(np.array([[0.5, 0.5, 0.5]])), resolution, bounds=bounds, padding=padding)


@pytest.mark.parametrize("resolution", [0.0, math.nan, math.inf])
def test_ground_map_rejects_a_resolution_the_grid_would_reject(resolution):
    with pytest.raises(ValueError, match="resolution must be positive and finite"):
        parse_pgm(pgm_p5_bytes([[255, 255], [255, 255]]), resolution)


def test_capacity_cap():
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1000.0, 1000.0, 1000.0]]))
    with pytest.raises(CapacityError, match="above the cap of 268435456"):  # ~8e9 cells, raised before allocating
        rasterize(cloud, 0.5)


def test_permutation_invariance():
    rng = random.Random(5)
    pts = [(rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(200)]
    a = rasterize(PointCloud(np.array(pts)), 0.7)
    shuffled = pts[:]
    rng.shuffle(shuffled)
    b = rasterize(PointCloud(np.array(shuffled)), 0.7)
    assert a == b and grid_to_bytes(a) == grid_to_bytes(b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_membership_invariant_random_clouds(data):
    n = data.draw(st.integers(1, 120))
    coords = data.draw(
        st.lists(
            st.tuples(
                st.floats(-8, 8, allow_nan=False), st.floats(-8, 8, allow_nan=False), st.floats(-8, 8, allow_nan=False)
            ),
            min_size=n,
            max_size=n,
        )
    )
    res = data.draw(st.sampled_from((0.5, 1.0, 1.7)))
    cloud = PointCloud(np.array(coords))
    grid = rasterize(cloud, res)
    expected, actual = _witness_check(cloud, grid)
    assert expected == actual


@pytest.mark.parametrize("copies", [2, 5])
def test_repeated_points_rasterize_like_the_distinct_ones(copies):
    rng = random.Random(copies)
    pts = [(rng.uniform(0, 4), rng.uniform(0, 3), rng.uniform(0, 2)) for _ in range(150)]
    pts += [(4.0, 1.5, 1.0), (2.0, 3.0, 0.5), (1.0, 1.0, 2.0), (4.0, 3.0, 2.0)]  # on the max faces
    repeated = [p for p in pts for _ in range(copies)]
    rng.shuffle(repeated)
    bounds = ((0, 0, 0), (4, 3, 2))
    once = rasterize(PointCloud(np.array(pts)), 0.5, bounds=bounds)
    assert grid_to_bytes(rasterize(PointCloud(np.array(repeated)), 0.5, bounds=bounds)) == grid_to_bytes(once)
    assert once.is_occupied(7, 5, 3)  # the corner point, clamped into the last cell


def test_rasterized_noisy_capture_is_pinned():
    rng = random.Random(13)
    pts = []
    for n in range(6000):
        if n % 97 == 0:
            pts.append((math.nan, 1.0, 1.0) if n % 2 else (2.0, math.inf, 0.5))
        elif n % 3 == 0:  # a wall at x = 0, else the floor at z = 0, both with sensor noise
            pts.append((rng.gauss(0, 0.02), rng.uniform(0, 5), rng.uniform(0, 2.5)))
        else:
            pts.append((rng.uniform(0, 6), rng.uniform(0, 5), rng.gauss(0, 0.03)))
    cloud = parse_pcd(pcd_binary_bytes(pts))
    assert cloud.dropped == 62
    data = grid_to_bytes(rasterize(cloud, 0.1))
    assert hashlib.sha256(data).hexdigest() == "b79e00f075ece7d61bdfd70a805be8cee534140648ad17b9400b1cce92af9886"


def test_signed_zero_origins_are_pinned():
    # with padding 0 a cloud whose minimum is a zero of either sign writes that sign into the header
    digest = hashlib.sha256()
    for case in range(60):
        rng = random.Random(case)
        pts = [[rng.choice((0.0, -0.0, 0.5, rng.uniform(0, 2))) for _ in range(3)] for _ in range(rng.randint(1, 40))]
        digest.update(grid_to_bytes(rasterize(PointCloud(np.array(pts)), 0.5, padding=rng.choice((0, 1)))))
    assert digest.hexdigest() == "28f66322fd1ea8b0cea49589bfbb254072a2e5019663f66df789d11cbaa31eca"


def _zero_signed_origin(points):
    """Each axis's minimum, where a zero minimum takes the sign of the axis's last zero in point order."""
    origin = []
    for a in range(3):
        low = min(p[a] for p in points)
        if low == 0:
            low = [p[a] for p in points if p[a] == 0][-1]
        origin.append(low)
    return tuple(origin)


def test_zero_minima_take_the_sign_of_the_last_zero():
    for case in range(150):
        rng = random.Random(case)
        pts = [[rng.choice((0.0, -0.0, 0.5, rng.uniform(0, 3))) for _ in range(3)] for _ in range(rng.randint(1, 300))]
        cloud = PointCloud(np.array(pts))
        grid = rasterize(cloud, 0.5, padding=0)
        origin = _zero_signed_origin(pts)
        assert [math.copysign(1, v) for v in grid.origin] == [math.copysign(1, v) for v in origin]
        assert grid_to_bytes(grid).split(b"\n")[1] == ("origin %r %r %r" % origin).encode("ascii")
        highs = [max(p[a] for p in pts) for a in range(3)]
        assert grid.dims == tuple(max(1, math.ceil((hi - lo) / 0.5)) for lo, hi in zip(origin, highs))
        expected, actual = _witness_check(cloud, grid)
        assert expected == actual


# -- extrusion ---------------------------------------------------------------


def _map_2x2():
    # occupied only at (x=0, y=1): the top-left pixel
    return parse_pgm(pgm_p5_bytes([[0, 255], [255, 255]]))


def test_extrude_default_single_layer():
    grid = extrude_ground(_map_2x2(), 3)
    occupied = {
        (i, j, k) for i in range(2) for j in range(2) for k in range(3) if grid.is_occupied(i, j, k)
    }
    assert occupied == {(0, 1, 0)}


def test_extrude_walls_mode():
    grid = extrude_ground(_map_2x2(), 3, walls=True)
    occupied = {
        (i, j, k) for i in range(2) for j in range(2) for k in range(3) if grid.is_occupied(i, j, k)
    }
    assert occupied == {(0, 1, 0), (0, 1, 1), (0, 1, 2)}


def test_extrude_counts_by_mode():
    rng = random.Random(11)
    ground = parse_pgm(pgm_p5_bytes([[255 * rng.randrange(2) for _ in range(8)] for _ in range(8)]))
    flat = extrude_ground(ground, 4)
    tall = extrude_ground(ground, 4, walls=True)
    assert flat.occupied_count == ground.occupied_count
    assert tall.occupied_count == ground.occupied_count * 4


def test_extrusion_takes_a_one_layer_grid_only():
    ground = _map_2x2()
    assert extrude_ground(ground, 1) == ground
    with pytest.raises(ValueError, match="one-layer grid, got 2 layers"):
        extrude_ground(extrude_ground(ground, 2), 3)


def test_extrusion_keeps_the_origin_and_resolution():
    ground = OccupancyGrid3D((-1.5, 2.0, 0.25), 0.5, (2, 1, 1), [1, 0])
    grid = extrude_ground(ground, 3, walls=True)
    assert (grid.origin, grid.resolution, grid.dims) == ((-1.5, 2.0, 0.25), 0.5, (2, 1, 3))
    assert grid.cells.tolist() == [1, 0] * 3


def test_extrusion_over_the_cell_cap_fails_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="above the cap"):
            extrude_ground(_map_2x2(), 10**12, walls=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- SKYGRID1 round trips ------------------------------------------------------


def test_unit_grid_roundtrip():
    g = empty_grid((1, 1, 1))
    assert grid_from_bytes(grid_to_bytes(g)) == g


def test_warehouse_style_grid_roundtrip():
    from skyrover import warehouse_grid

    g = warehouse_grid((80, 60, 10))
    b = grid_to_bytes(g)
    g2 = grid_from_bytes(b)
    assert g2 == g
    assert grid_to_bytes(g2) == b


def test_grid_equality_compares_cells_without_caching_a_copy():
    from skyrover import warehouse_grid

    a = warehouse_grid((40, 30, 6), shelf_rows=4)
    b = grid_from_bytes(grid_to_bytes(a))
    assert a == b
    assert "occ_bytes" not in a.__dict__ and "occ_bytes" not in b.__dict__
    flipped = a.cells.copy()
    flipped[-1] ^= 1
    assert a != OccupancyGrid3D(a.origin, a.resolution, a.dims, flipped)
    assert a != OccupancyGrid3D((1.0, 0.0, 0.0), a.resolution, a.dims, a.cells)


def test_grid_cells_are_a_view_of_occ_bytes():
    g = OccupancyGrid3D((0, 0, 0), 1.0, (3, 2, 1), [0, 1, 0, 0, 0, 1])
    assert type(g.occ_bytes) is bytes and g.occ_bytes is g.cells.base
    assert g.occ_bytes == bytes([0, 1, 0, 0, 0, 1])
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin.occ_bytes is twin.cells.base


def test_cells_points_and_occupancy_cannot_be_made_writeable():
    grid = empty_grid((2, 2, 1))
    cloud = PointCloud(np.array([[0.5, 0.5, 0.5]]))
    ground = parse_pgm(pgm_p5_bytes([[255, 0]]))
    for value, name in ((grid, "cells"), (cloud, "points"), (ground, "cells")):
        for twin in (value, copy.deepcopy(value), pickle.loads(pickle.dumps(value))):  # copies are built anew
            assert twin == value
            with pytest.raises(ValueError, match="WRITEABLE"):
                getattr(twin, name).setflags(write=True)


def test_first_cell_lookup_on_a_read_grid_copies_nothing():
    data = grid_to_bytes(warehouse_grid((128, 128, 64), shelf_rows=8))  # 1 MiB of cells
    grid = grid_from_bytes(data)
    tracemalloc.start()
    try:
        occ = grid.occ_bytes
        occupied = grid.is_occupied(0, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(occ) == 2**20 and not occupied
    assert peak < 2**10


@pytest.mark.parametrize(
    "build",
    [
        lambda: empty_grid((100000, 100000, 100000)),
        lambda: empty_grid((2**14, 2**14, 2)),
        lambda: warehouse_grid((2000, 2000, 100)),
        lambda: Scenario(grid={"kind": "empty", "dims": [2**14, 2**14, 2]}, agents=()).materialize_grid(),
        lambda: Scenario(grid={"kind": "warehouse", "dims": [2000, 2000, 100]}, agents=()).materialize_grid(),
        lambda: parse_pgm(b"P5 20000 20000 255\n\x00"),
        lambda: parse_pgm(b"P2 20000 20000 255\n0"),
    ],
    ids=["empty-909TiB", "empty-cap+1", "warehouse-400MB", "inline-empty", "inline-warehouse", "pgm-p5", "pgm-p2"],
)
def test_every_grid_producer_refuses_cells_over_the_cap_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="above the cap"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=100, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 32), st.integers(1, 32), st.integers(1, 32)),
    seed=st.integers(0, 2**31),
    origin=st.tuples(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100)),
    res=st.floats(0.01, 10, allow_nan=False),
)
def test_roundtrip_random_grids(dims, seed, origin, res):
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 2, size=dims[0] * dims[1] * dims[2], dtype=np.uint8)
    g = OccupancyGrid3D(origin, res, dims, cells)
    data = grid_to_bytes(g)
    g2 = grid_from_bytes(data)
    assert g2 == g
    assert grid_to_bytes(g2) == data


def test_truncated_payload_is_length_mismatch():
    data = grid_to_bytes(empty_grid((4, 4, 4)))
    with pytest.raises(ParseError, match="truncated|covers"):
        grid_from_bytes(data[:-1])
    # dropping a whole trailing run leaves fewer cells than the header declares
    mixed = np.zeros(8, dtype=np.uint8)
    mixed[3] = 1
    data2 = grid_to_bytes(OccupancyGrid3D((0, 0, 0), 1.0, (2, 2, 2), mixed))
    with pytest.raises(ParseError, match="covers"):
        grid_from_bytes(data2[:-2])


def test_overlong_payload_rejected():
    data = grid_to_bytes(empty_grid((2, 2, 1)))
    with pytest.raises(ParseError, match="more than"):
        grid_from_bytes(data + bytes([3, 1]))


# empty_grid((200, 1, 1)) is a 70-byte header and the payload c8 01 00:
# one run of 200 free cells
@pytest.mark.parametrize(
    "payload, offset, message",
    [
        (b"\xc8", 71, "truncated"),  # inside the count: the end of the file
        (b"\xc8\x01", 72, "truncated"),  # before the bit: the end of the file
        (b"\xc8\x01\x02", 72, "run bit"),  # the bit's first byte
        (b"\xc9\x01\x00", 70, "more than"),  # 201 cells: the count's first byte
        (b"\x05\x00", 72, "covers 5 cells"),  # too few cells: the end of the file
    ],
    ids=["truncated-count", "truncated-bit", "bad-bit", "too-many-cells", "too-few-cells"],
)
def test_payload_errors_give_the_absolute_offset(payload, offset, message):
    data = grid_to_bytes(empty_grid((200, 1, 1)))
    assert data[70:] == b"\xc8\x01\x00"
    with pytest.raises(ParseError, match=message) as info:
        grid_from_bytes(data[:70] + payload)
    assert info.value.offset == offset


def _grid_file(origin="0.0 0.0 0.0", resolution="1.0", dims="2 1 1", payload=b"\x02\x00"):
    header = f"SKYGRID1\norigin {origin}\nresolution {resolution}\ndims {dims}\nencoding rle\n\n"
    return header.encode("ascii") + payload


@pytest.mark.parametrize(
    "field, message",
    [
        ({"dims": "0 0 0"}, "dims must each be >= 1"),
        ({"dims": "-1 2 3"}, "dims must each be >= 1"),
        ({"resolution": "nan"}, "resolution must be positive and finite"),
        ({"resolution": "inf"}, "resolution must be positive and finite"),
        ({"resolution": "0"}, "resolution must be positive and finite"),
        ({"origin": "nan 0 inf"}, "origin must be finite"),
        ({"origin": "0 x 0"}, "bad header value"),
        ({"dims": "2.0 1 1"}, "bad header value"),
        ({"origin": "0 0"}, "origin must be three"),
        ({"dims": "2 1"}, r"dims must be an \[i, j, k\] triple"),
    ],
    ids=[
        "zero-dims", "negative-dim", "nan-resolution", "inf-resolution", "zero-resolution", "non-finite-origin",
        "non-numeric-origin", "fractional-dims", "two-origin-values", "two-dims-values",
    ],
)
def test_bad_header_values_are_parse_errors_at_the_header_end(field, message):
    data = _grid_file(**field)
    with pytest.raises(ParseError, match=message) as info:
        grid_from_bytes(data)
    assert info.value.offset == data.find(b"\n\n")


_HEADER = b"SKYGRID1\norigin 0.0 0.0 0.0\nresolution 1.0\ndims 2 1 1\nencoding rle\n"


@pytest.mark.parametrize(
    "data, error, message, offset",
    [
        (_HEADER, ParseError, "missing blank line", len(_HEADER)),
        (_HEADER.replace(b"dims", b"dims 2 1 1\ndims") + b"\n\x02\x00", ParseError, "duplicate header key 'dims'", 54),
        (_HEADER.replace(b"dims 2 1 1\n", b"") + b"\n\x02\x00", ParseError, "missing header key 'dims'", 55),
        (_HEADER.replace(b"rle", b"zip") + b"\n\x02\x00", UnsupportedFormatError, "unsupported encoding 'zip'", 66),
    ],
    ids=["no-blank-line", "duplicate-key", "missing-key", "unsupported-encoding"],
)
def test_header_structure_errors_name_their_offset(data, error, message, offset):
    with pytest.raises(ParseError, match=message) as info:
        grid_from_bytes(data)
    assert type(info.value) is error
    assert info.value.offset == offset


@pytest.mark.parametrize("dims", ["100000 100000 100000", f"{2**14} {2**14} 2"], ids=["909TiB", "cap+1"])
def test_declared_cells_over_the_cap_fail_before_allocating(dims):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="above the cap"):
            grid_from_bytes(_grid_file(dims=dims))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- the codec against the scalar one it replaced ------------------------------


def _ref_write_uvarint(out, n):
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _ref_read_uvarint(data, pos):
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


def _ref_payload(cells):
    """The byte-at-a-time run-length encoder that grid_to_bytes replaced."""
    payload = bytearray()
    breaks = np.flatnonzero(np.diff(cells)) + 1
    for s, e in zip(np.concatenate(([0], breaks)), np.concatenate((breaks, [len(cells)]))):
        _ref_write_uvarint(payload, int(e - s))
        _ref_write_uvarint(payload, int(cells[s]))
    return bytes(payload)


def _ref_cells(data, pos, n_cells):
    """The byte-at-a-time decoder that grid_from_bytes replaced, from ``pos`` on."""
    cells = np.zeros(n_cells, dtype=np.uint8)
    filled = 0
    while pos < len(data):
        count, bit_at = _ref_read_uvarint(data, pos)
        bit, end = _ref_read_uvarint(data, bit_at)
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
    return cells


def _outcome(decode, *args):
    try:
        return decode(*args)
    except ParseError as exc:
        return type(exc), str(exc), exc.offset


def _assert_same_decoding(data, n_cells):
    pos = data.find(b"\n\n") + 2
    got = _outcome(lambda: grid_from_bytes(data).cells.tobytes())
    want = _outcome(lambda: _ref_cells(data, pos, n_cells).tobytes())
    assert got == want


# a run length: 1-byte varints mostly, and some of 3 and 4 bytes (>= 2**14, >= 2**21 cells)
_run_lengths = st.one_of(
    st.integers(1, 300), st.integers(1, 300), st.integers(2**14, 2**14 + 99), st.integers(2**21, 2**21 + 99)
)
_mutations = st.lists(
    st.tuples(
        st.sampled_from(["flip", "delete", "insert", "splice", "cut"]),
        st.floats(0, 1, exclude_max=True),  # where in the payload
        st.integers(0, 255),
        st.integers(1, 30),  # splice: the number of 0x80 bytes before the 0x00
    ),
    max_size=3,
)


@st.composite
def _grids(draw):
    if draw(st.booleans()):  # short runs over two to three codec blocks
        n = draw(st.integers(BLOCK_SIZE, 3 * BLOCK_SIZE))
        cells = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, 2, n, dtype=np.uint8)
        cells[: draw(st.integers(0, 500))] = 0  # a first run of up to 2 varint bytes shifts every boundary
        return cells
    runs = draw(st.lists(_run_lengths, min_size=1, max_size=6))
    return np.concatenate([np.full(r, (i + draw(st.integers(0, 1))) % 2, dtype=np.uint8) for i, r in enumerate(runs)])


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(cells=_grids(), mutations=_mutations)
def test_codec_matches_the_scalar_reference(cells, mutations):
    grid = OccupancyGrid3D((0.0, -1.5, 2.0), 0.25, (len(cells), 1, 1), cells)
    data = grid_to_bytes(grid)
    pos = data.find(b"\n\n") + 2
    assert data[pos:] == _ref_payload(cells)
    assert grid_from_bytes(data) == grid
    payload = bytearray(data[pos:])
    for kind, where, byte, zeros in mutations:
        i = int(where * (len(payload) + 1))
        if kind == "flip" and i < len(payload):
            payload[i] ^= 1 << (byte % 8)
        elif kind == "delete":
            del payload[i : i + 1]
        elif kind == "insert":
            payload[i:i] = bytes([byte])
        elif kind == "splice":  # a non-canonical varint, long past int64 from 10 bytes on
            payload[i:i] = b"\x80" * zeros + bytes([byte % 2])
        elif kind == "cut":
            del payload[i:]
    _assert_same_decoding(data[:pos] + bytes(payload), len(cells))


@pytest.mark.parametrize(
    "payload",
    [
        b"\xc8\x81" + b"\x80" * 10 + b"\x00" + b"\x00",  # 200 in 13 bytes: one free run
        b"\xc8\x01" + b"\x80" * 9 + b"\x00",  # the bit 0 in 10 bytes
        b"\x64\x00\x00\x01\x00\x00\x64\x00",  # empty runs between two runs of 100
        b"\x64\x01\x00\x00\x64\x01",  # an empty free run between two occupied ones
        b"\x80" * 8 + b"\x40\x00",  # a count of 2**62: the largest 9-byte varint range
        b"\x80" * 9 + b"\x01\x00",  # a count of 2**63, past int64
        b"\xc8\x01" + b"\x80" * 9 + b"\x01",  # a bit of 2**63
    ],
    ids=["long-count", "long-bit", "empty-runs", "empty-free-run", "count-2^62", "count-2^63", "bit-2^63"],
)
def test_unusual_pairs_decode_like_the_reference(payload):
    _assert_same_decoding(grid_to_bytes(empty_grid((200, 1, 1)))[:70] + payload, 200)


@pytest.mark.parametrize("lead_runs", [0, 1, 2])
@pytest.mark.parametrize(
    "splice", [b"", b"\x80" * 12 + b"\x00", b"\x80" * (2 * BLOCK_SIZE) + b"\x00"], ids=["none", "13-byte", "2-block"]
)
def test_block_boundaries_inside_a_varint(lead_runs, splice):
    """Three-byte pairs after ``lead_runs`` two-byte ones put the first block's end
    after a count, at a pair's start, or inside a count; a non-canonical varint,
    once longer than a block, is spliced in 7 bytes before that end."""
    cells = np.concatenate(
        [np.arange(lead_runs, dtype=np.uint8) % 2, np.repeat(np.arange(BLOCK_SIZE // 3 + 10) % 2, 200) ^ lead_runs % 2]
    ).astype(np.uint8)
    data = grid_to_bytes(OccupancyGrid3D((0, 0, 0), 1.0, (len(cells), 1, 1), cells))
    pos = data.find(b"\n\n") + 2
    assert data[pos:] == _ref_payload(cells)
    assert grid_from_bytes(data).cells.tobytes() == cells.tobytes()
    at = pos + BLOCK_SIZE - 7
    _assert_same_decoding(data[:at] + splice + data[at:], len(cells))


def test_a_bit_too_long_to_print_is_still_a_parse_error():
    # 5 cells, then a bit of 2**21000: its 6322 digits are past Python's int-to-text limit
    data = grid_to_bytes(empty_grid((200, 1, 1)))[:70] + b"\x05" + b"\x80" * 3000 + b"\x01"
    with pytest.raises(ParseError, match="run bit must be 0 or 1, got a 21001-bit number") as info:
        grid_from_bytes(data)
    assert info.value.offset == 71


@pytest.mark.parametrize(
    "origin, resolution, message",
    [
        ((0.0, math.nan, 0.0), 1.0, "origin must be finite"),
        (("1.5", 0.0, 0.0), 1.0, "origin must be finite"),
        ((0.0, True, 0.0), 1.0, "origin must be finite"),
        ((10**400, 0, 0), 1.0, "origin must be finite"),
        ((0.0, 0.0), 1.0, "origin must be three"),
        (None, 1.0, "origin must be three"),
        ((0.0, 0.0, 0.0), math.inf, "resolution must be positive and finite"),
        ((0.0, 0.0, 0.0), math.nan, "resolution must be positive and finite"),
    ],
    ids=["nan-origin", "str-origin", "bool-origin", "huge-int-origin", "two-origin", "no-origin", "inf-resolution", "nan-resolution"],
)
def test_a_grid_the_reader_would_reject_cannot_be_built(origin, resolution, message):
    with pytest.raises(ValueError, match=message):
        OccupancyGrid3D(origin, resolution, (2, 1, 1), np.zeros(2, dtype=np.uint8))


def test_grid_origin_takes_any_finite_real_number_as_a_float():
    grid = OccupancyGrid3D((np.float32(1.5), np.int64(-2), 3), np.float64(0.5), (2, 1, 1), np.zeros(2))
    assert grid.origin == (1.5, -2.0, 3.0) and all(type(v) is float for v in grid.origin)
    assert grid_from_bytes(grid_to_bytes(grid)) == grid


def test_bad_magic():
    with pytest.raises(ParseError, match="bad magic"):
        grid_from_bytes(b"NOTAGRID\n\nxx")


def test_version_mismatch():
    data = grid_to_bytes(empty_grid((1, 1, 1))).replace(b"SKYGRID1", b"SKYGRID9")
    with pytest.raises(UnsupportedFormatError, match="SKYGRID9"):
        grid_from_bytes(data)


def test_linearization_is_documented_order():
    g = empty_grid((3, 2, 2))
    assert g.index(1, 0, 0) == 1
    assert g.index(0, 1, 0) == 3
    assert g.index(0, 0, 1) == 6
    arr = np.zeros(12, dtype=np.uint8)
    arr[g.index(2, 1, 1)] = 1
    g2 = OccupancyGrid3D((0, 0, 0), 1.0, (3, 2, 2), arr)
    assert g2.is_occupied(2, 1, 1)
    assert g2.cells.reshape(2, 2, 3)[1, 1, 2] == 1  # (k, j, i): i varies fastest
    assert g2.occupied_count == 1
