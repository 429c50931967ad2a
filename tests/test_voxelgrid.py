import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyrover import (
    CapacityError,
    GroundMap2D,
    OccupancyGrid3D,
    ParseError,
    PointCloud,
    UnsupportedFormatError,
    empty_grid,
    extrude_ground,
    grid_from_bytes,
    grid_to_bytes,
    rasterize,
)


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


def test_capacity_cap():
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [100.0, 100.0, 100.0]]))
    with pytest.raises(CapacityError, match="cap"):
        rasterize(cloud, 0.5, cell_cap=1000)


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


# -- extrusion ---------------------------------------------------------------


def _map_2x2():
    # occupied only at (x=0, y=1)
    return GroundMap2D(2, 2, 1.0, np.array([0, 0, 1, 0], dtype=np.uint8))


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
    occ = np.array([rng.randrange(2) for _ in range(64)], dtype=np.uint8)
    ground = GroundMap2D(8, 8, 1.0, occ)
    flat = extrude_ground(ground, 4)
    tall = extrude_ground(ground, 4, walls=True)
    assert flat.occupied_count == ground.occupied_count
    assert tall.occupied_count == ground.occupied_count * 4


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
    assert g2.as_array()[2, 1, 1] == 1
    assert g2.occupied_count == 1
