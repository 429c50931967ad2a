import hashlib
import random

import numpy as np
import pytest

from skyrover import (
    AGV,
    UAV,
    OccupancyGrid3D,
    PlacementError,
    empty_grid,
    extrude_ground,
    generate_warehouse,
    parse_roster,
    sample_agents,
    validate_agents,
    warehouse_grid,
)

from oracles import static_bfs_cost


def test_default_world_places_22_distinct_reachable_agents():
    grid, agents = generate_warehouse(seed=1)
    assert len(agents) == 22
    assert sum(a.kind == UAV for a in agents) == 6
    assert sum(a.kind == AGV for a in agents) == 16
    assert validate_agents(grid, agents) == []
    cells = [a.start for a in agents] + [a.goal for a in agents]
    assert len(set(cells)) == len(cells)  # starts and goals mutually distinct
    for a in agents:
        assert static_bfs_cost(grid, a.kind, a.start, a.goal) is not None


def test_generation_is_deterministic_per_seed():
    a1 = generate_warehouse(seed=5)
    a2 = generate_warehouse(seed=5)
    b = generate_warehouse(seed=6)
    assert a1[1] == a2[1] and a1[0] == a2[0]
    assert b[1] != a1[1]


def test_single_agent_roster():
    grid, agents = generate_warehouse(dims=(20, 16, 5), shelf_rows=2, roster="1uav", seed=2)
    assert len(agents) == 1 and agents[0].kind == UAV


def test_layout_leaves_perimeter_and_sky_free():
    grid = warehouse_grid((40, 30, 8), shelf_rows=3, shelf_height=4)
    nx, ny, nz = grid.dims
    for i in range(nx):
        assert not grid.is_occupied(i, 0, 0) and not grid.is_occupied(i, ny - 1, 0)
    for k in range(4, nz):
        assert all(not grid.is_occupied(i, j, k) for i in range(nx) for j in range(0, ny, 5))


def test_dims_too_small_for_roster_is_placement_failure():
    with pytest.raises(PlacementError):
        generate_warehouse(dims=(8, 8, 2), shelf_rows=1, roster="40agv", seed=1)


@pytest.mark.parametrize("roster", ["20uav+2agv", "2agv+20uav"])
def test_uav_cells_do_not_count_against_the_agv_ground_pool(roster):
    grid = empty_grid((4, 4, 10))
    agents = sample_agents(grid, parse_roster(roster), 1)
    assert len(agents) == 22 and validate_agents(grid, agents) == []
    cells = [a.start for a in agents] + [a.goal for a in agents]
    assert len(set(cells)) == len(cells)


def test_roster_larger_than_its_ground_pool_is_placement_failure():
    with pytest.raises(PlacementError, match="^grid has too few free agv cells for 29 agents$"):
        sample_agents(empty_grid((4, 4, 10)), parse_roster("20uav+9agv"), 1)


def test_too_many_shelf_rows_is_placement_failure():
    with pytest.raises(PlacementError, match="shelf rows"):
        warehouse_grid((20, 16, 5), shelf_rows=10)


@pytest.mark.parametrize("shelf_height", [0, -5])
def test_shelf_height_below_one_is_placement_failure(shelf_height):
    with pytest.raises(PlacementError, match="shelf_height must be >= 1"):
        warehouse_grid((24, 20, 6), shelf_rows=3, shelf_height=shelf_height)


def test_roster_parsing():
    assert parse_roster("6uav+16agv") == [(6, "uav"), (16, "agv")]
    assert parse_roster("1agv") == [(1, "agv")]
    with pytest.raises(ValueError, match="bad roster"):
        parse_roster("3cars")


def test_rosters_are_pinned():
    rosters = []
    for roster in ("6uav+16agv", "12uav+32agv", "16uav+48agv", "20uav+60agv"):
        for seed in (1, 2, 3):
            rosters.append(repr(generate_warehouse((80, 60, 10), 12, roster, seed)[1]))
    digest = hashlib.sha256("".join(rosters).encode()).hexdigest()
    assert digest == "4e7c74c71e89b8d5bde8dde2211ee24046db2cce3a9a69bee846da016478cbe5"


def _walled_floor(seed, width=60, height=45, layers=4):
    """A scanned floor plan with rack blocks, extruded so its walls block every layer."""
    rng = random.Random(seed)
    occ = np.zeros((height, width), dtype=np.uint8)  # [y, x]
    occ[[0, -1], :] = occ[:, [0, -1]] = 1
    for _ in range(25):
        x, y = rng.randrange(2, width - 8), rng.randrange(2, height - 5)
        occ[y : y + rng.randint(1, 3), x : x + rng.randint(2, 6)] = 1
    return extrude_ground(OccupancyGrid3D((0, 0, 0), 0.5, (width, height, 1), occ.reshape(-1)), layers, walls=True)


def test_rosters_on_walled_floor_maps_are_pinned():
    rosters = []
    for map_seed in (1, 2):
        grid = _walled_floor(map_seed)
        for roster in ("4uav+12agv", "10uav+6agv"):
            for seed in (1, 2, 3):
                agents = sample_agents(grid, parse_roster(roster), seed)
                assert validate_agents(grid, agents) == []
                rosters.append(repr(agents))
    digest = hashlib.sha256("".join(rosters).encode()).hexdigest()
    assert digest == "4de7f0889073e0e137a2d07cd9986cd16c30c191901e9ead58dfbe2bc6c36833"
