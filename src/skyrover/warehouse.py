"""Procedural warehouse worlds and seeded agent rosters.

The layout is synthetic: rows of shelf blocks with aisles between and a free
perimeter ring, sized so a mixed UAV/AGV fleet can route cleanly. Agent
starts and goals are sampled per seed, kept mutually distinct, and checked
for static reachability before the scenario is emitted.
"""

from __future__ import annotations

import random
import re

import numpy as np

from .errors import PlacementError
from .mapf import AGV, UAV, Agent, as_cell, as_int, components
from .voxelgrid import OccupancyGrid3D, cell_count

DEFAULT_DIMS = (80, 60, 10)
DEFAULT_SHELF_ROWS = 12
DEFAULT_SHELF_HEIGHT = 4
DEFAULT_ROSTER = "6uav+16agv"
MAX_PLACEMENT_ATTEMPTS = 2000  # random draws per agent before its placement is given up

# Dense shelving with aisles about two cells wide: narrow corridors keep the
# set of equal-cost ground routes small, which optimal conflict resolution
# needs to stay tractable on instances with crossing traffic.
_MARGIN = 2
_SHELF_DEPTH = 2
_SEGMENT = 10
_GAP = 2


def warehouse_grid(
    dims=DEFAULT_DIMS,
    shelf_rows: int = DEFAULT_SHELF_ROWS,
    shelf_height: int = DEFAULT_SHELF_HEIGHT,
) -> OccupancyGrid3D:
    """Deterministic shelf layout; the seed only affects agent sampling."""
    nx, ny, nz = as_cell(dims, "dims")
    shelf_rows = as_int(shelf_rows, "shelf_rows")
    shelf_height = as_int(shelf_height, "shelf_height")
    if min(nx, ny) < 2 * _MARGIN + _SHELF_DEPTH + 2 or nz < 1:
        raise PlacementError(f"dims {dims} are too small for a warehouse layout")
    cell_count((nx, ny, nz))  # the cell cap, before the layout is allocated
    if shelf_rows < 1:
        raise PlacementError("shelf_rows must be >= 1")
    if shelf_height < 1:
        raise PlacementError("shelf_height must be >= 1")
    region = ny - 2 * _MARGIN
    pitch = region // shelf_rows
    if pitch < _SHELF_DEPTH + 2:
        raise PlacementError(f"{shelf_rows} shelf rows do not fit {ny} cells of depth")
    height = min(shelf_height, nz)

    arr = np.zeros((nz, ny, nx), dtype=np.uint8)  # arr[k, j, i]
    shelf = np.arange(nx - 2 * _MARGIN) % (_SEGMENT + _GAP) < _SEGMENT  # one row along i: segments and gaps
    for r in range(shelf_rows):
        y0 = _MARGIN + r * pitch + (pitch - _SHELF_DEPTH) // 2
        arr[:height, y0 : y0 + _SHELF_DEPTH, _MARGIN : nx - _MARGIN] = shelf
    return OccupancyGrid3D((0.0, 0.0, 0.0), 1.0, (nx, ny, nz), arr.reshape(-1))


def parse_roster(spec: str) -> list[tuple[int, str]]:
    """Parse roster strings like "6uav+16agv" into (count, kind) groups."""
    groups = []
    for part in spec.split("+"):
        m = re.fullmatch(r"(\d+)(uav|agv)", part.strip().lower())
        if not m:
            raise ValueError(f"bad roster component {part!r}; expected like '6uav' or '16agv'")
        groups.append((int(m.group(1)), m.group(2)))
    if not groups or sum(c for c, _ in groups) < 1:
        raise ValueError("roster must contain at least one agent")
    return groups


def sample_agents(grid: OccupancyGrid3D, roster, seed: int):
    """Seeded roster placement: free, mutually distinct, reachable start/goal."""
    rng = random.Random(seed)
    labels = {kind: components(grid, kind) for kind in (UAV, AGV)}
    # reachable cells as rows of an (n, 3) index array, in sorted (i, j, k) order;
    # only a drawn row becomes a tuple
    pools = {
        kind: np.argwhere((comp.reshape(grid.dims[::-1]) >= 0).transpose(2, 1, 0))
        for kind, comp in labels.items()
    }
    used = set()
    taken = dict.fromkeys(labels, 0)  # used cells that lie in each kind's pool
    agents = []
    for count, kind in roster:
        pool = pools[kind]
        comp = labels[kind]
        for _ in range(count):
            if len(pool) - taken[kind] < 2:
                raise PlacementError(f"grid has too few free {kind} cells for {sum(c for c, _ in roster)} agents")
            for _ in range(MAX_PLACEMENT_ATTEMPTS):
                start = tuple(pool[rng.randrange(len(pool))].tolist())
                if start in used:
                    continue
                goal = tuple(pool[rng.randrange(len(pool))].tolist())
                if goal in used or goal == start or comp[grid.index(*start)] != comp[grid.index(*goal)]:
                    continue
                break
            else:
                raise PlacementError(f"could not place agent {len(agents)} after {MAX_PLACEMENT_ATTEMPTS} attempts")
            used.update((start, goal))
            for pool_kind, pool_comp in labels.items():  # UAV cells on the ground are in both pools
                taken[pool_kind] += int(pool_comp[grid.index(*start)] >= 0) + int(pool_comp[grid.index(*goal)] >= 0)
            agents.append(Agent(len(agents), kind, start, goal))
    return tuple(agents)


def generate_warehouse(
    dims=DEFAULT_DIMS,
    shelf_rows: int = DEFAULT_SHELF_ROWS,
    roster: str = DEFAULT_ROSTER,
    seed: int = 1,
):
    """Grid plus sampled roster; the standard benchmark instance family."""
    grid = warehouse_grid(dims, shelf_rows)
    agents = sample_agents(grid, parse_roster(roster), seed)
    return grid, agents
