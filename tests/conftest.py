import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracles` importable

import numpy as np

from skyrover import AGV, Agent, OccupancyGrid3D, empty_grid


@pytest.fixture
def corridor_grid():
    """1 x 3 x 1 corridor along y."""
    return empty_grid((1, 3, 1))


@pytest.fixture
def open_grid():
    return empty_grid((5, 5, 2))


@pytest.fixture
def gap_floor():
    """n x n x 1 floor walled at i = n/2 but for a gap at j = n/2; agent 0's
    goal is the gap, agent 1 crosses from (0, 0) to (n-1, n-1). CBS solves it
    (cost 17, 29, 59 and 119 at n = 6, 10, 20 and 40). Prioritized planning
    fails on the id order: agent 0 is planned first and parks on the gap."""

    def build(n):
        cells = np.zeros((1, n, n), dtype=np.uint8)  # [k, j, i]
        cells[0, :, n // 2] = 1
        cells[0, n // 2, n // 2] = 0
        grid = OccupancyGrid3D((0, 0, 0), 1.0, (n, n, 1), cells.reshape(-1))
        gap = (n // 2, n // 2, 0)
        return grid, (Agent(0, AGV, (n // 2 - 1, n // 2, 0), gap), Agent(1, AGV, (0, 0, 0), (n - 1, n - 1, 0)))

    return build
