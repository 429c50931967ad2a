"""Space-time A* in the time-expanded grid, plus the reservation table.

States are (cell, timestep). All steps cost 1, including waits; resting at
the destination after final arrival is free, which the search realizes by
only accepting the goal once no later blocked entry can touch it. Ties on f
are broken by lower heuristic, then lexicographic cell order, so identical
inputs always return the identical path.
"""

from __future__ import annotations

import time
from collections import Counter
from heapq import heappop, heappush

from .errors import SearchLimitExceeded
from .mapf import AGV, MOVES, VERTEX


class Budget:
    """Expansion/wall-clock budget of one solve, and the search counters it reports."""

    __slots__ = ("remaining", "deadline", "used", "ct_expanded", "best_cost")

    def __init__(self, max_expansions: int | None = None, time_limit: float | None = None):
        self.remaining = max_expansions
        self.deadline = None if time_limit is None else time.perf_counter() + time_limit
        self.used = 0
        self.ct_expanded = 0
        self.best_cost = None

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.remaining is not None:
            self.remaining -= n
            if self.remaining < 0:
                raise SearchLimitExceeded(f"expansion limit hit after {self.used} nodes")
        if self.deadline is not None and self.used & 0x3F == 0:
            self.check_time()

    def check_time(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise SearchLimitExceeded("time limit exceeded")


class ReservationTable:
    """Space-time cells and moves that are taken: reserved paths or CBS constraints.

    Entries are counted, one per reserving path, so a reserved path can be
    taken back out (``release_path``). CBS keeps one such table as its
    space-time occupancy index and moves it from node to node path by path.
    """

    def __init__(self):
        self._vertex = Counter()  # (cell, t) -> entries
        self._edge = Counter()  # (u, v, t) -> entries; u -> v arriving at t blocks v -> u
        self._terminal = {}  # cell -> time from which it is parked forever
        self._ends = Counter()  # (cell, t) -> reserved paths ending on cell at t
        self.max_time = 0

    def reserve_path(self, cells) -> None:
        n = len(cells)
        self._vertex.update(zip(cells, range(n)))
        self._edge.update(zip(cells, cells[1:], range(1, n)))
        end = n - 1
        goal = cells[-1]
        self._ends[goal, end] += 1
        if self._terminal.get(goal, end) >= end:
            self._terminal[goal] = end
        self.max_time = max(self.max_time, end)

    def release_path(self, cells) -> None:
        """Take one reserved path back out of a table of paths: the inverse of ``reserve_path``."""
        n = len(cells)
        _drop(self._vertex, zip(cells, range(n)))
        _drop(self._edge, zip(cells, cells[1:], range(1, n)))
        goal = cells[-1]
        _drop(self._ends, [(goal, n - 1)])
        rest = [t for cell, t in self._ends if cell == goal]
        if rest:
            self._terminal[goal] = min(rest)
        else:
            del self._terminal[goal]
        self.max_time = max((t for _, t in self._ends), default=0)

    def forbid(self, constraint) -> None:
        """Block one CBS constraint: its cell at its time, or its move u -> v."""
        t = constraint.time
        cell = constraint.cells[0]
        if constraint.kind == VERTEX:
            self._vertex[cell, t] += 1
        else:
            self._edge[constraint.cells[1], cell, t] += 1  # reversed, as _edge stores it
        self.max_time = max(self.max_time, t)

    def touches(self, cells, t_end: int) -> list[int]:
        """The timesteps up to ``t_end`` at which path ``cells`` enters a taken
        cell or takes back a taken move; after it ends it is parked on its last cell."""
        vertex, edge, terminal = self._vertex, self._edge, self._terminal
        out = []
        n = len(cells)
        u = cells[0]
        for t in range(t_end + 1):
            v = cells[t] if t < n else cells[-1]
            if (v, t) in vertex or terminal.get(v, t) < t or (u != v and (v, u, t) in edge):
                out.append(t)
            u = v
        return out


def _drop(counts: Counter, keys) -> None:
    """Take one count of every key off ``counts``."""
    for key in keys:
        if counts[key] == 1:
            counts.pop(key)
        else:
            counts[key] -= 1


def spacetime_astar(
    grid,
    kind: str,
    start,
    goal,
    blocked: ReservationTable | None = None,
    budget: Budget | None = None,
    avoid: ReservationTable | None = None,
):
    """Minimum-arrival-time path from start to goal, or None when there is none.

    The returned tuple of cells is indexed by timestep from 0. ``blocked`` is
    the hard table: CBS fills it with the agent's constraints, prioritized
    planning with the earlier agents' paths. The search refuses to finish on
    the goal while the table still blocks it at a later timestep, and is cut
    off at an absolute horizon of free-cell-count + last-blocked-timestep + 1,
    which guarantees termination.

    ``avoid`` is a soft conflict-avoidance table: it never blocks a move and
    never changes the returned cost, but among equal-cost paths the one
    touching it least wins. CBS passes the other agents' current paths here
    so replans sidestep them instead of enumerating equally cheap collisions.

    Raises SearchLimitExceeded when the budget runs out first.
    """
    nx, ny, nz = grid.dims
    occ = grid.occ_bytes
    start = tuple(start)
    goal = tuple(goal)
    if grid.is_occupied(*start) or grid.is_occupied(*goal):
        raise ValueError("start and goal must be free cells")
    if kind == AGV and not (start[2] == 0 == goal[2]):
        raise ValueError("ground agents must start and end on layer 0")
    moves = MOVES[kind]

    min_arrival = 0
    horizon = grid.free_cell_count + 1
    if blocked is not None:
        vertex, edge, terminal = blocked._vertex, blocked._edge, blocked._terminal
        if goal in terminal or (start, 0) in vertex:
            return None  # someone parks on the goal forever, or holds the start at t=0
        # one step past the goal's last blocked timestep
        min_arrival = next((t + 1 for t in range(blocked.max_time, -1, -1) if (goal, t) in vertex), 0)
        horizon += blocked.max_time
    if avoid is not None:
        soft_vertex, soft_edge, soft_terminal = avoid._vertex, avoid._edge, avoid._terminal

    gx, gy, gz = goal
    h0 = abs(start[0] - gx) + abs(start[1] - gy) + abs(start[2] - gz)
    # every step costs 1, so a state's g equals its elapsed time; only the
    # soft-collision count can differ between two visits of the same state
    heap = [(h0, 0, h0, start[0], start[1], start[2], 0)]
    coll_best = {(start, 0): 0}
    parent = {}
    closed = set()

    while heap:
        f, coll, h, i, j, k, t = heappop(heap)
        cell = (i, j, k)
        state = (cell, t)
        if state in closed:
            continue
        closed.add(state)
        if budget is not None:
            budget.charge()
        if cell == goal and t >= min_arrival:
            out = [cell]
            while state in parent:
                state = parent[state]
                out.append(state[0])
            out.reverse()
            return tuple(out)
        if t >= horizon:
            continue
        g1 = f - h + 1
        t1 = t + 1
        for dx, dy, dz in moves:
            ci = i + dx
            cj = j + dy
            ck = k + dz
            if not (0 <= ci < nx and 0 <= cj < ny and 0 <= ck < nz):
                continue
            if occ[ci + nx * (cj + ny * ck)]:
                continue
            ncell = (ci, cj, ck)
            if blocked is not None and (
                (ncell, t1) in vertex
                or (ncell, cell, t1) in edge
                or (ncell in terminal and terminal[ncell] <= t1)
            ):
                continue
            ncoll = coll
            if avoid is not None and (
                (ncell, t1) in soft_vertex
                or (ncell, cell, t1) in soft_edge
                or (ncell in soft_terminal and soft_terminal[ncell] <= t1)
            ):
                ncoll += 1
            nstate = (ncell, t1)
            old = coll_best.get(nstate)
            if old is not None and old <= ncoll:
                continue
            coll_best[nstate] = ncoll
            parent[nstate] = state
            nh = abs(ci - gx) + abs(cj - gy) + abs(ck - gz)
            heappush(heap, (g1 + nh, ncoll, nh, ci, cj, ck, t1))
    return None
