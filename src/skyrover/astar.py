"""Space-time A* in the time-expanded grid, plus the reservation table.

States are (cell, timestep). All steps cost 1, including waits; resting at
the destination after final arrival is free, which the search realizes by
only accepting the goal once no later blocked entry can touch it. Ties on f
are broken by fewer soft collisions, then lower heuristic, then
lexicographic (i, j, k) cell order, so identical inputs always return the
identical path.

The search and the reservation table work on plain ints. A cell's id is
``(i * ny + j) * nz + k``, so ids sort exactly like (i, j, k) cells (the
grid's own ``index`` order, i fastest, would not), and a state's id is
``t * cells + cell_id`` for a grid of ``cells`` cells. State ids stay small
ints (below 2**30 on an 80x60x10 grid up to t = 22000).

The open list is a bucket queue on f (Dial 1969). A step changes one
coordinate by at most 1 and costs 1, so a successor's f is f, f + 1 or
f + 2: only three buckets are open at a time. The bucket being popped is a
heap; the next two are plain lists, heapified when their turn comes. An
entry is one int: the collision count on top, then h in
``sum(dims).bit_length()`` bits, then the cell id in ``cells.bit_length()``
bits (24 bits below the count on an 80x60x10 grid, so a key stays one
30-bit digit up to 63 collisions). The per-axis Manhattan tables hold h
already shifted into its field. Within one f, h fixes t = f - h, so keys
ordered by (collisions, h, cell id) pop in the order of (f, collisions, h,
state id) tuples on one heap.

A move mask per grid and agent kind, built by numpy, holds a byte per cell
id whose bit m says that ``MOVES[kind][m]`` lands on a free in-bounds cell.
From it, each cell's neighbours, in ``MOVES`` order, are listed as (cell id,
i, j, k) entries the first time a search expands the cell and kept on the
grid (``mapf.per_grid``) for every later search on it; a found path reads
its cells back from those entries. The online path reads the same moves as
(i, j, k) tuples from a second table per kind (``legal_moves``), keyed by
the (i, j, k) cell itself, so a tick costs one dict subscript per agent.
Paths go in and come out as tuples of (i, j, k) cells.

The search keeps no closed set. Every step costs 1 and the heuristic is
consistent, so pops come in nondecreasing (f, collisions) order: a state is
never reached with fewer collisions once it has been expanded, and a popped
entry whose count is above its state's best is a stale duplicate. A
neighbour already reached with no more collisions is skipped before any
table is probed.

The search stops by dominance. From T, one past both tables' ``max_time``,
no table changes, so a visit to a cell at t2 > t1 >= T is dominated by the
visit at t1: that one can copy any continuation and arrive sooner. A cell's
pops come in time order (h does not depend on t), so only its first pop at or
after T is expanded; later ones are skipped uncounted, like stale pops. The
states are thus finite, and an unreachable goal ends the search with None.
"""

from __future__ import annotations

import time
from collections import Counter
from heapq import heapify, heappop, heappush
from operator import index

import numpy as np

from .errors import ResourceLimitError
from .mapf import AGV, MOVES, VERTEX, per_grid

_UNLIMITED = 1 << 62


def _cell_ids(dims, cells) -> list[int]:
    _, ny, nz = dims
    return [(i * ny + j) * nz + k for i, j, k in cells]


def _cell(dims, cid: int) -> tuple[int, int, int]:
    _, ny, nz = dims
    i, rest = divmod(cid, ny * nz)
    return (i, *divmod(rest, nz))


class Budget:
    """Expansion/wall-clock budget of one solve, and the search counters it reports."""

    __slots__ = ("remaining", "deadline", "used", "ct_expanded", "best_cost")

    def __init__(self, max_expansions: int | None = None, time_limit: float | None = None):
        self.remaining = max_expansions
        self.deadline = None if time_limit is None else time.perf_counter() + time_limit
        self.used = 0
        self.ct_expanded = 0
        self.best_cost = None

    def charge(self, n: int) -> None:
        """Count ``n`` expansions; the clock is read when the count lands on a multiple of 64."""
        self.used += n
        if self.remaining is not None:
            self.remaining -= n
            if self.remaining < 0:
                raise ResourceLimitError(f"expansion limit hit after {self.used} nodes")
        if self.deadline is not None and self.used & 0x3F == 0:
            self.check_time()

    def headroom(self) -> int:
        """Expansions a search may count locally before it must ``charge`` them:
        up to the one that trips the limit or lands on the next clock reading."""
        n = _UNLIMITED if self.remaining is None else self.remaining + 1
        if self.deadline is not None:
            n = min(n, 64 - (self.used & 0x3F))
        return n

    def check_time(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise ResourceLimitError("time limit exceeded")


class ReservationTable:
    """Space-time cells and moves that are taken on one grid: reserved paths or CBS constraints.

    Entries are counted, one per reserving path, so a reserved path can be
    taken back out (``release_path``). CBS keeps one such table as its
    space-time occupancy index and moves it from node to node path by path.
    Entries are keyed by the state and cell ids of the module docstring, which
    depend on the grid's dims, so a table serves only grids of those dims.
    ``max_time`` is an upper bound on the entries' times, not their maximum
    (releasing a path leaves it as it was): exactly what A*'s dominance needs.
    """

    def __init__(self, grid):
        self.dims = nx, ny, nz = grid.dims
        self._span = nx * ny * nz  # state id = t * _span + cell id
        self._vertex = Counter()  # state id -> entries
        self._edge = Counter()  # (state of v) * _span + u, for u -> v -> entries; it blocks v -> u
        self._terminal = {}  # cell id -> time from which it is parked forever
        self._ends = {}  # cell id -> Counter of the end times of the reserved paths ending there
        self.max_time = 0

    def _path_keys(self, cells):
        """Cell ids, vertex keys and edge keys of a path."""
        ids = _cell_ids(self.dims, cells)
        span = self._span
        states = [t * span + c for t, c in enumerate(ids)]
        return ids, states, [s * span + u for s, u in zip(states[1:], ids)]

    def reserve_path(self, cells) -> None:
        ids, states, edges = self._path_keys(cells)
        self._vertex.update(states)
        self._edge.update(edges)
        end = len(ids) - 1
        goal = ids[-1]
        self._ends.setdefault(goal, Counter())[end] += 1
        if self._terminal.get(goal, end) >= end:
            self._terminal[goal] = end
        self.max_time = max(self.max_time, end)

    def release_path(self, cells) -> None:
        """Take one reserved path back out of a table of paths: the inverse of ``reserve_path``."""
        ids, states, edges = self._path_keys(cells)
        _drop(self._vertex, states)
        _drop(self._edge, edges)
        goal = ids[-1]
        ends = self._ends[goal]
        _drop(ends, (len(ids) - 1,))
        if ends:
            self._terminal[goal] = min(ends)
        else:
            del self._terminal[goal], self._ends[goal]

    def forbid(self, constraint) -> None:
        """Block one CBS constraint: its cell at its time, or its move u -> v."""
        t = constraint.time
        ids = _cell_ids(self.dims, constraint.cells)
        span = self._span
        if constraint.kind == VERTEX:
            self._vertex[t * span + ids[0]] += 1
        else:
            u, v = ids
            self._edge[(t * span + u) * span + v] += 1  # as if a path moved v -> u
        self.max_time = max(self.max_time, t)

    def touches(self, cells, t_end: int) -> list[int]:
        """The timesteps up to ``t_end`` at which path ``cells`` enters a taken
        cell or takes back a taken move; after it ends it is parked on its last cell."""
        vertex, edge, terminal, span = self._vertex, self._edge, self._terminal, self._span
        ids = _cell_ids(self.dims, cells)
        out = []
        n = len(ids)
        u = ids[0]
        for t in range(t_end + 1):
            v = ids[t] if t < n else ids[-1]
            if (
                t * span + v in vertex
                or terminal.get(v, t) < t
                or (u != v and (t * span + u) * span + v in edge)
            ):
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


def _move_mask(grid, kind: str) -> bytes:
    """Per cell id, a byte whose bit m is set when ``MOVES[kind][m]`` lands on a free in-bounds cell."""
    shape = grid.dims[::-1]  # the grid's own layout: [k, j, i]
    free = (grid.cells.reshape(shape) == 0).view(np.uint8)
    mask = np.zeros(shape, np.uint8)
    for bit, move in enumerate(MOVES[kind]):
        move = move[::-1]
        src = [slice(max(0, -d), n - max(0, d)) for d, n in zip(move, shape)]
        mask[tuple(src)] |= free[tuple(slice(s.start + d, s.stop + d) for s, d in zip(src, move))] << bit
    return mask.T.tobytes()  # in (i, j, k) order, so a cell's byte sits at its cell id


# per kind: a mask byte -> the moves of its set bits, in MOVES order
_PATTERNS = {k: [tuple(m for b, m in enumerate(ms) if p >> b & 1) for p in range(1 << len(ms))] for k, ms in MOVES.items()}


class _Neighbours(dict):
    """Cell id -> ((neighbour id, i, j, k), ...) on one grid for one agent kind, filled on first use from its move mask.

    Each cell's (id, i, j, k) entry is built once and shared by the lists of
    all its neighbours, which keeps the cache about a third of the size.
    """

    def __init__(self, grid, kind: str):
        super().__init__()
        self.dims = _, ny, nz = grid.dims
        self.mask = per_grid(grid, _move_mask, kind)  # not the grid itself: the grid holds this dict
        self.patterns = [tuple(((di * ny + dj) * nz + dk, di, dj, dk) for di, dj, dk in p) for p in _PATTERNS[kind]]
        self.entries = {}

    def __missing__(self, cid: int):
        entries = self.entries
        i, j, k = _cell(self.dims, cid)
        out = []
        for step, di, dj, dk in self.patterns[self.mask[cid]]:
            nid = cid + step
            entry = entries.get(nid)
            if entry is None:
                entries[nid] = entry = (nid, i + di, j + dj, k + dk)
            out.append(entry)
        self[cid] = out = tuple(out)
        return out


class _LegalMoves(dict):
    """(i, j, k) cell -> the cells an agent of one kind may occupy one tick later.

    Filled on first use from the grid's move mask; it holds the mask, not
    the grid. A cell outside the grid raises ``ValueError`` on every lookup
    and is never stored, so an in-bounds lookup is a plain dict subscript.
    Coordinates must be ints or numpy ints; they are stored as Python ints.
    """

    def __init__(self, grid, kind: str):
        super().__init__()
        self.dims = grid.dims
        self.mask = per_grid(grid, _move_mask, kind)
        self.patterns = _PATTERNS[kind]

    def __missing__(self, cell):
        nx, ny, nz = dims = self.dims
        i, j, k = key = tuple(map(index, cell))  # numpy ints are stored, and looked up, as ints
        if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
            raise ValueError(f"cell {key} is outside the grid's dims {dims}")
        moves = self.patterns[self.mask[(i * ny + j) * nz + k]]
        self[key] = out = tuple([(i + di, j + dj, k + dk) for di, dj, dk in moves])
        return out


def legal_moves(grid, kind: str) -> _LegalMoves:
    """The grid's table of next cells for agents of ``kind``, kept on it: subscript it with an (i, j, k) tuple.

    A cell's entry lists the free, in-bounds cells of its ``MOVES``, in that
    order and the wait included: the grid's neighbour list of the cell.
    """
    return per_grid(grid, _LegalMoves, kind)


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
    the goal while the table still blocks it at a later timestep, and returns
    None only when no path exists.

    ``avoid`` is a soft conflict-avoidance table: it never blocks a move and
    never changes the returned cost, but among equal-cost paths the one
    touching it least wins. CBS passes the other agents' current paths here
    so replans sidestep them instead of enumerating equally cheap collisions.

    Both tables must have been built for a grid of ``grid.dims``, and start
    and goal must be free cells inside it (``ValueError`` otherwise). Raises
    ``ResourceLimitError`` when the budget runs out first.
    """
    dims = grid.dims
    for table in (blocked, avoid):
        if table is not None and table.dims != dims:
            raise ValueError(f"reservation table was built for dims {table.dims}, not the grid's {dims}")
    start = tuple(start)
    goal = tuple(goal)
    if not (grid.in_bounds(*start) and grid.in_bounds(*goal)) or grid.is_occupied(*start) or grid.is_occupied(*goal):
        raise ValueError(f"start {start} and goal {goal} must be free cells inside the grid's dims {dims}")
    if kind == AGV and not (start[2] == 0 == goal[2]):
        raise ValueError("ground agents must start and end on layer 0")
    if budget is None:
        budget = Budget()
    nbrs = per_grid(grid, _Neighbours, kind)
    span = dims[0] * dims[1] * dims[2]
    start_id, goal_id = _cell_ids(dims, (start, goal))

    min_arrival = 0
    if blocked is not None:
        vertex, edge, terminal = blocked._vertex, blocked._edge, blocked._terminal
        if goal_id in terminal or start_id in vertex:
            return None  # someone parks on the goal forever, or holds the start at t=0
        # one step past the goal's last blocked timestep
        min_arrival = next((t + 1 for t in range(blocked.max_time, -1, -1) if t * span + goal_id in vertex), 0)
    if avoid is not None:
        soft_vertex, soft_edge, soft_terminal = avoid._vertex, avoid._edge, avoid._terminal
    settle = max(blocked.max_time if blocked else 0, avoid.max_time if avoid else 0) + 1  # T
    settled = {}  # cell id -> the t >= settle at which it was expanded, the earliest

    # the Manhattan heuristic, one table per axis, pre-shifted into the key's h field
    cbits = span.bit_length()  # width of the cell id field
    hbits = cbits + sum(dims).bit_length()  # the collision count sits above the h and cell id fields
    hx, hy, hz = ([abs(c - g) << cbits for c in range(n)] for g, n in zip(goal, dims))
    cmask, low_mask, one = (1 << cbits) - 1, (1 << hbits) - 1, 1 << hbits  # one: a soft collision
    hs = hx[start[0]] + hy[start[1]] + hz[start[2]]
    # every step costs 1, so a state's g equals its elapsed time t = f - h;
    # only the soft-collision count can differ between two visits of a state
    f = hs >> cbits
    now, later, last = [hs + start_id], [], []  # the buckets of f, f + 1 and f + 2; the start state: t = 0
    coll_best = {start_id: 0}  # state id -> its fewest collisions yet, as a key's collision field
    parent = {}
    counted = 0  # expansions not yet charged to the budget
    due = budget.headroom()

    while now or later or last:
        push_later, push_last = later.append, last.append
        while now:
            key = heappop(now)
            low = key & low_mask
            coll = key - low
            cid = low & cmask
            hs = low - cid
            t = f - (hs >> cbits)
            state = t * span + cid
            if coll != coll_best[state]:
                continue  # stale: the state was pushed again with fewer collisions, and expanded then
            if t >= settle and settled.setdefault(cid, t) < t:
                continue  # dominated by the cell's expansion at an earlier t >= settle
            counted += 1
            if counted == due:
                budget.charge(counted)
                counted = 0
                due = budget.headroom()
            if cid == goal_id and t >= min_arrival:
                if counted:
                    budget.charge(counted)
                entries = nbrs.entries
                cells = []
                while state in parent:
                    cells.append(entries[state % span][1:])
                    state = parent[state]
                cells.append(_cell(dims, start_id))
                return tuple(reversed(cells))
            t1 = t + 1
            base = t1 * span  # + v: the state of v at t1
            back = (base + cid) * span  # + v: the key of a move v -> cid arriving at t1
            for ncid, ci, cj, ck in nbrs[cid]:
                nstate = base + ncid
                best = coll_best.get(nstate)
                if best is not None and best <= coll:
                    continue  # reached before with no more collisions
                if blocked is not None and (
                    nstate in vertex
                    or back + ncid in edge
                    or (ncid in terminal and terminal[ncid] <= t1)
                ):
                    continue
                ncoll = coll
                if avoid is not None and (
                    nstate in soft_vertex
                    or back + ncid in soft_edge
                    or (ncid in soft_terminal and soft_terminal[ncid] <= t1)
                ):
                    ncoll += one
                    if best is not None and best <= ncoll:
                        continue
                coll_best[nstate] = ncoll
                parent[nstate] = state
                nhs = hx[ci] + hy[cj] + hz[ck]
                if nhs < hs:  # a step towards the goal keeps f
                    heappush(now, ncoll + nhs + ncid)
                elif nhs == hs:  # a wait
                    push_later(ncoll + nhs + ncid)
                else:
                    push_last(ncoll + nhs + ncid)
        heapify(later)
        now, later, last = later, last, []
        f += 1
    if counted:
        budget.charge(counted)
    return None
