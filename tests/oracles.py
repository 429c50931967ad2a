"""Independent reference implementations used to cross-check production code.

Everything here is deliberately written with different algorithms and data
layouts than the package: plain BFS over static grids, a triple-loop
pairwise conflict scan, a pairwise-rescan collision shield, space-time A*
on one heap of tuples, uniform-cost search over joint configurations with
explicit "finished" flags, and brute-force path enumeration. Slow is fine;
these define the expected answers.
"""

from __future__ import annotations

import random
import struct
from collections import deque
from heapq import heappop, heappush
from itertools import combinations, count, product

import numpy as np

from skyrover import AGV, UAV, Agent, InvariantViolation, OccupancyGrid3D, WaypointCommand
from skyrover.astar import Budget, _cell, _cell_ids, _Neighbours
from skyrover.mapf import MOVES, VERTEX, Violation, as_cell, cell_at, path_cost, per_grid
from skyrover.sim import AT_GOAL, EN_ROUTE


def static_bfs_cost(grid, kind, start, goal):
    """Shortest static path length under the kind's moves, or None."""
    if start == goal:
        return 0
    moves = [m for m in MOVES[kind] if m != (0, 0, 0)]
    seen = {tuple(start)}
    queue = deque([(tuple(start), 0)])
    while queue:
        (i, j, k), d = queue.popleft()
        for dx, dy, dz in moves:
            n = (i + dx, j + dy, k + dz)
            if n in seen or not grid.in_bounds(*n) or grid.is_occupied(*n):
                continue
            if n == tuple(goal):
                return d + 1
            seen.add(n)
            queue.append((n, d + 1))
    return None


def flood_fill_labels(grid, kind):
    """Reachability labels by BFS flood fill: a component's smallest flat index, -1 elsewhere.

    Cells are seeded in flat order, so each fill starts from the smallest flat
    index of its component; cells an agent of ``kind`` cannot stand on get -1.
    """
    nx, ny, nz = grid.dims
    moves = [m for m in MOVES[kind] if m != (0, 0, 0)]
    labels = [-1] * (nx * ny * nz)
    for seed in free_cells(grid, kind):
        label = grid.index(*seed)
        if labels[label] != -1:
            continue
        labels[label] = label
        queue = deque([seed])
        while queue:
            i, j, k = queue.popleft()
            for dx, dy, dz in moves:
                n = (i + dx, j + dy, k + dz)
                if grid.in_bounds(*n) and not grid.is_occupied(*n) and labels[grid.index(*n)] == -1:
                    labels[grid.index(*n)] = label
                    queue.append(n)
    return labels


def brute_force_conflicts(paths, horizon=None):
    """All vertex/edge conflicts by pairwise scan; canonical tuples.

    Returns (time, a, b, kind, cells) tuples sorted the same way the
    production detector sorts its output.
    """

    def at(cells, t):
        return tuple(cells[t]) if t < len(cells) else tuple(cells[-1])

    ids = sorted(paths)
    t_end = max(len(paths[a]) - 1 for a in ids) if horizon is None else horizon
    found = []
    for a, b in combinations(ids, 2):
        for t in range(t_end + 1):
            pa, pb = at(paths[a], t), at(paths[b], t)
            if pa == pb:
                found.append((t, a, b, "vertex", (pa,)))
            if t >= 1:
                qa, qb = at(paths[a], t - 1), at(paths[b], t - 1)
                if qa == pb and qb == pa and qa != pa:
                    found.append((t, a, b, "edge", (qa, pa)))
    found.sort(key=lambda c: (c[0], c[1], 0 if c[3] == "vertex" else 1, c[2], c[4]))
    return found


def tuple_validate_solution(grid, agents, paths):
    """``validate_solution`` cell by cell: every cell read by ``as_cell`` into a
    tuple, every check a loop over those tuples, conflicts by ``brute_force_conflicts``."""
    out = []
    by_id = {a.id: a for a in agents}
    for a in agents:
        if a.id not in paths:
            out.append(Violation("missing-path", a.id, None, f"agent {a.id} has no path"))
    held = {}
    for aid in sorted(paths):
        agent = by_id.get(aid)
        if agent is None:
            out.append(Violation("unknown-agent", aid, None, f"path for unknown agent {aid}"))
        elif not len(paths[aid]):
            out.append(Violation("empty-path", aid, None, f"agent {aid} path is empty"))
            continue
        cells = []
        for t, value in enumerate(paths[aid]):
            try:
                cell = as_cell(value, "cell")
            except ValueError:
                cell = None
            if cell is None or any(abs(c) >= 2**62 for c in cell):
                detail = f"cell {value!r} at t={t} is not an [i, j, k] triple of integers below 2**62 in magnitude"
                out.append(Violation("malformed-cell", aid, t, detail))
            else:
                cells.append(cell)
        if not cells or len(cells) < len(paths[aid]):
            continue
        held[aid] = cells
        if agent is None:
            continue
        if cells[0] != agent.start:
            out.append(Violation("start-mismatch", aid, 0, f"path starts at {cells[0]}, agent starts at {agent.start}"))
        if cells[-1] != agent.goal:
            out.append(Violation("goal-mismatch", aid, len(cells) - 1, f"path ends at {cells[-1]}, goal is {agent.goal}"))
        for t, cell in enumerate(cells):
            if not grid.in_bounds(*cell):
                out.append(Violation("out-of-bounds", aid, t, f"cell {cell} at t={t} is out of bounds"))
                continue
            if grid.is_occupied(*cell):
                out.append(Violation("occupied-cell", aid, t, f"cell {cell} at t={t} is an obstacle"))
            if agent.kind == AGV and cell[2] != 0:
                out.append(Violation("kinematic", aid, t, f"ground agent at {cell} above layer 0 at t={t}"))
        for t in range(1, len(cells)):
            u, v = cells[t - 1], cells[t]
            if (v[0] - u[0], v[1] - u[1], v[2] - u[2]) not in MOVES[UAV]:
                out.append(Violation("illegal-move", aid, t, f"move {u} -> {v} at t={t} is not a unit step"))
    if held:
        for t, a, b, kind, cells in brute_force_conflicts(held):
            out.append(Violation(f"{kind}-conflict", a, t, f"agents {a} and {b} collide at t={t} on {cells}"))
    return out


def tuple_heap_astar(grid, kind, start, goal, blocked=None, budget=None, avoid=None):
    """``spacetime_astar`` on one heap of ``(f, collisions, h, state id)`` tuples, for valid inputs.

    This is the search as it stood before its open list became buckets of
    int keys: the same expansions, the same charges to the budget, the same
    dominance rule, the same path.
    """
    dims = grid.dims
    budget = Budget() if budget is None else budget
    nbrs = per_grid(grid, _Neighbours, kind)
    span = dims[0] * dims[1] * dims[2]
    start, goal = tuple(start), tuple(goal)
    start_id, goal_id = _cell_ids(dims, (start, goal))
    min_arrival = 0
    if blocked is not None:
        vertex, edge, terminal = blocked._vertex, blocked._edge, blocked._terminal
        if goal_id in terminal or start_id in vertex:
            return None
        min_arrival = next((t + 1 for t in range(blocked.max_time, -1, -1) if t * span + goal_id in vertex), 0)
    if avoid is not None:
        soft_vertex, soft_edge, soft_terminal = avoid._vertex, avoid._edge, avoid._terminal
    settle = max(blocked.max_time if blocked else 0, avoid.max_time if avoid else 0) + 1
    settled = {}
    hx, hy, hz = ([abs(c - g) for c in range(n)] for g, n in zip(goal, dims))
    h0 = hx[start[0]] + hy[start[1]] + hz[start[2]]
    heap = [(h0, 0, h0, start_id)]
    coll_best = {start_id: 0}
    parent = {}
    counted = 0
    due = budget.headroom()
    while heap:
        f, coll, h, state = heappop(heap)
        if coll != coll_best[state]:
            continue
        t = f - h
        cid = state - t * span
        if t >= settle and settled.setdefault(cid, t) < t:
            continue
        counted += 1
        if counted == due:
            budget.charge(counted)
            counted = 0
            due = budget.headroom()
        if cid == goal_id and t >= min_arrival:
            if counted:
                budget.charge(counted)
            states = [state]
            while state in parent:
                state = parent[state]
                states.append(state)
            return tuple(_cell(dims, s % span) for s in reversed(states))
        t1 = t + 1
        base = t1 * span
        back = (base + cid) * span
        for ncid, ci, cj, ck in nbrs[cid]:
            nstate = base + ncid
            best = coll_best.get(nstate)
            if best is not None and best <= coll:
                continue
            if blocked is not None and (
                nstate in vertex or back + ncid in edge or (ncid in terminal and terminal[ncid] <= t1)
            ):
                continue
            ncoll = coll
            if avoid is not None and (
                nstate in soft_vertex
                or back + ncid in soft_edge
                or (ncid in soft_terminal and soft_terminal[ncid] <= t1)
            ):
                ncoll += 1
                if best is not None and best <= ncoll:
                    continue
            coll_best[nstate] = ncoll
            parent[nstate] = state
            nh = hx[ci] + hy[cj] + hz[ck]
            heappush(heap, (t1 + nh, ncoll, nh, nstate))
    if counted:
        budget.charge(counted)
    return None


def pairwise_shield(cells, proposals):
    """Reference collision shield: rescan all pairs after every downgrade.

    The first conflicting pair in (a, b) order is resolved each pass. Same
    cell: a mover yields to a waiter, otherwise the higher id waits; both
    waiting means the input already collides. Swap: the higher id waits.
    """
    moves = dict(proposals)
    ids = sorted(moves)
    for _ in range(len(ids) + 1):
        offender = None
        for a, b in combinations(ids, 2):
            ta, tb = moves[a], moves[b]
            if ta == tb:
                a_waits = ta == cells[a]
                b_waits = tb == cells[b]
                if a_waits and b_waits:
                    raise InvariantViolation(f"agents {a} and {b} already share cell {ta}")
                offender = a if b_waits else b
            elif ta == cells[b] and tb == cells[a]:
                offender = b
            if offender is not None:
                break
        if offender is None:
            return moves
        moves[offender] = cells[offender]
    raise InvariantViolation("shield failed to converge")


def _goal_distance_maps(grid, agents):
    """Per-agent true distance-to-goal over free cells (admissible heuristic)."""
    maps = []
    for agent in agents:
        moves = [m for m in MOVES[agent.kind] if m != (0, 0, 0)]
        dist = {agent.goal: 0}
        queue = deque([agent.goal])
        while queue:
            cell = queue.popleft()
            d = dist[cell]
            for dx, dy, dz in moves:
                n = (cell[0] + dx, cell[1] + dy, cell[2] + dz)
                if n in dist or not grid.in_bounds(*n) or grid.is_occupied(*n):
                    continue
                dist[n] = d + 1
                queue.append(n)
        maps.append(dist)
    return maps


def joint_optimal_cost(grid, agents, max_expansions=2_000_000):
    """Optimal sum of arrival costs by search over joint configurations.

    States carry an explicit finished flag per agent: an agent may declare
    itself finished only while standing on its goal, stops moving, keeps
    blocking its cell, and stops paying. Unfinished agents pay 1 per step,
    waits included, which realizes arrival-time costs exactly (goal waits
    before a later departure are charged). Returns None when unsolvable.
    """
    agents = sorted(agents, key=lambda a: a.id)
    n = len(agents)
    dist_maps = _goal_distance_maps(grid, agents)
    starts = tuple(a.start for a in agents)
    goals = tuple(a.goal for a in agents)
    if any(starts[i] not in dist_maps[i] for i in range(n)):
        return None
    move_sets = [MOVES[a.kind] for a in agents]

    def heuristic(cells, done):
        return sum(dist_maps[i][cells[i]] for i in range(n) if not done[i])

    start_state = (starts, tuple(False for _ in agents))
    h0 = heuristic(*start_state)
    tick = count()
    heap = [(h0, next(tick), 0, start_state)]
    best = {start_state: 0}
    expanded = 0
    while heap:
        f, _, g, state = heappop(heap)
        if best.get(state, -1) != g:
            continue
        cells, done = state
        if all(done):
            return g
        expanded += 1
        if expanded > max_expansions:
            raise RuntimeError("joint search exceeded its expansion cap")

        options = []
        for i in range(n):
            if done[i]:
                options.append(((cells[i], True, 0),))
                continue
            opts = []
            if cells[i] == goals[i]:
                opts.append((cells[i], True, 0))
            for dx, dy, dz in move_sets[i]:
                c = (cells[i][0] + dx, cells[i][1] + dy, cells[i][2] + dz)
                if grid.in_bounds(*c) and not grid.is_occupied(*c):
                    opts.append((c, False, 1))
            options.append(tuple(opts))

        for joint in product(*options):
            nxt = tuple(o[0] for o in joint)
            if len(set(nxt)) != n:
                continue
            if any(
                nxt[i] == cells[j] and nxt[j] == cells[i] and cells[i] != cells[j]
                for i in range(n)
                for j in range(i + 1, n)
            ):
                continue
            ndone = tuple(o[1] for o in joint)
            ng = g + sum(o[2] for o in joint)
            nstate = (nxt, ndone)
            if best.get(nstate, ng + 1) <= ng:
                continue
            best[nstate] = ng
            heappush(heap, (ng + heuristic(nxt, ndone), next(tick), ng, nstate))
    return None


def enumerate_best_constrained_cost(grid, kind, start, goal, constraints, max_len):
    """Cheapest constraint-respecting path by enumerating all move sequences.

    Costs follow the arrival rule (trailing goal waits free). Only usable on
    tiny instances; that is the point.
    """
    vertex = {(c.cells[0], c.time) for c in constraints if c.kind == VERTEX}
    edges = {(c.cells[0], c.cells[1], c.time) for c in constraints if c.kind != VERTEX}
    last_con = max((c.time for c in constraints), default=-1)
    if (start, 0) in vertex:
        return None
    best = None
    frontier = [(start,)]
    for _ in range(max_len + 1):
        nxt_frontier = []
        for path in frontier:
            t = len(path) - 1
            if path[-1] == goal:
                arrival = t
                while arrival > 0 and path[arrival - 1] == goal:
                    arrival -= 1
                # resting at the goal beyond the path end must stay legal
                rest_ok = all((goal, tau) not in vertex for tau in range(t + 1, last_con + 1))
                if rest_ok and (best is None or arrival < best):
                    best = arrival
            if t >= max_len:
                continue
            cell = path[-1]
            for dx, dy, dz in MOVES[kind]:
                c = (cell[0] + dx, cell[1] + dy, cell[2] + dz)
                if not grid.in_bounds(*c) or grid.is_occupied(*c):
                    continue
                if (c, t + 1) in vertex or (cell, c, t + 1) in edges:
                    continue
                nxt_frontier.append(path + (c,))
        frontier = nxt_frontier
    return best


# -- fixture builders ------------------------------------------------------


def pcd_ascii_bytes(points, extra_field=False, points_override=None, header_extras=()):
    n = points_override if points_override is not None else len(points)
    fields = "x y z" + (" intensity" if extra_field else "")
    size = "4 4 4" + (" 4" if extra_field else "")
    typ = "F F F" + (" F" if extra_field else "")
    cnt = "1 1 1" + (" 1" if extra_field else "")
    lines = [
        "# .PCD v0.7 - Point Cloud Data file format",
        "VERSION 0.7",
        f"FIELDS {fields}",
        f"SIZE {size}",
        f"TYPE {typ}",
        f"COUNT {cnt}",
        f"WIDTH {n}",
        "HEIGHT 1",
        "VIEWPOINT 0 0 0 1 0 0 0",
        f"POINTS {n}",
        *header_extras,
        "DATA ascii",
    ]
    for p in points:
        row = f"{p[0]} {p[1]} {p[2]}"
        if extra_field:
            row += " 0.25"
        lines.append(row)
    return ("\n".join(lines) + "\n").encode("ascii")


def pcd_binary_bytes(points, extra_field=False, truncate=0):
    n = len(points)
    fields = "x y z" + (" rgb" if extra_field else "")
    size = "4 4 4" + (" 4" if extra_field else "")
    typ = "F F F" + (" U" if extra_field else "")
    cnt = "1 1 1" + (" 1" if extra_field else "")
    header = (
        "VERSION 0.7\n"
        f"FIELDS {fields}\n"
        f"SIZE {size}\n"
        f"TYPE {typ}\n"
        f"COUNT {cnt}\n"
        f"WIDTH {n}\nHEIGHT 1\nPOINTS {n}\nDATA binary\n"
    ).encode("ascii")
    body = bytearray()
    for p in points:
        body += struct.pack("<fff", float(p[0]), float(p[1]), float(p[2]))
        if extra_field:
            body += struct.pack("<I", 0xFF00FF)
    if truncate:
        body = body[:-truncate]
    return header + bytes(body)


def pgm_p2_bytes(rows, maxval=255, comment=None):
    h = len(rows)
    w = len(rows[0])
    lines = ["P2"]
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{w} {h}")
    lines.append(str(maxval))
    for row in rows:
        lines.append(" ".join(str(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def pgm_p5_bytes(rows, maxval=255, comment=None):
    h = len(rows)
    w = len(rows[0])
    head = "P5\n"
    if comment:
        head += f"# {comment}\n"
    head += f"{w} {h}\n{maxval}\n"
    body = bytes(v for row in rows for v in row)
    return head.encode("ascii") + body


# -- random instance helpers ------------------------------------------------


def random_grid(rng: random.Random, dims, density=0.2) -> OccupancyGrid3D:
    nx, ny, nz = dims
    cells = np.array([1 if rng.random() < density else 0 for _ in range(nx * ny * nz)], dtype=np.uint8)
    return OccupancyGrid3D((0.0, 0.0, 0.0), 1.0, dims, cells)


def free_cells(grid, kind=None):
    nx, ny, nz = grid.dims
    zs = (0,) if kind == AGV else range(nz)
    return [
        (i, j, k)
        for k in zs
        for j in range(ny)
        for i in range(nx)
        if not grid.is_occupied(i, j, k)
    ]


def random_instance(rng: random.Random, dims, n_agents, density=0.2, kinds=None):
    """Random grid plus a roster with free, distinct starts and goals."""
    while True:
        grid = random_grid(rng, dims, density)
        ground = free_cells(grid, AGV)
        anywhere = free_cells(grid)
        if len(anywhere) < 2 * n_agents + 2 or len(ground) < 2 * n_agents:
            continue
        agents = []
        used = set()
        ok = True
        for aid in range(n_agents):
            kind = kinds[aid] if kinds else rng.choice((UAV, AGV))
            pool = ground if kind == AGV else anywhere
            picks = [c for c in pool if c not in used]
            if len(picks) < 2:
                ok = False
                break
            start = picks[rng.randrange(len(picks))]
            goal_picks = [c for c in picks if c != start]
            goal = goal_picks[rng.randrange(len(goal_picks))]
            used.update((start, goal))
            agents.append(Agent(aid, kind, start, goal))
        if ok:
            return grid, tuple(agents)


def random_walk_paths(rng: random.Random, dims, n_agents, max_len):
    """Unconstrained random walks used to stress the conflict detector."""
    nx, ny, nz = dims
    paths = {}
    for aid in range(n_agents):
        kind = rng.choice((UAV, AGV))
        k0 = 0 if kind == AGV else rng.randrange(nz)
        cell = (rng.randrange(nx), rng.randrange(ny), k0)
        cells = [cell]
        for _ in range(rng.randrange(1, max_len + 1)):
            moves = MOVES[kind]
            dx, dy, dz = moves[rng.randrange(len(moves))]
            nxt = (cell[0] + dx, cell[1] + dy, cell[2] + dz)
            if 0 <= nxt[0] < nx and 0 <= nxt[1] < ny and 0 <= nxt[2] < nz:
                cell = nxt
            cells.append(cell)
        paths[aid] = tuple(cells)
    return paths


def lower_rows(solution, cell_duration, resolution, origin):
    """``execute_plan`` row by row: every agent's commands, then one sort by (path index, agent id).

    Rows of one path index share one timestamp float, and rows on equal
    cells share the position tuple of the first of them in sorted order.
    """
    ox, oy, oz = (float(v) for v in origin)
    keyed = []
    for aid, cells in solution.paths.items():
        for t, cell in enumerate(cells):
            keyed.append((t, aid, cell, t > 0 and cell == cells[t - 1]))
    keyed.sort(key=lambda r: (r[0], r[1]))
    stamps, centres, rows = {}, {}, []
    for t, aid, cell, hold in keyed:
        if t not in stamps:
            stamps[t] = t * cell_duration
        if cell not in centres:
            i, j, k = cell
            centres[cell] = (ox + (i + 0.5) * resolution, oy + (j + 0.5) * resolution, oz + (k + 0.5) * resolution)
        rows.append(WaypointCommand(aid, stamps[t], centres[cell], hold))
    return tuple(rows)


def cell_at_replay(agents, paths):
    """A replayed plan's states as ``(tick, cells, status)``, built with one ``cell_at`` lookup per agent per tick.

    ``agents`` are the roster in id order. Tick 0 holds every agent's start;
    tick t holds each path's cell at t as a tuple (an ended path stays on its
    last cell), and an agent is at goal from its path's arrival tick on. The
    run ends at the makespan, the latest arrival.
    """
    arrivals = {aid: path_cost(cells) for aid, cells in paths.items()}
    states = []
    for t in range(max(arrivals.values(), default=0) + 1):
        cells = {a.id: tuple(cell_at(paths[a.id], t)) if t else a.start for a in agents}
        states.append((t, cells, {a.id: AT_GOAL if t >= arrivals[a.id] else EN_ROUTE for a in agents}))
    return states
