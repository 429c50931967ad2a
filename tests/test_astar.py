import hashlib
import random
import re
import weakref
from collections import Counter
from itertools import product

import numpy as np
import pytest

from skyrover import (
    AGV,
    UAV,
    Agent,
    Budget,
    Constraint,
    GreedyShieldedPolicy,
    ReservationTable,
    OccupancyGrid3D,
    ResourceLimitError,
    SolverConfig,
    empty_grid,
    generate_warehouse,
    online_policy_step,
    path_cost,
    solve,
    spacetime_astar,
    WorldView,
)
from skyrover.astar import _Neighbours, move_mask
from skyrover.mapf import EDGE, MOVES, VERTEX, detect_conflicts, per_grid

from oracles import (
    enumerate_best_constrained_cost,
    free_cells,
    random_grid,
    random_walk_paths,
    static_bfs_cost,
    tuple_heap_astar,
)


def forbidden(grid, constraints):
    table = ReservationTable(grid)
    for c in constraints:
        table.forbid(c)
    return table


def check_compliance(path, constraints=(), reserved=(), grid=None, kind=None):
    """Post-hoc audit: a returned path must violate nothing it was given.

    ``reserved`` are the paths of the table the search was given; the
    returned path must not collide with any of them.
    """
    vertex = {(c.cells[0], c.time) for c in constraints if c.kind == VERTEX}
    edges = {(c.cells[0], c.cells[1], c.time) for c in constraints if c.kind == EDGE}
    for t, cell in enumerate(path):
        assert (cell, t) not in vertex, f"vertex constraint violated at t={t}"
    for t in range(1, len(path)):
        assert (path[t - 1], path[t], t) not in edges, f"edge constraint violated at t={t}"
    me = len(reserved)
    hits = [c for c in detect_conflicts(dict(enumerate(reserved)) | {me: path}) if me in c.agents]
    assert hits == [], f"reservation violated: {hits}"
    if grid is not None:
        for cell in path:
            assert grid.in_bounds(*cell) and not grid.is_occupied(*cell)
    if kind == AGV:
        assert all(c[2] == 0 for c in path)


def _legal_cells(grid, kind, cell):
    """The in-bounds, free cells that ``kind``'s moves reach from ``cell``, in ``MOVES`` order."""
    i, j, k = cell
    out = [(i + dx, j + dy, k + dz) for dx, dy, dz in MOVES[kind]]
    return [c for c in out if grid.in_bounds(*c) and not grid.is_occupied(*c)]


def _mask_cells(grid, kind, cell):
    """The cells of the kind's moves whose bits are set in ``cell``'s byte of the grid's move mask, in ``MOVES`` order."""
    _, ny, nz = grid.dims
    i, j, k = cell
    bits = move_mask(grid, kind)[(i * ny + j) * nz + k]
    return [(i + di, j + dj, k + dk) for b, (di, dj, dk) in enumerate(MOVES[kind]) if bits >> b & 1]


def _stepped_cells(grid, kind, cell):
    """The cells ``online_policy_step`` moves a lone agent of ``kind`` at ``cell`` to, proposed each of the 26 around it."""
    view = WorldView(grid, (Agent(0, kind, cell, cell),), {0: cell})
    i, j, k = cell
    out = []
    for d in product((-1, 0, 1), repeat=3):
        proposal = (i + d[0], j + d[1], k + d[2])
        moved = online_policy_step(view, {0: proposal})[0]
        assert moved in (proposal, cell)
        if d != (0, 0, 0) and moved == proposal:
            out.append(moved)
    return out


def test_start_equals_goal():
    grid = empty_grid((3, 3, 1))
    path = spacetime_astar(grid, AGV, (1, 1, 0), (1, 1, 0))
    assert path == ((1, 1, 0),)
    assert path_cost(path) == 0


def test_empty_grid_agv_meets_manhattan_bound():
    grid = empty_grid((5, 5, 1))
    path = spacetime_astar(grid, AGV, (0, 0, 0), (4, 4, 0))
    assert path_cost(path) == 8
    # monotone staircase: each step closes the gap by one
    for a, b in zip(path, path[1:]):
        assert abs(b[0] - a[0]) + abs(b[1] - a[1]) == 1


def test_random_grids_match_static_bfs():
    rng = random.Random(123)
    solved = 0
    for _ in range(100):
        grid = random_grid(rng, (8, 8, 4), density=0.2)
        free = [
            (i, j, k)
            for i in range(8)
            for j in range(8)
            for k in range(4)
            if not grid.is_occupied(i, j, k)
        ]
        start, goal = rng.sample(free, 2)
        expected = static_bfs_cost(grid, UAV, start, goal)
        path = spacetime_astar(grid, UAV, start, goal)
        if expected is None:
            assert path is None
        else:
            assert path_cost(path) == expected
            check_compliance(path, grid=grid)
            solved += 1
    assert solved > 50  # the sweep must actually exercise solvable cases


def test_vertex_constraint_forces_one_wait(corridor_grid):
    cons = (Constraint(0, VERTEX, 1, ((0, 1, 0),)),)
    path = spacetime_astar(corridor_grid, AGV, (0, 0, 0), (0, 2, 0), forbidden(corridor_grid, cons))
    assert path_cost(path) == 3
    check_compliance(path, cons, grid=corridor_grid)
    oracle = enumerate_best_constrained_cost(corridor_grid, AGV, (0, 0, 0), (0, 2, 0), cons, max_len=4)
    assert oracle == 3


def test_constrained_costs_match_exhaustive_enumeration():
    rng = random.Random(99)
    grid = empty_grid((3, 3, 1))
    cells = [(i, j, 0) for i in range(3) for j in range(3)]
    for _ in range(60):
        start, goal = rng.sample(cells, 2)
        cons = []
        for _ in range(rng.randrange(0, 3)):
            cons.append(Constraint(0, VERTEX, rng.randrange(1, 4), (cells[rng.randrange(9)],)))
        cons = tuple(cons)
        if any(c.cells[0] == start and c.time == 0 for c in cons):
            continue
        best = enumerate_best_constrained_cost(grid, AGV, start, goal, cons, max_len=7)
        path = spacetime_astar(grid, AGV, start, goal, forbidden(grid, cons))
        if best is None or best > 7:
            if path is not None:
                assert path_cost(path) > 7
        else:
            assert path is not None and path_cost(path) == best
            check_compliance(path, cons, grid=grid)


def test_edge_constraint_respected(corridor_grid):
    cons = (Constraint(0, EDGE, 1, ((0, 0, 0), (0, 1, 0))),)
    path = spacetime_astar(corridor_grid, AGV, (0, 0, 0), (0, 2, 0), forbidden(corridor_grid, cons))
    check_compliance(path, cons, grid=corridor_grid)
    assert path_cost(path) == 3  # wait once, then walk through


def test_goal_constraint_delays_arrival(corridor_grid):
    # the goal is poisoned at t=3, so settling must happen at t>=4
    cons = (Constraint(0, VERTEX, 3, ((0, 2, 0),)),)
    path = spacetime_astar(corridor_grid, AGV, (0, 0, 0), (0, 2, 0), forbidden(corridor_grid, cons))
    assert path_cost(path) == 4
    assert path[3] != (0, 2, 0)


def test_reservations_block_and_delay():
    grid = empty_grid((4, 1, 1))
    reserved = ((1, 0, 0), (2, 0, 0), (3, 0, 0))
    table = ReservationTable(grid)
    table.reserve_path(reserved)
    path = spacetime_astar(grid, AGV, (0, 0, 0), (2, 0, 0), blocked=table)
    check_compliance(path, reserved=[reserved], grid=grid)
    # (2,0,0) is crossed by the reserved path at t=1 and free from t=2 on
    assert path_cost(path) == 2


def test_terminal_reservation_makes_goal_unreachable():
    grid = empty_grid((3, 1, 1))
    table = ReservationTable(grid)
    table.reserve_path(((1, 0, 0),))  # parks forever at t=0
    assert spacetime_astar(grid, AGV, (0, 0, 0), (1, 0, 0), blocked=table) is None


def test_swap_against_reservation_is_blocked():
    grid = empty_grid((2, 1, 1))
    table = ReservationTable(grid)
    table.reserve_path(((1, 0, 0), (0, 0, 0)))
    # head-on swap impossible; and the reserved agent parks at (0,0,0),
    # which is the searcher's start, so no path can exist at all
    assert spacetime_astar(grid, AGV, (0, 0, 0), (1, 0, 0), blocked=table) is None


@pytest.mark.parametrize("how", ["constraint", "reserved path"])
def test_start_taken_at_t0_means_no_path(how):
    grid = empty_grid((3, 3, 1))
    start, goal = (1, 1, 0), (1, 0, 0)
    if how == "constraint":
        table = forbidden(grid, (Constraint(0, VERTEX, 0, (start,)),))
    else:
        table = ReservationTable(grid)
        table.reserve_path((start, (1, 2, 0)))  # leaves the start at once
    assert spacetime_astar(grid, AGV, start, goal, blocked=table) is None
    # nothing else in the table stands in the way
    assert spacetime_astar(grid, AGV, (0, 1, 0), goal, blocked=table) is not None


@pytest.mark.parametrize("which", ["blocked", "avoid"])
def test_table_built_for_other_dims_is_rejected(which):
    grid = empty_grid((4, 3, 1))
    table = ReservationTable(empty_grid((3, 4, 1)))  # same cell count, other shape
    with pytest.raises(ValueError, match="dims"):
        spacetime_astar(grid, AGV, (0, 0, 0), (2, 2, 0), **{which: table})
    assert spacetime_astar(grid, AGV, (0, 0, 0), (2, 2, 0), **{which: ReservationTable(grid)}) is not None


def test_neighbour_lists_are_kept_on_the_grid_without_keeping_it_alive():
    rng = random.Random(5)
    grid = random_grid(rng, (6, 5, 3), density=0.3)
    start, goal = rng.sample(free_cells(grid), 2)
    spacetime_astar(grid, UAV, start, goal)
    lists = per_grid(grid, _Neighbours, UAV)
    assert lists  # filled by the search: the grid's cached lists, not a fresh build
    _, ny, nz = grid.dims
    for cid, entries in lists.items():
        free = _legal_cells(grid, UAV, (cid // (ny * nz), cid // nz % ny, cid % nz))
        assert entries == tuple(((a * ny + b) * nz + c, a, b, c) for a, b, c in free)
    ref = weakref.ref(grid)
    del grid, lists
    assert ref() is None  # freed at once: the cache holds no reference back to its grid


def test_next_cells_are_the_legal_moves_in_move_order():
    rng = random.Random(6)
    grid = random_grid(rng, (5, 4, 3), density=0.3)
    for kind in (UAV, AGV):
        assert move_mask(grid, kind) is move_mask(grid, kind)  # kept, not rebuilt
        for cell in free_cells(grid, kind):
            want = _legal_cells(grid, kind, cell)
            assert _mask_cells(grid, kind, cell) == want
            assert _stepped_cells(grid, kind, cell) == sorted(c for c in want if c != cell)
    fresh = random_grid(random.Random(6), (5, 4, 3), density=0.3)
    for kind in (UAV, AGV):
        for cell in free_cells(fresh, kind):  # numpy coordinates step to the same cells
            assert _stepped_cells(fresh, kind, tuple(np.array(cell))) == _stepped_cells(grid, kind, cell)
        for cid, entries in per_grid(fresh, _Neighbours, kind).items():
            assert all(type(v) is int for v in (cid, *(x for entry in entries for x in entry)))


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 4, 3), (5, 1, 3), (5, 4, 1), (1, 1, 6), (6, 5, 4)])
def test_every_cells_moves_equal_a_per_move_check(dims):
    """Each cell of seeded random grids, border and occupied cells and AGVs above layer 0
    included, against bounds and occupancy tested move by move in ``MOVES`` order."""
    rng = random.Random(sum(dims))
    nx, ny, nz = dims
    seen = Counter()
    for density in (0.0, 0.3, 0.7):
        grid = random_grid(rng, dims, density)
        for kind in (UAV, AGV):
            nbrs = per_grid(grid, _Neighbours, kind)
            for cell in ((i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)):
                want = _legal_cells(grid, kind, cell)
                i, j, k = cell
                assert _mask_cells(grid, kind, cell) == want
                assert _stepped_cells(grid, kind, cell) == sorted(c for c in want if c != cell)
                assert nbrs[(i * ny + j) * nz + k] == tuple(((a * ny + b) * nz + c, a, b, c) for a, b, c in want)
                if grid.is_occupied(*cell):
                    assert cell not in want  # an occupied cell lists no wait
                    seen["occupied"] += 1
                seen["agv above ground"] += kind == AGV and k > 0
    assert seen["occupied"] > 0 and (nz == 1 or seen["agv above ground"] > 0), seen


@pytest.mark.parametrize(
    "cell", [(0, 3, 0), (0, 0, -1), (-1, 0, 0), (4, 0, 0), (0, 0, 2), tuple(np.array([0, 3, 0]))]
)
def test_next_cells_of_a_cell_outside_the_grid_raise(cell):
    """Once aliased onto another cell's list: (0, 3, 0) gave (1, 0, 0)'s, (0, 0, -1) gave ((0, 2, 1),)."""
    grid = empty_grid((4, 3, 2))
    message = re.escape(f"cell {tuple(map(int, cell))} is outside the grid's dims (4, 3, 2)")
    for kind in (UAV, AGV):
        view = WorldView(grid, (Agent(0, kind, cell, (1, 1, 0)),), {0: cell})
        policy = GreedyShieldedPolicy()
        for _ in range(2):  # every call raises: nothing is kept for the cell
            with pytest.raises(ValueError, match=message):
                online_policy_step(view, {0: (1, 1, 0)})
            with pytest.raises(ValueError, match=message):
                policy.propose(view)


def test_unreachable_goal_terminates_via_dominance():
    import numpy as np

    from skyrover import OccupancyGrid3D

    cells = np.zeros(5, dtype=np.uint8)
    cells[2] = 1  # wall splits the corridor
    grid = OccupancyGrid3D((0, 0, 0), 1.0, (5, 1, 1), cells)
    budget = Budget()
    assert spacetime_astar(grid, AGV, (0, 0, 0), (4, 0, 0), budget=budget) is None
    # the start at t=0, then each of the two reachable cells once from t=1 on
    assert budget.used == 3


def _bfs_arrival(grid, kind, start, goal, vertex, moves, parked, max_time):
    """Earliest arrival by a plain BFS over (cell, t) states, or None.

    ``vertex`` holds taken (cell, t) states, ``moves`` forbidden (u, v, t)
    steps into t and ``parked`` cell -> the time from which it is taken for
    good. States are searched up to t = free cells + ``max_time`` + 1.
    """

    def taken(cell, t):
        return (cell, t) in vertex or parked.get(cell, t + 1) <= t

    goal_free = max((t for c, t in vertex if c == goal), default=-1) + 1
    layer = set() if taken(start, 0) else {start}
    for t in range(len(free_cells(grid)) + max_time + 2):
        if goal in layer and t >= goal_free and goal not in parked:
            return t
        layer = {
            v
            for u in layer
            for v in _legal_cells(grid, kind, u)
            if not taken(v, t + 1) and (u, v, t + 1) not in moves
        }
    return None


def test_none_means_no_path_on_tiny_grids():
    """spacetime_astar against the BFS on grids of at most 12 free cells,
    under reserved paths (some released again, so that ``max_time`` is only
    an upper bound), ``forbid`` constraints and soft avoid tables."""
    rng = random.Random(1616)
    seen = Counter()
    for _ in range(500):
        dims = rng.choice(((4, 3, 1), (3, 3, 1), (6, 2, 1), (2, 3, 2), (3, 2, 2)))
        grid = random_grid(rng, dims, density=rng.choice((0.0, 0.2, 0.35)))
        kind = AGV if dims[2] == 1 or rng.random() < 0.3 else UAV
        pool = free_cells(grid, kind)
        if len(pool) < 2:
            continue
        start, goal = rng.sample(pool, 2)
        table = ReservationTable(grid)
        vertex, moves, parked = set(), set(), {}
        constraints, kept = [], []
        if rng.random() < 0.5:
            for cells in random_walk_paths(rng, dims, rng.randrange(1, 4), 10).values():
                table.reserve_path(cells)
                kept.append(cells)
            for cells in [p for p in kept if rng.random() < 0.4]:
                table.release_path(cells)
                kept.remove(cells)
            for cells in kept:
                vertex.update((c, t) for t, c in enumerate(cells))
                moves.update((cells[t], cells[t - 1], t) for t in range(1, len(cells)))
                parked[cells[-1]] = min(parked.get(cells[-1], len(cells)), len(cells) - 1)
            seen["released"] += table.max_time > max((len(p) - 1 for p in kept), default=0)
        else:
            for _ in range(rng.randrange(1, 8)):
                t, u = rng.randrange(10), rng.choice(pool)
                steps = [v for v in _legal_cells(grid, kind, u) if v != u]
                if t and steps and rng.random() < 0.4:
                    constraints.append(Constraint(0, EDGE, t, (u, rng.choice(steps))))
                    moves.add((*constraints[-1].cells, t))
                else:
                    constraints.append(Constraint(0, VERTEX, t, (u,)))
                    vertex.add((u, t))
                table.forbid(constraints[-1])
        avoid = None
        if rng.random() < 0.5:
            avoid = ReservationTable(grid)
            for cells in random_walk_paths(rng, dims, rng.randrange(1, 4), 12).values():
                avoid.reserve_path(cells)
        expected = _bfs_arrival(grid, kind, start, goal, vertex, moves, parked, table.max_time)
        path = spacetime_astar(grid, kind, start, goal, table, avoid=avoid)
        if expected is None:
            assert path is None
            seen["none"] += 1
            seen["cut off by the table"] += static_bfs_cost(grid, kind, start, goal) is not None
        else:
            assert path is not None and path_cost(path) == expected
            check_compliance(path, constraints, kept, grid, kind)
            seen["solved"] += 1
    assert all(seen[k] >= 40 for k in ("released", "none", "cut off by the table", "solved")), seen


def test_expansion_limit_is_distinguishable():
    grid = empty_grid((6, 6, 1))
    budget = Budget(max_expansions=3)
    with pytest.raises(ResourceLimitError):
        spacetime_astar(grid, AGV, (0, 0, 0), (5, 5, 0), budget=budget)


# (algorithm, node_expansion_limit) -> (ll_expansions, ct_expanded) on the
# 40x30x6, 6-shelf-row, 4uav+10agv seed-7 warehouse: the limit trips on
# expansion limit + 1, and that count is what the budget reports
BUDGET_TRIPS = {
    ("cbs", 1): (2, 0),
    ("cbs", 1000): (1001, 2),
    ("cbs", 5000): (5001, 18),
    ("astar", 1): (2, 0),
}


@pytest.mark.parametrize("alg, limit", list(BUDGET_TRIPS), ids=lambda v: str(v))
def test_expansion_limit_trips_at_limit_plus_one(alg, limit):
    grid, agents = generate_warehouse((40, 30, 6), 6, "4uav+10agv", 7)
    res = solve(grid, agents, SolverConfig(algorithm=alg, node_expansion_limit=limit))
    used, ct = BUDGET_TRIPS[alg, limit]
    assert res.status == "resource_limit"
    assert (res.stats.ll_expansions, res.stats.ct_expanded) == (used, ct)
    assert res.reason == f"expansion limit hit after {used} nodes"


def test_clock_is_checked_by_the_64th_expansion():
    grid = empty_grid((60, 60, 1))  # the path alone takes 119 expansions
    budget = Budget(time_limit=1e-9)
    with pytest.raises(ResourceLimitError, match="time limit exceeded"):
        spacetime_astar(grid, AGV, (0, 0, 0), (59, 59, 0), budget=budget)
    assert budget.used == 64


def test_deterministic_tie_breaking():
    grid = empty_grid((6, 6, 2))
    first = spacetime_astar(grid, UAV, (0, 0, 0), (5, 5, 1))
    for _ in range(5):
        assert spacetime_astar(grid, UAV, (0, 0, 0), (5, 5, 1)) == first


def test_occupied_endpoint_is_contract_error():
    import numpy as np

    from skyrover import OccupancyGrid3D

    cells = np.array([1, 0, 0], dtype=np.uint8)
    grid = OccupancyGrid3D((0, 0, 0), 1.0, (3, 1, 1), cells)
    with pytest.raises(ValueError, match="free cells"):
        spacetime_astar(grid, AGV, (0, 0, 0), (2, 0, 0))


@pytest.mark.parametrize("start, goal", [((-1, 0, 0), (3, 3, 0)), ((0, 0, 0), (9, 0, 0))], ids=["start", "goal"])
def test_out_of_bounds_endpoint_is_contract_error(start, goal):
    """Refused before any occupancy read: (-1, 0, 0) would read the wrapped index of (3, 0, 0)."""
    grid = empty_grid((4, 4, 1))
    with pytest.raises(ValueError, match="must be free cells inside the grid's dims"):
        spacetime_astar(grid, AGV, start, goal)


def _low_level_runs():
    """``(path or outcome, budget.used)`` of space-time A* on seeded random grids.

    The cases cover hard tables of reserved paths (with their terminal
    entries) and of ``forbid`` vertex and edge constraints, soft avoid
    tables, start == goal, searches that return None (a parked goal, a held
    start, a goal cut off by walls or by a table, ended by dominance) and
    expansion limits that trip at an exact count, also on paths that exist.
    Returns the runs and a tally of the kinds of case they hit.
    """
    rng = random.Random(1515)
    runs = []
    seen = Counter()
    for _ in range(600):
        dims = rng.choice(((7, 6, 3), (9, 8, 2), (6, 6, 4), (10, 5, 1)))
        grid = random_grid(rng, dims, density=rng.choice((0.1, 0.25, 0.4)))
        kind = AGV if rng.random() < 0.4 else UAV
        pool = free_cells(grid, kind)
        if len(pool) < 2:
            continue
        start, goal = rng.sample(pool, 2)
        if rng.random() < 0.08:
            goal = start
        blocked = avoid = None
        table = rng.random()
        if table < 0.35:
            blocked = ReservationTable(grid)
            for cells in random_walk_paths(rng, dims, rng.randrange(1, 5), 12).values():
                blocked.reserve_path(cells)
            seen["reserved"] += 1
        elif table < 0.7:
            # constraints on the unconstrained path's own states and moves, as CBS adds them
            free_path = spacetime_astar(grid, kind, start, goal) or (start,)
            blocked = ReservationTable(grid)
            for _ in range(rng.randrange(1, 6)):
                t = rng.randrange(len(free_path))
                if t and rng.random() < 0.5:
                    blocked.forbid(Constraint(0, EDGE, t, free_path[t - 1 : t + 1]))
                else:
                    blocked.forbid(Constraint(0, VERTEX, t, free_path[t : t + 1]))
            seen["forbid"] += 1
        if rng.random() < 0.5:
            avoid = ReservationTable(grid)
            for cells in random_walk_paths(rng, dims, rng.randrange(1, 6), 15).values():
                avoid.reserve_path(cells)
            seen["avoid"] += 1
        limit = rng.choice((None, None, rng.randrange(1, 150)))
        budget = Budget(limit, 1e6 if rng.random() < 0.3 else None)
        try:
            path = spacetime_astar(grid, kind, start, goal, blocked, budget, avoid)
        except ResourceLimitError:
            path = "limit"
            assert budget.used == limit + 1
        seen["start==goal"] += start == goal
        seen["none"] += path is None
        seen["limit"] += path == "limit"
        seen["solved"] += isinstance(path, tuple)
        runs.append((path, budget.used))
    for _ in range(6):
        # budgets below the length of a path that exists, so they must trip
        dims = rng.choice(((7, 6, 3), (9, 8, 2), (10, 5, 1)))
        grid = random_grid(rng, dims, density=0.2)
        kind = rng.choice((AGV, UAV))
        start, goal = rng.sample(free_cells(grid, kind), 2)
        cost = static_bfs_cost(grid, kind, start, goal)
        if not cost:
            continue
        avoid = ReservationTable(grid)
        for cells in random_walk_paths(rng, dims, 3, 15).values():
            avoid.reserve_path(cells)
        limit = rng.randrange(1, cost + 1)
        budget = Budget(limit, 1e6)
        with pytest.raises(ResourceLimitError):
            spacetime_astar(grid, kind, start, goal, budget=budget, avoid=avoid)
        assert budget.used == limit + 1
        seen["limit"] += 1
        runs.append(("limit", budget.used))
    return runs, seen


# recorded on the search that stops by dominance; (runs, solved, None, limit
# tripped) and the sha256 of the runs' repr
LOW_LEVEL_TALLY = (605, 406, 177, 22)
LOW_LEVEL_DIGEST = "844179831b15be5c48fba58cb490bb12935251e012989a3a4366f53b5d7caa90"


def test_low_level_answers_and_effort_are_pinned():
    runs, seen = _low_level_runs()
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()
    assert all(seen[k] >= 20 for k in ("reserved", "forbid", "avoid", "start==goal", "none", "limit")), seen
    assert (len(runs), seen["solved"], seen["none"], seen["limit"]) == LOW_LEVEL_TALLY
    assert digest == LOW_LEVEL_DIGEST


def _both_searches(grid, kind, start, goal, blocked=None, avoid=None, limit=None, clock=False):
    """(outcome, budget.used) of ``spacetime_astar`` and of the tuple-heap oracle on one input,
    each with its own budget; the outcome is the path, None, or "limit" when the budget tripped."""
    out = []
    for search in (spacetime_astar, tuple_heap_astar):
        budget = Budget(limit, 1e6 if clock else None)
        try:
            outcome = search(grid, kind, start, goal, blocked, budget, avoid)
        except ResourceLimitError:
            outcome = "limit"
        out.append((outcome, budget.used))
    return out


def test_bucket_queue_matches_the_tuple_heap():
    """Path, expansions charged and the point a limit trips, against the tuple-heap search, on seeded random inputs."""
    rng = random.Random(3434)
    seen = Counter()
    for _ in range(600):
        dims = rng.choice(((8, 6, 3), (9, 7, 1), (6, 5, 4), (12, 4, 2)))
        grid = random_grid(rng, dims, density=rng.choice((0.1, 0.25, 0.4)))
        kind = AGV if dims[2] == 1 or rng.random() < 0.4 else UAV
        pool = free_cells(grid, kind)
        if len(pool) < 2:
            continue
        start, goal = rng.sample(pool, 2)
        if rng.random() < 0.08:
            goal = start
        blocked = avoid = None
        table = rng.random()
        if table < 0.35:
            blocked = ReservationTable(grid)
            for cells in random_walk_paths(rng, dims, rng.randrange(1, 5), 12).values():
                blocked.reserve_path(cells)
            seen["reserved"] += 1
        elif table < 0.7:
            blocked = ReservationTable(grid)
            for _ in range(rng.randrange(1, 8)):
                t, u = rng.randrange(12), rng.choice(pool)
                steps = [v for v in _legal_cells(grid, kind, u) if v != u]
                if t and steps and rng.random() < 0.5:
                    blocked.forbid(Constraint(0, EDGE, t, (u, rng.choice(steps))))
                else:
                    blocked.forbid(Constraint(0, VERTEX, t, (u,)))
            seen["forbid"] += 1
        if rng.random() < 0.5:
            avoid = ReservationTable(grid)
            for cells in random_walk_paths(rng, dims, rng.randrange(1, 6), 15).values():
                avoid.reserve_path(cells)
            seen["avoid"] += 1
        limit = rng.choice((None, None, rng.randrange(1, 120)))
        (outcome, used), expected = _both_searches(grid, kind, start, goal, blocked, avoid, limit, rng.random() < 0.3)
        assert (outcome, used) == expected
        seen["start==goal"] += start == goal
        if outcome is None:
            seen["walled off" if static_bfs_cost(grid, kind, start, goal) is None else "cut off by the table"] += 1
        seen["limit"] += outcome == "limit"
        seen["solved"] += isinstance(outcome, tuple)
    kinds = ("reserved", "forbid", "avoid", "start==goal", "walled off", "cut off by the table", "limit", "solved")
    assert all(seen[k] >= 10 for k in kinds), seen


@pytest.mark.parametrize("dims, kind", [((5, 13, 1), AGV), ((25, 41, 1), AGV), ((1, 3, 3), UAV), ((9, 1, 57), UAV)])
def test_keys_whose_largest_h_and_cell_id_are_powers_of_two(dims, kind):
    """The largest h and the largest cell id fill their key fields' top bits exactly."""
    nx, ny, nz = dims
    largest_id, largest_h = nx * ny * nz - 1, nx + ny + nz - 3
    assert largest_id & (largest_id - 1) == 0 and largest_h & (largest_h - 1) == 0
    grid = empty_grid(dims)
    corner = (nx - 1, ny - 1, nz - 1)
    avoid = ReservationTable(grid)
    rng = random.Random(sum(dims))
    for cells in random_walk_paths(rng, dims, 6, 2 * largest_h).values():
        if kind == UAV or all(c[2] == 0 for c in cells):
            avoid.reserve_path(cells)
    for start, goal in (((0, 0, 0), corner), (corner, (0, 0, 0))):
        for table in (None, avoid):
            (path, used), expected = _both_searches(grid, kind, start, goal, avoid=table)
            assert (path, used) == expected
            assert path_cost(path) == largest_h


def test_more_than_64_soft_collisions_on_the_chosen_path():
    """A 200-cell corridor whose every cell but the start is parked on in the avoid table: the
    only shortest path collides 199 times, and the collision field outgrows one 30-bit digit."""
    dims = (200, 100, 1)
    cells = np.ones(200 * 100, dtype=np.uint8)
    cells[:400] = 0  # rows j = 0 and j = 1
    grid = OccupancyGrid3D((0.0, 0.0, 0.0), 1.0, dims, cells)
    avoid = ReservationTable(grid)
    for i in range(1, 200):
        avoid.reserve_path(((i, 0, 0),))
    (path, used), expected = _both_searches(grid, AGV, (0, 0, 0), (199, 0, 0), avoid=avoid)
    assert (path, used) == expected
    assert path == tuple((i, 0, 0) for i in range(200))
    widths = (200 * 100).bit_length() + sum(dims).bit_length()  # the cell id and h fields: 15 + 9 bits
    assert ((len(path) - 1) << widths).bit_length() > 30


def test_a_search_that_crosses_an_empty_f_bucket():
    """A U-shaped floor whose start may not wait at t = 1: every successor of the start lies
    two f values up, so the bucket in between is empty and the search must step past it."""
    cells = np.zeros(9, dtype=np.uint8)
    cells[[1, 4]] = 1  # (1, 0, 0) and (1, 1, 0)
    grid = OccupancyGrid3D((0.0, 0.0, 0.0), 1.0, (3, 3, 1), cells)
    start, goal = (0, 0, 0), (2, 0, 0)
    blocked = forbidden(grid, (Constraint(0, VERTEX, 1, (start,)),))
    (path, used), expected = _both_searches(grid, AGV, start, goal, blocked)
    assert (path, used) == expected
    assert path == ((0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 2, 0), (2, 2, 0), (2, 1, 0), (2, 0, 0))


def test_released_paths_leave_the_terminal_times_of_a_rescan():
    """After every reserve and release, each goal cell's terminal time is the earliest end among the paths still reserved there."""
    rng = random.Random(99)
    dims = (3, 3, 2)
    grid = empty_grid(dims)
    _, ny, nz = dims
    for _ in range(40):
        table = ReservationTable(grid)
        held = []
        for _ in range(30):
            if held and rng.random() < 0.45:
                table.release_path(held.pop(rng.randrange(len(held))))
            else:
                cells = held[rng.randrange(len(held))] if held and rng.random() < 0.2 else random_walk_paths(rng, dims, 1, 6)[0]
                table.reserve_path(cells)
                held.append(cells)
            rescan = {}
            for cells in held:
                i, j, k = cells[-1]
                cid = (i * ny + j) * nz + k
                rescan[cid] = min(rescan.get(cid, len(cells)), len(cells) - 1)
            assert table._terminal == rescan


class _CountedProbes(Counter):
    """A table's entry Counter that counts the membership probes made of it."""

    probes = 0

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


class _TalliedTimes(set):
    """A table's set of forbid times that tallies its answers to membership tests."""

    def __init__(self, times):
        super().__init__(times)
        self.answers = Counter()

    def __contains__(self, t):
        hit = super().__contains__(t)
        self.answers[hit] += 1
        return hit


def _gate_table(rng, grid, kind, route, what, crowd, seen):
    """A table of up to ``crowd`` random-walk paths (``what`` names ``paths``), constraints, or both, for the gate test.

    Constraints sit on ``route``'s states and moves, as CBS adds them, or on
    random free cells; an edge constraint leaves, at its time, a cell that
    some reserved path is on or one that none is. ``released`` takes every
    path back out and keeps the constraints.
    """
    dims = grid.dims
    table = ReservationTable(grid)
    paths = [] if what == "constraints" else list(random_walk_paths(rng, dims, rng.randrange(1, crowd), 12).values())
    for cells in paths:
        table.reserve_path(cells)
    if what != "paths":
        pool = free_cells(grid, kind)
        for _ in range(rng.randrange(1, 8)):
            t = rng.randrange(1, 12)
            held = [cells[t] for cells in paths if t < len(cells)]
            if held and rng.random() < 0.4:
                u = rng.choice(held)
            elif t < len(route) and rng.random() < 0.6:
                u = route[t - 1]
            else:
                u = rng.choice(pool)
            steps = [v for v in _legal_cells(grid, kind, u) if v != u]
            if steps and rng.random() < 0.6:
                v = route[t] if t < len(route) and u == route[t - 1] != route[t] else rng.choice(steps)
                table.forbid(Constraint(0, EDGE, t, (u, v)))
                seen["edge on a path's cell" if u in held else "edge off every path"] += 1
            else:
                table.forbid(Constraint(0, VERTEX, t, (route[t] if t < len(route) and rng.random() < 0.5 else u,)))
    if what == "released":
        for cells in paths:
            table.release_path(cells)
    return table


def test_table_gates_match_the_tuple_heap():
    """Path, expansions charged and the point a limit trips, against the tuple-heap search, on
    tables built so that each probe gate both opens and stays shut.

    The hard gate probes a table without reserved paths only at its forbid
    times; the swap gate probes the avoid table's edges only where a path is
    on the expanded cell, or at a forbid time. Tables hold constraints,
    paths, both, or constraints whose paths were all released; avoid tables
    may carry constraints too, and crowd the tiny grids, where a state is
    often reached again with one collision fewer. Some dims make the largest
    cell id fill its key field, and paths leave that cell, so a parent's cell
    id equals the field's mask.
    """
    rng = random.Random(3838)
    seen = Counter()
    for _ in range(700):
        dims = rng.choice(((8, 4, 1), (4, 4, 2), (4, 2, 4), (9, 7, 1), (8, 6, 3), (4, 2, 1), (2, 2, 2)))
        nx, ny, nz = dims
        grid = random_grid(rng, dims, density=rng.choice((0.1, 0.25)))
        kind = AGV if nz == 1 or rng.random() < 0.3 else UAV
        pool = free_cells(grid, kind)
        if len(pool) < 2:
            continue
        start, goal = rng.sample(pool, 2)
        largest = (nx - 1, ny - 1, nz - 1)
        ends = [c for c in (largest, (0, 0, 0)) if c in pool and c != goal]  # cell ids cmask and 0
        if ends and rng.random() < 0.5:
            start = rng.choice(ends)
        route = spacetime_astar(grid, kind, start, goal) or (start,)
        hard = rng.choice((None, "constraints", "paths", "both", "released"))
        soft = rng.choice((None, "paths", "both"))
        blocked = hard and _gate_table(rng, grid, kind, route, hard, 5, seen)
        avoid = soft and _gate_table(rng, grid, kind, route, soft, 10 if nx * ny * nz == 8 else 5, seen)
        tables = [table for table in (blocked, avoid) if table is not None]
        for table in tables:
            table._edge = _CountedProbes(table._edge)
            table._forbid_times = _TalliedTimes(table._forbid_times)
        limit = rng.choice((None, None, rng.randrange(1, 120)))
        clock = rng.random() < 0.3
        runs = []
        for search in (spacetime_astar, tuple_heap_astar):
            for table in tables:
                table._edge.probes = 0
                table._forbid_times.answers.clear()
            budget = Budget(limit, 1e6 if clock else None)
            try:
                outcome = search(grid, kind, start, goal, blocked, budget, avoid)
            except ResourceLimitError:
                outcome = "limit"
            runs.append(((outcome, budget.used), [(t._edge.probes, t._forbid_times.answers.copy()) for t in tables]))
        (outcome, probes), (expected, oracle_probes) = runs
        assert outcome == expected
        for table, (n, answers), (n_oracle, _) in zip(tables, probes, oracle_probes):
            assert n <= n_oracle  # a gate only skips probes
            if table is blocked and hard in ("paths", "both"):
                assert n == n_oracle  # a table that holds a path is probed on every expansion
                continue
            gate = "hard" if table is blocked else "swap"
            seen[f"{gate} gate opens"] += n > 0
            seen[f"{gate} gate stays shut"] += n < n_oracle
            if table is avoid:
                seen["swap gate opens on a forbid time alone"] += answers[True] > 0
        if blocked is not None and hard == "released":
            assert not blocked._ends and not blocked._terminal
            seen["released"] += 1
        path = outcome[0]
        if isinstance(path, tuple) and nx * ny * nz & (nx * ny * nz - 1) == 0 and largest in path[:-1]:
            seen["a parent cell id equals the field's mask"] += 1
        seen["limit"] += path == "limit"
        seen["solved"] += isinstance(path, tuple)
    kinds = (
        "hard gate opens",
        "hard gate stays shut",
        "swap gate opens",
        "swap gate stays shut",
        "swap gate opens on a forbid time alone",
        "edge on a path's cell",
        "edge off every path",
        "released",
        "a parent cell id equals the field's mask",
        "limit",
        "solved",
    )
    assert all(seen[k] >= 10 for k in kinds), seen
