import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyrover import (
    AGV,
    UAV,
    Agent,
    OccupancyGrid3D,
    PointCloud,
    Scenario,
    ScenarioError,
    Simulator,
    Solution,
    SolverConfig,
    TaskScript,
    detect_conflicts,
    empty_grid,
    execute_plan,
    extrude_ground,
    make_solution,
    parse_pgm,
    path_cost,
    rasterize,
    save_scenario,
    step_conflicts,
    validate_agents,
    validate_solution,
    warehouse_grid,
)
from skyrover.bench import run_cell
from skyrover.mapf import MOVES, Violation, _collisions, cell_at, components

from oracles import (
    brute_force_conflicts,
    flood_fill_labels,
    free_cells,
    random_grid,
    random_walk_paths,
    static_bfs_cost,
    tuple_validate_solution,
)


def _normalize(conflicts):
    return [(c.time, *c.agents, c.kind, c.cells) for c in conflicts]


def test_disjoint_paths_have_no_conflicts():
    paths = {
        0: ((0, 0, 0), (1, 0, 0), (2, 0, 0)),
        1: ((0, 2, 0), (1, 2, 0), (2, 2, 0)),
    }
    assert detect_conflicts(paths) == []


def test_canonical_swap_is_one_edge_conflict():
    paths = {0: ((0, 0, 0), (1, 0, 0)), 1: ((1, 0, 0), (0, 0, 0))}
    conflicts = detect_conflicts(paths)
    assert len(conflicts) == 1
    c = conflicts[0]
    assert c.kind == "edge"
    assert c.agents == (0, 1)
    assert c.time == 1
    assert c.cells == ((0, 0, 0), (1, 0, 0))


def test_vertex_conflict_from_stay_at_goal():
    # agent 0 parks on (2,0,0); agent 1 passes through it two ticks later
    paths = {
        0: ((0, 0, 0), (1, 0, 0), (2, 0, 0)),
        1: ((2, 2, 0), (2, 1, 0), (2, 1, 0), (2, 0, 0)),
    }
    conflicts = detect_conflicts(paths)
    assert [(c.kind, c.time) for c in conflicts] == [("vertex", 3)]


def test_single_path_never_conflicts():
    assert detect_conflicts({0: ((0, 0, 0), (1, 0, 0))}) == []


def test_order_is_canonical_and_permutation_stable():
    rng = random.Random(3)
    for _ in range(50):
        paths = random_walk_paths(rng, (4, 4, 2), 4, 8)
        base = detect_conflicts(paths)
        relabeled = {len(paths) - 1 - a: p for a, p in paths.items()}
        # permuting dict insertion order must not change the result
        shuffled = dict(sorted(paths.items(), key=lambda kv: -kv[0]))
        assert detect_conflicts(shuffled) == base
        assert sorted(_normalize(base)) == _normalize(base)
        del relabeled


def test_matches_brute_force_on_random_walks():
    rng = random.Random(17)
    for _ in range(120):
        paths = random_walk_paths(rng, (5, 5, 2), 3, 10)
        assert _normalize(detect_conflicts(paths)) == brute_force_conflicts(paths)


def test_stay_at_goal_extension_changes_nothing():
    rng = random.Random(23)
    for _ in range(60):
        paths = random_walk_paths(rng, (4, 4, 2), 3, 8)
        extended = {a: p + (p[-1],) * 3 for a, p in paths.items()}
        horizon = max(len(p) - 1 for p in extended.values())
        assert _normalize(detect_conflicts(extended)) == brute_force_conflicts(paths, horizon=horizon)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 4))
def test_brute_force_agreement_property(seed, n):
    rng = random.Random(seed)
    paths = random_walk_paths(rng, (4, 4, 2), n, 9)
    assert _normalize(detect_conflicts(paths)) == brute_force_conflicts(paths)


def _detect_conflicts_per_tick(paths):
    """The scan as a lookup per agent per tick: ``cell_at`` builds each timestep's joint position."""
    ids = sorted(paths)
    if len(ids) < 2:
        return []
    out = []
    prev = {a: paths[a][0] for a in ids}
    for t in range(max(len(paths[a]) for a in ids)):
        cur = {a: cell_at(paths[a], t) for a in ids}
        out.extend(step_conflicts(prev, cur, t))
        prev = cur
    out.sort(key=lambda c: c.sort_key)
    return out


def test_padded_scan_equals_the_per_tick_lookup_with_ended_agents():
    rng = random.Random(5)
    seen = {"vertex": 0, "edge": 0, "ended": 0}
    for _ in range(300):
        # up to eight walkers of unequal length on a 2x3 floor, sparse ids, tuple or list paths
        walks = random_walk_paths(rng, (2, 3, 1), rng.randrange(1, 9), 12)
        ids = rng.sample(range(50), len(walks))
        paths = {aid: (list(p) if rng.random() < 0.3 else p) for aid, p in zip(ids, walks.values())}
        want = _detect_conflicts_per_tick(paths)
        assert detect_conflicts(paths) == want, paths
        for c in want:
            seen[c.kind] += 1
            seen["ended"] += any(c.time >= len(paths[a]) for a in c.agents)
    assert min(seen.values()) >= 100, seen


def _frozen_rows(rng):
    """Up to eight agents on a 4x3 floor whose joint rows mostly repeat, cut into paths of unequal length.

    A step either repeats the last row, swaps two agents, parks one agent on
    another's cell or moves one agent anywhere; a long frozen tail follows.
    Moves need not be adjacent: the collision rule does not ask.
    """
    n = rng.randrange(2, 9)
    spots = [(i, j, 0) for i in range(4) for j in range(3)]
    rows = [dict(zip(range(n), rng.sample(spots, n)))]
    for _ in range(rng.randrange(5, 40)):
        row = dict(rows[-1])
        r = rng.random()
        if r < 0.15:
            a, b = rng.sample(range(n), 2)
            row[a], row[b] = row[b], row[a]
        elif r < 0.25:
            a, b = rng.sample(range(n), 2)
            row[a] = row[b]
        elif r < 0.4:
            row[rng.randrange(n)] = rng.choice(spots)
        rows.append(row)
        if r < 0.4:
            rows.extend([row] * rng.randrange(0, 6))  # a frozen stretch after the change
    rows.extend([rows[-1]] * rng.randrange(0, 30))
    return {a: tuple(row[a] for row in rows[: rng.randrange(1, len(rows) + 1)]) for a in range(n)}


def test_a_scan_that_skips_repeated_rows_equals_a_scan_of_every_row():
    rng = random.Random(26)
    seen = Counter()
    for _ in range(400):
        paths = _frozen_rows(rng)
        want = _detect_conflicts_per_tick(paths)
        assert detect_conflicts(paths) == want, paths
        at = {(c.kind, c.agents, c.time) for c in want}
        for c in want:
            rows = [{a: cell_at(p, t) for a, p in paths.items()} for t in (c.time - 2, c.time - 1, c.time)]
            if c.kind == "vertex" and rows[1] == rows[2] and ("vertex", c.agents, c.time - 1) in at:
                seen["parked pair, repeated row"] += 1
            if c.kind == "edge" and c.time >= 2 and rows[0] == rows[1]:
                seen["swap after a frozen row"] += 1
    assert seen["parked pair, repeated row"] >= 1000 and seen["swap after a frozen row"] >= 100, seen


def test_step_conflicts_matches_brute_force_on_crowded_steps():
    rng = random.Random(41)
    for _ in range(2000):
        # six walkers on a 2x2 floor share cells and transitions often
        paths = random_walk_paths(rng, (2, 2, 1), 6, 1)
        prev = {a: p[0] for a, p in paths.items()}
        cur = {a: p[-1] for a, p in paths.items()}
        want = [c for c in brute_force_conflicts({a: (prev[a], cur[a]) for a in paths}) if c[0] == 1]
        found = sorted(step_conflicts(prev, cur, 1), key=lambda c: c.sort_key)
        assert _normalize(found) == want


def test_collisions_and_step_conflicts_match_brute_force():
    """Seeded joint steps on a crowded 3x2 floor, sparse ids in any order, jumps allowed (the rule does not ask):
    the plain tuples and the ``Conflict`` objects both equal the pairwise scan, edge cells in a's order."""
    rng = random.Random(39)
    spots = [(i, j, 0) for i in range(3) for j in range(2)]
    seen = Counter()
    for _ in range(3000):
        ids = rng.sample(range(40), rng.randrange(2, 9))
        prev = {a: rng.choice(spots) for a in ids}
        cur = {a: prev[a] if rng.random() < 0.3 else rng.choice(spots) for a in ids}
        want = sorted(c for c in brute_force_conflicts({a: (prev[a], cur[a]) for a in ids}) if c[0] == 1)
        assert sorted((1, a, b, kind, cells) for a, b, kind, cells in _collisions(prev, cur)) == want
        t = rng.randrange(50)
        assert sorted(_normalize(step_conflicts(prev, cur, t))) == [(t, *c[1:]) for c in want]
        moves = Counter((prev[a], cur[a]) for a in ids if prev[a] != cur[a])
        ends = Counter(cur.values())
        seen["duplicate moves"] += max(moves.values(), default=0) >= 2
        seen["shared start cells"] += len(set(prev.values())) < len(ids)
        seen["shared end cells"] += max(ends.values()) >= 2
        seen["3-way contention"] += max(ends.values()) >= 3
        seen["swaps"] += any(c[3] == "edge" for c in want)
    assert min(seen.values()) >= 300, seen


def test_shared_transition_swaps_with_every_agent():
    # agents 0 and 1 move u -> v together while agent 2 moves v -> u
    u, v = (0, 0, 0), (1, 0, 0)
    found = step_conflicts({0: u, 1: u, 2: v}, {0: v, 1: v, 2: u}, 5)
    assert sorted(_normalize(found)) == [
        (5, 0, 1, "vertex", (v,)),
        (5, 0, 2, "edge", (u, v)),
        (5, 1, 2, "edge", (u, v)),
    ]


# -- path cost ----------------------------------------------------------------


@pytest.mark.parametrize(
    "cells,cost",
    [
        ((("g"),), 0),
        (("a", "g"), 1),
        (("a", "g", "g", "g"), 1),
        (("g", "x", "g"), 2),
        (("g", "g", "x", "g"), 3),
        (("g", "g"), 0),
    ],
)
def test_path_cost_arrival_rule(cells, cost):
    assert path_cost(cells) == cost


def test_solution_objectives():
    sol = make_solution({0: ((0, 0, 0), (1, 0, 0)), 1: ((5, 5, 0),)})
    assert sol.sum_of_costs == 1
    assert sol.makespan == 1


def test_motion_models():
    from skyrover.mapf import MOVES, WAIT

    assert len(MOVES[UAV]) == 7 and WAIT in MOVES[UAV]
    assert len(MOVES[AGV]) == 5 and WAIT in MOVES[AGV]
    assert all(d[2] == 0 for d in MOVES[AGV])
    assert set(MOVES[AGV]) < set(MOVES[UAV])
    assert all(abs(d[0]) + abs(d[1]) + abs(d[2]) <= 1 for d in MOVES[UAV])


# -- validation ---------------------------------------------------------------


def test_validate_accepts_clean_solution():
    grid = empty_grid((3, 3, 1))
    agents = (Agent(0, AGV, (0, 0, 0), (2, 0, 0)), Agent(1, AGV, (0, 2, 0), (2, 2, 0)))
    paths = {
        0: ((0, 0, 0), (1, 0, 0), (2, 0, 0)),
        1: ((0, 2, 0), (1, 2, 0), (2, 2, 0)),
    }
    assert validate_solution(grid, agents, paths) == []


def test_validate_flags_teleport_once():
    grid = empty_grid((4, 1, 1))
    agents = (Agent(0, AGV, (0, 0, 0), (3, 0, 0)),)
    paths = {0: ((0, 0, 0), (2, 0, 0), (3, 0, 0))}
    violations = validate_solution(grid, agents, paths)
    assert [v.kind for v in violations] == ["illegal-move"]
    assert violations[0].time == 1


def test_validate_flags_agv_off_ground_as_kinematic():
    grid = empty_grid((2, 2, 2))
    agents = (Agent(0, AGV, (0, 0, 0), (1, 1, 0)),)
    paths = {0: ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0))}
    kinds = [v.kind for v in validate_solution(grid, agents, paths)]
    assert kinds.count("kinematic") == 2  # one per airborne cell
    assert "illegal-move" not in kinds  # vertical unit steps are shape-legal


def test_validate_flags_conflicts_and_mismatches():
    grid = empty_grid((3, 1, 1))
    agents = (Agent(0, UAV, (0, 0, 0), (2, 0, 0)), Agent(1, UAV, (2, 0, 0), (0, 0, 0)))
    paths = {
        0: ((0, 0, 0), (1, 0, 0), (2, 0, 0)),
        1: ((2, 0, 0), (1, 0, 0), (0, 0, 0)),
    }
    kinds = {v.kind for v in validate_solution(grid, agents, paths)}
    assert "vertex-conflict" in kinds


def test_validate_flags_obstacle_and_missing_path():
    import numpy as np

    from skyrover import OccupancyGrid3D

    cells = np.zeros(9, dtype=np.uint8)
    cells[4] = 1  # (1,1,0)
    grid = OccupancyGrid3D((0, 0, 0), 1.0, (3, 3, 1), cells)
    agents = (Agent(0, AGV, (0, 0, 0), (2, 2, 0)), Agent(1, AGV, (0, 1, 0), (2, 1, 0)))
    paths = {0: ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0))}
    kinds = [v.kind for v in validate_solution(grid, agents, paths)]
    assert "occupied-cell" in kinds and "missing-path" in kinds


_GOOD_PATH = ((0, 0, 0), (1, 0, 0), (2, 0, 0))

# violation kind -> (paths, the violation's time) for one AGV from (0, 0, 0) to (2, 0, 0) on a 3x2x1 grid
PATH_FAULTS = {
    "unknown-agent": ({0: _GOOD_PATH, 7: ((0, 1, 0),)}, None),
    "empty-path": ({0: ()}, None),
    "start-mismatch": ({0: _GOOD_PATH[1:]}, 0),
    "goal-mismatch": ({0: _GOOD_PATH[:2]}, 1),
    "out-of-bounds": ({0: ((0, 0, 0), (0, -1, 0)) + _GOOD_PATH}, 1),
}


@pytest.mark.parametrize("kind", list(PATH_FAULTS))
def test_validate_flags_each_path_fault_alone(kind):
    paths, time = PATH_FAULTS[kind]
    agents = (Agent(0, AGV, (0, 0, 0), (2, 0, 0)),)
    [violation] = validate_solution(empty_grid((3, 2, 1)), agents, paths)
    assert (violation.kind, violation.time) == (kind, time)


def test_validate_reports_an_empty_path_beside_another_agents_path():
    agents = (Agent(0, AGV, (0, 0, 0), (2, 0, 0)), Agent(1, AGV, (0, 1, 0), (2, 1, 0)))
    [violation] = validate_solution(empty_grid((3, 2, 1)), agents, {0: _GOOD_PATH, 1: ()})
    assert (violation.kind, violation.agent) == ("empty-path", 1)


_MALFORMED = "is not an [i, j, k] triple of integers below 2**62 in magnitude"


@pytest.mark.parametrize(
    "path, kind, time, detail",
    [
        (((0, 0, 0), (1, 0), (2, 0, 0)), "malformed-cell", 1, f"cell (1, 0) at t=1 {_MALFORMED}"),
        (((0, 0, 0), (1.0, 0, 0), (2, 0, 0)), "malformed-cell", 1, f"cell (1.0, 0, 0) at t=1 {_MALFORMED}"),
        (((0, 0, 0), (1, 0, 0), (2, 3, "0")), "malformed-cell", 2, f"cell (2, 3, '0') at t=2 {_MALFORMED}"),
        (((0, 0, 0), (True, 0, 0), (2, 0, 0)), "malformed-cell", 1, f"cell (True, 0, 0) at t=1 {_MALFORMED}"),
        (((0, 0, 0), (2**62, 0, 0), (2, 0, 0)), "malformed-cell", 1, f"cell ({2**62}, 0, 0) at t=1 {_MALFORMED}"),
        ([[0, 0, 0], [1, 0, 0]], "goal-mismatch", 1, "path ends at (1, 0, 0), goal is (2, 0, 0)"),
    ],
    ids=["short", "float", "string", "bool", "too-big", "list-cells"],
)
def test_a_malformed_cell_is_a_violation_and_a_list_cell_reads_as_a_tuple(path, kind, time, detail):
    grid = empty_grid((3, 4, 1))
    agent = Agent(0, AGV, (0, 0, 0), (2, 0, 0))
    assert validate_solution(grid, (agent,), {0: path}) == [Violation(kind, 0, time, detail)]
    supplied = Solution(paths={0: path}, sum_of_costs=len(path) - 1, makespan=len(path) - 1)
    with pytest.raises(ScenarioError) as err:
        Simulator().init(Scenario(grid=grid, agents=(agent,)), solution=supplied)
    assert str(err.value) == f"supplied plan fails validation: {detail}"


def _random_walk_plan(rng):
    """A grid with obstacles and one random walk over free cells per agent, UAVs and AGVs, each ending on its goal."""
    dims = (rng.randrange(3, 6), rng.randrange(2, 5), rng.randrange(1, 3))
    grid = random_grid(rng, dims, 0.2)
    agents, paths = [], {}
    for aid in range(rng.randrange(1, 6)):
        kind = rng.choice((UAV, AGV))
        cell = rng.choice(free_cells(grid, kind) or [(0, 0, 0)])
        cells = [cell]
        for _ in range(rng.randrange(0, 9)):
            dx, dy, dz = rng.choice(MOVES[kind])
            nxt = (cell[0] + dx, cell[1] + dy, cell[2] + dz)
            if grid.in_bounds(*nxt) and not grid.is_occupied(*nxt):
                cell = nxt
            cells.append(cell)
        agents.append(Agent(aid, kind, cells[0], cells[-1]))
        paths[aid] = cells
    return grid, agents, paths


def _mutate(rng, grid, agents, paths) -> str:
    """One fault of the differential test, applied in place; returns its name."""
    nx, ny, nz = grid.dims
    aid = rng.choice(sorted(paths))
    cells = paths[aid] = list(paths[aid])
    t = rng.randrange(len(cells)) if cells else 0
    name = rng.choice(MUTATIONS)
    if not cells and name not in ("missing-agent", "unknown-agent", "numpy-ints"):
        name = "unknown-agent"
    elif name in ("lifted-agv", "list-cells") and not all(map(_integer_triple, cells)):  # a malformed cell is left as it is
        name = "teleport"
    if name == "teleport":
        cells[t] = (rng.randrange(nx), rng.randrange(ny), rng.randrange(nz))
    elif name == "obstacle":
        blocked = [c for c in ((i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)) if grid.is_occupied(*c)]
        cells[t] = rng.choice(blocked or [(nx, 0, 0)])
    elif name == "lifted-agv":
        cells[t] = (cells[t][0], cells[t][1], cells[t][2] + 1)
    elif name == "out-of-bounds":
        cells[t] = rng.choice(((-1, 0, 0), (nx, 0, 0), (0, ny, 0), (0, 0, -1), (0, 0, nz), (2**62 - 1, -(2**62 - 1), 0)))
    elif name == "start-goal":
        cells[rng.choice((0, -1))] = (rng.randrange(nx), rng.randrange(ny), 0)
    elif name == "empty-path":
        paths[aid] = ()
    elif name == "missing-agent":
        del paths[aid]
    elif name == "unknown-agent":
        paths[100 + rng.randrange(3)] = [(rng.randrange(nx), rng.randrange(ny), 0)] * rng.randrange(1, 4)
    elif name == "crowd":
        spot = cells[t]
        for b in rng.sample(sorted(paths), min(3, len(paths))):
            if paths[b]:
                q = paths[b] = list(paths[b]) + [paths[b][-1]] * max(0, t + 1 - len(paths[b]))
                q[t] = spot
    elif name == "swap":
        others = [b for b in paths if b != aid and len(paths[b]) > 1]
        if others and len(cells) > 1:
            b = rng.choice(others)
            t = rng.randrange(1, min(len(cells), len(paths[b])))
            q = paths[b] = list(paths[b])
            q[t - 1], q[t] = cells[t], cells[t - 1]
    elif name == "parked-on-goal":
        other = rng.choice(agents)
        cells.extend([other.goal] * rng.randrange(1, 4))
    elif name == "ragged":
        paths[aid] = cells[: rng.randrange(1, len(cells) + 1)] + [cells[-1]] * rng.randrange(0, 3)
    elif name == "numpy-ints":
        paths[aid] = [tuple(map(np.int64, c)) if _integer_triple(c) and max(map(abs, c)) < 2**62 else c for c in cells]
    elif name == "malformed":
        cells[t] = rng.choice(((1, 0), (1.0, 0, 0), (True, 0, 0), (0, 0, "0"), (2**62, 0, 0), (0, -(2**70), 0), None, np.array(cells[t])))
    elif name == "list-cells":
        paths[aid] = [list(c) for c in cells]
    return name


def _integer_triple(cell) -> bool:
    return type(cell) in (tuple, list) and len(cell) == 3 and all(type(v) is int for v in cell)


MUTATIONS = (
    "teleport", "obstacle", "lifted-agv", "out-of-bounds", "start-goal", "empty-path", "missing-agent", "unknown-agent",
    "crowd", "swap", "parked-on-goal", "ragged", "numpy-ints", "malformed", "list-cells",
)


def test_array_checks_equal_the_tuple_reference_on_mutated_random_walks():
    rng = random.Random(33)
    seen = Counter()
    for _ in range(700):
        grid, agents, paths = _random_walk_plan(rng)
        for _ in range(rng.randrange(0, 4)):
            if paths:
                seen[_mutate(rng, grid, agents, paths)] += 1
        paths = {aid: (tuple(cells) if rng.random() < 0.5 else cells) for aid, cells in paths.items()}
        want = tuple_validate_solution(grid, agents, paths)
        assert validate_solution(grid, agents, paths) == want, paths
        seen.update(v.kind for v in want)
        held = {aid: cells for aid, cells in paths.items() if len(cells)}
        if any(v.kind == "malformed-cell" for v in want) and len(held) > 1:
            with pytest.raises(ValueError, match="is not an"):
                detect_conflicts(held)
        elif held:
            assert _normalize(detect_conflicts(held)) == brute_force_conflicts(held), paths
    assert min(seen[m] for m in MUTATIONS) >= 20, seen
    kinds = ("malformed-cell", "unknown-agent", "missing-path", "empty-path", "start-mismatch", "goal-mismatch", "out-of-bounds",
             "occupied-cell", "kinematic", "illegal-move", "vertex-conflict", "edge-conflict")
    assert min(seen[k] for k in kinds) >= 20, seen


@pytest.mark.parametrize(
    "agents, problem",
    [
        ((Agent(0, UAV, (0, -1, 0), (1, 1, 1)),), "agent 0 start (0, -1, 0) is out of bounds"),
        ((Agent(0, UAV, (0, 0, 0), (1, 1, 2)),), "agent 0 goal (1, 1, 2) is out of bounds"),
        (
            (Agent(0, UAV, (0, 0, 0), (1, 1, 1)), Agent(1, UAV, (2, 2, 0), (1, 1, 1))),
            "agents 0 and 1 share goal (1, 1, 1)",
        ),
    ],
    ids=["start-out-of-bounds", "goal-out-of-bounds", "shared-goal"],
)
def test_validate_agents_names_each_problem_alone(agents, problem):
    assert validate_agents(empty_grid((3, 3, 2)), agents) == [problem]


def test_validate_agents_instance_rules():
    grid = empty_grid((3, 3, 2))
    agents = (
        Agent(0, AGV, (0, 0, 0), (1, 0, 0)),
        Agent(0, UAV, (0, 0, 0), (0, 0, 1)),
        Agent(2, AGV, (0, 1, 1), (2, 2, 0)),
    )
    problems = "\n".join(validate_agents(grid, agents))
    assert "duplicate agent id 0" in problems
    assert "share start" in problems
    assert "above the ground layer" in problems


# -- static reachability -----------------------------------------------------


def _assert_components_match_bfs(grid, kind, pairs):
    labels = components(grid, kind)
    nx, ny, nz = grid.dims
    assert len(labels) == nx * ny * nz
    cells = set(free_cells(grid, kind))
    for flat, label in enumerate(labels.tolist()):
        cell = (flat % nx, flat // nx % ny, flat // (nx * ny))
        assert (label >= 0) == (cell in cells)
    for a, b in pairs:
        same = labels[grid.index(*a)] == labels[grid.index(*b)]
        assert same == (static_bfs_cost(grid, kind, a, b) is not None), (kind, a, b)


def test_components_agree_with_static_bfs_on_random_grids():
    rng = random.Random(4)
    checked = 0
    for _ in range(80):
        dims = (rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 4))
        grid = random_grid(rng, dims, rng.choice((0.2, 0.35, 0.5)))
        for kind in (UAV, AGV):
            cells = free_cells(grid, kind)
            if len(cells) < 2:
                continue
            pairs = [tuple(rng.sample(cells, 2)) for _ in range(40)]
            _assert_components_match_bfs(grid, kind, pairs)
            checked += len(pairs)
    assert checked > 5000


def test_agv_components_are_the_ground_slice_labels():
    rng = random.Random(8)
    for _ in range(120):
        dims = (rng.randint(1, 9), rng.randint(1, 9), rng.randint(2, 5))
        grid = random_grid(rng, dims, rng.choice((0.2, 0.35, 0.5)))
        nx, ny, nz = dims
        ground = OccupancyGrid3D((0.0, 0.0, 0.0), 1.0, (nx, ny, 1), grid.cells[: nx * ny])
        labels = components(grid, AGV)
        # in one layer a UAV moves like an AGV, so the full 3D labelling checks the slice
        for kind in (AGV, UAV):
            assert labels[: nx * ny].tolist() == components(ground, kind).tolist()
        assert (labels[nx * ny :] == -1).all() and len(labels) == nx * ny * nz


def _serpentine(n, cut=None):
    """n x n one-cell corridor winding row by row; ``cut`` blocks one of its cells."""
    arr = np.ones((n, n), dtype=np.uint8)  # [j, i]
    arr[::2, :] = 0
    for j in range(1, n, 2):
        arr[j, n - 1 if j % 4 == 1 else 0] = 0
    if cut is not None:
        arr[cut[1], cut[0]] = 1
    return OccupancyGrid3D((0, 0, 0), 1.0, (n, n, 1), arr.reshape(-1))


@pytest.mark.parametrize("kind", [UAV, AGV])
def test_components_follow_a_serpentine_corridor(kind):
    n = 41
    ends = ((0, 0, 0), (n - 1, n - 1, 0))
    whole = _serpentine(n)
    labels = components(whole, kind)
    assert len(set(labels[labels >= 0].tolist())) == 1
    _assert_components_match_bfs(whole, kind, [ends])
    cut = _serpentine(n, cut=(n // 2, n // 2, 0))
    labels = components(cut, kind)
    assert len(set(labels[labels >= 0].tolist())) == 2
    _assert_components_match_bfs(cut, kind, [ends, ((0, 0, 0), (n // 2 - 1, n // 2, 0))])


def _assert_labels_are_the_flood_fill(grid, kind):
    labels = components(grid, kind)
    assert labels.dtype == np.int64
    assert labels.tolist() == flood_fill_labels(grid, kind), (grid.dims, kind)
    return len(set(labels[labels >= 0].tolist()))


def test_components_equal_the_flood_fill_labels_on_random_grids():
    rng = random.Random(21)
    grids = []
    for n in range(240):
        dims = [rng.randint(1, 11) for _ in range(3)]
        if n % 3 == 0:
            dims[rng.randrange(3)] = 1
        grids.append(random_grid(rng, tuple(dims), rng.uniform(0.0, 0.7)))
    for dims in ((1, 1, 1), (11, 1, 1), (1, 11, 1), (1, 1, 11), (7, 5, 3)):
        grids.append(random_grid(rng, dims, 0.0))
        grids.append(random_grid(rng, dims, 1.0))
    for grid in grids:
        for kind in (UAV, AGV):
            _assert_labels_are_the_flood_fill(grid, kind)


def _spiral(n, cut=None):
    """n x n one-cell corridor spiralling inwards from the corner; ``cut`` blocks one of its cells."""
    arr = np.ones((n, n), dtype=np.uint8)  # [j, i]
    i = j = 0
    di, dj = 1, 0
    arr[0, 0] = 0
    while True:
        for di, dj in ((di, dj), (-dj, di)):  # straight on, else turn clockwise
            if 0 <= i + 2 * di < n and 0 <= j + 2 * dj < n and arr[j + 2 * dj, i + 2 * di]:
                break
        else:
            break
        arr[j + dj, i + di] = arr[j + 2 * dj, i + 2 * di] = 0
        i, j = i + 2 * di, j + 2 * dj
    if cut is not None:
        arr[cut[1], cut[0]] = 1
    return OccupancyGrid3D((0, 0, 0), 1.0, (n, n, 1), arr.reshape(-1))


def _shaft_world(nx=9, ny=7, nz=7):
    """Free rooms on even layers, solid slabs between them, one shaft through each slab.

    A wall splits the ground room in two and the lowest shaft rises from one
    half only, so the other half is a component of its own for both kinds.
    """
    arr = np.zeros((nz, ny, nx), dtype=np.uint8)  # [k, j, i]
    arr[1::2] = 1
    for k in range(1, nz, 2):
        arr[k, (ny - 1) * (k // 2 % 2), (nx - 1) * (k // 2 % 2)] = 0
    arr[0, :, nx // 2] = 1
    return OccupancyGrid3D((0, 0, 0), 1.0, (nx, ny, nz), arr.reshape(-1))


def _along_j(grid):
    """A one-layer square ``grid`` mirrored across its diagonal, so corridors along i run along j."""
    n = grid.dims[0]
    return OccupancyGrid3D((0, 0, 0), 1.0, grid.dims, grid.cells.reshape(n, n).T.reshape(-1))


@pytest.mark.parametrize("kind", [UAV, AGV])
def test_components_are_exact_on_adversarial_shapes(kind):
    n = 61
    # every run along i of the mirrored serpentine is a single cell
    assert _assert_labels_are_the_flood_fill(_along_j(_serpentine(n)), kind) == 1
    assert _assert_labels_are_the_flood_fill(_along_j(_serpentine(n, cut=(n // 2, n // 2, 0))), kind) == 2
    assert _assert_labels_are_the_flood_fill(_spiral(n), kind) == 1
    assert _assert_labels_are_the_flood_fill(_spiral(n, cut=(n // 2, 0, 0)), kind) == 2
    assert _assert_labels_are_the_flood_fill(_shaft_world(), kind) == 2



# The one input rule for integers, cells and positive reals, at every entry point
# that takes one from outside code. Each value is accepted or refused alike everywhere.
_CELL = (8, 9, 3)  # big enough for a warehouse layout
_VALUES = {
    "int": [(7, True), (np.int64(7), True), (7.0, False), (7.9, False), (True, False), ("7", False), (None, False)],
    "cell": [(_CELL, True), (list(_CELL), True), (np.array(_CELL), True), ([8.7, 9, 3], False), ([8, 9], False), ("893", False)],
    "real": [
        (2, True),
        (2.5, True),
        (np.float32(2.5), True),
        (0, False),
        (-1, False),
        (math.nan, False),
        (math.inf, False),
        (True, False),
        ("2.5", False),
    ],
}
_LINE = {"grid": {"kind": "empty", "dims": [4, 1, 1]}, "agents": (Agent(0, AGV, (0, 0, 0), (3, 0, 0)),)}


def _task(**fields):
    return TaskScript(**{"kind": "inventory_scan", "agv_id": 0, "uav_id": 1, "point_a": (1, 1, 0), "point_b": (2, 2, 0), **fields})


def _stores_nothing(call):
    def build(value, tmp_path):
        call(value, tmp_path)

    return build


def _run_budget(max_ticks, _):
    sim = Simulator()
    sim.init(Scenario(**_LINE), SolverConfig(algorithm="cbs"))
    return sim.run(max_ticks=max_ticks).budget


def _run_cell(repeats, tmp_path):
    save_scenario(Scenario(**_LINE), tmp_path / "line.json")
    run_cell(tmp_path / "line.json", "astar", repeats=repeats)


# entry point -> (the field its error names, its kind of value, (value, tmp_path) -> what it stored)
_ENTRY_POINTS = {
    "Agent.id": ("id", "int", lambda v, _: Agent(v, UAV, (0, 0, 0), (1, 0, 0)).id),
    "Agent.start": ("start", "cell", lambda v, _: Agent(0, UAV, v, (0, 0, 0)).start),
    "Agent.goal": ("goal", "cell", lambda v, _: Agent(0, UAV, (0, 0, 0), v).goal),
    **{
        f"TaskScript.{name}": (name, kind, lambda v, _, name=name: getattr(_task(**{name: v}), name))
        for name, kind in [
            ("agv_id", "int"),
            ("uav_id", "int"),
            ("hover_offset", "int"),
            ("hold_steps", "int"),
            ("point_a", "cell"),
            ("point_b", "cell"),
        ]
    },
    "SolverConfig.node_expansion_limit": (
        "node_expansion_limit",
        "int",
        lambda v, _: SolverConfig(node_expansion_limit=v).node_expansion_limit,
    ),
    "SolverConfig.time_limit": ("time_limit", "real", lambda v, _: SolverConfig(time_limit=v).time_limit),
    "OccupancyGrid3D.dims": ("dims", "cell", lambda v, _: OccupancyGrid3D((0, 0, 0), 1.0, v, np.zeros(216)).dims),
    "OccupancyGrid3D.resolution": (
        "resolution",
        "real",
        lambda v, _: OccupancyGrid3D((0, 0, 0), v, (2, 1, 1), np.zeros(2)).resolution,
    ),
    "parse_pgm.resolution": ("resolution", "real", lambda v, _: parse_pgm(b"P2 2 1 255 0 255", v).resolution),
    "parse_pgm.occupied_threshold": (
        "occupied_threshold",
        "int",
        _stores_nothing(lambda v, _: parse_pgm(b"P2 2 1 255 0 255", occupied_threshold=v)),
    ),
    "warehouse_grid.dims": ("dims", "cell", lambda v, _: warehouse_grid(v, 1, 1).dims),
    "warehouse_grid.shelf_rows": ("shelf_rows", "int", _stores_nothing(lambda v, _: warehouse_grid((40, 40, 2), v, 1))),
    "warehouse_grid.shelf_height": ("shelf_height", "int", _stores_nothing(lambda v, _: warehouse_grid(_CELL, 1, v))),
    "extrude_ground.nz": ("nz", "int", lambda v, _: extrude_ground(empty_grid((2, 1, 1)), v).dims[2]),
    "rasterize.resolution": (
        "resolution",
        "real",
        lambda v, _: rasterize(PointCloud(np.array([[0.5, 0.5, 0.5]])), v).resolution,
    ),
    "rasterize.padding": (
        "padding",
        "int",
        _stores_nothing(lambda v, _: rasterize(PointCloud(np.array([[0.5, 0.5, 0.5]])), 1.0, padding=v)),
    ),
    "execute_plan.cell_duration": (
        "cell_duration",
        "real",
        _stores_nothing(lambda v, _: execute_plan(make_solution({0: ((0, 0, 0), (1, 0, 0))}), v, 1.0, (0, 0, 0))),
    ),
    "execute_plan.resolution": (
        "resolution",
        "real",
        _stores_nothing(lambda v, _: execute_plan(make_solution({0: ((0, 0, 0), (1, 0, 0))}), 1.0, v, (0, 0, 0))),
    ),
    "Simulator.run.max_ticks": ("max_ticks", "int", _run_budget),
    "run_cell.repeats": ("repeats", "int", _stores_nothing(_run_cell)),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_every_entry_point_keeps_one_rule_for_integers_cells_and_positive_reals(tmp_path, entry):
    field, kind, build = _ENTRY_POINTS[entry]
    for value, accepted in _VALUES[kind]:
        if value is None and field == "max_ticks":
            continue  # None asks for the mode's default budget
        if not accepted:
            with pytest.raises(ValueError, match=f"^{field} must be "):
                build(value, tmp_path)
            continue
        stored = build(value, tmp_path)
        if stored is None:
            continue
        expected = {"int": 7, "cell": _CELL}.get(kind) or float(value)
        assert stored == expected and type(stored) is type(expected), (value, stored)
        assert kind != "cell" or all(type(v) is int for v in stored), (value, stored)
