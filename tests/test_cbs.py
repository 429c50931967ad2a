import hashlib
import random

import numpy as np
import pytest

from skyrover import (
    AGV,
    UAV,
    Agent,
    OccupancyGrid3D,
    ReservationTable,
    ScenarioError,
    SolverConfig,
    detect_conflicts,
    empty_grid,
    generate_warehouse,
    solve,
    spacetime_astar,
    validate_solution,
)
import skyrover.mapf
from skyrover.cbs import replan_conflicts
from skyrover.mapf import EDGE, path_cost

from oracles import brute_force_conflicts, joint_optimal_cost, random_instance, random_walk_paths


def pocket_corridor():
    """1x3 corridor along y plus a pocket adjacent to the middle cell."""
    arr = np.ones((1, 3, 2), dtype=np.uint8)  # [k, j, i]
    arr[0, :, 0] = 0
    arr[0, 1, 1] = 0
    return OccupancyGrid3D((0, 0, 0), 1.0, (2, 3, 1), arr.reshape(-1))


def test_non_interacting_agents_cost_is_independent_sum():
    grid = empty_grid((5, 5, 1))
    agents = (Agent(0, AGV, (0, 0, 0), (4, 0, 0)), Agent(1, AGV, (0, 4, 0), (4, 4, 0)))
    res = solve(grid, agents)
    assert res.ok
    assert res.solution.sum_of_costs == 8
    assert res.stats.ct_expanded == 0  # root was already conflict-free
    assert validate_solution(grid, agents, res.solution.paths) == []


def test_swap_instance_costs_more_than_independent_optimum():
    grid = pocket_corridor()
    agents = (Agent(0, AGV, (0, 0, 0), (0, 2, 0)), Agent(1, AGV, (0, 2, 0), (0, 0, 0)))
    independent = sum(
        path_cost(spacetime_astar(grid, a.kind, a.start, a.goal)) for a in agents
    )
    res = solve(grid, agents)
    assert res.ok
    assert validate_solution(grid, agents, res.solution.paths) == []
    assert res.solution.sum_of_costs > independent
    assert res.solution.sum_of_costs == joint_optimal_cost(grid, agents)


def test_unreachable_goal_is_no_solution():
    cells = np.array([0, 1, 0], dtype=np.uint8)
    grid = OccupancyGrid3D((0, 0, 0), 1.0, (3, 1, 1), cells)
    agents = (Agent(0, AGV, (0, 0, 0), (2, 0, 0)),)
    res = solve(grid, agents)
    assert res.status == "no_solution"
    assert "agent 0" in res.reason


@pytest.mark.parametrize("algorithm", ["astar", "cbs"])
def test_solve_reports_an_unreachable_goal_before_any_search(algorithm):
    arr = np.zeros((1, 60, 60), dtype=np.uint8)  # [k, j, i]
    arr[0, :, 30] = 1
    grid = OccupancyGrid3D((0, 0, 0), 1.0, (60, 60, 1), arr.reshape(-1))
    agents = (Agent(0, UAV, (0, 5, 0), (0, 6, 0)), Agent(1, AGV, (0, 0, 0), (59, 0, 0)))
    res = solve(grid, agents, SolverConfig(algorithm=algorithm, node_expansion_limit=200_000))
    assert res.status == "no_solution"
    assert res.reason == "agent 1: goal is not reachable from its start"
    assert (res.stats.ll_expansions, res.stats.ct_expanded, res.stats.best_cost) == (0, 0, None)


@pytest.mark.parametrize(
    "agents, problem",
    [
        ((Agent(0, AGV, (-1, 0, 0), (3, 3, 0)),), "agent 0 start (-1, 0, 0) is out of bounds"),
        ((Agent(0, AGV, (0, 0, 0), (9, 0, 0)),), "agent 0 goal (9, 0, 0) is out of bounds"),
        (
            (Agent(0, AGV, (0, 0, 0), (3, 3, 0)), Agent(1, AGV, (0, 0, 0), (3, 0, 0))),
            "agents 0 and 1 share start (0, 0, 0)",
        ),
    ],
    ids=["start-out-of-bounds", "goal-out-of-bounds", "shared-start"],
)
def test_solve_refuses_an_invalid_instance(agents, problem):
    with pytest.raises(ScenarioError) as err:
        solve(empty_grid((4, 4, 1)), agents)
    assert str(err.value) == f"invalid instance:\n  {problem}"


def test_solves_on_one_grid_label_each_kind_once(monkeypatch):
    grid, agents = generate_warehouse((40, 30, 6), 6, "4uav+10agv", 7)
    copy = OccupancyGrid3D(grid.origin, grid.resolution, grid.dims, grid.cells)
    want = [solve(copy, agents, SolverConfig(algorithm=alg)) for alg in ("astar", "cbs")]
    grid = OccupancyGrid3D(grid.origin, grid.resolution, grid.dims, grid.cells)  # unlabelled: sampling labelled the first
    labelled = []
    build = skyrover.mapf._label_components

    def counted(g, kind):
        labelled.append(kind)
        return build(g, kind)

    monkeypatch.setattr(skyrover.mapf, "_label_components", counted)
    got = [solve(grid, agents, SolverConfig(algorithm=alg)) for alg in ("astar", "cbs")]
    assert sorted(labelled) == [AGV, UAV]
    for g, w in zip(got, want):
        assert g.solution == w.solution
        assert (g.stats.ll_expansions, g.stats.ct_expanded) == (w.stats.ll_expansions, w.stats.ct_expanded)


def test_solved_stats_report_the_optimal_cost_as_the_bound():
    grid = pocket_corridor()
    agents = (Agent(0, AGV, (0, 0, 0), (0, 2, 0)), Agent(1, AGV, (0, 2, 0), (0, 0, 0)))
    res = solve(grid, agents)
    assert res.ok
    assert res.stats.ct_expanded > 0
    assert res.stats.best_cost == res.solution.sum_of_costs


def test_budget_spent_after_the_root_keeps_ct_nodes_and_bound():
    grid = pocket_corridor()
    agents = (Agent(0, AGV, (0, 0, 0), (0, 2, 0)), Agent(1, AGV, (0, 2, 0), (0, 0, 0)))
    solved = solve(grid, agents)
    # one expansion short of the solved run: the search dies in its last replan
    limit = solved.stats.ll_expansions - 1
    res = solve(grid, agents, SolverConfig(algorithm="cbs", node_expansion_limit=limit))
    assert res.status == "resource_limit"
    assert 0 < res.stats.ct_expanded <= solved.stats.ct_expanded
    assert res.stats.best_cost is not None
    assert res.stats.best_cost <= solved.solution.sum_of_costs


def test_resource_limit_reported():
    grid = pocket_corridor()
    agents = (Agent(0, AGV, (0, 0, 0), (0, 2, 0)), Agent(1, AGV, (0, 2, 0), (0, 0, 0)))
    res = solve(grid, agents, SolverConfig(algorithm="cbs", node_expansion_limit=2))
    assert res.status == "resource_limit"
    assert res.stats.ll_expansions >= 2


def test_matches_joint_oracle_on_random_instances():
    rng = random.Random(404)
    agreements = 0
    for _ in range(60):
        n = rng.choice((2, 2, 3))
        grid, agents = random_instance(rng, (5, 5, 2), n, density=0.2)
        res = solve(grid, agents, SolverConfig(algorithm="cbs", time_limit=60.0))
        expected = joint_optimal_cost(grid, agents)
        if expected is None:
            assert res.status == "no_solution"
        else:
            assert res.ok, res.reason
            assert res.solution.sum_of_costs == expected
            assert validate_solution(grid, agents, res.solution.paths) == []
            agreements += 1
    assert agreements > 30


def test_deterministic_output():
    rng = random.Random(7)
    grid, agents = random_instance(rng, (5, 5, 2), 3, density=0.25)
    first = solve(grid, agents)
    for _ in range(3):
        again = solve(grid, agents)
        assert again.status == first.status
        if first.ok:
            assert again.solution == first.solution


def test_mixed_kinds_resolved():
    grid = empty_grid((3, 3, 2))
    agents = (
        Agent(0, AGV, (0, 0, 0), (2, 0, 0)),
        Agent(1, UAV, (2, 0, 0), (0, 0, 0)),
    )
    res = solve(grid, agents)
    assert res.ok
    assert validate_solution(grid, agents, res.solution.paths) == []
    assert res.solution.sum_of_costs == joint_optimal_cost(grid, agents)


def _table(paths):
    table = ReservationTable(empty_grid((3, 3, 2)))
    for cells in paths:
        table.reserve_path(cells)
    return table


def _entries(table):
    return table._vertex, table._edge, table._terminal


def test_incremental_conflicts_and_index_match_full_rescans():
    """CBS's per-child pieces against full rebuilds: the index without one
    agent, and the conflicts once that agent's path is replaced."""
    rng = random.Random(29)
    seen = {"longer": 0, "shorter": 0, "parked": 0, "three-way": 0, "swap": 0}
    for _ in range(120):
        paths = random_walk_paths(rng, (3, 3, 2), rng.randrange(2, 6), 8)
        conflicts = detect_conflicts(paths)
        t_old = max(len(q) for q in paths.values()) - 1
        index = _table(paths.values())
        for aid in paths:
            index.release_path(paths[aid])
            rebuilt = _table(q for b, q in paths.items() if b != aid)
            assert _entries(index) == _entries(rebuilt)
            assert index.max_time >= rebuilt.max_time
            for cells in random_walk_paths(rng, (3, 3, 2), 3, 12).values():
                child = dict(paths)
                child[aid] = cells
                got = replan_conflicts(conflicts, paths, aid, cells, index)
                assert [(c.time, *c.agents, c.kind, c.cells) for c in got] == brute_force_conflicts(child)
                mine = [c for c in got if aid in c.agents]
                seen["longer" if len(cells) - 1 > t_old else "shorter"] += 1
                seen["parked"] += any(c.time >= min(len(child[b]) for b in c.agents) for c in mine)
                seen["swap"] += any(c.kind == EDGE for c in mine)
                at = [(c.time, c.cells) for c in got if c.kind != EDGE]
                seen["three-way"] += len(at) > len(set(at))
            index.reserve_path(paths[aid])
        assert _entries(index) == _entries(_table(paths.values()))
    assert min(seen.values()) > 10, seen


# (dims, shelf rows, roster, seed) -> (sum_of_costs, low-level expansions,
# CT nodes) and the sha256 of the sorted paths' repr. Any change to them is
# a change of CBS behaviour, not only of its speed.
PINNED_CBS = {
    ((40, 30, 6), 6, "4uav+10agv", 7): (
        (359, 7114, 25),
        "2924dd29de0ab8c4151e836f0d3ddc5d14c8d30e350f07121d549bc86844cac3",
    ),
    ((40, 30, 6), 6, "6uav+16agv", 7): (
        (602, 17816, 55),
        "5966f50093914fd781d756f36b732e37cb0b9069b2196bd219f4134ac198b33e",
    ),
    ((48, 36, 6), 8, "8uav+20agv", 4): (
        (716, 25705, 22),
        "ab8dfadedf86c676ac9d9a78032a757bc247eabc9b51639f0a8134cc3adaf051",
    ),
}


@pytest.mark.parametrize("world", list(PINNED_CBS), ids=lambda w: f"{w[2]}-seed{w[3]}")
def test_cbs_answers_and_effort_are_pinned_on_warehouses(world):
    counters, digest = PINNED_CBS[world]
    grid, agents = generate_warehouse(*world)
    res = solve(grid, agents, SolverConfig(algorithm="cbs"))
    assert res.ok
    assert (res.solution.sum_of_costs, res.stats.ll_expansions, res.stats.ct_expanded) == counters
    assert hashlib.sha256(repr(sorted(res.solution.paths.items())).encode()).hexdigest() == digest
