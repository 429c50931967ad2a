import random

import numpy as np
import pytest

from skyrover import (
    AGV,
    UAV,
    Agent,
    OccupancyGrid3D,
    SolverConfig,
    empty_grid,
    solve,
    spacetime_astar,
    validate_solution,
)
from skyrover.mapf import path_cost

from oracles import joint_optimal_cost, random_instance


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
