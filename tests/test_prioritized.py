import hashlib
import random

import pytest

from skyrover import (
    AGV,
    Agent,
    SolverConfig,
    empty_grid,
    generate_warehouse,
    solve,
    spacetime_astar,
    validate_solution,
)

PRIORITIZED = SolverConfig(algorithm="astar")


def test_single_agent_equals_raw_astar():
    grid = empty_grid((5, 5, 1))
    agent = Agent(0, AGV, (0, 0, 0), (4, 2, 0))
    res = solve(grid, (agent,), PRIORITIZED)
    assert res.ok
    assert res.solution.paths[0] == spacetime_astar(grid, AGV, agent.start, agent.goal)


def test_solutions_are_always_conflict_free():
    from oracles import random_instance

    rng = random.Random(55)
    solved = 0
    for _ in range(80):
        grid, agents = random_instance(rng, (5, 5, 2), 3, density=0.2)
        res = solve(grid, agents, PRIORITIZED)
        if res.ok:
            assert validate_solution(grid, agents, res.solution.paths) == []
            solved += 1
    assert solved > 40


def test_cost_never_below_cbs():
    from oracles import random_instance

    rng = random.Random(77)
    compared = 0
    for _ in range(60):
        grid, agents = random_instance(rng, (5, 5, 2), 2, density=0.2)
        pri = solve(grid, agents, PRIORITIZED)
        cbs = solve(grid, agents)
        if pri.ok and cbs.ok:
            assert pri.solution.sum_of_costs >= cbs.solution.sum_of_costs
            compared += 1
    assert compared > 30


def test_no_solution_names_the_blocked_agent(corridor_grid):
    agents = (
        Agent(0, AGV, (0, 1, 0), (0, 1, 0)),  # parks in the middle forever
        Agent(1, AGV, (0, 0, 0), (0, 2, 0)),
    )
    res = solve(corridor_grid, agents, PRIORITIZED)
    assert res.status == "no_solution"
    assert "agent 1" in res.reason


def test_id_order_is_the_priority_order():
    # two agents racing for the same aisle cell: lower id plans first and wins
    grid = empty_grid((3, 3, 1))
    a = Agent(0, AGV, (0, 0, 0), (2, 0, 0))
    b = Agent(1, AGV, (2, 0, 0), (0, 0, 0))
    res = solve(grid, (a, b), PRIORITIZED)
    assert res.ok
    assert res.solution.paths[0] == spacetime_astar(grid, AGV, a.start, a.goal)
    # agent 1 had to detour or wait around agent 0's straight line
    assert len(res.solution.paths[1]) - 1 > 2


def test_resource_limit():
    grid = empty_grid((8, 8, 1))
    agents = (Agent(0, AGV, (0, 0, 0), (7, 7, 0)),)
    res = solve(grid, agents, SolverConfig(algorithm="astar", node_expansion_limit=2))
    assert res.status == "resource_limit"


# n -> ll_expansions: past the last reserved timestep each cell is expanded
# once, so the search for agent 1 ends when the cells west of the wall are spent
GAP_FLOOR_EXPANSIONS = {20: 206, 40: 806, 80: 3206}


@pytest.mark.parametrize("n", list(GAP_FLOOR_EXPANSIONS))
def test_goal_cut_off_by_a_parked_agent_is_no_solution(gap_floor, n):
    res = solve(*gap_floor(n), PRIORITIZED)
    assert res.status == "no_solution"
    assert "agent 1" in res.reason
    assert res.stats.ll_expansions == GAP_FLOOR_EXPANSIONS[n]


# (dims, shelf rows, roster, seed) -> ((sum_of_costs, ll_expansions), sha256 of
# the sorted paths), on the same worlds as test_cbs.PINNED_CBS
PINNED_PRIORITIZED = {
    ((40, 30, 6), 6, "4uav+10agv", 7): (
        (361, 947),
        "aaf9940c35e3365877342248d30ab131de5843ea95c65cffba1ebef348c570f6",
    ),
    ((40, 30, 6), 6, "6uav+16agv", 7): (
        (607, 1615),
        "0535bc23b07d17a5ea7a3350b54dd1ea38a3b352f135bd9600696fd06726a5f3",
    ),
    ((48, 36, 6), 8, "8uav+20agv", 4): (
        (717, 1179),
        "0fb220bd628422e633330ef19ba7e9a9e65f3c3e784f34889d18a416bd5fb220",
    ),
}


@pytest.mark.parametrize("world", list(PINNED_PRIORITIZED), ids=lambda w: f"{w[2]}-seed{w[3]}")
def test_prioritized_answers_and_effort_are_pinned_on_warehouses(world):
    counters, digest = PINNED_PRIORITIZED[world]
    grid, agents = generate_warehouse(*world)
    res = solve(grid, agents, PRIORITIZED)
    assert res.ok
    assert (res.solution.sum_of_costs, res.stats.ll_expansions) == counters
    assert hashlib.sha256(repr(sorted(res.solution.paths.items())).encode()).hexdigest() == digest
