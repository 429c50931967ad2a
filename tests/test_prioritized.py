import random

from skyrover import (
    AGV,
    Agent,
    SolverConfig,
    empty_grid,
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
