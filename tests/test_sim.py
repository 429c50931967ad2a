import hashlib
import json
import math
import random
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from skyrover import (
    AGV,
    UAV,
    Agent,
    InvariantViolation,
    ParseError,
    ResourceLimitError,
    Scenario,
    ScenarioError,
    Simulator,
    Solution,
    SolverConfig,
    TaskScript,
    WaypointCommand,
    WaypointLog,
    collect_metrics,
    empty_grid,
    execute_plan,
    generate_warehouse,
    make_solution,
    manhattan,
    path_cost,
    plan_from_bytes,
    plan_to_bytes,
    run_task,
    solve,
    validate_agents,
    waypoints_from_bytes,
    waypoints_to_bytes,
    write_grid,
)
import skyrover.policy
import skyrover.sim
import skyrover.solvers
import skyrover.tasks
from skyrover.sim import AT_GOAL, EN_ROUTE, FAILED, PRECOMPUTED_MODE, RunRecord, SimState

from oracles import cell_at_replay, lower_rows, pairwise_shield, random_instance, random_walk_paths


def _scenario(dims, agents, **kw):
    return Scenario(grid={"kind": "empty", "dims": list(dims)}, agents=tuple(agents), **kw)


def test_init_keeps_the_solver_stats():
    agents = (Agent(0, AGV, (0, 0, 0), (2, 0, 0)), Agent(1, AGV, (2, 0, 0), (0, 0, 0)))
    sc = _scenario((3, 2, 1), agents)
    sim = Simulator()
    sim.init(sc, SolverConfig(algorithm="cbs"))
    expected = solve(sc.materialize_grid(), agents, SolverConfig(algorithm="cbs")).stats
    assert (sim.stats.ll_expansions, sim.stats.ct_expanded, sim.stats.best_cost) == (
        expected.ll_expansions,
        expected.ct_expanded,
        expected.best_cost,
    )
    assert sim.stats.ct_expanded > 0
    assert sim.computation_time == sim.stats.wall_time > 0  # one clock: the solve's own
    sim.init(sc, solution=sim.solution)
    assert sim.stats is None  # a supplied plan was not searched for
    sim.init(sc, SolverConfig(algorithm="online"))
    assert sim.stats is None
    with pytest.raises(ResourceLimitError):
        sim.init(sc, SolverConfig(algorithm="cbs", node_expansion_limit=1))
    assert sim.stats.ll_expansions > 0  # a failed solve still reports its effort
    assert sim.computation_time == sim.stats.wall_time > 0


def test_a_simulator_without_tick_0_raises_scenario_error():
    """Before init, and after a failed solve, step, run, state and reset raise ScenarioError; time and stats stay readable."""
    agents = (Agent(0, AGV, (0, 0, 0), (2, 0, 0)), Agent(1, AGV, (2, 0, 0), (0, 0, 0)))
    sc = _scenario((3, 2, 1), agents)
    fresh, failed = Simulator(), Simulator()
    assert (fresh.computation_time, fresh.stats, fresh.grid, fresh.solution) == (0.0, None, None, None)
    failed.init(sc, SolverConfig(algorithm="online"))
    failed.run(5)
    with pytest.raises(ResourceLimitError):
        failed.init(sc, SolverConfig(algorithm="cbs", node_expansion_limit=1))
    assert failed.computation_time == failed.stats.wall_time > 0  # the failed solve's time, none of the online run's
    assert failed.solution is None
    for sim in (fresh, failed):
        for use in (sim.step, sim.run, sim.reset, lambda: sim.state):
            with pytest.raises(ScenarioError, match="no tick 0"):
                use()


def test_a_refused_init_leaves_no_world():
    sim = Simulator()
    sim.init(_scenario((3, 2, 1), (Agent(0, AGV, (0, 0, 0), (2, 0, 0)),)))
    assert sim.run().states[-1].tick == 2
    with pytest.raises(ScenarioError, match="out of bounds"):
        sim.init(_scenario((3, 2, 1), (Agent(0, AGV, (0, 0, 0), (9, 0, 0)),)))
    assert (sim.grid, sim.solution, sim.stats, sim.computation_time) == (None, None, None, 0.0)
    with pytest.raises(ScenarioError, match="no tick 0"):
        sim.state


def test_each_entry_point_checks_the_roster_once(monkeypatch):
    """One validate_agents call per init of each kind and four per two-episode task; one refusal text for a roster."""
    calls = []

    def counted(grid, agents):
        calls.append(tuple(a.id for a in agents))
        return validate_agents(grid, agents)

    for module in (skyrover.sim, skyrover.solvers, skyrover.tasks):
        monkeypatch.setattr(module, "validate_agents", counted)
    good = (Agent(1, AGV, (2, 0, 0), (0, 0, 0)), Agent(0, AGV, (0, 1, 0), (2, 1, 0)))
    bad = (Agent(1, AGV, (9, 0, 0), (0, 0, 0)), Agent(0, AGV, (0, 1, 0), (9, 1, 0)))
    plan = make_solution({0: ((0, 1, 0), (1, 1, 0), (2, 1, 0)), 1: ((2, 0, 0), (1, 0, 0), (0, 0, 0))})
    kinds = {
        "planned": {"config": SolverConfig(algorithm="cbs")},
        "online": {"config": SolverConfig(algorithm="online")},
        "supplied plan": {"solution": plan},
    }
    refusals = set()
    for name, kind in kinds.items():
        calls.clear()
        Simulator().init(_scenario((3, 2, 1), good), **kind)
        assert calls == [(0, 1)], name
        with pytest.raises(ScenarioError) as err:
            Simulator().init(_scenario((3, 2, 1), bad), **kind)
        refusals.add(str(err.value))
    with pytest.raises(ScenarioError) as err:
        solve(empty_grid((3, 2, 1)), bad)
    assert refusals == {str(err.value)}
    assert str(err.value) == "invalid instance:\n  agent 0 goal (9, 1, 0) is out of bounds\n  agent 1 start (9, 0, 0) is out of bounds"

    calls.clear()
    roster = (Agent(0, AGV, (0, 0, 0), (9, 9, 0)), Agent(1, UAV, (9, 0, 0), (0, 9, 3)))
    task = TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0))
    assert run_task(_scenario((10, 10, 6), roster, task=task), SolverConfig(algorithm="cbs")).success
    assert len(calls) == 4


def test_replayed_status_follows_each_paths_arrival_tick():
    """An agent that passes its goal and comes back is at goal only from its arrival tick."""
    sc = _scenario((3, 2, 1), [Agent(0, AGV, (0, 0, 0), (1, 0, 0)), Agent(1, AGV, (2, 1, 0), (2, 1, 0))])
    sim = Simulator()
    detour = make_solution({0: ((0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 0, 0)), 1: ((2, 1, 0),)})
    sim.init(sc, solution=detour)
    record = sim.run()
    assert [s.status[0] for s in record.states] == ["en-route", "en-route", "en-route", AT_GOAL]
    assert all(s.status[1] == AT_GOAL for s in record.states)
    sim.init(sc, solution=make_solution({0: ((0, 0, 0), (1, 0, 0)), 1: ((2, 1, 0),)}))
    assert sim.step().status == {0: AT_GOAL, 1: AT_GOAL}  # a new plan's arrivals, not the last one's


def test_init_trivial_start_equals_goal():
    sc = _scenario((3, 3, 1), [Agent(0, AGV, (1, 1, 0), (1, 1, 0))])
    sim = Simulator()
    state = sim.init(sc, SolverConfig(algorithm="cbs"))
    assert state.tick == 0
    assert state.cells[0] == (1, 1, 0)
    assert state.status[0] == AT_GOAL
    assert sim.solution.sum_of_costs == 0


def test_step_advances_along_the_path():
    sc = _scenario((4, 1, 1), [Agent(0, AGV, (0, 0, 0), (3, 0, 0))])
    sim = Simulator()
    sim.init(sc, SolverConfig(algorithm="cbs"))
    s1 = sim.step()
    assert s1.tick == 1
    assert s1.cells[0] == sim.solution.paths[0][1]


def test_fixpoint_step_is_a_noop():
    sc = _scenario((3, 1, 1), [Agent(0, AGV, (0, 0, 0), (2, 0, 0))])
    sim = Simulator()
    sim.init(sc, SolverConfig(algorithm="cbs"))
    record = sim.run()
    end = record.states[-1]
    assert end.all_at_goal
    again = sim.step()
    assert again == end
    assert again.tick == end.tick


def test_precomputed_run_finishes_exactly_at_makespan():
    rng = random.Random(12)
    from oracles import random_instance

    grid, agents = random_instance(rng, (6, 6, 2), 3, density=0.15)
    sim = Simulator()
    state = sim.init(Scenario(grid=grid, agents=agents), SolverConfig(algorithm="cbs"))
    assert state.tick == 0
    record = sim.run()
    assert record.states[-1].tick == sim.solution.makespan
    assert record.states[-1].all_at_goal


def test_reset_reproduces_init_and_is_idempotent():
    sc = _scenario((4, 4, 2), [Agent(0, UAV, (0, 0, 0), (3, 3, 1)), Agent(1, AGV, (3, 0, 0), (0, 3, 0))])
    sim = Simulator()
    first = sim.init(sc, SolverConfig(algorithm="cbs"))
    sim.run()
    once = sim.reset()
    twice = sim.reset()
    assert once == first
    assert twice == once
    assert once.tick == 0


def test_reset_keeps_a_replayed_plan_and_solves_nothing(monkeypatch):
    grid, agents = generate_warehouse((24, 20, 6), 3, "2uav+4agv", seed=9)
    plan = solve(grid, agents, SolverConfig(algorithm="cbs")).solution
    sc = Scenario(grid=grid, agents=agents, solver=SolverConfig(algorithm="online"))
    sim = Simulator()
    first = sim.init(sc, solution=plan)
    assert first.mode == PRECOMPUTED_MODE
    sim.run()

    def no_second_solve(*args):
        raise AssertionError("reset ran the solver again")

    monkeypatch.setattr(skyrover.sim, "solve", no_second_solve)
    again = sim.reset()
    assert again == first
    assert sim.solution is plan
    assert sim.computation_time == 0.0
    assert sim.run().states[-1].tick == plan.makespan


def test_online_computation_time_counts_every_policy_step():
    grid, agents = generate_warehouse((24, 20, 6), 3, "2uav+4agv", seed=9)
    sim = Simulator()
    sim.init(Scenario(grid=grid, agents=agents), SolverConfig(algorithm="online"))
    loaded = sim.computation_time
    seen = [loaded]
    for _ in range(5):
        sim.step()
        seen.append(sim.computation_time)
    assert seen[-1] > 0
    assert all(b > a for a, b in zip(seen, seen[1:]))
    record = sim.run()
    assert record.computation_time == sim.computation_time > seen[-1]
    assert collect_metrics(record).computation_time == record.computation_time
    sim.reset()  # a rewind counts afresh from the loaded policy
    assert sim.computation_time == loaded


def test_init_with_loaded_grid_rejects_shared_start():
    agents = [Agent(0, AGV, (0, 0, 0), (2, 0, 0)), Agent(1, AGV, (0, 0, 0), (2, 2, 0))]
    sim = Simulator()
    with pytest.raises(ScenarioError, match="share start"):
        sim.init(Scenario(grid=empty_grid((3, 3, 1)), agents=tuple(agents)), SolverConfig(algorithm="online"))


def test_reset_reuses_the_loaded_grid():
    sc = _scenario((4, 4, 1), [Agent(0, AGV, (0, 0, 0), (3, 3, 0))])
    sim = Simulator()
    sim.init(sc, SolverConfig(algorithm="cbs"))
    grid = sim.grid
    sim.run()
    sim.reset()
    assert sim.grid is grid


def test_reset_with_a_config_plans_again_on_the_loaded_grid(tmp_path, monkeypatch):
    grid, agents = generate_warehouse((24, 20, 6), 3, "2uav+4agv", seed=9)
    write_grid(grid, tmp_path / "wh.grid")
    sc = Scenario(grid="wh.grid", agents=agents, base_dir=str(tmp_path))
    calls = []

    def recording_solve(grid, agents, config):
        calls.append((grid, config.algorithm))
        return solve(grid, agents, config)

    monkeypatch.setattr(skyrover.sim, "solve", recording_solve)
    sim = Simulator()
    sim.init(sc, SolverConfig(algorithm="cbs"))
    loaded = sim.grid
    (tmp_path / "wh.grid").unlink()  # a re-read of the file would now fail
    state = sim.init(replace(sc, grid=sim.grid), SolverConfig(algorithm="astar"))
    assert state.tick == 0
    assert sim.grid is loaded
    assert [(g is loaded, alg) for g, alg in calls] == [(True, "cbs"), (True, "astar_prioritized")]
    assert sim.solution == solve(loaded, agents, SolverConfig(algorithm="astar")).solution
    assert collect_metrics(sim.run()).success_rate == 1.0


def test_run_rejects_a_negative_tick_budget():
    sc = _scenario((4, 4, 1), [Agent(0, AGV, (0, 0, 0), (3, 3, 0))])
    for config in (SolverConfig(algorithm="cbs"), SolverConfig(algorithm="online")):
        sim = Simulator()
        start = sim.init(sc, config)
        with pytest.raises(ValueError, match="max_ticks must be >= 0"):
            sim.run(max_ticks=-5)
        for budget in (2.5, True):
            with pytest.raises(ValueError, match="max_ticks must be an integer"):
                sim.run(max_ticks=budget)
        assert sim.state == start  # nothing was stepped
        record = sim.run(max_ticks=0)  # a zero budget is legal: the run is tick 0 alone
        assert [s.tick for s in record.states] == [0]
        assert collect_metrics(record).success_rate == 0.0


def test_agv_goal_above_ground_is_a_validation_error():
    sc = _scenario((3, 3, 3), [Agent(0, AGV, (0, 0, 0), (1, 1, 2))])
    sim = Simulator()
    with pytest.raises(ScenarioError, match="ground"):
        sim.init(sc, SolverConfig(algorithm="cbs"))


def test_supplied_plan_is_validated_before_trust():
    sc = _scenario((3, 1, 1), [Agent(0, AGV, (0, 0, 0), (2, 0, 0))])
    bogus = make_solution({0: ((0, 0, 0), (2, 0, 0))})  # teleport
    sim = Simulator()
    with pytest.raises(ScenarioError, match="fails validation"):
        sim.init(sc, SolverConfig(algorithm="cbs"), solution=bogus)


@pytest.mark.parametrize("sum_of_costs, makespan", [(99, 1), (4, 1), (3, 2)])
def test_a_supplied_plan_must_carry_the_objectives_of_its_paths(sum_of_costs, makespan):
    """The replay runs for ``makespan`` ticks, so a plan that misstates it would end valid paths short as failures."""
    sc = _scenario((3, 2, 1), [Agent(0, AGV, (0, 0, 0), (2, 0, 0)), Agent(1, AGV, (0, 1, 0), (2, 1, 0))])
    paths = {0: ((0, 0, 0), (1, 0, 0), (2, 0, 0)), 1: ((0, 1, 0), (1, 1, 0), (2, 1, 0))}
    sim = Simulator()
    message = f"supplied plan says sum_of_costs={sum_of_costs} makespan={makespan}, its paths give sum_of_costs=4 makespan=2"
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        sim.init(sc, solution=Solution(paths, sum_of_costs, makespan))
    with pytest.raises(ScenarioError, match="no tick 0"):
        sim.state
    sim.init(sc, solution=Solution(paths, 4, 2))  # the same hand-built plan, its objectives stated right, replays
    record = sim.run()
    assert record.states[-1].tick == 2 and collect_metrics(record).success_rate == 1.0


def test_a_supplied_plan_of_list_or_numpy_cells_replays_as_its_tuple_plan():
    """A plan read from JSON by an outside tool may hold list cells, or numpy ints: each replays tick by tick exactly as the tuple plan does."""
    sc = Scenario(grid=empty_grid((3, 2, 1)), agents=(Agent(0, AGV, (0, 0, 0), (2, 0, 0)), Agent(1, AGV, (0, 1, 0), (2, 1, 0))))
    tuples = {0: ((0, 0, 0), (1, 0, 0), (2, 0, 0)), 1: ((0, 1, 0), (1, 1, 0), (2, 1, 0))}

    def replay(paths):
        sim = Simulator()
        sim.init(sc, solution=Solution(paths=paths, sum_of_costs=4, makespan=2))
        return sim.run()

    expected = replay(tuples)
    assert collect_metrics(expected) == collect_metrics(replay(tuples))
    assert [s.tick for s in expected.states] == [0, 1, 2] and expected.states[-1].all_at_goal
    plans = {
        "list cells": {aid: [list(c) for c in cells] for aid, cells in tuples.items()},
        "list paths": {aid: list(cells) for aid, cells in tuples.items()},
        "numpy-int cells": {aid: tuple(tuple(np.int64(v) for v in c) for c in cells) for aid, cells in tuples.items()},
        "numpy arrays": {aid: np.array(cells) for aid, cells in tuples.items()},
    }
    for name, paths in plans.items():
        record = replay(paths)
        assert record == expected, name
        assert collect_metrics(record) == collect_metrics(expected), name


@pytest.mark.parametrize("supplied", [False, True], ids=["planned", "supplied"])
def test_a_replay_reads_the_plan_init_validated(supplied):
    """Replacing a path in ``sim.solution.paths`` after init changes neither the run nor a run after reset."""
    grid, agents = generate_warehouse((24, 20, 6), 3, "2uav+4agv", seed=9)
    sc = Scenario(grid=grid, agents=agents)
    plan = solve(grid, agents, SolverConfig(algorithm="cbs")).solution
    fresh = Simulator()
    fresh.init(sc, solution=make_solution(plan.paths))
    expected = fresh.run().states
    sim = Simulator()
    if supplied:
        sim.init(sc, solution=plan)
    else:
        sim.init(sc, SolverConfig(algorithm="cbs"))
    mover = next(a for a in agents if len(sim.solution.paths[a.id]) > 2)
    sim.solution.paths[mover.id] = (mover.start,) * len(sim.solution.paths[mover.id])  # parked where it starts
    assert sim.run().states == expected
    sim.reset()
    assert sim.run().states == expected


_CELL_FORMS = {
    "tuples": lambda cells: cells,
    "lists": lambda cells: [list(c) for c in cells],
    "numpy ints": lambda cells: tuple(tuple(np.int64(v) for v in c) for c in cells),
}


def _ragged_plan(plan_seed):
    """A solved random instance whose paths are cut back to their arrival and then given 0-3 trailing waits.

    The first agent's goal is its start, so its path is a single cell; the
    last agent to arrive waits 1-3 ticks past the makespan.
    """
    rng = random.Random(plan_seed)
    solution = None
    while solution is None:  # an instance without a solution is drawn again
        grid, agents = random_instance(rng, (6, 5, 2), rng.randrange(2, 6), density=0.15)
        agents = (replace(agents[0], goal=agents[0].start),) + agents[1:]
        solution = solve(grid, agents, SolverConfig(algorithm="cbs")).solution
    paths = {aid: cells[: path_cost(cells) + 1] for aid, cells in solution.paths.items()}
    still = agents[0].id
    last = max((aid for aid in paths if aid != still), key=lambda aid: len(paths[aid]))
    waits = {aid: 0 if aid == still else rng.randrange(aid == last, 4) for aid in paths}
    return grid, agents, {aid: cells + cells[-1:] * waits[aid] for aid, cells in paths.items()}


@pytest.mark.parametrize("form", sorted(_CELL_FORMS))
@pytest.mark.parametrize("plan_seed", range(8))
def test_a_replay_equals_a_cell_at_lookup_per_agent(plan_seed, form):
    """Each tick's cells and statuses against ``oracles.cell_at_replay``, on ragged plans of tuple, list and numpy-int cells, also after reset."""
    grid, agents, paths = _ragged_plan(plan_seed)
    objectives = make_solution(paths)
    assert len(paths[agents[0].id]) == 1 and max(map(len, paths.values())) > objectives.makespan + 1
    supplied = {aid: _CELL_FORMS[form](cells) for aid, cells in paths.items()}
    sim = Simulator()
    sim.init(Scenario(grid=grid, agents=agents), solution=Solution(supplied, objectives.sum_of_costs, objectives.makespan))
    expected = cell_at_replay(sorted(agents, key=lambda a: a.id), supplied)
    for _ in range(2):
        states = sim.run().states
        assert [(s.tick, s.cells, s.status) for s in states] == expected
        assert all(list(s.cells) == list(s.status) == [a.id for a in agents] for s in states)
        assert all(type(cell) is tuple for s in states for cell in s.cells.values())
        sim.reset()


def test_online_mode_runs_to_goal():
    # routes chosen not to cross: the UAV tops out at y=4, the AGV rides y=5
    agents = [Agent(0, UAV, (0, 0, 0), (5, 4, 2)), Agent(1, AGV, (0, 5, 0), (5, 5, 0))]
    sc = _scenario((6, 6, 3), agents)
    sim = Simulator()
    state = sim.init(sc, SolverConfig(algorithm="online"))
    assert state.mode == "online-policy"
    record = sim.run()
    metrics = collect_metrics(record)
    assert metrics.success_rate == 1.0
    assert metrics.makespan == max(manhattan(a.start, a.goal) for a in agents)


def test_online_warehouse_run_is_pinned(monkeypatch):
    """The shielded greedy policy on a 40x30x6 warehouse, 8uav+24agv, seed 7.

    The figures and the trajectory digest were recorded with the shield that
    rescanned every pair after each downgrade; the pairwise reference shield
    must reproduce every state. The waypoint digest was recorded when
    ``execute_plan`` still sorted its rows.
    """
    grid, agents = generate_warehouse((40, 30, 6), 6, "8uav+24agv", seed=7)

    def run():
        sim = Simulator()
        sim.init(Scenario(grid=grid, agents=agents), SolverConfig(algorithm="online"))
        return sim.run()

    record = run()
    metrics = collect_metrics(record)
    assert record.states[-1].tick == 292
    assert (metrics.success_rate, metrics.sum_of_costs) == (11 / 32, 6388)
    trajectories = [[a.id, [s.cells[a.id] for s in record.states]] for a in record.agents]
    digest = hashlib.sha256(json.dumps(trajectories).encode()).hexdigest()
    assert digest == "37a2bf8df2c5e2fec18eb9a0068483e32a01fe68758e74a58827dba1ea745b4c"
    paths = {aid: tuple(cells) for aid, cells in trajectories}
    commands = execute_plan(make_solution(paths), 1.0, grid.resolution, grid.origin)
    assert len(commands) == 9376
    waypoints = hashlib.sha256(waypoints_to_bytes(commands)).hexdigest()
    assert waypoints == "d2466f102661a20889d9e49c7309286f97ecec097683a82d3d0a44621958c483"
    monkeypatch.setattr(skyrover.policy, "shield_moves", pairwise_shield)
    assert run().states == record.states


def test_online_run_at_bench_scale_is_pinned():
    """The first warehouse-online world of the benchmark: 80x60x10, 12 shelf rows, 20uav+60agv, seed 1.

    Its default run lasts 4 x diameter ticks. The figures and the digest of
    its waypoint CSV were recorded before cell moves were read from a
    per-grid move mask and before the greedy policy kept its last answer.
    """
    grid, agents = generate_warehouse((80, 60, 10), 12, "20uav+60agv", 1)
    sim = Simulator()
    sim.init(Scenario(grid=grid, agents=agents), SolverConfig(algorithm="online"))
    record = sim.run()
    metrics = collect_metrics(record)
    assert record.budget == record.states[-1].tick == 588
    assert (metrics.success_rate, metrics.sum_of_costs) == (32 / 80, 29921)
    paths = {a.id: tuple(s.cells[a.id] for s in record.states) for a in record.agents}
    commands = execute_plan(make_solution(paths), 1.0, grid.resolution, grid.origin)
    waypoints = hashlib.sha256(waypoints_to_bytes(commands)).hexdigest()
    assert waypoints == "9aa738f155db654493f93d6162041c4565da0b49ecc8a4ce6e8a7b28c8e577fb"


def test_a_tick_that_moves_nobody_is_not_rechecked(monkeypatch):
    """The pinned online run with ``step_conflicts`` counted: no repeated tick calls it, and the states stay pinned.

    A replayed plan's ticks read the rows ``init`` validated and call it never.
    """
    grid, agents = generate_warehouse((40, 30, 6), 6, "8uav+24agv", seed=7)
    checked = []
    check = skyrover.sim.step_conflicts

    def counted(prev, cur, t):
        checked.append(t)
        return check(prev, cur, t)

    monkeypatch.setattr(skyrover.sim, "step_conflicts", counted)
    sim = Simulator()
    sim.init(Scenario(grid=grid, agents=agents), SolverConfig(algorithm="online"))
    record = sim.run()
    states = record.states
    moved = [b.tick for a, b in zip(states, states[1:]) if a.cells != b.cells]
    assert checked == moved and len(moved) < len(states) // 2  # most ticks repeat the last one
    trajectories = [[a.id, [s.cells[a.id] for s in states]] for a in record.agents]
    digest = hashlib.sha256(json.dumps(trajectories).encode()).hexdigest()
    assert digest == "37a2bf8df2c5e2fec18eb9a0068483e32a01fe68758e74a58827dba1ea745b4c"  # as pinned above
    for state in states[:-1]:  # the last one carries the run's FAILED marks
        assert state.status == {a.id: AT_GOAL if state.cells[a.id] == a.goal else EN_ROUTE for a in agents}
    sim.reset()
    stalled = sim.run(max_ticks=moved[-1] + 5).states[-1]  # the budget ends inside the frozen tail
    assert FAILED in stalled.status.values()
    after = sim.step()
    assert after.cells == stalled.cells and FAILED not in after.status.values()  # a run's marks are not carried on

    checked.clear()
    sim.init(Scenario(grid=grid, agents=agents), SolverConfig(algorithm="cbs"))
    replay = sim.run()
    assert checked == [] and replay.states[-1].tick == sim.solution.makespan > 0 and replay.states[-1].all_at_goal


def test_determinism_of_trajectories_and_exports():
    agents = [Agent(0, UAV, (0, 0, 0), (4, 4, 1)), Agent(1, AGV, (4, 0, 0), (0, 4, 0))]
    sc = _scenario((5, 5, 2), agents)

    def run_once():
        sim = Simulator()
        sim.init(sc, SolverConfig(algorithm="cbs"))
        record = sim.run()
        wp = waypoints_to_bytes(
            execute_plan(record.solution, 1.0, sim.grid.resolution, sim.grid.origin)
        )
        return record.states, wp

    states_a, wp_a = run_once()
    states_b, wp_b = run_once()
    assert states_a == states_b
    assert wp_a == wp_b


# -- metrics -------------------------------------------------------------------


def test_partial_arrival_ratio():
    grid = empty_grid((30, 1, 1))
    agents = tuple(Agent(i, AGV, (i, 0, 0), (i, 0, 0)) for i in range(21)) + (
        Agent(21, AGV, (25, 0, 0), (29, 0, 0)),
    )
    # freeze a run where agent 21 never moved
    state0 = SimState(0, {a.id: a.start for a in agents}, {a.id: AT_GOAL for a in agents[:-1]} | {21: "en-route"}, "online-policy")
    record = RunRecord(
        grid=grid,
        agents=agents,
        mode="online-policy",
        computation_time=0.0,
        states=(state0,),
        solution=None,
        budget=0,
    )
    metrics = collect_metrics(record)
    assert metrics.success_rate == pytest.approx(21 / 22, abs=1e-9)


def test_a_record_gives_each_agents_trajectory_afresh():
    agents = (Agent(0, AGV, (0, 0, 0), (2, 0, 0)), Agent(1, AGV, (0, 1, 0), (0, 1, 0)))
    sim = Simulator()
    sim.init(_scenario((3, 2, 1), agents), SolverConfig(algorithm="online"))
    record = sim.run()
    trajectories = record.trajectories()
    assert trajectories == {a.id: tuple(s.cells[a.id] for s in record.states) for a in agents}
    assert trajectories[0] == ((0, 0, 0), (1, 0, 0), (2, 0, 0)) and trajectories[1] == ((0, 1, 0),) * 3
    assert record.trajectories() is not trajectories  # worked out per call, never kept on the record


def test_metrics_fail_an_agent_whose_stored_plan_is_invalid():
    grid = empty_grid((3, 1, 1))
    agents = (Agent(0, AGV, (0, 0, 0), (2, 0, 0)), Agent(1, AGV, (1, 0, 0), (1, 0, 0)))
    # the log is clean and both agents arrive, but agent 0's stored path jumps two cells
    s0 = SimState(0, {0: (0, 0, 0), 1: (1, 0, 0)}, {0: "en-route", 1: AT_GOAL}, PRECOMPUTED_MODE)
    s1 = SimState(1, {0: (2, 0, 0), 1: (1, 0, 0)}, {0: AT_GOAL, 1: AT_GOAL}, PRECOMPUTED_MODE)
    solution = make_solution({0: ((0, 0, 0), (2, 0, 0)), 1: ((1, 0, 0),)})
    record = RunRecord(grid, agents, PRECOMPUTED_MODE, 0.0, (s0, s1), solution, 4)
    assert collect_metrics(record).success_rate == 0.5


def test_metrics_recompute_conflicts_from_the_log():
    grid = empty_grid((3, 1, 1))
    agents = (Agent(0, AGV, (0, 0, 0), (1, 0, 0)), Agent(1, AGV, (2, 0, 0), (1, 0, 0)))
    # fabricated log where both agents end in the same cell
    s0 = SimState(0, {0: (0, 0, 0), 1: (2, 0, 0)}, {0: "en-route", 1: "en-route"}, "online-policy")
    s1 = SimState(1, {0: (1, 0, 0), 1: (1, 0, 0)}, {0: AT_GOAL, 1: AT_GOAL}, "online-policy")
    record = RunRecord(grid, agents, "online-policy", 0.0, (s0, s1), None, 4)
    assert collect_metrics(record).success_rate == 0.0


def test_internal_conflict_raises_invariant_fault(monkeypatch):
    grid = empty_grid((4, 1, 1))
    agents = (Agent(0, AGV, (0, 0, 0), (3, 0, 0)), Agent(1, AGV, (3, 0, 0), (0, 0, 0)))
    sim = Simulator()
    sim.init(Scenario(grid=grid, agents=agents), SolverConfig(algorithm="online"))

    def scripted(*joint_moves):
        moves = iter(joint_moves)
        monkeypatch.setattr(skyrover.sim, "online_policy_step", lambda view, proposals: next(moves))

    # a policy that lets both agents meet in (2,0,0) at t=2
    scripted({0: (1, 0, 0), 1: (2, 0, 0)}, {0: (2, 0, 0), 1: (2, 0, 0)})
    sim.step()
    with pytest.raises(InvariantViolation, match="collide at tick 2"):
        sim.step()
    # and one that lets them swap (1,0,0) <-> (2,0,0) at t=2
    sim.reset()
    scripted({0: (1, 0, 0), 1: (2, 0, 0)}, {0: (2, 0, 0), 1: (1, 0, 0)})
    sim.step()
    with pytest.raises(InvariantViolation, match=r"agents 0 and 1 collide at tick 2"):
        sim.step()


# -- plan execution ----------------------------------------------------------


def test_single_cell_path_command():
    sol = make_solution({0: ((0, 0, 0),)})
    cmds = execute_plan(sol, 1.0, 1.0, (0.0, 0.0, 0.0))
    assert len(cmds) == 1
    assert cmds[0].position == (0.5, 0.5, 0.5)
    assert cmds[0].timestamp == 0.0
    assert cmds[0].hold is False


def test_cell_duration_scales_timestamps():
    sol = make_solution({0: ((0, 0, 0), (1, 0, 0))})
    cmds = execute_plan(sol, 2.0, 1.0, (0.0, 0.0, 0.0))
    assert [c.timestamp for c in cmds] == [0.0, 2.0]
    assert [c.position[0] for c in cmds] == [0.5, 1.5]


def test_holds_marked_on_repeated_cells():
    sol = make_solution({0: ((0, 0, 0), (0, 0, 0), (1, 0, 0))})
    cmds = execute_plan(sol, 1.0, 1.0, (0.0, 0.0, 0.0))
    assert [c.hold for c in cmds] == [False, True, False]


def test_command_count_and_monotone_timestamps():
    rng = random.Random(31)
    from oracles import random_instance

    grid, agents = random_instance(rng, (6, 6, 2), 4, density=0.1)
    sol = solve(grid, agents).solution
    cmds = execute_plan(sol, 0.5, grid.resolution, grid.origin)
    assert len(cmds) == sum(len(p) for p in sol.paths.values())
    for aid in sol.paths:
        stamps = [c.timestamp for c in cmds if c.agent_id == aid]
        assert all(b - a == 0.5 for a, b in zip(stamps, stamps[1:]))
    merged = [(c.timestamp, c.agent_id) for c in cmds]
    assert merged == sorted(merged)


@pytest.mark.parametrize("cell_duration", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_cell_duration_rejected(cell_duration):
    sol = make_solution({0: ((0, 0, 0),)})
    with pytest.raises(ValueError, match="positive and finite"):
        execute_plan(sol, cell_duration, 1.0, (0, 0, 0))


def test_cell_duration_whose_last_timestamp_overflows_is_rejected():
    one_step = make_solution({0: ((0, 0, 0),)})
    assert execute_plan(one_step, 1e308, 1.0, (0, 0, 0))[0].timestamp == 0.0
    three_steps = make_solution({0: ((0, 0, 0), (1, 0, 0), (2, 0, 0))})
    assert execute_plan(three_steps, 8e307, 1.0, (0, 0, 0))[-1].timestamp == 1.6e308
    with pytest.raises(ValueError, match="last timestamp, at step 2, overflow"):
        execute_plan(three_steps, 1e308, 1.0, (0, 0, 0))


@pytest.mark.parametrize(
    "resolution, origin, message",
    [
        (math.nan, (0, 0, 0), "resolution must be positive and finite, got nan"),
        (math.inf, (0, 0, 0), "resolution must be positive and finite, got inf"),
        (0, (0, 0, 0), "resolution must be positive and finite, got 0"),
        (-0.5, (0, 0, 0), "resolution must be positive and finite, got -0.5"),
        ("1.0", (0, 0, 0), "resolution must be positive and finite, got '1.0'"),
        (1.0, (math.nan, 0, 0), "origin must be finite and real, got nan"),
        (1.0, (0, 0, -math.inf), "origin must be finite and real, got -inf"),
        (1.0, (0.0, 0.0), "origin must be three finite real numbers, got (0.0, 0.0)"),
        (1.0, (0, 0, 0, 0), "origin must be three finite real numbers, got (0, 0, 0, 0)"),
        (1.0, None, "origin must be three finite real numbers, got None"),
        (1e308, (0, 0, 0), "resolution 1e+308 and origin (0, 0, 0) make the position of cell (2, 0, 0) overflow"),
        (1e307, (1.7e308, 0, 0), "resolution 1e+307 and origin (1.7e+308, 0, 0) make the position of cell (1, 0, 0) overflow"),
    ],
    ids=["nan", "inf", "zero", "negative", "string", "nan-origin", "inf-origin", "two-values", "four-values", "no-origin", "far-cell", "far-origin"],
)
def test_execute_plan_refuses_a_frame_no_grid_could_have(resolution, origin, message):
    """The frame follows ``grid_frame``'s rule, and a position that overflows is refused as the last timestamp is."""
    sol = make_solution({0: ((0, 0, 0), (1, 0, 0), (2, 0, 0))})
    with pytest.raises(ValueError) as err:
        execute_plan(sol, 1.0, resolution, origin)
    assert str(err.value) == message
    assert execute_plan(sol, 1.0, 7e307, (-1e308, 0, 0))[-1].position == (-1e308 + 2.5 * 7e307, 0.5 * 7e307, 0.5 * 7e307)


def test_ragged_plan_stream_is_pinned():
    """A CBS plan whose paths end at different ticks; digest recorded when the rows were sorted."""
    grid, agents = generate_warehouse((40, 30, 6), 6, "4uav+10agv", seed=7)
    sol = solve(grid, agents, SolverConfig(algorithm="cbs")).solution
    assert len({len(p) for p in sol.paths.values()}) > 1
    cmds = execute_plan(sol, 0.1, 0.25, (-1.0, 2.0, 0.5))
    assert len(cmds) == 373
    digest = hashlib.sha256(waypoints_to_bytes(cmds)).hexdigest()
    assert digest == "548267e9dcbc206ba8fe8461af404acf51380499ff1fda51357dfaf07b09d820"


def test_rows_are_waypoint_commands_on_paths_of_unequal_length():
    sol = make_solution({1: [[2, 2, 0]], 0: [[0, 0, 0], [1, 0, 0], [1, 0, 0]]})
    assert sol.paths == {0: ((0, 0, 0), (1, 0, 0), (1, 0, 0)), 1: ((2, 2, 0),)}
    cmds = execute_plan(sol, 1.0, 1.0, (0.0, 0.0, 0.0))
    assert all(type(c) is WaypointCommand for c in cmds)
    assert [c._asdict() for c in cmds] == [
        {"agent_id": 0, "timestamp": 0.0, "position": (0.5, 0.5, 0.5), "hold": False},
        {"agent_id": 1, "timestamp": 0.0, "position": (2.5, 2.5, 0.5), "hold": False},
        {"agent_id": 0, "timestamp": 1.0, "position": (1.5, 0.5, 0.5), "hold": False},
        {"agent_id": 0, "timestamp": 2.0, "position": (1.5, 0.5, 0.5), "hold": True},
    ]
    assert cmds[3].position is cmds[2].position
    assert cmds == tuple(WaypointCommand(*c) for c in cmds)


def test_empty_plan_gives_an_empty_stream():
    cmds = execute_plan(make_solution({}), 1.0, 1.0, (0.0, 0.0, 0.0))
    assert cmds == ()
    assert waypoints_to_bytes(cmds) == b"agent_id,timestamp_s,x,y,z,hold\n"
    assert waypoints_from_bytes(waypoints_to_bytes(cmds)) == ()


def _sharing(values):
    """For each value, the index of the first value that is the same object."""
    first = {}
    return [first.setdefault(id(v), n) for n, v in enumerate(values)]


@pytest.mark.parametrize("cell_duration", [0.1, 0.5, 2.0])
@pytest.mark.parametrize("plan_seed", [None, 0, 1, 2, 3, 4])
def test_execute_plan_matches_a_row_by_row_lowering(plan_seed, cell_duration):
    """Seeded ragged plans (single-cell paths among them; ``None`` is the empty plan) against ``oracles.lower_rows``."""
    paths = {}
    if plan_seed is not None:
        rng = random.Random(plan_seed)
        walks = random_walk_paths(rng, (6, 5, 3), rng.randrange(1, 9), max_len=12)
        for aid, cells in zip(rng.sample(range(100), len(walks)), walks.values()):
            paths[aid] = cells[:1] if rng.random() < 0.3 else cells
    sol = make_solution(paths)
    log = execute_plan(sol, cell_duration, 0.25, (-1.0, 2.0, 0.5))
    rows = lower_rows(sol, cell_duration, 0.25, (-1.0, 2.0, 0.5))
    assert type(log) is WaypointLog and log == rows and tuple(log) == rows
    assert all(type(row) is WaypointCommand for row in log)
    assert _sharing(log.positions) == _sharing(r.position for r in rows)  # one tuple per cell
    assert _sharing(log.timestamps) == _sharing(r.timestamp for r in rows)  # one float per step
    data = waypoints_to_bytes(log)
    assert data == waypoints_to_bytes(rows) == _per_row_waypoint_bytes(rows)
    back = waypoints_from_bytes(data)
    assert type(back) is WaypointLog and back == log
    assert type(log[1:4]) is WaypointLog and log[1:4] == rows[1:4] and log[-3:] == rows[-3:]


def test_a_waypoint_log_is_an_unhashable_sequence_of_rows():
    log = execute_plan(make_solution({0: ((0, 0, 0), (0, 0, 0)), 1: ((1, 0, 0),)}), 1.0, 1.0, (0.0, 0.0, 0.0))
    rows = (
        WaypointCommand(0, 0.0, (0.5, 0.5, 0.5), False),
        WaypointCommand(1, 0.0, (1.5, 0.5, 0.5), False),
        WaypointCommand(0, 1.0, (0.5, 0.5, 0.5), True),
    )
    assert log == rows and log == list(rows) and rows == log and log != rows[:2] and log != rows[::-1]
    assert WaypointLog() == () and log != () and WaypointLog() != ""
    assert log[-1] == rows[-1] and list(reversed(log)) == list(reversed(rows)) and rows[1] in log
    assert log.agent_ids == (0, 1, 0) and log.holds == (False, False, True)
    with pytest.raises(TypeError, match="unhashable"):
        hash(log)
    with pytest.raises(IndexError):
        log[3]
    with pytest.raises(ValueError, match="columns differ in length"):
        WaypointLog((0, 1), (0.0,), ((0.5, 0.5, 0.5),), (False,))


# -- file round trips ---------------------------------------------------------


def test_plan_bytes_roundtrip():
    agents = (Agent(0, UAV, (0, 0, 0), (1, 1, 1)), Agent(1, AGV, (2, 0, 0), (0, 2, 0)))
    sol = make_solution(
        {0: ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)), 1: ((2, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 2, 0))}
    )
    data = plan_to_bytes(sol, agents, 0.125)
    plan = plan_from_bytes(data)
    assert plan.paths == sol.paths
    assert plan.kinds == {0: "uav", 1: "agv"}
    assert plan.computation_time_s == 0.125
    assert plan_to_bytes(plan.solution, agents, plan.computation_time_s) == data


def _json_plan_bytes(solution, agents, computation_time):
    """The plan file as json's indenting encoder writes it."""
    kinds = {a.id: a.kind for a in agents}
    payload = {
        "agents": [
            {"id": aid, "kind": kinds[aid], "path": [list(c) for c in solution.paths[aid]]}
            for aid in sorted(solution.paths)
        ],
        "sum_of_costs": solution.sum_of_costs,
        "makespan": solution.makespan,
        "computation_time_s": computation_time,
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")


@pytest.mark.parametrize(
    "paths, seconds",
    [
        ({}, 0.0),
        ({0: ((3, 1, 0),)}, 1e-300),
        ({0: ((0, 0, 0), (1, 0, 0), (1, 1, 0)), 1: ((2, 0, 0),), 2: ((1, 0, 0), (1, 0, 0))}, 0.125),
        ({0: ((True, 2, 0), (1, 2, 0), (True, 2, 0), (1.0, 2, 0), (False, 0, 0)), 1: ((1, 2, 0), (True, 2, 0))}, 7.0),
    ],
    ids=["empty", "one-cell", "unequal-lengths", "bool-and-float-coordinates"],
)
def test_plan_text_matches_json_indenting_encoder(paths, seconds):
    """Equal cells that print differently (bools, floats and ints) never share a block."""
    sol = make_solution(paths)
    agents = [Agent(aid, UAV if aid % 2 else AGV, (0, 0, 0), (0, 0, 0)) for aid in paths]
    assert plan_to_bytes(sol, agents, seconds) == _json_plan_bytes(sol, agents, seconds)


def test_plan_with_numpy_int_coordinates_is_a_type_error_as_in_json():
    sol = make_solution({0: ((0, 0, 0), (np.int64(1), 0, 0))})
    agents = [Agent(0, AGV, (0, 0, 0), (1, 0, 0))]
    with pytest.raises(TypeError) as expected:
        _json_plan_bytes(sol, agents, 0.5)
    with pytest.raises(TypeError) as got:
        plan_to_bytes(sol, agents, 0.5)
    assert str(got.value) == str(expected.value) == "Object of type int64 is not JSON serializable"


@pytest.mark.parametrize("seconds", [math.nan, math.inf, -0.5, "0.5", True, None])
def test_plan_time_the_reader_would_refuse_writes_no_file(tmp_path, seconds):
    from skyrover import write_plan

    path = tmp_path / "plan.json"
    with pytest.raises(ValueError, match="computation_time_s must be"):
        write_plan(path, make_solution({0: ((0, 0, 0),)}), [Agent(0, AGV, (0, 0, 0), (0, 0, 0))], seconds)
    assert not path.exists()


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"agents": [', "plan is not valid JSON"),
        (b"[]", "plan must have exactly the keys"),
        (b'{"agents": [], "sum_of_costs": 0, "makespan": 0}', "plan must have exactly the keys"),
        (b'{"agents": [{"id": 0, "path": [[0, 0, 0]]}], "sum_of_costs": 0, "makespan": 0, "computation_time_s": 0}',
         "plan agent entries must have exactly id, kind, path"),
        (b'{"agents": [], "sum_of_costs": 0, "makespan": 0, "computation_time_s": -0.5}', "computation_time_s must be >= 0"),
        (b'{"agents": [], "sum_of_costs": 0, "makespan": 0, "computation_time_s": 1e999}', "computation_time_s must be finite"),
    ],
    ids=["invalid-json", "not-an-object", "missing-key", "bad-agent-entry", "negative-time", "infinite-time"],
)
def test_malformed_plan_bytes_are_parse_errors(data, message):
    with pytest.raises(ParseError, match=message):
        plan_from_bytes(data)


def test_plan_of_an_agent_without_a_kind_is_refused_and_writes_no_file(tmp_path):
    from skyrover import write_plan

    sol = make_solution({0: ((0, 0, 0), (1, 0, 0)), 3: ((2, 0, 0),)})
    path = tmp_path / "plan.json"
    with pytest.raises(ValueError, match="agent 0 of the plan has no kind"):
        write_plan(path, sol, [], 0.1)
    with pytest.raises(ValueError, match="agent 3 of the plan has no kind"):
        write_plan(path, sol, [Agent(0, AGV, (0, 0, 0), (1, 0, 0))], 0.1)
    assert not path.exists()


def test_waypoint_bytes_roundtrip():
    sol = make_solution({0: ((0, 0, 0), (0, 0, 0), (0, 1, 0))})
    cmds = execute_plan(sol, 1.5, 0.5, (-1.0, 0.0, 2.0))
    data = waypoints_to_bytes(cmds)
    assert waypoints_from_bytes(data) == cmds
    assert waypoints_to_bytes(waypoints_from_bytes(data)) == data
    assert waypoints_from_bytes(data.replace(b"\n", b"\r\n")) == cmds
    assert cmds[1].hold and cmds[1] == (0, 1.5, (-0.75, 0.25, 2.25), True)


def _per_row_waypoint_bytes(commands):
    """The waypoint CSV formatted row by row, with no text shared between rows."""
    rows = ["agent_id,timestamp_s,x,y,z,hold"]
    for aid, timestamp, (x, y, z), hold in commands:
        rows.append(",".join([str(aid), repr(timestamp), repr(x), repr(y), repr(z), "true" if hold else "false"]))
    return ("\n".join(rows) + "\n").encode("ascii")


def test_waypoint_text_matches_a_per_row_formatter():
    """Equal values that print differently (signed zeros, ints and floats) never share text."""
    rng = random.Random(41)
    values = [0.0, -0.0, 1.0, -1.0, 2.5, float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 5e-324, -5e-324]
    places = [tuple(rng.choice(values) for _ in range(3)) for _ in range(30)]
    places += [(0.0, 1.0, 2.5), (-0.0, 1.0, 2.5), (1.0, 0.0, 2.5), (1.0, -0.0, 2.5), (2.5, 1.0, -0.0), (2.5, 1.0, 0.0)]
    places += [(1, 2.5, 1.0), (1.0, 2.5, 1.0), (True, 2.5, 1.0)]
    stamps = values + [0, 1, 2, True, 2.0]
    cmds = []
    for _ in range(4000):
        pos = rng.choice(places)
        if rng.random() < 0.3:
            pos = tuple(float(repr(v)) if type(v) is float else v for v in pos)  # equal, but a fresh object
        cmds.append(WaypointCommand(rng.randrange(50), rng.choice(stamps), pos, rng.random() < 0.5))
    data = waypoints_to_bytes(cmds)
    assert data == _per_row_waypoint_bytes(cmds)
    for text in (b",0.0,", b",-0.0,", b",1,", b",1.0,", b",True,", b",nan,", b",-inf,", b",5e-324,", b",1e+308,"):
        assert text in data
    floats = [c for c in cmds if all(type(v) is float for v in (c.timestamp, *c.position))]
    back = waypoints_from_bytes(waypoints_to_bytes(floats))
    assert [repr(c) for c in back] == [repr(c) for c in floats]  # repr: nan != nan, but its text is equal
    assert waypoints_to_bytes(back) == waypoints_to_bytes(floats)


def _fresh_rows(seed, count):
    """Rows whose every value is a new object, dropped with its row, so ``id()``s are recycled.

    Among the values are ``0.0`` and ``-0.0``, ``1``, ``1.0`` and ``True``,
    ``nan`` and ``inf``: equal or alike values that print apart.
    """
    rng = random.Random(seed)
    texts = ["0.0", "-0.0", "1.0", "2.5", "nan", "inf", "-inf"]
    for _ in range(count):
        values = [rng.choice((1, True, 0, False)) if rng.random() < 0.2 else float(rng.choice(texts)) for _ in range(4)]
        yield WaypointCommand(rng.randrange(5), values[0], tuple(values[1:]), rng.random() < 0.5)


def test_text_keyed_by_identity_survives_recycled_ids():
    """A generator of fresh rows reuses the ids of rows already gone; the writer's bytes stay the per-row formatter's."""
    assert len({id(row.timestamp) for row in _fresh_rows(3, 2000)}) < 1000  # ids do come round again
    data = waypoints_to_bytes(_fresh_rows(3, 2000))
    assert data == _per_row_waypoint_bytes(list(_fresh_rows(3, 2000)))
    for text in (b",0.0,", b",-0.0,", b",1,", b",1.0,", b",True,", b",nan,", b",inf,", b",-inf,"):
        assert text in data


@pytest.mark.parametrize(
    "bad",
    [(0, 0.0, (0.5, 0.5, 0.5)), (0, 0.0, (0.5, 0.5, 0.5), True, 1), (0, 0.0, (0.5, 0.5), True)],
    ids=["three-fields", "five-fields", "two-coordinates"],
)
def test_a_malformed_row_is_a_value_error(bad):
    rows = iter([WaypointCommand(0, 0.0, (0.5, 0.5, 0.5), False), bad])
    with pytest.raises(ValueError, match="values to unpack"):
        waypoints_to_bytes(rows)


WAYPOINT_SLICE = skyrover.sim._WAYPOINT_SLICE
EDGE_VALUES = [0.0, -0.0, 0.5, -2.25, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324, 1e308]


def _edge_rows(count, seed, with_ints):
    """``count`` rows over a few edge values; ints and bools among the floats when ``with_ints``."""
    rng = random.Random(seed)
    values = EDGE_VALUES + ([0, 1, True, False] if with_ints else [])
    places = [tuple(rng.choice(values) for _ in range(3)) for _ in range(12)]
    stamps = [rng.choice(values) for _ in range(8)]
    rows = []
    for _ in range(count):
        pos = rng.choice(places)
        if rng.random() < 0.3:
            pos = tuple(float(repr(v)) if type(v) is float else v for v in pos)  # equal, but a fresh object
        rows.append(WaypointCommand(rng.randrange(300), rng.choice(stamps), pos, rng.random() < 0.5))
    return rows


@seed(20261020)
@settings(max_examples=24, deadline=None)
@given(
    count=st.sampled_from([0, 1, WAYPOINT_SLICE - 1, WAYPOINT_SLICE, WAYPOINT_SLICE + 1, 3 * WAYPOINT_SLICE + 7]),
    rng_seed=st.integers(0, 2**32),
    with_ints=st.booleans(),
)
def test_waypoint_slices_match_a_per_row_formatter(count, rng_seed, with_ints):
    """Across slice boundaries, the writer's bytes are the per-row formatter's and read back row for row."""
    rows = _edge_rows(count, rng_seed, with_ints)
    data = waypoints_to_bytes(rows)
    assert data == _per_row_waypoint_bytes(rows)
    floats = [c for c in rows if all(type(v) is float for v in (c.timestamp, *c.position))]
    data = waypoints_to_bytes(floats)
    expected = [repr(c) for c in floats]  # repr: nan != nan, but its text is equal
    for line_end in (b"\n", b"\r\n", b"\r"):
        back = waypoints_from_bytes(data.replace(b"\n", line_end))
        assert [repr(c) for c in back] == expected
    assert waypoints_to_bytes(back) == data


def _frozen_fleet():
    """Six paths that move a little, then park for most of a run of more than ``2 * WAYPOINT_SLICE`` rows.

    Agents arrive out of id order. Agent 9 parks on cells equal to, but not
    the same objects as, the one it reached; agent 1 comes back to its start
    before it parks; agents 1 and 3 end early, agent 3 after one cell.
    """
    def parked(length, *cells):
        return cells + (cells[-1],) * (length - len(cells))  # the last cell object, again and again

    paths = {
        7: parked(2000, (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (5, 0, 0)),
        2: parked(2000, (0, 2, 0), (1, 2, 0)),
        5: parked(2000, (4, 4, 0)),
        9: ((6, 6, 0), (6, 5, 0)) + tuple(tuple([6, 4, 0]) for _ in range(1998)),
        1: parked(1300, (3, 3, 0), (3, 2, 0), (3, 1, 0), (3, 2, 0), (3, 3, 0)),
        3: ((8, 8, 0),),
    }
    assert sum(map(len, paths.values())) > 2 * WAYPOINT_SLICE
    return paths


def test_a_frozen_fleet_lowers_row_for_row():
    """A parked fleet over several slices, ragged paths among it, against ``oracles.lower_rows`` and the per-row formatter."""
    paths = _frozen_fleet()
    sol = make_solution(paths)
    log = execute_plan(sol, 0.5, 0.25, (-1.0, 2.0, 0.5))
    rows = lower_rows(sol, 0.5, 0.25, (-1.0, 2.0, 0.5))
    assert log == rows and tuple(log) == rows and rows == log
    assert log.agent_ids == tuple(r.agent_id for r in rows) and log.holds == tuple(r.hold for r in rows)
    assert _sharing(log.positions) == _sharing(r.position for r in rows)
    assert _sharing(log.timestamps) == _sharing(r.timestamp for r in rows)
    data = waypoints_to_bytes(log)
    assert data == _per_row_waypoint_bytes(rows)
    assert waypoints_from_bytes(data) == log and waypoints_to_bytes(waypoints_from_bytes(data)) == data
    # the tables: an id per path, a timestamp per step, a position per distinct cell, the two hold flags
    ids, stamps, places, holds = log._tables
    assert ids == (1, 2, 3, 5, 7, 9) and stamps == tuple(t * 0.5 for t in range(2000)) and holds == (False, True)
    assert len(places) == len(set(chain.from_iterable(paths.values()))) == 16
    assert len(set(map(id, log.positions))) == 16  # decoded rows share the table's objects
    for start, stop in [(0, 7), (WAYPOINT_SLICE - 5, 2 * WAYPOINT_SLICE + 5), (-40, None)]:
        part = log[start:stop]
        assert part == rows[start:stop] and waypoints_to_bytes(part) == _per_row_waypoint_bytes(rows[start:stop])
        assert len(part._tables[2]) == len({r.position for r in rows[start:stop]})  # a slice keeps its own values


def test_logs_whose_tables_were_filled_in_other_orders_are_equal_and_write_alike():
    """A lowered slice keeps the whole log's table order, a parsed one the order its rows first show,
    and a log gathered from rows of fresh objects one entry per row: rows decide equality and bytes."""
    lowered = execute_plan(make_solution(_frozen_fleet()), 0.5, 0.25, (-1.0, 2.0, 0.5))[WAYPOINT_SLICE + 3 :]
    data = waypoints_to_bytes(lowered)
    parsed = waypoints_from_bytes(data)
    fresh = [WaypointCommand(aid, float(repr(t)), tuple(list(pos)), hold) for aid, t, pos, hold in lowered]
    gathered = WaypointLog(*zip(*fresh))
    assert lowered._tables[2] != parsed._tables[2] and sorted(lowered._tables[2]) == sorted(parsed._tables[2])
    assert len(gathered._tables[1]) == len(gathered._tables[2]) == len(lowered)
    logs = {"lowered": lowered, "parsed": parsed, "gathered": gathered}
    for a, b in [(a, b) for a in logs for b in logs]:
        assert logs[a] == logs[b] and not logs[a] != logs[b], (a, b)
    assert waypoints_to_bytes(parsed) == waypoints_to_bytes(gathered) == waypoints_to_bytes(fresh) == data
    moved = list(lowered)
    moved[-1] = moved[-1]._replace(hold=not moved[-1].hold)
    assert lowered != moved and parsed != WaypointLog(*zip(*moved)) and WaypointLog(*zip(*moved)) != gathered


@pytest.mark.parametrize("row", [2, WAYPOINT_SLICE + 1, 3 * WAYPOINT_SLICE + 8])
def test_a_row_with_several_bad_fields_names_its_first_at_any_row(row):
    """The id is read before any float, and row numbers run on across slices."""
    rows = _edge_rows(3 * WAYPOINT_SLICE + 7, 5, with_ints=False)
    lines = waypoints_to_bytes(rows).split(b"\n")
    lines[row - 1] = b"x,0.0,0.5,zero,0.5,false"
    with pytest.raises(ParseError) as exc:
        waypoints_from_bytes(b"\r\n".join(lines))
    assert str(exc.value) == f"waypoint row {row}: invalid literal for int() with base 10: b'x'"
    lines[row - 1] = b"7,0.0,0.5,zero,0.5,false"
    with pytest.raises(ParseError, match=rf"^waypoint row {row}: could not convert string to float: b'zero'$"):
        waypoints_from_bytes(b"\n".join(lines))


def test_equal_coordinate_bytes_share_one_position_tuple():
    data = (
        b"agent_id,timestamp_s,x,y,z,hold\n"
        b"0,1.5,0.5,0.5,-0.0,false\n1,1.5,0.5,0.5,-0.0,true\n2,1.5,0.5,0.5,0.0,false\n0,2.5,0.5,0.5,-0.0,true\n"
    )
    rows = waypoints_from_bytes(data)
    assert rows[0].position is rows[1].position is rows[3].position
    assert rows[0].timestamp is rows[1].timestamp is rows[2].timestamp
    assert rows[2].position == rows[0].position and rows[2].position is not rows[0].position
    assert [repr(r.position[2]) for r in rows] == ["-0.0", "-0.0", "0.0", "-0.0"]
    assert waypoints_to_bytes(rows) == data


GOOD_WAYPOINTS = b"agent_id,timestamp_s,x,y,z,hold\n0,0.0,0.5,0.5,0.5,false\n0,1.0,0.5,0.5,0.5,true\n"


@pytest.mark.parametrize(
    "old, new, row",
    [
        (b"0,0.0,", b"x,0.0,", 2),
        (b"1.0,0.5,0.5,0.5,true", b"1.0,zero,0.5,0.5,true", 3),
        (b"1.0,0.5,", b"1.0,0.\xff,", 3),
        (b"false\n", b"false\n\n", 3),
        (b",true", b",yes", 3),
    ],
    ids=["non-integer-id", "non-numeric-coordinate", "non-ascii-byte", "blank-line", "bad-hold-flag"],
)
def test_malformed_waypoint_row_is_a_parse_error(old, new, row):
    data = GOOD_WAYPOINTS.replace(old, new, 1)
    assert data != GOOD_WAYPOINTS
    with pytest.raises(ParseError, match=rf"^waypoint row {row}\b"):
        waypoints_from_bytes(data)


@pytest.mark.parametrize(
    "data", [b"", b"agent,timestamp_s,x,y,z,hold\n", GOOD_WAYPOINTS.replace(b"hold", b"hold,extra", 1)],
    ids=["empty", "renamed-column", "extra-column"],
)
def test_waypoint_csv_without_its_header_is_a_parse_error(data):
    with pytest.raises(ParseError, match="waypoint CSV must start with header"):
        waypoints_from_bytes(data)
