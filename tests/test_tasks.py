import numpy as np
import pytest

from skyrover import (
    AGV,
    UAV,
    Agent,
    OccupancyGrid3D,
    Scenario,
    SolverConfig,
    TaskError,
    TaskScript,
    compile_task,
    empty_grid,
    run_task,
)
from skyrover import tasks
from skyrover.sim import RunMetrics, Simulator


def _roster():
    return (
        Agent(0, AGV, (0, 0, 0), (9, 9, 0)),
        Agent(1, UAV, (9, 0, 0), (0, 9, 3)),
    )


def _grid():
    return empty_grid((10, 10, 6))


def _sealed_grid():
    arr = np.zeros((6, 10, 10), dtype=np.uint8)  # [k, j, i]
    for j in range(2, 6):
        for i in range(2, 6):
            if i in (2, 5) or j in (2, 5):
                arr[:, j, i] = 1  # a full-height wall around point A
    return OccupancyGrid3D((0, 0, 0), 1.0, (10, 10, 6), arr.reshape(-1))


def test_inventory_scan_compiles_to_rendezvous_then_ground_leg():
    script = TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0), hover_offset=2)
    episodes = compile_task(_grid(), script, _roster())
    assert len(episodes) == 2
    assert episodes[0].goals[0] == (3, 3, 0)
    assert episodes[0].goals[1] == (3, 3, 2)
    assert episodes[1].goals[0] == (7, 3, 0)
    assert episodes[1].goals[1] == (0, 9, 3)  # UAV released to its roster goal
    assert episodes[1].starts == episodes[0].goals


def test_aerial_transfer_sends_uav_to_elevated_b():
    script = TaskScript("aerial_transfer", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(5, 5, 4))
    episodes = compile_task(_grid(), script, _roster())
    assert episodes[1].goals[1] == (5, 5, 4)
    assert episodes[1].goals[0] == (9, 9, 0)  # AGV released to its roster goal


def test_hover_cell_inside_obstacle_is_a_compile_error():
    cells = np.zeros(10 * 10 * 6, dtype=np.uint8)
    grid = OccupancyGrid3D((0, 0, 0), 1.0, (10, 10, 6), cells)
    blocked = np.array(cells)
    blocked[grid.index(3, 3, 2)] = 1
    grid = OccupancyGrid3D((0, 0, 0), 1.0, (10, 10, 6), blocked)
    script = TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0))
    with pytest.raises(TaskError) as err:
        compile_task(grid, script, _roster())
    assert str(err.value) == "episode 1 is not a valid instance:\n  agent 1 goal (3, 3, 2) is inside an obstacle"


def test_kind_mismatch_is_a_compile_error():
    script = TaskScript("inventory_scan", agv_id=1, uav_id=0, point_a=(3, 3, 0), point_b=(7, 3, 0))
    with pytest.raises(TaskError, match="expected an AGV"):
        compile_task(_grid(), script, _roster())


def test_unknown_agent_ids_rejected():
    script = TaskScript("inventory_scan", agv_id=5, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0))
    with pytest.raises(TaskError, match="unknown agent ids"):
        compile_task(_grid(), script, _roster())


@pytest.mark.parametrize(
    "point_a, point_b, hover_offset, problem",
    [
        ((4, 4, 0), (7, 3, 0), 2, "episode 1 is not a valid instance:\n  agents 0 and 2 share goal (4, 4, 0)"),
        ((3, 3, 0), (4, 4, 0), 2, "episode 2 is not a valid instance:\n  agents 0 and 2 share goal (4, 4, 0)"),
        ((3, 3, 0), (10, 3, 0), 2, "episode 2 is not a valid instance:\n  agent 0 goal (10, 3, 0) is out of bounds"),
        ((3, 3, 1), (7, 3, 0), 2, "episode 1 is not a valid instance:\n  ground agent 0 goal (3, 3, 1) is above the ground layer"),
        ((3, 3, 0), (7, 3, 1), 2, "episode 2 is not a valid instance:\n  ground agent 0 goal (7, 3, 1) is above the ground layer"),
        ((3, 3, 0), (7, 3, 0), 6, "episode 1 is not a valid instance:\n  agent 1 goal (3, 3, 6) is out of bounds"),
    ],
    ids=["point-a-is-a-goal", "point-b-is-a-goal", "point-b-out-of-bounds", "point-a-in-the-air", "point-b-in-the-air", "hover-out-of-bounds"],
)
def test_an_episode_that_is_no_valid_instance_is_a_compile_error(point_a, point_b, hover_offset, problem):
    roster = _roster() + (Agent(2, AGV, (0, 5, 0), (4, 4, 0)),)
    script = TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=point_a, point_b=point_b, hover_offset=hover_offset)
    with pytest.raises(TaskError) as err:
        compile_task(_grid(), script, roster)
    assert str(err.value) == problem


def test_inventory_scan_runs_to_success_with_verified_rendezvous():
    script = TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0))
    report = run_task(Scenario(grid=_grid(), agents=_roster(), task=script), SolverConfig(algorithm="cbs"))
    assert report.success and report.rendezvous_ok
    assert report.failed_episode is None
    assert len(report.episodes) == 2
    assert all(m.success_rate == 1.0 for m in report.episodes)


def test_aerial_transfer_runs_to_success():
    script = TaskScript("aerial_transfer", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(5, 5, 4))
    report = run_task(Scenario(grid=_grid(), agents=_roster(), task=script), SolverConfig(algorithm="cbs"))
    assert report.success and report.rendezvous_ok


def test_sealed_room_fails_naming_the_episode():
    grid = _sealed_grid()
    script = TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0))
    report = run_task(Scenario(grid=grid, agents=_roster(), task=script), SolverConfig(algorithm="cbs"))
    assert not report.success
    assert report.status == "no_solution"
    assert report.failed_episode == 1
    assert "episode 1" in report.reason


def test_run_task_without_config_uses_the_scenario_solver_block():
    script = TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0))
    solver = SolverConfig(algorithm="cbs", node_expansion_limit=3)
    report = run_task(Scenario(grid=_grid(), agents=_roster(), task=script, solver=solver))
    assert report.status == "resource_limit"
    assert report.failed_episode == 1


def test_run_task_needs_a_task_block():
    with pytest.raises(TaskError, match="no task block"):
        run_task(Scenario(grid=_grid(), agents=_roster()))


_SCAN, _TRANSFER = ((1.0, 11, 17), (1.0, 10, 14)), ((1.0, 11, 17), (1.0, 12, 22))
_UNREACHABLE = "episode 1: cbs: agent 0: goal is not reachable from its start"
_SPENT = "episode 1: cbs: expansion limit hit after 4 nodes"
_B = {"inventory_scan": (7, 3, 0), "aerial_transfer": (7, 7, 4)}


@pytest.mark.parametrize(
    "kind, hold_steps, sealed, limit, expected",
    [
        ("inventory_scan", 1, False, None, (_SCAN, True, "solved", None, "")),
        ("inventory_scan", 3, False, None, (_SCAN, True, "solved", None, "")),
        ("inventory_scan", 50, False, None, (_SCAN, True, "solved", None, "")),
        ("inventory_scan", 3, True, None, ((), False, "no_solution", 1, _UNREACHABLE)),
        ("inventory_scan", 3, False, 3, ((), False, "resource_limit", 1, _SPENT)),
        ("aerial_transfer", 1, False, None, (_TRANSFER, True, "solved", None, "")),
        ("aerial_transfer", 3, False, None, (_TRANSFER, True, "solved", None, "")),
        ("aerial_transfer", 50, False, None, (_TRANSFER, True, "solved", None, "")),
        ("aerial_transfer", 3, True, None, ((), False, "no_solution", 1, _UNREACHABLE)),
        ("aerial_transfer", 3, False, 3, ((), False, "resource_limit", 1, _SPENT)),
        (
            "aerial_transfer", 3, False, 20,
            (_TRANSFER[:1], True, "resource_limit", 2, "episode 2: cbs: expansion limit hit after 21 nodes"),
        ),
    ],
    ids=[
        "scan-hold1", "scan-hold3", "scan-hold50", "scan-sealed", "scan-spent",
        "transfer-hold1", "transfer-hold3", "transfer-hold50", "transfer-sealed", "transfer-spent",
        "transfer-spent-in-episode2",
    ],
)
def test_task_reports_are_pinned(kind, hold_steps, sealed, limit, expected):
    """Every report field but the wall times, for both kinds, any hold_steps, a sealed room and spent budgets."""
    script = TaskScript(kind, agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=_B[kind], hold_steps=hold_steps)
    grid = _sealed_grid() if sealed else _grid()
    config = SolverConfig(algorithm="cbs", **({} if limit is None else {"node_expansion_limit": limit}))
    report = run_task(Scenario(grid=grid, agents=_roster(), task=script), config)
    episodes = tuple((m.success_rate, m.makespan, m.sum_of_costs) for m in report.episodes)
    assert (episodes, report.rendezvous_ok, report.status, report.failed_episode, report.reason) == expected


def test_rendezvous_guard_fails_a_log_that_ends_off_the_hover(monkeypatch):
    """Episode 1 reports full success but its log stops at the starts: no hover on the last tick."""
    run = Simulator.run
    monkeypatch.setattr(Simulator, "run", lambda self, max_ticks=None: run(self, 0))
    monkeypatch.setattr(tasks, "collect_metrics", lambda record: RunMetrics(0.0, 1.0, 0, 0))
    script = TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0))
    report = run_task(Scenario(grid=_grid(), agents=_roster(), task=script), SolverConfig(algorithm="cbs"))
    assert not report.rendezvous_ok
    assert (report.status, report.failed_episode) == ("no_solution", 1)
    assert report.reason == "rendezvous hold was never observed in the tick log"
    assert len(report.episodes) == 1


def test_rendezvous_is_judged_on_the_hover_even_when_episode1_fails_for_another_agent(monkeypatch):
    """Episode 1 ends on the hover but reports a partial success: the failure stops the task, the rendezvous holds."""
    monkeypatch.setattr(tasks, "collect_metrics", lambda record: RunMetrics(0.0, 0.5, 0, 0))
    script = TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0))
    report = run_task(Scenario(grid=_grid(), agents=_roster(), task=script), SolverConfig(algorithm="cbs"))
    assert report.rendezvous_ok
    assert (report.status, report.failed_episode) == ("no_solution", 1)
    assert report.reason == "episode 1: only 0.500 of agents reached their goals"
    assert len(report.episodes) == 1
