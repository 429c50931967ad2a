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
from skyrover.tasks import hover_streak


def _roster():
    return (
        Agent(0, AGV, (0, 0, 0), (9, 9, 0)),
        Agent(1, UAV, (9, 0, 0), (0, 9, 3)),
    )


def _grid():
    return empty_grid((10, 10, 6))


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
    with pytest.raises(TaskError, match="hover cell .* is occupied"):
        compile_task(grid, script, _roster())


def test_kind_mismatch_is_a_compile_error():
    script = TaskScript("inventory_scan", agv_id=1, uav_id=0, point_a=(3, 3, 0), point_b=(7, 3, 0))
    with pytest.raises(TaskError, match="expected an AGV"):
        compile_task(_grid(), script, _roster())


def test_point_a_must_be_on_the_ground():
    script = TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 1), point_b=(7, 3, 0))
    with pytest.raises(TaskError, match="ground layer"):
        compile_task(_grid(), script, _roster())


def test_unknown_agent_ids_rejected():
    script = TaskScript("inventory_scan", agv_id=5, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0))
    with pytest.raises(TaskError, match="unknown agent ids"):
        compile_task(_grid(), script, _roster())


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


def test_weaker_hold_requirement_still_succeeds():
    script = TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0), hold_steps=1)
    report = run_task(Scenario(grid=_grid(), agents=_roster(), task=script), SolverConfig(algorithm="cbs"))
    assert report.success


def test_sealed_room_fails_naming_the_episode():
    arr = np.zeros((6, 10, 10), dtype=np.uint8)  # [k, j, i]
    # wall off a 3x3 room around point A, full height
    for j in range(2, 6):
        for i in range(2, 6):
            on_wall = i in (2, 5) or j in (2, 5)
            if on_wall:
                arr[:, j, i] = 1
    grid = OccupancyGrid3D((0, 0, 0), 1.0, (10, 10, 6), arr.reshape(-1))
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


def test_hover_streak_reads_the_tick_log():
    from skyrover.sim import SimState

    mk = lambda t, u, g: SimState(t, {0: g, 1: u}, {0: "at-goal", 1: "at-goal"}, "precomputed-plan")
    states = [
        mk(0, (0, 0, 3), (5, 5, 0)),
        mk(1, (5, 5, 2), (5, 5, 0)),
        mk(2, (5, 5, 2), (5, 5, 0)),
    ]
    assert hover_streak(states, uav_id=1, agv_id=0, hover_offset=2) == 2
    assert hover_streak(states, uav_id=1, agv_id=0, hover_offset=3) == 0
