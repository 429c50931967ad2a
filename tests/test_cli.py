import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from skyrover import (
    ParseError,
    SolverConfig,
    grid_from_bytes,
    load_scenario,
    read_grid,
    read_plan,
    solve,
    validate_solution,
    waypoints_from_bytes,
    write_grid,
)
from skyrover.bench import CSV_HEADER, report_from_bytes, report_to_bytes, run_cell, run_suite
from skyrover.cli import main

from oracles import pcd_ascii_bytes, pgm_p2_bytes


@pytest.fixture
def warehouse_files(tmp_path):
    out = tmp_path / "wh"
    rc = main(
        [
            "gen-warehouse",
            "--dims", "20", "16", "5",
            "--shelf-rows", "2",
            "--agents", "2uav+3agv",
            "--seed", "3",
            "-o", str(out),
        ]
    )
    assert rc == 0
    return tmp_path / "wh.json", tmp_path / "wh.grid"


def test_gridgen_from_pcd_roundtrips(tmp_path):
    pcd = tmp_path / "tiny.pcd"
    pcd.write_bytes(pcd_ascii_bytes([(0.5, 0.5, 0.5), (2.5, 1.5, 0.5)]))
    out = tmp_path / "tiny.grid"
    rc = main(["gridgen", "--pcd", str(pcd), "--resolution", "1.0", "--padding", "1", "-o", str(out)])
    assert rc == 0
    grid = read_grid(out)
    assert grid.occupied_count == 2
    assert grid_from_bytes(out.read_bytes()) == grid


def test_gridgen_from_pgm_extrudes(tmp_path):
    pgm = tmp_path / "map.pgm"
    pgm.write_bytes(pgm_p2_bytes([[0, 255], [255, 255]]))
    out = tmp_path / "map.grid"
    rc = main(["gridgen", "--pgm", str(pgm), "--extrude", "5", "-o", str(out)])
    assert rc == 0
    grid = read_grid(out)
    assert grid.dims == (2, 2, 5)
    assert grid.occupied_count == 1


def test_gridgen_malformed_pcd_exits_2_with_offset(tmp_path, capsys):
    pcd = tmp_path / "broken.pcd"
    data = pcd_ascii_bytes([(0, 0, 0)])
    pcd.write_bytes(data[: data.find(b"DATA")])
    out = tmp_path / "x.grid"
    rc = main(["gridgen", "--pcd", str(pcd), "-o", str(out)])
    assert rc == 2
    assert "byte offset" in capsys.readouterr().err


_ASCII_HEADER = b"VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\nWIDTH 3\nHEIGHT 1\nPOINTS 3\nDATA ascii\n"


@pytest.mark.parametrize(
    "flag, data, offset",
    [("--pcd", _ASCII_HEADER + b"1 2 3\n7 x 9\n4 5 6\n", 102), ("--pgm", b"P2 3 1 255\n1 2 300", 15)],
    ids=["pcd-ascii-row", "pgm-p2-sample"],
)
def test_gridgen_bad_row_or_sample_exits_2_at_its_offset(tmp_path, capsys, flag, data, offset):
    capture = tmp_path / "bad.capture"
    capture.write_bytes(data)
    out = tmp_path / "bad.grid"
    assert main(["gridgen", flag, str(capture), "-o", str(out)]) == 2
    assert f"(byte offset {offset})" in capsys.readouterr().err
    assert not out.exists()


def test_gridgen_capacity_exit_3(tmp_path):
    pcd = tmp_path / "big.pcd"
    pcd.write_bytes(pcd_ascii_bytes([(0, 0, 0), (4000.0, 4000.0, 4000.0)]))
    rc = main(["gridgen", "--pcd", str(pcd), "--resolution", "0.01", "-o", str(tmp_path / "x.grid")])
    assert rc == 3


@pytest.mark.parametrize(
    "value, message",
    [
        ("nan", "resolution must be positive and finite"),
        ("inf", "resolution must be positive and finite"),
        ("0", "resolution must be positive and finite"),
        ("1e308", "grid extent must be finite"),
    ],
)
def test_gridgen_pcd_hostile_resolution_exits_2(tmp_path, capsys, value, message):
    pcd = tmp_path / "tiny.pcd"
    pcd.write_bytes(pcd_ascii_bytes([(0.5, 0.5, 0.5), (2.5, 1.5, 0.5)]))
    out = tmp_path / "x.grid"
    rc = main(["gridgen", "--pcd", str(pcd), "--resolution", value, "-o", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_gridgen_pgm_hostile_resolution_exits_2(tmp_path, capsys, value):
    pgm = tmp_path / "map.pgm"
    pgm.write_bytes(pgm_p2_bytes([[0, 255], [255, 255]]))
    out = tmp_path / "x.grid"
    rc = main(["gridgen", "--pgm", str(pgm), "--resolution", value, "-o", str(out)])
    assert rc == 2
    assert "resolution must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_gridgen_pgm_extrusion_over_the_cap_exits_3(tmp_path, capsys):
    pgm = tmp_path / "map.pgm"
    pgm.write_bytes(pgm_p2_bytes([[0, 255], [255, 255]]))
    out = tmp_path / "x.grid"
    rc = main(["gridgen", "--pgm", str(pgm), "--extrude", str(10**12), "-o", str(out)])
    assert rc == 3
    assert "above the cap" in capsys.readouterr().err
    assert not out.exists()


def test_gridgen_pgm_header_over_the_cap_exits_3(tmp_path, capsys):
    pgm = tmp_path / "map.pgm"
    pgm.write_bytes(b"P5 20000 20000 255\n\x00")  # 4e8 pixels declared, one byte given
    out = tmp_path / "x.grid"
    rc = main(["gridgen", "--pgm", str(pgm), "-o", str(out)])
    assert rc == 3
    assert "grid would hold 400000000 cells, above the cap" in capsys.readouterr().err
    assert not out.exists()


def test_gridgen_requires_exactly_one_input(tmp_path, capsys):
    rc = main(["gridgen", "-o", str(tmp_path / "x.grid")])
    assert rc == 2


def test_solve_writes_valid_plan(warehouse_files, tmp_path, capsys):
    scenario_path, _ = warehouse_files
    plan_path = tmp_path / "plan.json"
    rc = main(["solve", "--scenario", str(scenario_path), "--alg", "cbs", "-o", str(plan_path)])
    assert rc == 0
    assert "success_rate=100%" in capsys.readouterr().out
    plan = read_plan(plan_path)
    scenario = load_scenario(scenario_path)
    grid = scenario.materialize_grid()
    assert validate_solution(grid, scenario.agents, plan.paths) == []


def test_solve_prints_the_search_effort_of_solve(tmp_path, capsys):
    from skyrover import SolverConfig, solve

    argv = ["gen-warehouse", "--dims", "40", "30", "6", "--shelf-rows", "6", "--agents", "4uav+10agv", "--seed", "7"]
    assert main(argv + ["-o", str(tmp_path / "wh")]) == 0
    assert main(["solve", "--scenario", str(tmp_path / "wh.json"), "--alg", "cbs"]) == 0
    out = capsys.readouterr().out
    scenario = load_scenario(tmp_path / "wh.json")
    stats = solve(scenario.materialize_grid(), scenario.agents, SolverConfig(algorithm="cbs")).stats
    assert stats.ct_expanded > 0
    assert out.rstrip().endswith(f" expansions={stats.ll_expansions} ct_nodes={stats.ct_expanded}")


def test_grid_flag_overrides_the_scenario_grid(warehouse_files, tmp_path, capsys):
    scenario_path, grid_path = warehouse_files
    argv = ["solve", "--scenario", str(scenario_path), "--alg", "astar"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.split(" comp_time_s=")[0]
    moved = tmp_path / "moved.grid"
    grid_path.rename(moved)
    assert main(argv) == 2  # the scenario's own reference is gone
    capsys.readouterr()
    assert main(argv + ["--grid", str(moved)]) == 0
    assert capsys.readouterr().out.split(" comp_time_s=")[0] == expected
    grid = read_grid(moved)
    write_grid(replace(grid, cells=np.ones_like(grid.cells)), tmp_path / "solid.grid")
    assert main(argv + ["--grid", str(tmp_path / "solid.grid")]) == 2
    assert "inside an obstacle" in capsys.readouterr().err


def test_solve_prioritized_also_succeeds(warehouse_files, tmp_path):
    scenario_path, _ = warehouse_files
    rc = main(["solve", "--scenario", str(scenario_path), "--alg", "astar", "-o", str(tmp_path / "p.json")])
    assert rc == 0


def test_solve_unsolvable_exits_4(tmp_path, capsys):
    from skyrover import AGV, Agent, Scenario, save_scenario, write_grid
    import numpy as np
    from skyrover import OccupancyGrid3D

    cells = np.array([0, 1, 0], dtype=np.uint8)
    write_grid(OccupancyGrid3D((0, 0, 0), 1.0, (3, 1, 1), cells), tmp_path / "g.grid")
    sc = Scenario(grid="g.grid", agents=(Agent(0, AGV, (0, 0, 0), (2, 0, 0)),))
    save_scenario(sc, tmp_path / "s.json")
    rc = main(["solve", "--scenario", str(tmp_path / "s.json"), "--alg", "cbs"])
    assert rc == 4
    assert "no solution" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ["astar", "cbs"])
def test_solve_walled_goal_exits_4_before_any_search(tmp_path, capsys, alg):
    from skyrover import AGV, Agent, OccupancyGrid3D, Scenario, save_scenario, write_grid
    import numpy as np

    arr = np.zeros((1, 60, 60), dtype=np.uint8)  # [k, j, i]
    arr[0, :, 30] = 1
    write_grid(OccupancyGrid3D((0, 0, 0), 1.0, (60, 60, 1), arr.reshape(-1)), tmp_path / "g.grid")
    sc = Scenario(grid="g.grid", agents=(Agent(0, AGV, (0, 0, 0), (59, 0, 0)),))
    save_scenario(sc, tmp_path / "s.json")
    argv = ["solve", "--scenario", str(tmp_path / "s.json"), "--alg", alg, "--expansion-limit", "200000"]
    assert main(argv) == 4
    assert "no solution" in capsys.readouterr().err


def _shared_start_scenario(tmp_path):
    from skyrover import AGV, Agent, Scenario, save_scenario

    sc = Scenario(
        grid={"kind": "empty", "dims": [4, 4, 1]},
        agents=(Agent(0, AGV, (0, 0, 0), (3, 0, 0)), Agent(1, AGV, (0, 0, 0), (3, 3, 0))),
    )
    save_scenario(sc, tmp_path / "s.json")
    return str(tmp_path / "s.json")


def test_solve_goal_cut_off_by_a_parked_agent_exits_4(tmp_path, capsys, gap_floor):
    from skyrover import Scenario, save_scenario

    grid, agents = gap_floor(80)
    write_grid(grid, tmp_path / "gap.grid")
    save_scenario(Scenario(grid="gap.grid", agents=agents), tmp_path / "gap.json")
    argv = ["solve", "--scenario", str(tmp_path / "gap.json"), "--alg", "astar"]
    assert main(argv) == 4
    assert "no solution" in capsys.readouterr().err
    # within test_prioritized's pinned 3206 expansions, and not within one fewer
    assert main(argv + ["--expansion-limit", "3206"]) == 4
    assert main(argv + ["--expansion-limit", "3205"]) == 5


def test_solve_invalid_instance_exits_2(tmp_path, capsys):
    rc = main(["solve", "--scenario", _shared_start_scenario(tmp_path), "--alg", "cbs"])
    assert rc == 2
    assert "share start" in capsys.readouterr().err


def test_sim_online_invalid_instance_exits_2(tmp_path, capsys):
    rc = main(["sim", "--scenario", _shared_start_scenario(tmp_path), "--online", "greedy-shielded"])
    assert rc == 2
    assert "share start" in capsys.readouterr().err


def test_solve_resource_limit_exits_5(warehouse_files):
    scenario_path, _ = warehouse_files
    rc = main(["solve", "--scenario", str(scenario_path), "--alg", "cbs", "--expansion-limit", "1"])
    assert rc == 5


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_non_finite_time_limit_exits_2(warehouse_files, capsys, value):
    scenario_path, _ = warehouse_files
    assert main(["solve", "--scenario", str(scenario_path), "--time-limit", value]) == 2
    assert "time_limit must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_sim_non_finite_cell_duration_exits_2(warehouse_files, tmp_path, capsys, value):
    scenario_path, _ = warehouse_files
    wp = tmp_path / "wp.csv"
    argv = ["sim", "--scenario", str(scenario_path), "--online", "greedy-shielded", "--waypoints", str(wp)]
    assert main(argv + ["--cell-duration", value]) == 2
    assert "cell_duration must be positive and finite" in capsys.readouterr().err
    assert not wp.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_sim_bad_cell_duration_exits_2_before_simulating(warehouse_files, tmp_path, capsys, value):
    scenario_path, _ = warehouse_files
    ticks = tmp_path / "ticks.jsonl"
    argv = ["sim", "--scenario", str(scenario_path), "--online", "greedy-shielded", "--ticks", str(ticks)]
    assert main(argv + ["--cell-duration", value]) == 2
    captured = capsys.readouterr()
    assert "cell_duration must be positive and finite" in captured.err
    assert captured.out == ""  # no simulation ran
    assert not ticks.exists()


def test_sim_negative_max_ticks_exits_2_before_simulating(warehouse_files, tmp_path, capsys):
    scenario_path, _ = warehouse_files
    ticks = tmp_path / "ticks.jsonl"
    argv = ["sim", "--scenario", str(scenario_path), "--online", "greedy-shielded", "--ticks", str(ticks)]
    assert main(argv + ["--max-ticks", "-5"]) == 2
    captured = capsys.readouterr()
    assert "max_ticks must be >= 0" in captured.err
    assert captured.out == ""  # no simulation ran
    assert not ticks.exists()
    assert main(argv + ["--max-ticks", "0"]) == 0
    assert capsys.readouterr().out.startswith("simulated 0 ticks ")
    assert len(ticks.read_text().splitlines()) == 1


def test_sim_cell_duration_whose_timestamps_overflow_exits_2(warehouse_files, tmp_path, capsys):
    scenario_path, _ = warehouse_files
    ticks, wp = tmp_path / "ticks.jsonl", tmp_path / "wp.csv"
    argv = ["sim", "--scenario", str(scenario_path), "--online", "greedy-shielded"]
    assert main(argv + ["--ticks", str(ticks), "--waypoints", str(wp), "--cell-duration", "1e308"]) == 2
    assert "overflow" in capsys.readouterr().err
    assert not ticks.exists() and not wp.exists()


def test_solve_on_a_grid_declaring_too_many_cells_exits_3(tmp_path, capsys):
    header = "SKYGRID1\norigin 0.0 0.0 0.0\nresolution 1.0\ndims 100000 100000 100000\nencoding rle\n\n"
    (tmp_path / "huge.grid").write_bytes(header.encode("ascii") + b"\x01\x00")
    scenario = {"grid": "huge.grid", "agents": [{"id": 0, "kind": "agv", "start": [0, 0, 0], "goal": [1, 0, 0]}]}
    (tmp_path / "huge.json").write_text(json.dumps(scenario))
    assert main(["solve", "--scenario", str(tmp_path / "huge.json")]) == 3
    assert "above the cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec", [{"kind": "empty", "dims": [100000, 100000, 100000]}, {"kind": "warehouse", "dims": [2000, 2000, 100]}]
)
def test_solve_on_an_inline_spec_over_the_cap_exits_3(tmp_path, capsys, spec):
    scenario = {"grid": spec, "agents": [{"id": 0, "kind": "agv", "start": [0, 0, 0], "goal": [1, 0, 0]}]}
    (tmp_path / "huge.json").write_text(json.dumps(scenario))
    assert main(["solve", "--scenario", str(tmp_path / "huge.json")]) == 3
    assert "above the cap" in capsys.readouterr().err


def test_solve_online_exits_2(warehouse_files, capsys):
    """The CLI refuses with the text of `solve()`'s own refusal, not a copy of it."""
    scenario_path, _ = warehouse_files
    scenario = load_scenario(scenario_path)
    with pytest.raises(ValueError, match="nothing to precompute") as refused:
        solve(scenario.materialize_grid(), scenario.agents, SolverConfig(algorithm="online"))
    assert main(["solve", "--scenario", str(scenario_path), "--alg", "online"]) == 2
    assert capsys.readouterr().err == f"error: {refused.value}\n"


def test_sim_takes_no_solver_flags(warehouse_files):
    scenario_path, _ = warehouse_files
    with pytest.raises(SystemExit):
        main(["sim", "--scenario", str(scenario_path), "--online", "greedy-shielded", "--alg", "cbs"])


def test_sim_plan_is_replayed_when_the_scenario_says_online(warehouse_files, tmp_path, capsys):
    scenario_path, _ = warehouse_files
    plan_path = tmp_path / "plan.json"
    assert main(["solve", "--scenario", str(scenario_path), "--alg", "cbs", "-o", str(plan_path)]) == 0
    payload = json.loads(scenario_path.read_text())
    payload["solver"] = {"algorithm": "online"}
    scenario_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["sim", "--scenario", str(scenario_path), "--plan", str(plan_path)]) == 0
    out = capsys.readouterr().out
    assert "mode=precomputed-plan" in out and "success_rate=100.0%" in out


def _retype_first_cell(plan, retype):
    path = plan["agents"][0]["path"]
    path[0] = [retype(v) for v in path[0]]


BAD_PLANS = {
    "agents-not-a-list": lambda plan: plan.update(agents=5),
    "id-not-an-int": lambda plan: plan["agents"][0].update(id=[0]),
    "path-not-a-list": lambda plan: plan["agents"][0].update(path=3),
    "two-value-cell": lambda plan: plan["agents"][0].update(path=[[0, 0]]),
    "empty-path": lambda plan: plan["agents"][0].update(path=[]),
    "agent-listed-twice": lambda plan: plan["agents"].append(dict(plan["agents"][0])),
    "kind-not-the-scenario's": lambda plan: plan["agents"][0].update(kind="boat"),
    "sum-of-costs-not-the-paths'": lambda plan: plan.update(sum_of_costs=1),
    "makespan-not-the-paths'": lambda plan: plan.update(makespan=plan["makespan"] + 1),
    # integer fields take JSON integers only, even when the value would truncate or parse to the right one
    "id-a-float": lambda plan: plan["agents"][0].update(id=plan["agents"][0]["id"] + 0.5),
    "id-a-string": lambda plan: plan["agents"][0].update(id=str(plan["agents"][0]["id"])),
    "cell-a-float": lambda plan: _retype_first_cell(plan, float),
    "cell-a-string": lambda plan: _retype_first_cell(plan, str),
    "sum-of-costs-a-float": lambda plan: plan.update(sum_of_costs=float(plan["sum_of_costs"])),
    "makespan-a-string": lambda plan: plan.update(makespan=str(plan["makespan"])),
    # the plan time is a finite JSON number >= 0
    "time-a-string": lambda plan: plan.update(computation_time_s="0.5"),
    "time-a-bool": lambda plan: plan.update(computation_time_s=True),
    "time-negative": lambda plan: plan.update(computation_time_s=-3),
    "time-nan": lambda plan: plan.update(computation_time_s=float("nan")),
    "time-infinite": lambda plan: plan.update(computation_time_s=float("inf")),
    "extra-key": lambda plan: plan.update(solver="cbs"),
    "missing-key": lambda plan: plan.pop("makespan"),
    "agent-entry-missing-kind": lambda plan: plan["agents"][0].pop("kind"),
    "agent-entry-not-an-object": lambda plan: plan["agents"].__setitem__(0, 5),
}


@pytest.mark.parametrize("case", list(BAD_PLANS))
def test_sim_malformed_plan_exits_2(warehouse_files, tmp_path, capsys, case):
    scenario_path, _ = warehouse_files
    plan_path = tmp_path / "plan.json"
    assert main(["solve", "--scenario", str(scenario_path), "--alg", "cbs", "-o", str(plan_path)]) == 0
    plan = json.loads(plan_path.read_text())
    BAD_PLANS[case](plan)
    plan_path.write_text(json.dumps(plan))
    capsys.readouterr()
    assert main(["sim", "--scenario", str(scenario_path), "--plan", str(plan_path)]) == 2
    assert "plan" in capsys.readouterr().err


def test_gen_warehouse_defaults_are_the_library_world(tmp_path):
    from skyrover import warehouse_grid

    assert main(["gen-warehouse", "--agents", "1uav+1agv", "-o", str(tmp_path / "wh")]) == 0
    assert read_grid(tmp_path / "wh.grid") == warehouse_grid()


def test_sim_replays_plan_and_exports(warehouse_files, tmp_path, capsys):
    scenario_path, _ = warehouse_files
    plan_path = tmp_path / "plan.json"
    main(["solve", "--scenario", str(scenario_path), "--alg", "cbs", "-o", str(plan_path)])
    wp = tmp_path / "wp.csv"
    ticks = tmp_path / "ticks.jsonl"
    rc = main(
        [
            "sim",
            "--scenario", str(scenario_path),
            "--plan", str(plan_path),
            "--waypoints", str(wp),
            "--ticks", str(ticks),
        ]
    )
    assert rc == 0
    assert "success_rate=100.0%" in capsys.readouterr().out
    commands = waypoints_from_bytes(wp.read_bytes())
    assert commands
    log_lines = [json.loads(l) for l in ticks.read_text().splitlines()]
    assert log_lines[0]["tick"] == 0
    plan = read_plan(plan_path)
    assert log_lines[-1]["tick"] == plan.makespan
    # tick log ends with every agent on its goal cell
    scenario = load_scenario(scenario_path)
    final = log_lines[-1]["cells"]
    assert all(tuple(final[str(a.id)]) == a.goal for a in scenario.agents)


def test_sim_replay_of_the_ci_ct_plan_writes_its_pinned_tick_log(tmp_path, capsys):
    """The CI console step's ``ct`` world and CBS plan replayed with ``--ticks``; both digests recorded when each tick looked every agent's cell up."""
    argv = ["gen-warehouse", "--dims", "40", "30", "6", "--shelf-rows", "6", "--agents", "4uav+10agv", "--seed", "7"]
    assert main(argv + ["-o", str(tmp_path / "ct")]) == 0
    scenario, plan = str(tmp_path / "ct.json"), str(tmp_path / "ct-plan.json")
    assert main(["solve", "--scenario", scenario, "--alg", "cbs", "-o", plan]) == 0
    ticks, wp = tmp_path / "ct-plan-ticks.jsonl", tmp_path / "ct-plan.csv"
    assert main(["sim", "--scenario", scenario, "--plan", plan, "--waypoints", str(wp), "--cell-duration", "0.5", "--ticks", str(ticks)]) == 0
    summary = "simulated 44 ticks mode=precomputed-plan success_rate=100.0% makespan=44 sum_of_costs=359 comp_time_s="
    assert capsys.readouterr().out.splitlines()[-1].startswith(summary)
    assert hashlib.sha256(ticks.read_bytes()).hexdigest() == "920ccdda2694ad8514bae33b0e4c8945e67be4bf47aa1faf4be94da31d74855e"
    assert hashlib.sha256(wp.read_bytes()).hexdigest() == "e470e02e7df6b91de039cd07d5419512eb3e851fec1cb4aa97d3264ca72c9b2b"


def test_sim_online_succeeds_in_open_grid(tmp_path, capsys):
    from skyrover import AGV, UAV, Agent, Scenario, save_scenario

    sc = Scenario(
        grid={"kind": "empty", "dims": [8, 8, 3]},
        agents=(Agent(0, UAV, (0, 0, 0), (7, 6, 2)), Agent(1, AGV, (0, 7, 0), (7, 7, 0))),
    )
    save_scenario(sc, tmp_path / "s.json")
    rc = main(["sim", "--scenario", str(tmp_path / "s.json"), "--online", "greedy-shielded"])
    assert rc == 0
    assert "success_rate=100.0%" in capsys.readouterr().out


def test_sim_online_reports_the_time_its_policy_steps_took(tmp_path, capsys, monkeypatch):
    import time

    import skyrover.sim
    from skyrover import AGV, Agent, Scenario, save_scenario

    real = skyrover.sim.online_policy_step

    def slow_step(view, proposals):
        time.sleep(0.002)
        return real(view, proposals)

    monkeypatch.setattr(skyrover.sim, "online_policy_step", slow_step)
    sc = Scenario(grid={"kind": "empty", "dims": [8, 8, 1]}, agents=(Agent(0, AGV, (0, 0, 0), (7, 7, 0)),))
    save_scenario(sc, tmp_path / "s.json")
    assert main(["sim", "--scenario", str(tmp_path / "s.json"), "--online", "greedy-shielded"]) == 0
    out = capsys.readouterr().out
    ticks = int(re.search(r"simulated (\d+) ticks", out).group(1))
    assert ticks == 14
    assert float(re.search(r"comp_time_s=([\d.]+)", out).group(1)) >= 0.002 * ticks


def test_sim_requires_exactly_one_source(warehouse_files):
    scenario_path, _ = warehouse_files
    assert main(["sim", "--scenario", str(scenario_path)]) == 2


def test_sim_identical_invocations_are_byte_identical(warehouse_files, tmp_path):
    scenario_path, _ = warehouse_files
    plan_path = tmp_path / "plan.json"
    main(["solve", "--scenario", str(scenario_path), "--alg", "astar", "-o", str(plan_path)])
    outs = []
    for n in (1, 2):
        wp = tmp_path / f"wp{n}.csv"
        ticks = tmp_path / f"t{n}.jsonl"
        rc = main(
            ["sim", "--scenario", str(scenario_path), "--plan", str(plan_path), "--waypoints", str(wp), "--ticks", str(ticks)]
        )
        assert rc == 0
        outs.append((wp.read_bytes(), ticks.read_bytes()))
    assert outs[0] == outs[1]


def test_task_command_runs_pipeline(tmp_path, capsys):
    from skyrover import AGV, UAV, Agent, Scenario, TaskScript, save_scenario

    sc = Scenario(
        grid={"kind": "empty", "dims": [10, 10, 6]},
        agents=(Agent(0, AGV, (0, 0, 0), (9, 9, 0)), Agent(1, UAV, (9, 0, 0), (0, 9, 3))),
        task=TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0)),
    )
    save_scenario(sc, tmp_path / "task.json")
    rc = main(["task", "--scenario", str(tmp_path / "task.json"), "--alg", "cbs"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "episode 1" in out and "episode 2" in out
    assert "overall_success=True" in out


def test_task_budget_exhausted_exits_5(tmp_path, capsys):
    from skyrover import AGV, UAV, Agent, Scenario, TaskScript, save_scenario

    sc = Scenario(
        grid={"kind": "empty", "dims": [10, 10, 6]},
        agents=(Agent(0, AGV, (0, 0, 0), (9, 9, 0)), Agent(1, UAV, (9, 0, 0), (0, 9, 3))),
        task=TaskScript("inventory_scan", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 3, 0)),
    )
    save_scenario(sc, tmp_path / "task.json")
    rc = main(["task", "--scenario", str(tmp_path / "task.json"), "--alg", "cbs", "--expansion-limit", "3"])
    assert rc == 5
    assert "expansion limit" in capsys.readouterr().err


def test_task_spent_after_the_rendezvous_reports_it_and_exits_5(tmp_path, capsys):
    from skyrover import AGV, UAV, Agent, Scenario, TaskScript, save_scenario

    sc = Scenario(
        grid={"kind": "empty", "dims": [10, 10, 6]},
        agents=(Agent(0, AGV, (0, 0, 0), (9, 9, 0)), Agent(1, UAV, (9, 0, 0), (0, 9, 3))),
        task=TaskScript("aerial_transfer", agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=(7, 7, 4)),
    )
    save_scenario(sc, tmp_path / "task.json")
    rc = main(["task", "--scenario", str(tmp_path / "task.json"), "--alg", "cbs", "--expansion-limit", "20"])
    out, err = capsys.readouterr()
    assert rc == 5
    assert "episode 1: success_rate=100.0%" in out and "episode 2" not in out
    assert out.splitlines()[-1] == "rendezvous_ok=True overall_success=False"
    assert "episode 2: cbs: expansion limit hit after 21 nodes" in err


def test_task_without_block_exits_2(warehouse_files):
    scenario_path, _ = warehouse_files
    assert main(["task", "--scenario", str(scenario_path)]) == 2


def test_bench_produces_report(warehouse_files, tmp_path, capsys):
    scenario_path, _ = warehouse_files
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"scenarios": [scenario_path.name]}))
    report_path = tmp_path / "report.csv"
    rc = main(
        ["bench", "--suite", str(suite), "--algs", "astar,cbs,online", "--repeats", "2", "-o", str(report_path)]
    )
    assert rc == 0
    table = capsys.readouterr().out
    assert "astar_prioritized" in table and "cbs" in table and "online" in table
    report = report_from_bytes(report_path.read_bytes())
    assert len(report.rows) == 3
    assert {r.algorithm for r in report.rows} == {"astar_prioritized", "cbs", "online"}
    assert all(r.agents == 5 for r in report.rows)
    assert all(r.seed == 3 for r in report.rows)  # the scenario's own seed
    # success rates come from the validator; the complete solvers must hit 1.0,
    # the online baseline merely has to report a sane measured rate
    by_alg = {r.algorithm: r for r in report.rows}
    assert by_alg["astar_prioritized"].success_rate == 1.0
    assert by_alg["cbs"].success_rate == 1.0
    assert 0.0 <= by_alg["online"].success_rate <= 1.0


def test_bench_has_no_seed_flag_and_reads_an_old_reports_seed_line(warehouse_files, tmp_path):
    scenario_path, _ = warehouse_files
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"scenarios": [scenario_path.name]}))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", str(suite), "--seed", "3"])
    assert exc.value.code == 2
    old = b"# environment: test env\n# seed: 3\n" + CSV_HEADER.encode() + b"\nwh,cbs,3,5,0.1000,1.0000,30,90\n"
    report = report_from_bytes(old)
    assert report.environment == "test env" and [r.seed for r in report.rows] == [3]
    assert report_to_bytes(report) == old.replace(b"# seed: 3\n", b"")


def test_bench_refused_report_exits_2_and_writes_no_file(warehouse_files, tmp_path, monkeypatch):
    import skyrover.bench

    def refuse(report):
        raise ValueError("refused")

    monkeypatch.setattr(skyrover.bench, "report_to_bytes", refuse)
    scenario_path, _ = warehouse_files
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"scenarios": [scenario_path.name]}))
    report_path = tmp_path / "report.csv"
    assert main(["bench", "--suite", str(suite), "--algs", "astar", "-o", str(report_path)]) == 2
    assert not report_path.exists()


@pytest.mark.parametrize(
    "name", ["a,b", "caf\u00e9", "two\nlines", "# environment: x"], ids=["comma", "non-ascii", "line-break", "comment-mark"]
)
def test_bench_scenario_name_the_report_cannot_hold_exits_2_before_any_cell_runs(
    warehouse_files, tmp_path, monkeypatch, capsys, name
):
    import skyrover.bench

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    scenario_path, _ = warehouse_files
    odd = tmp_path / f"{name}.json"
    odd.write_bytes(scenario_path.read_bytes())
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"scenarios": [scenario_path.name, odd.name]}))
    report_path = tmp_path / "report.csv"
    monkeypatch.setattr(skyrover.bench, "Simulator", no_cell)
    assert main(["bench", "--suite", str(suite), "--algs", "astar", "-o", str(report_path)]) == 2
    assert "cannot be a report CSV field" in capsys.readouterr().err
    assert not report_path.exists()


def test_bench_failed_cell_reports_the_time_it_spent(warehouse_files):
    scenario_path, _ = warehouse_files
    payload = json.loads(scenario_path.read_text())
    payload["solver"] = {"node_expansion_limit": 1}
    scenario_path.write_text(json.dumps(payload))
    row = run_cell(scenario_path, "cbs")
    assert (row.success_rate, row.makespan, row.sum_of_costs) == (0.0, -1, -1)
    assert row.comp_time_s > 0.0


def test_bench_empty_suite_exits_2(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"scenarios": []}))
    assert main(["bench", "--suite", str(suite)]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"scenarios": [', "suite is not valid JSON"),
        ('{"scenarios": ["wh.json"], "repeats": 2}', "exactly the key 'scenarios'"),
        ('["wh.json"]', "exactly the key 'scenarios'"),
    ],
    ids=["invalid-json", "extra-key", "not-an-object"],
)
def test_bench_malformed_suite_is_a_parse_error_and_exits_2(tmp_path, capsys, text, message):
    from skyrover.bench import load_suite

    suite = tmp_path / "suite.json"
    suite.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_suite(suite)
    assert main(["bench", "--suite", str(suite)]) == 2
    assert message in capsys.readouterr().err


def test_bench_non_string_scenario_exits_2(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"scenarios": [5]}))
    assert main(["bench", "--suite", str(suite)]) == 2


@pytest.mark.parametrize("repeats", [0, -3])
def test_bench_repeats_below_one_is_refused_before_any_scenario_loads(tmp_path, capsys, repeats):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(ValueError, match="repeats must be >= 1"):
        run_suite([missing], ["astar"], repeats=repeats)
    with pytest.raises(ValueError, match="repeats must be >= 1"):
        run_cell(missing, "astar", repeats=repeats)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"scenarios": ["missing.json"]}))
    assert main(["bench", "--suite", str(suite), "--repeats", str(repeats)]) == 2
    assert "repeats must be >= 1" in capsys.readouterr().err


def test_bench_fractional_repeats_are_refused_before_any_scenario_loads(tmp_path):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(ValueError, match="repeats must be an integer, got 2.5"):
        run_suite([missing], ["astar"], repeats=2.5)
    with pytest.raises(ValueError, match="repeats must be an integer, got 2.5"):
        run_cell(missing, "astar", repeats=2.5)


@pytest.mark.parametrize(
    "data, line",
    [
        (b"# seed: abc\n" + CSV_HEADER.encode(), 1),
        (CSV_HEADER.encode() + b"\nwh,astar,x,5,0.1,1.0,3,9\n", 2),
        (CSV_HEADER.encode() + b"\nwh,astar,1,5,fast,1.0,3,9\n", 2),
        (b"# environment: caf\xc3\xa9\n" + CSV_HEADER.encode(), 1),
        (CSV_HEADER.encode() + b"\nwh,astar,1,5\n", 2),
    ],
    ids=["non-integer-seed", "non-integer-row-seed", "non-numeric-time", "non-ascii-byte", "short-row"],
)
def test_bench_report_reader_names_the_bad_line(data, line):
    with pytest.raises(ParseError, match=f"report line {line}"):
        report_from_bytes(data)


def test_bench_rejects_unknown_algorithm(warehouse_files, tmp_path):
    scenario_path, _ = warehouse_files
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"scenarios": [scenario_path.name]}))
    assert main(["bench", "--suite", str(suite), "--algs", "dijkstra"]) == 2


def test_missing_file_exits_2(tmp_path):
    assert main(["solve", "--scenario", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--scenario", "{dir}"],
        ["solve", "--scenario", "{scenario}", "--alg", "astar", "-o", "{dir}"],
        ["gridgen", "--pgm", "{dir}", "-o", "{dir}/x.grid"],
        ["gridgen", "--pgm", "{pgm}", "-o", "{dir}"],
        ["bench", "--suite", "{dir}"],
        ["sim", "--scenario", "{scenario}", "--online", "greedy-shielded", "--max-ticks", "2", "--ticks", "{dir}"],
        ["sim", "--scenario", "{scenario}", "--online", "greedy-shielded", "--max-ticks", "2", "--waypoints", "{dir}"],
    ],
    ids=["solve-scenario", "solve-output", "gridgen-input", "gridgen-output", "bench-suite", "sim-ticks", "sim-waypoints"],
)
def test_a_directory_given_as_a_file_exits_2_with_one_error_line(tmp_path, capsys, warehouse_files, argv):
    pgm = tmp_path / "floor.pgm"
    pgm.write_bytes(pgm_p2_bytes(np.full((3, 4), 255, dtype=np.uint8)))
    paths = {"dir": tmp_path, "scenario": warehouse_files[0], "pgm": pgm}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
