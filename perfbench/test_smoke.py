"""Smoke test of the benchmark on tiny instances (a few seconds in total).

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from skyrover import SolverConfig, make_solution, solve  # noqa: E402
from skyrover.solvers import SolveResult  # noqa: E402
from spans import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_ROSTER = "1uav+2agv"


def tiny_workload(name, work):
    if name == "map-ingest":
        return workloads.MapIngest(work, seed=7, capture_points=3000, floor_map_size=(40, 30))
    wl = workloads.WORKLOADS[name](work, seed=7, world_seeds=(1,))
    wl.rosters = (TINY_ROSTER,)
    return wl


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    report, result, _ = run.measure(tiny_workload(name, tmp_path), trace, 0, SPEC)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        return
    per_workload = {
        "warehouse-plan": {"plan_s.cbs", "plan_s.astar", "sum_of_costs.cbs", "sum_of_costs.astar", "success_rate"},
        "warehouse-online": {"tick_p50_ms", "tick_p99_ms", "ticks_per_s", "sum_of_costs.online", "success_rate"},
        "map-ingest": set(),
    }[name]
    common = {"setup_s", "pipeline_s", "pipeline_ref", "export_s", "peak_rss_mb", "failed_frac"}
    assert common | per_workload <= set(report["metrics"])
    for m in report["metrics"].values():
        assert m["unit"]


@pytest.fixture
def tiny_cell(tmp_path):
    wl = tiny_workload("warehouse-plan", tmp_path)
    wl.prepare()
    log = workloads.PassLog(NullTracer())
    scenario, grid, problems = workloads.load_instance(log, wl.instances[0])
    assert problems == []
    config = SolverConfig(algorithm="cbs")
    return tmp_path, scenario, grid, config, solve(grid, scenario.agents, config)


def finish(tmp_path, scenario, grid, config, result, reference):
    log = workloads.PassLog(NullTracer())
    workloads.finish_plan_cell(log, "cell", tmp_path / "cell", scenario, grid, config, result, 0.01, reference)
    (op,) = log.ops
    return op


def test_correct_cell_passes(tiny_cell):
    tmp_path, scenario, grid, config, result = tiny_cell
    reference = (result.solution.sum_of_costs, result.stats.ll_expansions, result.stats.ct_expanded)
    op = finish(tmp_path, scenario, grid, config, result, reference)
    assert op["ok"] and op["status"] == "solved"


def test_wrong_reference_cost_is_a_failed_operation(tiny_cell):
    tmp_path, scenario, grid, config, result = tiny_cell
    reference = (result.solution.sum_of_costs + 1, result.stats.ll_expansions, result.stats.ct_expanded)
    op = finish(tmp_path, scenario, grid, config, result, reference)
    assert not op["ok"]
    assert any("sum_of_costs" in f for f in op["failures"])


def test_corrupted_plan_is_a_failed_operation(tiny_cell):
    tmp_path, scenario, grid, config, result = tiny_cell
    paths = dict(result.solution.paths)
    aid = min(paths)
    cells = list(paths[aid])
    i, j, k = cells[1]
    cells[1] = (i + 3, j, k)  # teleport: not a unit step
    paths[aid] = tuple(cells)
    corrupted = SolveResult(result.status, solution=make_solution(paths), stats=result.stats)
    op = finish(tmp_path, scenario, grid, config, corrupted, None)
    assert not op["ok"] and op["status"] == "invalid"


def test_spent_budget_is_reported_with_status_and_seconds(tiny_cell):
    tmp_path, scenario, grid, _, _ = tiny_cell
    config = SolverConfig(algorithm="cbs", node_expansion_limit=5)
    result = solve(grid, scenario.agents, config)
    op = finish(tmp_path, scenario, grid, config, result, None)
    assert not op["ok"] and op["status"] == "resource_limit" and op["seconds"] > 0


def test_reference_loop_time_is_taken_out_of_timed_intervals():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed(period=0.01) as speed:
        a = perf_counter()
        while perf_counter() - a < 0.2:
            pass
        b = perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    busy = speed.busy(a, b)
    assert len(speed.durations) >= 5 and 0 < busy < b - a
    log = workloads.PassLog(NullTracer())
    log.interval("work", a, b)
    log.close(speed)
    assert log.phases["work"] == pytest.approx(b - a - busy)
    assert log.phases_ref["work"] == pytest.approx((b - a - busy) / speed.reference(a, b))
    assert min(speed.durations) <= speed.reference(a, b) <= max(speed.durations)
