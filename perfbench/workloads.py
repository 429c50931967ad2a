"""The benchmark's workloads: input generation, one timed pass, output checks.

Every workload is a closed loop: one caller in one process runs the
instances in a fixed order, and the next call starts when the previous one
has returned. The library only sees the files written by ``prepare``
(scenario, SKYGRID1 grid, PCD and PGM) and is driven through its public
entry points.

Timings are recorded as intervals per *phase* (the end-to-end quantities)
and, in the traced run, as spans named after the layer they cover. The
benchmark's own checks run outside every timed phase. When the run ends,
each interval is turned into wall seconds, less the time the host-speed
reference loop ran inside it, and into reference-loop units (see
``hostspeed``).
"""

from __future__ import annotations

import hashlib
import math
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from skyrover import (
    Scenario,
    Simulator,
    SolverConfig,
    collect_metrics,
    execute_plan,
    extrude_ground,
    generate_warehouse,
    grid_to_bytes,
    load_scenario,
    make_solution,
    parse_pcd,
    parse_pgm,
    parse_roster,
    plan_to_bytes,
    rasterize,
    read_grid,
    read_plan,
    sample_agents,
    save_scenario,
    scenario_to_bytes,
    solve,
    validate_agents,
    validate_solution,
    warehouse_grid,
    waypoints_from_bytes,
    waypoints_to_bytes,
    write_grid,
)
from skyrover.sim import grid_diameter
from spans import NullTracer

# The world acceptance criterion 1 checks: 80x60x10 with 12 shelf rows,
# written as grid files (inline {"kind": "warehouse"} specs default to 6).
DIMS = (80, 60, 10)
SHELF_ROWS = 12
WORLD_SEEDS = (1, 2, 3)
PLAN_ROSTERS = ("6uav+16agv", "12uav+32agv", "16uav+48agv")
ONLINE_ROSTERS = ("20uav+60agv",)
PLAN_SOLVERS = ("astar", "cbs")
# Fixed solver budget. The heaviest cell (16uav+48agv seed 1, CBS) needs
# 281k expansions and 11 s on an idle 2-vCPU x86-64 VM, and up to about
# 2.5 times as long while neighbours on a shared host are busy. The limits
# leave five times that many expansions and more than twice the slowest
# time, so every cell solves on this code, while a run stays well inside
# three minutes.
PLAN_EXPANSION_LIMIT = 1_500_000
PLAN_TIME_LIMIT = 60.0
CELL_DURATION = 1.0
# Set-up (scenario parse + grid read + validate_agents) takes a few ms per
# instance, short enough for one burst of host noise to double it. After
# each instance's timed load the set-up of every instance is timed again,
# so that each instance gets at least this many more samples spread over
# the whole pass, and set-up time is the sum over instances of the
# per-instance median.
SETUP_REPEATS = 30

# Reference answers per (roster, world seed) and solver:
# (sum_of_costs, low-level expansions, CT nodes). They repeat exactly; CBS
# sum-of-costs is the optimum. A change that alters them changes planner
# behaviour and has to say why.
REFERENCE = {
    ("6uav+16agv", 1): {"astar": (1193, 1342, 0), "cbs": (1191, 1451, 1)},
    ("6uav+16agv", 2): {"astar": (890, 4259, 0), "cbs": (874, 4449, 1)},
    ("6uav+16agv", 3): {"astar": (1405, 47237, 0), "cbs": (1352, 47593, 1)},
    ("12uav+32agv", 1): {"astar": (2428, 31277, 0), "cbs": (2371, 32247, 3)},
    ("12uav+32agv", 2): {"astar": (2157, 20302, 0), "cbs": (2091, 166047, 88)},
    ("12uav+32agv", 3): {"astar": (2377, 11626, 0), "cbs": (2355, 12275, 3)},
    ("16uav+48agv", 1): {"astar": (3222, 32115, 0), "cbs": (3152, 280596, 620)},
    ("16uav+48agv", 2): {"astar": (3242, 34851, 0), "cbs": (3134, 38321, 10)},
    ("16uav+48agv", 3): {"astar": (3630, 139645, 0), "cbs": (3456, 50077, 8)},
}

# map-ingest capture: a 24 x 18 x 4 m scan rasterized at 0.1 m, sparse
# enough that the SKYGRID1 payload holds on the order of 10^5 runs.
CAPTURE_POINTS = 120_000
CAPTURE_EXTENT = (24.0, 18.0, 4.0)
CAPTURE_RESOLUTION = 0.1
FLOOR_MAP_SIZE = (120, 90)
FLOOR_MAP_RESOLUTION = 0.5
FLOOR_MAP_LAYERS = 4
INGEST_WAREHOUSE_ROSTER = "6uav+16agv"
INGEST_FLOOR_ROSTER = "4uav+12agv"


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class PassLog:
    """Phase timings, timed samples, counters and operation outcomes of one pass.

    ``intervals`` and ``samples`` hold raw ``(start, end)`` times until
    ``close`` converts them: ``phases`` and ``samples`` to wall seconds,
    ``phases_ref`` to reference-loop units (None when the host's speed was
    not sampled).
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.intervals = []
        self.samples = {}
        self.phases = {}
        self.phases_ref = {}
        self.counters = {}
        self.ops = []
        self.values = {}

    @contextmanager
    def timed(self, phase, span):
        with self.tracer.span(span):
            t0 = perf_counter()
            try:
                yield
            finally:
                self.intervals.append((phase, t0, perf_counter()))

    def interval(self, phase, t0, t1):
        self.intervals.append((phase, t0, t1))

    def sample(self, name, t0, t1):
        """A timed repeat that is reported on its own, outside the phases."""
        self.samples.setdefault(name, []).append((t0, t1))

    def close(self, speed):
        self.phases_ref = {} if speed.enabled else None
        for phase, a, b in self.intervals:
            wall = b - a - speed.busy(a, b)
            self.phases[phase] = self.phases.get(phase, 0.0) + wall
            if speed.enabled:
                self.phases_ref[phase] = self.phases_ref.get(phase, 0.0) + wall / speed.reference(a, b)
        self.samples = {k: [b - a - speed.busy(a, b) for a, b in v] for k, v in self.samples.items()}
        self.intervals = []

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def add(self, name, value):
        self.values[name] = self.values.get(name, 0) + value

    def op(self, name, failures, **info):
        self.ops.append({"op": name, "ok": not failures, "failures": list(failures), **info})

    def phase(self, prefix):
        return sum(v for k, v in self.phases.items() if k == prefix or k.startswith(prefix + "."))

    @property
    def pipeline_s(self):
        return sum(self.phases.values())

    @property
    def pipeline_ref(self):
        return sum(self.phases_ref.values())


def _exception(exc) -> str:
    return "exception: " + "".join(traceback.format_exception_only(type(exc), exc)).strip()


@dataclass(frozen=True)
class Instance:
    name: str
    roster: str
    seed: int
    path: Path


def write_warehouse_family(work: Path, rosters, world_seeds, inputs: dict) -> list:
    """generate_warehouse worlds written as grid + scenario files."""
    out = []
    for roster in rosters:
        for seed in world_seeds:
            name = f"{roster}-s{seed}"
            grid, agents = generate_warehouse(DIMS, SHELF_ROWS, roster, seed)
            grid_path = work / f"{name}.grid"
            scenario_path = work / f"{name}.json"
            write_grid(grid, grid_path)
            save_scenario(Scenario(grid=grid_path.name, agents=agents, seed=seed), scenario_path)
            for p in (grid_path, scenario_path):
                inputs[p.name] = sha256_file(p)
            out.append(Instance(name, roster, seed, scenario_path))
    return out


def load_instance(log: PassLog, inst: Instance):
    """Set-up: scenario parse, grid read and instance validation."""
    with log.timed("setup", "scenario.read"):
        scenario = load_scenario(inst.path)
    with log.timed("setup", "voxelgrid.read"):
        grid = scenario.materialize_grid()
    with log.timed("setup", "mapf.validate_agents"):
        problems = validate_agents(grid, scenario.agents)
    return scenario, grid, problems


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def pipeline_metrics(passes):
    """Pass time in wall seconds and, in untraced runs, in reference-loop units."""
    out = {"pipeline_s": (median_of(passes, lambda p: p.pipeline_s), "s")}
    if passes[0].phases_ref is not None:
        out["pipeline_ref"] = (median_of(passes, lambda p: p.pipeline_ref), "ref")
    return out


class WarehouseWorkload:
    """Shared set-up for the two workloads that run warehouse instances."""

    rosters: tuple = ()

    def __init__(self, work: Path, seed: int, world_seeds=WORLD_SEEDS):
        self.work = work
        self.seed = seed
        self.world_seeds = tuple(world_seeds)
        self.inputs = {}
        self.instances = []

    def prepare(self):
        self.instances = write_warehouse_family(self.work, self.rosters, self.world_seeds, self.inputs)

    def setup_s(self, passes):
        by_instance = {}
        for p in passes:
            for name, durations in p.samples.items():
                if name.startswith("setup/"):
                    by_instance.setdefault(name, []).extend(durations)
        return sum(statistics.median(v) for v in by_instance.values())

    def load_or_fail(self, log, inst):
        t0 = perf_counter()
        try:
            scenario, grid, problems = load_instance(log, inst)
        except Exception as exc:  # a broken input must not end the run
            log.op(f"{inst.name}/load", [_exception(exc)])
            return None
        if problems:
            log.op(f"{inst.name}/load", problems)
            return None
        log.sample(f"setup/{inst.name}", t0, perf_counter())
        for _ in range(math.ceil(SETUP_REPEATS / len(self.instances))):
            for other in self.instances:
                t0 = perf_counter()
                load_instance(PassLog(NullTracer()), other)
                log.sample(f"setup/{other.name}", t0, perf_counter())
        return scenario, grid


class WarehousePlan(WarehouseWorkload):
    """Offline pipeline: plan with astar and cbs, validate, replay, export."""

    name = "warehouse-plan"
    rosters = PLAN_ROSTERS

    def run_pass(self, log: PassLog, index: int):
        for inst in self.instances:
            log.tracer.instance = f"pass{index}/{inst.name}"
            loaded = self.load_or_fail(log, inst)
            if loaded is None:
                continue
            scenario, grid = loaded
            costs = {}
            for solver in PLAN_SOLVERS:
                config = SolverConfig(
                    algorithm=solver,
                    node_expansion_limit=PLAN_EXPANSION_LIMIT,
                    time_limit=PLAN_TIME_LIMIT,
                )
                t0 = perf_counter()
                try:
                    with log.timed(f"plan.{solver}", f"solve.{solver}"):
                        result = solve(grid, scenario.agents, config)
                except Exception as exc:
                    log.op(f"{inst.name}/{solver}", [_exception(exc)], status="exception", seconds=perf_counter() - t0)
                    continue
                reference = REFERENCE.get((inst.roster, inst.seed), {}).get(solver)
                out = self.work / f"{inst.name}.{solver}"
                costs[solver] = finish_plan_cell(
                    log, f"{inst.name}/{solver}", out, scenario, grid, config, result, perf_counter() - t0, reference
                )
            # optimal CBS never costs more than prioritized; on held-out
            # worlds, which have no reference, this is the cost check
            if None not in costs.values() and len(costs) == 2 and costs["cbs"] > costs["astar"]:
                log.op(f"{inst.name}/optimality", [f"cbs cost {costs['cbs']} exceeds prioritized {costs['astar']}"])

    def metrics(self, passes):
        first = passes[0]
        return {
            "setup_s": (self.setup_s(passes), "s"),
            "plan_s.cbs": (median_of(passes, lambda p: p.phase("plan.cbs")), "s"),
            "plan_s.astar": (median_of(passes, lambda p: p.phase("plan.astar")), "s"),
            **pipeline_metrics(passes),
            "export_s": (median_of(passes, lambda p: p.phase("export")), "s"),
            "sum_of_costs.cbs": (first.values.get("sum_of_costs.cbs", 0), "count"),
            "sum_of_costs.astar": (first.values.get("sum_of_costs.astar", 0), "count"),
            "success_rate": (first.values.get("success", 0) / max(1, first.values.get("cells", 0)), "ratio"),
        }


def finish_plan_cell(log, cell, out: Path, scenario, grid, config, result, seconds, reference):
    """Validate, replay, collect metrics and export one solved cell.

    Records the cell's status (solved / no_solution / resource_limit /
    invalid) and the seconds its solve took, also when it failed. Returns
    the sum-of-costs of a valid plan, else None.
    """
    solver = "cbs" if config.algorithm == "cbs" else "astar"
    stats = result.stats
    info = {
        "status": result.status,
        "seconds": seconds,
        "expansions": stats.ll_expansions,
        "ct_nodes": stats.ct_expanded,
    }
    log.count("astar.expansions", stats.ll_expansions)
    log.count("cbs.ct_nodes", stats.ct_expanded)
    log.add("cells", 1)
    if not result.ok:
        log.op(cell, [f"{result.status}: {result.reason}"], **info)
        return None
    solution = result.solution
    info["sum_of_costs"] = solution.sum_of_costs
    failures = []
    if reference is not None:
        expected = (solution.sum_of_costs, stats.ll_expansions, stats.ct_expanded)
        for label, got, want in zip(("sum_of_costs", "expansions", "ct_nodes"), expected, reference):
            if got != want:
                failures.append(f"{label} {got} differs from the reference {want}")
    try:
        with log.timed("validate", "mapf.validate_solution"):
            violations = validate_solution(grid, scenario.agents, solution.paths)
        if violations:
            info["status"] = "invalid"
            failures.extend(v.detail for v in violations[:5])
            log.op(cell, failures, **info)
            return None
        with log.timed("replay", "sim.replay"):
            sim = Simulator()
            sim.init(scenario, config, solution=solution)
            record = sim.run()
        with log.timed("metrics", "sim.metrics"):
            metrics = collect_metrics(record)
        plan_path = out.with_suffix(out.suffix + ".plan.json")
        waypoint_path = out.with_suffix(out.suffix + ".waypoints.csv")
        with log.timed("export", "sim.plan_write"):
            plan_bytes = _write(plan_path, plan_to_bytes(solution, scenario.agents, seconds))
        with log.timed("export", "sim.waypoints"):
            commands, waypoint_bytes = _export_waypoints(waypoint_path, solution, grid)
        log.count("sim.bytes_written", len(plan_bytes) + len(waypoint_bytes))
        if metrics.success_rate != 1.0:
            failures.append(f"replay success_rate {metrics.success_rate}, expected 1.0")
        if metrics.sum_of_costs != solution.sum_of_costs:
            failures.append(f"replayed sum_of_costs {metrics.sum_of_costs} != planned {solution.sum_of_costs}")
        plan = read_plan(plan_path)
        if plan.paths != solution.paths or plan_to_bytes(plan.solution, scenario.agents, plan.computation_time_s) != plan_bytes:
            failures.append("plan bytes do not round-trip")
        failures.extend(_check_waypoints(waypoint_path, commands, waypoint_bytes))
    except Exception as exc:
        failures.append(_exception(exc))
    if not failures:
        log.add(f"sum_of_costs.{solver}", solution.sum_of_costs)
        log.add("success", metrics.success_rate)
    log.op(cell, failures, **info)
    return None if failures else solution.sum_of_costs


def _write(path: Path, data: bytes) -> bytes:
    path.write_bytes(data)
    return data


def _export_waypoints(path: Path, solution, grid):
    commands = execute_plan(solution, CELL_DURATION, grid.resolution, grid.origin)
    return commands, _write(path, waypoints_to_bytes(commands))


def _check_waypoints(path: Path, commands, data: bytes) -> list:
    parsed = waypoints_from_bytes(path.read_bytes())
    if parsed != commands or waypoints_to_bytes(parsed) != data:
        return ["waypoint bytes do not round-trip"]
    return []


class WarehouseOnline(WarehouseWorkload):
    """The online shielded policy drives the fleet; every tick timed."""

    name = "warehouse-online"
    rosters = ONLINE_ROSTERS

    def run_pass(self, log: PassLog, index: int):
        for inst in self.instances:
            log.tracer.instance = f"pass{index}/{inst.name}"
            loaded = self.load_or_fail(log, inst)
            if loaded is None:
                continue
            scenario, grid = loaded
            try:
                self._run_instance(log, inst, scenario, grid)
            except Exception as exc:
                log.op(inst.name, [_exception(exc)])

    def _run_instance(self, log, inst, scenario, grid):
        budget = 4 * grid_diameter(grid)
        with log.timed("init", "sim.init"):
            sim = Simulator()
            sim.init(scenario, SolverConfig(algorithm="online"))
        t_loop = perf_counter()
        while not sim.state.all_at_goal and sim.state.tick < budget:
            t0 = perf_counter()
            sim.step()
            log.sample("tick", t0, perf_counter())
        log.interval("ticks", t_loop, perf_counter())
        with log.timed("close", "sim.run"):
            record = sim.run()
        with log.timed("metrics", "sim.metrics"):
            metrics = collect_metrics(record)
        waypoint_path = self.work / f"{inst.name}.online.waypoints.csv"
        # the executed trajectories, lowered like a plan (as `skyrover sim --online --waypoints`)
        trajectories = {a.id: tuple(s.cells[a.id] for s in record.states) for a in record.agents}
        with log.timed("export", "sim.waypoints"):
            commands, waypoint_bytes = _export_waypoints(waypoint_path, make_solution(trajectories), grid)
        log.count("sim.bytes_written", len(waypoint_bytes))

        failures = []
        if record.budget != budget:
            failures.append(f"run budget {record.budget}, expected {budget}")
        # unfinished agents legitimately end away from their goal
        bad = [v.detail for v in validate_solution(grid, record.agents, trajectories) if v.kind != "goal-mismatch"]
        failures.extend(bad[:5])
        arrived = sum(1 for a in record.agents if trajectories[a.id][-1] == a.goal)
        if metrics.success_rate != arrived / len(record.agents):
            failures.append(f"success_rate {metrics.success_rate} disagrees with {arrived} arrivals")
        failures.extend(_check_waypoints(waypoint_path, commands, waypoint_bytes))
        log.op(
            inst.name,
            failures,
            ticks=record.states[-1].tick,
            success_rate=metrics.success_rate,
            sum_of_costs=metrics.sum_of_costs,
        )
        if not failures:
            log.add("sum_of_costs.online", metrics.sum_of_costs)
            log.add("success", metrics.success_rate)
            log.add("instances", 1)

    def metrics(self, passes):
        ticks = sorted(t for p in passes for t in p.samples.get("tick", []))
        p50 = statistics.median(ticks) if ticks else 0.0
        p99, beyond = percentile(ticks, 99) if ticks else (0.0, 0)
        loop_s = sum(p.phase("ticks") for p in passes)
        first = passes[0]
        return {
            "setup_s": (self.setup_s(passes), "s"),
            **pipeline_metrics(passes),
            "export_s": (median_of(passes, lambda p: p.phase("export")), "s"),
            "tick_p50_ms": (p50 * 1e3, "ms"),
            "tick_p99_ms": (p99 * 1e3, "ms"),
            "tick_samples": (len(ticks), "count"),
            "tick_beyond_p99": (beyond, "count"),
            "ticks_per_s": (len(ticks) / loop_s if loop_s else 0.0, "1/s"),
            "sum_of_costs.online": (first.values.get("sum_of_costs.online", 0), "count"),
            "success_rate": (first.values.get("success", 0) / max(1, first.values.get("instances", 0)), "ratio"),
        }


def write_pcd(path: Path, points: np.ndarray, intensity: np.ndarray) -> None:
    n = len(points)
    header = (
        "# .PCD v0.7 - synthetic warehouse scan\n"
        "VERSION 0.7\nFIELDS x y z intensity\nSIZE 4 4 4 4\nTYPE F F F F\nCOUNT 1 1 1 1\n"
        f"WIDTH {n}\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS {n}\nDATA binary\n"
    ).encode("ascii")
    body = np.column_stack([points, intensity]).astype("<f4").tobytes()
    path.write_bytes(header + body)


def make_capture(seed: int, n_points: int = CAPTURE_POINTS):
    """Noisy scan of a shelved hall: floor, walls, shelf blocks, clutter, NaN/inf."""
    rng = np.random.default_rng([seed, 0])
    lx, ly, lz = CAPTURE_EXTENT
    n_floor, n_wall, n_shelf = 4 * n_points // 10, 2 * n_points // 10, 3 * n_points // 10
    n_clutter = n_points - n_floor - n_wall - n_shelf
    floor = np.column_stack(
        [rng.uniform(0, lx, n_floor), rng.uniform(0, ly, n_floor), rng.normal(0, 0.02, n_floor)]
    )
    side = rng.integers(0, 4, n_wall)
    along = rng.uniform(0, 1, n_wall)
    wall_x = np.where(side < 2, along * lx, np.where(side == 2, 0.0, lx)) + rng.normal(0, 0.02, n_wall)
    wall_y = np.where(side < 2, np.where(side == 0, 0.0, ly), along * ly) + rng.normal(0, 0.02, n_wall)
    walls = np.column_stack([wall_x, wall_y, rng.uniform(0, lz, n_wall)])
    rows = 6
    row = rng.integers(0, rows, n_shelf)
    shelves = np.column_stack(
        [
            rng.uniform(1.5, lx - 1.5, n_shelf),
            (row + 0.5) * ly / rows + rng.uniform(-0.4, 0.4, n_shelf),
            rng.uniform(0, 0.6 * lz, n_shelf),
        ]
    )
    clutter = rng.uniform((0, 0, 0), (lx, ly, lz), (n_clutter, 3))
    points = np.concatenate([floor, walls, shelves, clutter])
    bad = rng.choice(n_points, n_points // 200, replace=False)
    points[bad[::2], 0] = np.nan
    points[bad[1::2], 2] = np.inf
    return points, rng.uniform(0, 1, n_points)


def make_floor_map(seed: int, size=FLOOR_MAP_SIZE) -> bytes:
    """P5 floor map: walled border, broken shelf rows and dark speckle."""
    rng = np.random.default_rng([seed, 1])
    width, height = size
    img = np.full((height, width), 254, dtype=np.uint8)
    img[0, :] = img[-1, :] = img[:, 0] = img[:, -1] = 0
    for r in range(6, height - 6, 8):
        x = 4
        while x < width - 4:
            seg = int(rng.integers(8, 20))
            img[r : r + 2, x : min(x + seg, width - 4)] = 0
            x += seg + int(rng.integers(2, 5))
    img[rng.random((height, width)) < 0.01] = 0
    return b"P5\n# synthetic floor map\n%d %d\n255\n" % (width, height) + img.tobytes()


def rle_runs(grid) -> int:
    return int(np.count_nonzero(np.diff(grid.cells))) + 1


class MapIngest:
    """Capture to plannable world: PCD/PGM parse, grids, worlds, scenarios."""

    name = "map-ingest"

    def __init__(self, work: Path, seed: int, capture_points: int = CAPTURE_POINTS, floor_map_size=FLOOR_MAP_SIZE):
        self.work = work
        self.seed = seed
        self.capture_points = capture_points
        self.floor_map_size = floor_map_size
        self.inputs = {}
        self.pcd_path = work / "capture.pcd"
        self.pgm_path = work / "floor.pgm"

    def prepare(self):
        write_pcd(self.pcd_path, *make_capture(self.seed, self.capture_points))
        self.pgm_path.write_bytes(make_floor_map(self.seed, self.floor_map_size))
        for p in (self.pcd_path, self.pgm_path):
            self.inputs[p.name] = sha256_file(p)

    def run_pass(self, log: PassLog, index: int):
        log.tracer.instance = f"pass{index}/capture"
        try:
            with log.timed("ingest", "pcd.parse"):
                cloud = parse_pcd(self.pcd_path.read_bytes())
            log.count("pcd.points", cloud.count)
            log.count("pcd.dropped", cloud.dropped)
            with log.timed("ingest", "voxelgrid.rasterize"):
                scan_grid = rasterize(cloud, CAPTURE_RESOLUTION, padding=1)
            self._grid_round_trip(log, "scan.grid", scan_grid)

            with log.timed("ingest", "pgm.parse"):
                ground = parse_pgm(self.pgm_path.read_bytes(), resolution=FLOOR_MAP_RESOLUTION)
            with log.timed("ingest", "voxelgrid.extrude"):
                floor_grid = extrude_ground(ground, FLOOR_MAP_LAYERS, walls=True)
            self._grid_round_trip(log, "floor.grid", floor_grid)
            with log.timed("ingest", "warehouse.sample"):
                floor_agents = sample_agents(floor_grid, parse_roster(INGEST_FLOOR_ROSTER), self.seed)

            log.tracer.instance = f"pass{index}/warehouse"
            with log.timed("ingest", "warehouse.grid"):
                hall = warehouse_grid(DIMS, SHELF_ROWS)
            with log.timed("ingest", "warehouse.sample"):
                hall_agents = sample_agents(hall, parse_roster(INGEST_WAREHOUSE_ROSTER), self.seed)
            self._grid_round_trip(log, "warehouse.grid", hall)

            for stem, grid, agents in (("floor", floor_grid, floor_agents), ("warehouse", hall, hall_agents)):
                log.tracer.instance = f"pass{index}/{stem}"
                self._scenario_round_trip(log, stem, grid, agents)
        except Exception as exc:
            log.op(f"pass{index}", [_exception(exc)])

    def _grid_round_trip(self, log, filename, grid):
        path = self.work / filename
        with log.timed("export", "voxelgrid.write"):
            data = grid_to_bytes(grid)
            path.write_bytes(data)
        with log.timed("ingest", "voxelgrid.read"):
            back = read_grid(path)
        log.count("voxelgrid.bytes", len(data))
        log.count("voxelgrid.rle_runs", rle_runs(grid))
        ok = back == grid and grid_to_bytes(back) == data
        log.op(filename, [] if ok else [f"{filename} does not round-trip"], bytes=len(data))

    def _scenario_round_trip(self, log, stem, grid, agents):
        path = self.work / f"{stem}.json"
        scenario = Scenario(grid=f"{stem}.grid", agents=agents, seed=self.seed)
        with log.timed("export", "scenario.write"):
            data = scenario_to_bytes(scenario)
            path.write_bytes(data)
        with log.timed("ingest", "scenario.read"):
            back = load_scenario(path)
        with log.timed("ingest", "voxelgrid.read"):
            back_grid = back.materialize_grid()
        with log.timed("ingest", "mapf.validate_agents"):
            problems = validate_agents(back_grid, back.agents)
        failures = list(problems)
        if scenario_to_bytes(back) != data or back.agents != tuple(agents):
            failures.append(f"{stem}.json does not round-trip")
        if back_grid != grid:
            failures.append(f"{stem}.json resolves to a different grid")
        log.op(f"{stem}.json", failures, agents=len(agents))

    def metrics(self, passes):
        return {
            "setup_s": (median_of(passes, lambda p: p.pipeline_s), "s"),
            **pipeline_metrics(passes),
            "export_s": (median_of(passes, lambda p: p.phase("export")), "s"),
        }


WORKLOADS = {w.name: w for w in (WarehousePlan, WarehouseOnline, MapIngest)}
