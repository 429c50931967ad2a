"""Command-line entry point: grid generation, solving, simulation, tasks, bench.

Exit codes: 0 ok, 2 input error, 3 capacity or placement failure,
4 no solution, 5 resource limit. Log verbosity comes from SKYROVER_LOG
(debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import bench as bench_mod
from .errors import (
    CapacityError,
    NoSolutionError,
    ParseError,
    PlacementError,
    ResourceLimitError,
    ScenarioError,
    SkyroverError,
    TaskError,
    solve_error,
)
from .mapf import as_positive, make_solution
from .pcd import parse_pcd
from .pgm import parse_pgm
from .scenario import Scenario, load_scenario, save_scenario
from .sim import (
    DEFAULT_CELL_DURATION,
    Simulator,
    collect_metrics,
    execute_plan,
    read_plan,
    waypoints_to_bytes,
    write_plan,
)
from .solvers import NOTHING_TO_PRECOMPUTE, ONLINE, SolverConfig, normalize_algorithm
from .tasks import run_task
from .voxelgrid import extrude_ground, rasterize, read_grid, write_grid
from .warehouse import DEFAULT_DIMS, DEFAULT_ROSTER, DEFAULT_SHELF_ROWS, generate_warehouse

log = logging.getLogger("skyrover")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_NO_SOLUTION = 4
EXIT_LIMIT = 5


def _configure_logging() -> None:
    level = os.environ.get("SKYROVER_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _load_scenario(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.grid:
        scenario = replace(scenario, grid=read_grid(args.grid))
    return scenario


def _solver_config(args, scenario: Scenario) -> SolverConfig:
    """The scenario's solver block (or the defaults) with the given flags laid over it."""
    flags = {"algorithm": args.alg, "node_expansion_limit": args.expansion_limit, "time_limit": args.time_limit}
    return replace(scenario.solver or SolverConfig(), **{k: v for k, v in flags.items() if v is not None})


def cmd_gridgen(args) -> int:
    if bool(args.pcd) == bool(args.pgm):
        raise ValueError("pass exactly one of --pcd or --pgm")
    if args.pcd:
        cloud = parse_pcd(Path(args.pcd).read_bytes())
        if cloud.dropped:
            log.info("dropped %d non-finite points", cloud.dropped)
        grid = rasterize(cloud, resolution=args.resolution, padding=args.padding)
    else:
        ground = parse_pgm(Path(args.pgm).read_bytes(), resolution=args.resolution, occupied_threshold=args.threshold)
        grid = extrude_ground(ground, nz=args.extrude, walls=args.walls)
    write_grid(grid, args.output)
    nx, ny, nz = grid.dims
    print(f"wrote {args.output}: {nx}x{ny}x{nz} cells, {grid.occupied_count} occupied")
    return EXIT_OK


def cmd_gen_warehouse(args) -> int:
    dims = tuple(args.dims)
    grid, agents = generate_warehouse(dims=dims, shelf_rows=args.shelf_rows, roster=args.agents, seed=args.seed)
    grid_path = args.output + ".grid"
    scenario_path = args.output + ".json"
    write_grid(grid, grid_path)
    scenario = Scenario(grid=os.path.basename(grid_path), agents=agents, seed=args.seed)
    save_scenario(scenario, scenario_path)
    print(f"wrote {grid_path} and {scenario_path}: {len(agents)} agents in {dims[0]}x{dims[1]}x{dims[2]}")
    return EXIT_OK


def cmd_solve(args) -> int:
    scenario = _load_scenario(args)
    config = _solver_config(args, scenario)
    if config.algorithm == ONLINE:
        raise ValueError(NOTHING_TO_PRECOMPUTE)
    sim = Simulator()
    sim.init(scenario, config)  # raises unless the plan is found and validated
    solution = sim.solution
    if args.output:
        write_plan(args.output, solution, scenario.agents, sim.computation_time)
    print(
        f"solved alg={config.algorithm} agents={len(scenario.agents)} "
        f"sum_of_costs={solution.sum_of_costs} makespan={solution.makespan} "
        f"comp_time_s={sim.computation_time:.3f} success_rate=100% "
        f"expansions={sim.stats.ll_expansions} ct_nodes={sim.stats.ct_expanded}"
    )
    return EXIT_OK


def cmd_sim(args) -> int:
    if bool(args.plan) == bool(args.online):
        raise ValueError("pass exactly one of --plan or --online")
    as_positive(args.cell_duration, "cell_duration")
    scenario = _load_scenario(args)
    sim = Simulator()
    if args.plan:
        plan = read_plan(args.plan)
        kinds = {a.id: a.kind for a in scenario.agents}
        for aid, kind in sorted(plan.kinds.items()):
            if kinds.get(aid, kind) != kind:
                raise ScenarioError(f"plan gives agent {aid} kind {kind!r}, the scenario {kinds[aid]!r}")
        sim.init(scenario, solution=plan.solution)
    else:
        sim.init(scenario, SolverConfig(algorithm=ONLINE, online_policy=args.online))
    record = sim.run(max_ticks=args.max_ticks)
    metrics = collect_metrics(record)
    comp_time = plan.computation_time_s if args.plan else metrics.computation_time

    if args.waypoints:  # lowered before any file is written, so an overflowing timestamp leaves none
        commands = execute_plan(make_solution(record.trajectories()), args.cell_duration, sim.grid.resolution, sim.grid.origin)
    if args.ticks:
        with open(args.ticks, "w", encoding="ascii") as fh:
            for s in record.states:
                fh.write(
                    json.dumps(
                        {"tick": s.tick, "cells": {str(a): list(c) for a, c in sorted(s.cells.items())}},
                        sort_keys=True,
                    )
                    + "\n"
                )
    if args.waypoints:
        Path(args.waypoints).write_bytes(waypoints_to_bytes(commands))
    print(
        f"simulated {record.states[-1].tick} ticks mode={record.mode} "
        f"success_rate={metrics.success_rate * 100:.1f}% makespan={metrics.makespan} "
        f"sum_of_costs={metrics.sum_of_costs} comp_time_s={comp_time:.3f}"
    )
    return EXIT_OK


def cmd_task(args) -> int:
    scenario = _load_scenario(args)
    report = run_task(scenario, _solver_config(args, scenario))
    for n, m in enumerate(report.episodes, start=1):
        print(
            f"episode {n}: success_rate={m.success_rate * 100:.1f}% makespan={m.makespan} "
            f"sum_of_costs={m.sum_of_costs} comp_time_s={m.computation_time:.3f}"
        )
    print(f"rendezvous_ok={report.rendezvous_ok} overall_success={report.success}")
    if not report.success:
        raise solve_error(report.status, report.reason)
    return EXIT_OK


def cmd_bench(args) -> int:
    paths = bench_mod.load_suite(args.suite)
    algorithms = [normalize_algorithm(a) for a in args.algs.split(",") if a]
    if not algorithms:
        raise ValueError("--algs lists no algorithms")
    report = bench_mod.run_suite(paths, algorithms, repeats=args.repeats)
    if args.output:  # a refused report opens no file
        Path(args.output).write_bytes(bench_mod.report_to_bytes(report))
    print(bench_mod.format_table(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skyrover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gridgen", help="rasterize a PCD or extrude a PGM into a SKYGRID1 file")
    p.add_argument("--pcd", help="point cloud input")
    p.add_argument("--pgm", help="2D map input")
    p.add_argument("--extrude", type=int, default=1, metavar="NZ", help="layers for PGM extrusion")
    p.add_argument("--walls", action="store_true", help="replicate PGM obstacles through all layers")
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument("--padding", type=int, default=1, help="cells added around the cloud bounding box")
    p.add_argument("--threshold", type=int, default=128, help="PGM values below this are obstacles")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gridgen)

    p = sub.add_parser("gen-warehouse", help="procedurally generate a warehouse grid + scenario")
    p.add_argument("--dims", type=int, nargs=3, default=list(DEFAULT_DIMS), metavar=("NX", "NY", "NZ"))
    p.add_argument("--shelf-rows", type=int, default=DEFAULT_SHELF_ROWS)
    p.add_argument("--agents", default=DEFAULT_ROSTER, help=f"roster such as {DEFAULT_ROSTER}")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", required=True, help="path prefix for the .grid and .json files")
    p.set_defaults(func=cmd_gen_warehouse)

    def _solver_flags(p):
        p.add_argument("--alg", help="astar | cbs | online")
        p.add_argument("--time-limit", type=float, default=None, dest="time_limit")
        p.add_argument("--expansion-limit", type=int, default=None, dest="expansion_limit")

    p = sub.add_parser("solve", help="plan a scenario and write the plan file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--grid", help="override the scenario's grid reference")
    _solver_flags(p)
    p.add_argument("-o", "--output", help="plan JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sim", help="replay a plan or run an online policy")
    p.add_argument("--scenario", required=True)
    p.add_argument("--grid", help="override the scenario's grid reference")
    p.add_argument("--plan", help="plan JSON to replay")
    p.add_argument("--online", help="online policy name, e.g. greedy-shielded")
    p.add_argument("--cell-duration", type=float, default=DEFAULT_CELL_DURATION, dest="cell_duration")
    p.add_argument("--max-ticks", type=int, default=None, dest="max_ticks")
    p.add_argument("--waypoints", help="waypoint CSV output path")
    p.add_argument("--ticks", help="tick log output path (JSON lines)")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("task", help="run the scenario's task pipeline")
    p.add_argument("--scenario", required=True)
    p.add_argument("--grid", help="override the scenario's grid reference")
    _solver_flags(p)
    p.set_defaults(func=cmd_task)

    p = sub.add_parser("bench", help="run a suite of scenarios across algorithms")
    p.add_argument("--suite", required=True, help="JSON file {\"scenarios\": [paths]}")
    p.add_argument("--algs", default="astar,cbs,online")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("-o", "--output", help="report CSV path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, ScenarioError, TaskError, ValueError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CapacityError, PlacementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except SkyroverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
