"""Benchmark harness: run (scenario, algorithm) cells and emit a report.

Success rates are recomputed from the executed runs through the solution
validator and the tick logs; solver self-reports are never trusted. Absolute
computation times are hardware-bound and therefore reported, not asserted.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from dataclasses import dataclass, replace

from .errors import NoSolutionError, ParseError, ResourceLimitError, ScenarioError
from .mapf import as_int
from .scenario import load_scenario
from .sim import Simulator, collect_metrics
from .solvers import SolverConfig, normalize_algorithm

CSV_HEADER = "scenario,algorithm,seed,agents,comp_time_s,success_rate,makespan,sum_of_costs"


@dataclass(frozen=True)
class BenchRow:
    scenario: str
    algorithm: str
    seed: int
    agents: int
    comp_time_s: float
    success_rate: float
    makespan: int
    sum_of_costs: int


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple
    environment: str


def environment_note() -> str:
    return f"{platform.platform()} / Python {platform.python_version()}"


def load_suite(path) -> list[str]:
    """Suite file: {"scenarios": [paths...]}, paths relative to the suite file."""
    with open(path, "rb") as fh:
        try:
            payload = json.loads(fh.read())
        except json.JSONDecodeError as exc:
            raise ParseError(f"suite is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or set(payload) != {"scenarios"}:
        raise ParseError("suite must be an object with exactly the key 'scenarios'")
    paths = payload["scenarios"]
    if not isinstance(paths, list) or not paths:
        raise ParseError("suite lists no scenarios")
    if not all(isinstance(p, str) for p in paths):
        raise ParseError("suite scenarios must be file paths")
    base = os.path.dirname(os.path.abspath(path))
    return [p if os.path.isabs(p) else os.path.join(base, p) for p in paths]


def scenario_name(path) -> str:
    """A scenario's name in the report, its file name without the extension; ValueError if the CSV cannot hold it."""
    name = os.path.splitext(os.path.basename(str(path)))[0]
    if not name.isascii() or any(c in name for c in ",\r\n") or name.startswith("#"):  # "#" opens a comment line
        raise ValueError(f"scenario name {name!r} cannot be a report CSV field")
    return name


def run_cell(scenario_path, algorithm: str, repeats: int = 1) -> BenchRow:
    """One (scenario, algorithm) measurement, labelled with the scenario's seed; times are the median of repeats."""
    if as_int(repeats, "repeats") < 1:
        raise ValueError("repeats must be >= 1")
    algorithm = normalize_algorithm(algorithm)
    name = scenario_name(scenario_path)
    scenario = load_scenario(scenario_path)
    base = scenario.solver or SolverConfig()
    config = replace(base, algorithm=algorithm)

    times = []
    metrics = None
    for _ in range(repeats):
        sim = Simulator()
        try:
            sim.init(scenario, config=config)
        except (NoSolutionError, ResourceLimitError):
            return BenchRow(name, algorithm, scenario.seed, len(scenario.agents), sim.computation_time, 0.0, -1, -1)
        record = sim.run()
        times.append(record.computation_time)
        if metrics is None:
            metrics = collect_metrics(record)
    return BenchRow(
        scenario=name,
        algorithm=algorithm,
        seed=scenario.seed,
        agents=len(scenario.agents),
        comp_time_s=statistics.median(times),
        success_rate=metrics.success_rate,
        makespan=metrics.makespan,
        sum_of_costs=metrics.sum_of_costs,
    )


def run_suite(scenario_paths, algorithms, repeats: int = 1) -> BenchmarkReport:
    if not scenario_paths:
        raise ScenarioError("benchmark suite is empty")
    list(map(scenario_name, scenario_paths))  # every name is checked before any cell runs
    rows = [
        run_cell(path, alg, repeats=repeats)
        for path in scenario_paths
        for alg in algorithms
    ]
    rows.sort(key=lambda r: (r.scenario, r.algorithm))
    return BenchmarkReport(rows=tuple(rows), environment=environment_note())


def report_to_bytes(report: BenchmarkReport) -> bytes:
    lines = [
        f"# environment: {report.environment}",
        CSV_HEADER,
    ]
    for r in report.rows:
        lines.append(
            f"{r.scenario},{r.algorithm},{r.seed},{r.agents},"
            f"{r.comp_time_s:.4f},{r.success_rate:.4f},{r.makespan},{r.sum_of_costs}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def report_from_bytes(data: bytes) -> BenchmarkReport:
    environment = ""
    rows = []
    saw_header = False
    for n, raw in enumerate(data.splitlines(), start=1):
        try:  # a non-ASCII byte and a bad number both land here as ValueError
            line = raw.decode("ascii")
            if line.startswith("# environment: "):
                environment = line[len("# environment: ") :]
            elif line.startswith("# seed: "):  # written by older versions; checked, then dropped
                int(line[len("# seed: ") :])
            elif line == CSV_HEADER:
                saw_header = True
            elif line.strip():
                parts = line.split(",")
                if len(parts) != 8:
                    raise ParseError(f"report line {n} has {len(parts)} columns, expected 8")
                rows.append(
                    BenchRow(
                        scenario=parts[0],
                        algorithm=parts[1],
                        seed=int(parts[2]),
                        agents=int(parts[3]),
                        comp_time_s=float(parts[4]),
                        success_rate=float(parts[5]),
                        makespan=int(parts[6]),
                        sum_of_costs=int(parts[7]),
                    )
                )
        except ValueError as exc:
            raise ParseError(f"report line {n}: {exc}") from None
    if not saw_header:
        raise ParseError(f"report is missing the header line {CSV_HEADER!r}")
    return BenchmarkReport(rows=tuple(rows), environment=environment)


def format_table(report: BenchmarkReport) -> str:
    headers = ("scenario", "algorithm", "comp time (s)", "success rate (%)", "makespan", "sum of costs")
    body = [
        (
            r.scenario,
            r.algorithm,
            f"{r.comp_time_s:.2f}",
            f"{100.0 * r.success_rate:.1f}",
            str(r.makespan),
            str(r.sum_of_costs),
        )
        for r in report.rows
    ]
    widths = [max(len(h), *(len(row[c]) for row in body)) if body else len(h) for c, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(v.ljust(widths[c]) for c, v in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in body)
    lines.append(f"({report.environment})")
    return "\n".join(lines)
