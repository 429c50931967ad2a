"""Scenario files: the JSON schema tying grids, rosters, tasks, and solvers.

A scenario names its world either as a path to a SKYGRID1 file (relative to
the scenario file) or as an inline generator spec. Unknown fields anywhere
in the document are rejected.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .errors import ScenarioError
from .mapf import Agent, as_cell, as_int
from .solvers import SolverConfig
from .tasks import TaskScript
from .voxelgrid import OccupancyGrid3D, empty_grid, read_grid
from .warehouse import warehouse_grid

_TOP_KEYS = {"grid", "agents", "seed", "task", "solver"}
_AGENT_KEYS = {"id", "kind", "start", "goal"}
_TASK_KEYS = {f.name for f in fields(TaskScript)}
_TASK_REQUIRED = {f.name for f in fields(TaskScript) if f.default is MISSING}
# "rng_seed" is accepted for older files and ignored: no solver is randomized.
_SOLVER_KEYS = {f.name for f in fields(SolverConfig)} | {"rng_seed"}
_GRID_SPEC_KEYS = {
    "empty": {"kind", "dims"},
    "warehouse": {"kind", "dims", "shelf_rows", "shelf_height"},
}


@dataclass(frozen=True)
class Scenario:
    grid: object  # path string, inline generator spec (dict) or a loaded OccupancyGrid3D
    agents: tuple
    seed: int = 0
    task: TaskScript | None = None
    solver: SolverConfig | None = None
    base_dir: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if isinstance(self.grid, dict):  # held as the reader returns it, so a saved spec loads back equal
            with suppress(ScenarioError):  # a bad spec is kept as given, and refused when built or saved
                object.__setattr__(self, "grid", _parse_grid_field(self.grid))

    def materialize_grid(self) -> OccupancyGrid3D:
        """Load the referenced grid file or build the inline-spec world."""
        if isinstance(self.grid, OccupancyGrid3D):
            return self.grid
        if isinstance(self.grid, str):
            path = self.grid
            if self.base_dir and not os.path.isabs(path):
                path = os.path.join(self.base_dir, path)
            return read_grid(path)
        spec = _parse_grid_field(self.grid)  # the reader's rules: a spec built in Python was kept as given
        params = {k: v for k, v in spec.items() if k != "kind"}
        if spec["kind"] == "empty":
            return empty_grid(tuple(params["dims"]))
        return warehouse_grid(**params)


@contextmanager
def _fields_of(what: str):
    """Turn a type or range error raised while building ``what`` into a ScenarioError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {what}: {exc}") from None


def _require_keys(obj: dict, allowed: set, required: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{what} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{what} has unknown fields: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"{what} is missing fields: {sorted(missing)}")


def _parse_grid_field(value):
    if isinstance(value, str):
        return value
    if not isinstance(value, dict):
        raise ScenarioError("grid must be a file path or an inline generator spec")
    kind = value.get("kind")
    if not isinstance(kind, str) or kind not in _GRID_SPEC_KEYS:
        raise ScenarioError(f"inline grid spec kind must be one of {sorted(_GRID_SPEC_KEYS)}")
    _require_keys(value, _GRID_SPEC_KEYS[kind], {"kind", "dims"}, "grid spec")
    with _fields_of("grid spec"):
        spec = {k: as_int(v, k) for k, v in value.items() if k not in ("kind", "dims")}
        return {"kind": kind, "dims": list(as_cell(value["dims"], "dims")), **spec}


def scenario_from_json(payload: dict, base_dir: str | None = None) -> Scenario:
    _require_keys(payload, _TOP_KEYS, {"grid", "agents"}, "scenario")
    grid = _parse_grid_field(payload["grid"])

    if not isinstance(payload["agents"], list) or not payload["agents"]:
        raise ScenarioError("agents must be a non-empty list")
    agents = []
    for n, entry in enumerate(payload["agents"]):
        _require_keys(entry, _AGENT_KEYS, _AGENT_KEYS, f"agent #{n}")
        with _fields_of(f"agent #{n}"):
            agents.append(Agent(**entry))

    with _fields_of("scenario"):
        seed = as_int(payload.get("seed", 0), "seed")

    task = None
    if "task" in payload:
        t = payload["task"]
        _require_keys(t, _TASK_KEYS, _TASK_REQUIRED, "task")
        with _fields_of("task block"):
            task = TaskScript(**t)

    solver = None
    if "solver" in payload:
        s = payload["solver"]
        _require_keys(s, _SOLVER_KEYS, set(), "solver")
        with _fields_of("solver block"):
            solver = SolverConfig(**{k: v for k, v in s.items() if k != "rng_seed"})

    return Scenario(grid=grid, agents=tuple(agents), seed=seed, task=task, solver=solver, base_dir=base_dir)


def scenario_to_json(scenario: Scenario) -> dict:
    if isinstance(scenario.grid, OccupancyGrid3D):
        raise ScenarioError("a scenario holding a loaded grid cannot be saved; write the grid and reference its path")
    payload = {
        "grid": scenario.grid,
        "agents": [
            {"id": a.id, "kind": a.kind, "start": list(a.start), "goal": list(a.goal)}
            for a in sorted(scenario.agents, key=lambda a: a.id)
        ],
        "seed": scenario.seed,
    }
    if scenario.task is not None:
        payload["task"] = asdict(scenario.task)
    if scenario.solver is not None:
        payload["solver"] = asdict(scenario.solver)
    return payload


def scenario_to_bytes(scenario: Scenario) -> bytes:
    payload = scenario_to_json(scenario)
    scenario_from_json(payload)  # the reader's rules: a scenario it would refuse raises ScenarioError, writes nothing
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")


def scenario_from_bytes(data: bytes, base_dir: str | None = None) -> Scenario:
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    return scenario_from_json(payload, base_dir=base_dir)


def load_scenario(path) -> Scenario:
    return scenario_from_bytes(Path(path).read_bytes(), base_dir=os.path.dirname(os.path.abspath(path)))


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_bytes(scenario_to_bytes(scenario))  # a refused scenario opens no file
