"""Scenario files: the JSON schema tying grids, rosters, tasks, and solvers.

A scenario names its world either as a path to a SKYGRID1 file (relative to
the scenario file) or as an inline generator spec. Unknown fields anywhere
in the document are rejected.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .errors import ScenarioError
from .mapf import Agent, KINDS
from .solvers import SolverConfig
from .tasks import TaskScript
from .voxelgrid import OccupancyGrid3D, empty_grid, read_grid

_TOP_KEYS = {"grid", "agents", "seed", "task", "solver"}
_AGENT_KEYS = {"id", "kind", "start", "goal"}
_TASK_KEYS = {"kind", "agv_id", "uav_id", "point_a", "point_b", "hover_offset", "hold_steps"}
# "rng_seed" is accepted for older files and ignored: no solver is randomized.
_SOLVER_KEYS = {"algorithm", "node_expansion_limit", "time_limit", "rng_seed", "online_policy"}
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

    def materialize_grid(self) -> OccupancyGrid3D:
        """Load the referenced grid file or build the inline-spec world."""
        if isinstance(self.grid, OccupancyGrid3D):
            return self.grid
        if isinstance(self.grid, str):
            path = self.grid
            if self.base_dir and not os.path.isabs(path):
                path = os.path.join(self.base_dir, path)
            return read_grid(path)
        spec = self.grid
        if spec["kind"] == "empty":
            return empty_grid(tuple(spec["dims"]))
        from .warehouse import warehouse_grid

        return warehouse_grid(
            tuple(spec["dims"]),
            shelf_rows=spec.get("shelf_rows", 6),
            shelf_height=spec.get("shelf_height", 4),
        )


def _require_keys(obj: dict, allowed: set, required: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{what} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{what} has unknown fields: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"{what} is missing fields: {sorted(missing)}")


def _cell(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{what} must be a [i, j, k] triple")
    try:
        return tuple(int(v) for v in value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} must hold integers") from None


def _parse_grid_field(value):
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        kind = value.get("kind")
        if kind not in _GRID_SPEC_KEYS:
            raise ScenarioError(f"inline grid spec kind must be one of {sorted(_GRID_SPEC_KEYS)}")
        _require_keys(value, _GRID_SPEC_KEYS[kind], {"kind", "dims"}, "grid spec")
        dims = value["dims"]
        if not isinstance(dims, (list, tuple)) or len(dims) != 3:
            raise ScenarioError("grid spec dims must be [nx, ny, nz]")
        spec = {"kind": kind, "dims": [int(v) for v in dims]}
        for extra in sorted(_GRID_SPEC_KEYS[kind] - {"kind", "dims"}):
            if extra in value:
                spec[extra] = int(value[extra])
        return spec
    raise ScenarioError("grid must be a file path or an inline generator spec")


def scenario_from_json(payload: dict, base_dir: str | None = None) -> Scenario:
    _require_keys(payload, _TOP_KEYS, {"grid", "agents"}, "scenario")
    grid = _parse_grid_field(payload["grid"])

    if not isinstance(payload["agents"], list) or not payload["agents"]:
        raise ScenarioError("agents must be a non-empty list")
    agents = []
    for n, entry in enumerate(payload["agents"]):
        _require_keys(entry, _AGENT_KEYS, _AGENT_KEYS, f"agent #{n}")
        if entry["kind"] not in KINDS:
            raise ScenarioError(f"agent #{n} kind must be one of {list(KINDS)}")
        agents.append(
            Agent(
                id=int(entry["id"]),
                kind=entry["kind"],
                start=_cell(entry["start"], f"agent #{n} start"),
                goal=_cell(entry["goal"], f"agent #{n} goal"),
            )
        )

    seed = payload.get("seed", 0)
    if not isinstance(seed, int):
        raise ScenarioError("seed must be an integer")

    task = None
    if "task" in payload:
        t = payload["task"]
        _require_keys(t, _TASK_KEYS, {"kind", "agv_id", "uav_id", "point_a", "point_b"}, "task")
        try:
            task = TaskScript(
                kind=t["kind"],
                agv_id=int(t["agv_id"]),
                uav_id=int(t["uav_id"]),
                point_a=_cell(t["point_a"], "task point_a"),
                point_b=_cell(t["point_b"], "task point_b"),
                hover_offset=int(t.get("hover_offset", 2)),
                hold_steps=int(t.get("hold_steps", 3)),
            )
        except ValueError as exc:
            raise ScenarioError(f"bad task block: {exc}") from None

    solver = None
    if "solver" in payload:
        s = payload["solver"]
        _require_keys(s, _SOLVER_KEYS, set(), "solver")
        try:
            solver = SolverConfig(
                algorithm=s.get("algorithm", "cbs"),
                node_expansion_limit=int(s.get("node_expansion_limit", 5_000_000)),
                time_limit=float(s.get("time_limit", 300.0)),
                online_policy=s.get("online_policy", "greedy-shielded"),
            )
        except ValueError as exc:
            raise ScenarioError(f"bad solver block: {exc}") from None

    return Scenario(grid=grid, agents=tuple(agents), seed=seed, task=task, solver=solver, base_dir=base_dir)


def scenario_to_json(scenario: Scenario) -> dict:
    payload = {
        "grid": scenario.grid,
        "agents": [
            {"id": a.id, "kind": a.kind, "start": list(a.start), "goal": list(a.goal)}
            for a in sorted(scenario.agents, key=lambda a: a.id)
        ],
        "seed": scenario.seed,
    }
    if scenario.task is not None:
        t = scenario.task
        payload["task"] = {
            "kind": t.kind,
            "agv_id": t.agv_id,
            "uav_id": t.uav_id,
            "point_a": list(t.point_a),
            "point_b": list(t.point_b),
            "hover_offset": t.hover_offset,
            "hold_steps": t.hold_steps,
        }
    if scenario.solver is not None:
        s = scenario.solver
        payload["solver"] = {
            "algorithm": s.algorithm,
            "node_expansion_limit": s.node_expansion_limit,
            "time_limit": s.time_limit,
            "online_policy": s.online_policy,
        }
    return payload


def scenario_to_bytes(scenario: Scenario) -> bytes:
    return (json.dumps(scenario_to_json(scenario), indent=2, sort_keys=True) + "\n").encode("ascii")


def scenario_from_bytes(data: bytes, base_dir: str | None = None) -> Scenario:
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    return scenario_from_json(payload, base_dir=base_dir)


def load_scenario(path) -> Scenario:
    with open(path, "rb") as fh:
        return scenario_from_bytes(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "wb") as fh:
        fh.write(scenario_to_bytes(scenario))
