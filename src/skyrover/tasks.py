"""UAV-AGV interaction tasks compiled into chained planning episodes.

Both built-in tasks stage a rendezvous: the ground vehicle drives to a
meeting point while the UAV parks a fixed number of cells straight above it.
Afterwards the cargo either continues on the ground (inventory scan) or flies
off to an elevated drop point (aerial transfer). Episodes are independent
planning problems solved in order, each starting from the previous final
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvariantViolation, NoSolutionError, ResourceLimitError, TaskError
from .mapf import AGV, UAV, as_cell, as_int, validate_agents
from .sim import RunMetrics, Simulator, collect_metrics
from .solvers import SOLVED, SolverConfig

INVENTORY_SCAN = "inventory_scan"
AERIAL_TRANSFER = "aerial_transfer"
TASK_KINDS = (INVENTORY_SCAN, AERIAL_TRANSFER)

DEFAULT_HOVER_OFFSET = 2
DEFAULT_HOLD_STEPS = 3


@dataclass(frozen=True)
class TaskScript:
    kind: str
    agv_id: int
    uav_id: int
    point_a: tuple[int, int, int]
    point_b: tuple[int, int, int]
    hover_offset: int = DEFAULT_HOVER_OFFSET
    hold_steps: int = DEFAULT_HOLD_STEPS  # checked and stored, but changes no run

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        for name in ("agv_id", "uav_id", "hover_offset", "hold_steps"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        for name in ("point_a", "point_b"):
            object.__setattr__(self, name, as_cell(getattr(self, name), name))
        if self.hover_offset < 1:
            raise ValueError("hover_offset must be >= 1")
        if self.hold_steps < 1:
            raise ValueError("hold_steps must be >= 1")

    @property
    def hover_cell(self) -> tuple[int, int, int]:
        a = self.point_a
        return (a[0], a[1], a[2] + self.hover_offset)


@dataclass(frozen=True)
class Episode:
    """Start/goal assignment for every agent."""

    starts: dict
    goals: dict


@dataclass(frozen=True)
class TaskReport:
    """How a task run ended.

    ``rendezvous_ok``: episode 1 ran and its last recorded tick has the UAV
    ``hover_offset`` cells straight above the AGV; later episodes never change
    it. ``status`` is ``solved``, ``resource_limit`` when an episode's solver
    ran out of budget, or ``no_solution`` for every other failure.
    """

    episodes: tuple  # RunMetrics per episode, in order
    rendezvous_ok: bool
    status: str
    failed_episode: int | None = None
    reason: str = ""

    @property
    def success(self) -> bool:
        return self.status == SOLVED


def compile_task(grid, script: TaskScript, agents) -> list[Episode]:
    """Expand a task script into its episode sequence.

    Episode 1 sends the pair to the rendezvous (AGV at point A, UAV hovering
    above it) while everyone else heads for their own goal; episode 2
    releases the pair toward the task's destination. Episode n+1 starts where
    episode n ended, which for a successful run is episode n's goals. An
    episode that fails ``mapf.validate_agents`` (say point A off the ground,
    or the hover cell out of bounds or occupied) is a ``TaskError`` naming it.
    """
    by_id = {a.id: a for a in agents}
    agv = by_id.get(script.agv_id)
    uav = by_id.get(script.uav_id)
    if agv is None or uav is None:
        raise TaskError(f"task references unknown agent ids {script.agv_id}/{script.uav_id}")
    if agv.kind != AGV:
        raise TaskError(f"agv_id {script.agv_id} names a {agv.kind}, expected an AGV")
    if uav.kind != UAV:
        raise TaskError(f"uav_id {script.uav_id} names a {uav.kind}, expected a UAV")

    roster = sorted(agents, key=lambda a: a.id)
    e1_goals = {a.id: a.goal for a in roster}
    e1_goals[agv.id] = script.point_a
    e1_goals[uav.id] = script.hover_cell
    e2_goals = dict(e1_goals)
    if script.kind == INVENTORY_SCAN:
        e2_goals[agv.id] = script.point_b
        e2_goals[uav.id] = uav.goal
    else:
        e2_goals[uav.id] = script.point_b
        e2_goals[agv.id] = agv.goal

    episodes = [
        Episode(starts={a.id: a.start for a in roster}, goals=e1_goals),
        Episode(starts=dict(e1_goals), goals=e2_goals),
    ]
    for n, ep in enumerate(episodes, start=1):
        instance = [replace(a, start=ep.starts[a.id], goal=ep.goals[a.id]) for a in roster]
        if problems := validate_agents(grid, instance):
            raise TaskError(f"episode {n} is not a valid instance:\n  " + "\n  ".join(problems))
    return episodes


def run_task(scenario, config: SolverConfig | None = None) -> TaskReport:
    """Solve and simulate the task's episodes in order, checking the rendezvous after episode 1.

    Every episode starts through ``Simulator.init`` as the scenario with that
    episode's roster, so ``config`` falls back to ``scenario.solver`` as there.
    The rendezvous is read once, from episode 1's recorded tick log rather
    than solver output: on its last tick the UAV must sit ``hover_offset``
    cells straight above the AGV. The pair stays parked there until episode 2
    starts from that tick. ``hold_steps`` changes no run.
    """
    script = scenario.task
    if script is None:
        raise TaskError("scenario has no task block")
    grid = scenario.materialize_grid()
    scenario = replace(scenario, grid=grid)
    episodes = compile_task(grid, script, scenario.agents)
    roster = sorted(scenario.agents, key=lambda a: a.id)
    cells = {a.id: a.start for a in roster}
    metrics: list[RunMetrics] = []
    rendezvous_ok = False

    for n, ep in enumerate(episodes, start=1):
        if cells != ep.starts:
            raise InvariantViolation(f"episode {n} does not start where episode {n - 1} ended")
        instance = tuple(replace(a, start=ep.starts[a.id], goal=ep.goals[a.id]) for a in roster)
        sim = Simulator()
        try:
            sim.init(replace(scenario, agents=instance), config)
        except (NoSolutionError, ResourceLimitError) as exc:
            status, reason = exc.status, f"episode {n}: {exc}"
            break
        record = sim.run()
        m = collect_metrics(record)
        metrics.append(m)
        cells = dict(record.states[-1].cells)
        if n == 1:
            agv = cells[script.agv_id]
            rendezvous_ok = cells[script.uav_id] == (agv[0], agv[1], agv[2] + script.hover_offset)
        if m.success_rate < 1.0:
            status, reason = NoSolutionError.status, f"episode {n}: only {m.success_rate:.3f} of agents reached their goals"
            break
        if not rendezvous_ok:  # fixed after episode 1, so this stops only there
            status, reason = NoSolutionError.status, "rendezvous hold was never observed in the tick log"
            break
    else:
        return TaskReport(tuple(metrics), rendezvous_ok, SOLVED)
    return TaskReport(tuple(metrics), rendezvous_ok, status, failed_episode=n, reason=reason)
