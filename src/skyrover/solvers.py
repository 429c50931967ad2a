"""Solver configuration, result types, and ``solve()``, the one planner."""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from . import cbs, prioritized
from .astar import Budget
from .errors import NoSolutionError, ResourceLimitError, ScenarioError
from .mapf import as_int, as_positive, components, make_solution, validate_agents

ASTAR_PRIORITIZED = "astar_prioritized"
CBS = "cbs"
ONLINE = "online"
ALGORITHMS = (ASTAR_PRIORITIZED, CBS, ONLINE)

_ALIASES = {
    "astar": ASTAR_PRIORITIZED,
    "prioritized": ASTAR_PRIORITIZED,
}

SOLVED = "solved"
NOTHING_TO_PRECOMPUTE = "online policies plan per step; there is nothing to precompute"


def normalize_algorithm(name: str) -> str:
    name = _ALIASES.get(name, name)
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; pick one of astar, cbs, online")
    return name


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = CBS
    node_expansion_limit: int = 5_000_000
    time_limit: float = 300.0
    online_policy: str = "greedy-shielded"

    def __post_init__(self):
        object.__setattr__(self, "algorithm", normalize_algorithm(self.algorithm))
        object.__setattr__(self, "node_expansion_limit", as_int(self.node_expansion_limit, "node_expansion_limit"))
        object.__setattr__(self, "time_limit", as_positive(self.time_limit, "time_limit"))
        if not isinstance(self.online_policy, str):
            raise TypeError("online_policy must be a policy name")
        if self.node_expansion_limit <= 0:
            raise ValueError("node_expansion_limit must be positive")


@dataclass(frozen=True)
class SolveStats:
    ll_expansions: int = 0
    ct_expanded: int = 0
    wall_time: float = 0.0
    best_cost: int | None = None


@dataclass(frozen=True)
class SolveResult:
    status: str
    solution: object = None  # Solution when status == SOLVED
    reason: str = ""
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def ok(self) -> bool:
        return self.status == SOLVED


def solve(grid, agents, config: SolverConfig | None = None) -> SolveResult:
    """Plan with the configured precomputing solver: the one public planner.

    An instance that fails ``mapf.validate_agents`` (agents ordered by id)
    is a ``ScenarioError`` naming its problems; ``Simulator.init`` leaves
    that check to this call when it plans. An agent whose goal lies outside
    its start's component (``mapf.components``) is no_solution. Both are
    found before any search. Online mode has no plan phase.
    """
    config = config or SolverConfig()
    if config.algorithm == ONLINE:
        raise ValueError(NOTHING_TO_PRECOMPUTE)
    roster = sorted(agents, key=lambda a: a.id)
    if problems := validate_agents(grid, roster):
        raise ScenarioError("invalid instance:\n  " + "\n  ".join(problems))
    t0 = perf_counter()
    budget = Budget(config.node_expansion_limit, config.time_limit)
    labels = {kind: components(grid, kind) for kind in {a.kind for a in roster}}
    cut = [a.id for a in roster if labels[a.kind][grid.index(*a.start)] != labels[a.kind][grid.index(*a.goal)]]
    search = cbs.search if config.algorithm == CBS else prioritized.search
    try:
        found = f"agent {cut[0]}: goal is not reachable from its start" if cut else search(grid, roster, budget)
        status = SOLVED if isinstance(found, dict) else NoSolutionError.status
    except ResourceLimitError as exc:
        status, found = exc.status, str(exc)
    stats = SolveStats(budget.used, budget.ct_expanded, perf_counter() - t0, budget.best_cost)
    if status == SOLVED:
        return SolveResult(SOLVED, solution=make_solution(found), stats=stats)
    return SolveResult(status, reason=found, stats=stats)
