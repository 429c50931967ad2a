"""Solver configuration, result types, and the algorithm dispatch."""

from __future__ import annotations

from dataclasses import dataclass, field

from .mapf import components

ASTAR_PRIORITIZED = "astar_prioritized"
CBS = "cbs"
ONLINE = "online"
ALGORITHMS = (ASTAR_PRIORITIZED, CBS, ONLINE)

_ALIASES = {
    "astar": ASTAR_PRIORITIZED,
    "prioritized": ASTAR_PRIORITIZED,
}

SOLVED = "solved"
NO_SOLUTION = "no_solution"
RESOURCE_LIMIT = "resource_limit"


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
        object.__setattr__(self, "node_expansion_limit", int(self.node_expansion_limit))
        object.__setattr__(self, "time_limit", float(self.time_limit))
        if not isinstance(self.online_policy, str):
            raise TypeError("online_policy must be a policy name")
        if self.node_expansion_limit <= 0:
            raise ValueError("node_expansion_limit must be positive")
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


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


def solve(grid, agents, config: SolverConfig) -> SolveResult:
    """Run the configured precomputing solver. Online mode has no plan phase.

    The agents must pass ``mapf.validate_agents``. An agent whose goal lies
    outside its start's component is no_solution before any search.
    """
    from .cbs import cbs_solve
    from .prioritized import prioritized_solve

    if config.algorithm == ONLINE:
        raise ValueError("online policies plan per step; there is nothing to precompute")
    labels = {kind: components(grid, kind) for kind in {a.kind for a in agents}}
    for a in sorted(agents, key=lambda a: a.id):
        if labels[a.kind][grid.index(*a.start)] != labels[a.kind][grid.index(*a.goal)]:
            return SolveResult(NO_SOLUTION, reason=f"agent {a.id}: goal is not reachable from its start")
    return (cbs_solve if config.algorithm == CBS else prioritized_solve)(grid, agents, config)
