"""Conflict-based search: optimal sum-of-costs multi-agent planning.

The high level explores a binary constraint tree best-first by
(cost, conflict count, insertion order). Each expansion takes the first
conflict in canonical order and branches into two children, one new
constraint per involved agent, replanning only that agent with space-time
A*. The first conflict-free node popped is optimal under the arrival-time
cost rule.

Replans hand the other agents' current paths to the low level as a soft
conflict-avoidance table. Costs are untouched, so optimality is unaffected,
but equal-cost replans dodge known paths instead of recolliding, which keeps
the tree small on open floors where agents cross.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

from .astar import Budget, ReservationTable, spacetime_astar
from .errors import SearchLimitExceeded
from .mapf import constraints_from_conflict, detect_conflicts, make_solution, path_cost
from .solvers import NO_SOLUTION, RESOURCE_LIMIT, SOLVED, SolveResult, SolveStats, SolverConfig


@dataclass
class CTNode:
    constraints: tuple
    paths: dict
    cost: int
    conflicts: list


def _node(constraints, paths) -> CTNode:
    return CTNode(
        constraints=constraints,
        paths=paths,
        cost=sum(path_cost(p) for p in paths.values()),
        conflicts=detect_conflicts(paths),
    )


def cbs_solve(grid, agents, config: SolverConfig | None = None) -> SolveResult:
    config = config or SolverConfig(algorithm="cbs")
    budget = Budget(config.node_expansion_limit, config.time_limit)
    t0 = time.perf_counter()
    roster = sorted(agents, key=lambda a: a.id)
    by_id = {a.id: a for a in roster}
    ct_expanded = 0
    best_cost = None

    def stats():
        return SolveStats(
            ll_expansions=budget.used,
            ct_expanded=ct_expanded,
            wall_time=time.perf_counter() - t0,
            best_cost=best_cost,
        )

    try:
        paths = {}
        avoid = ReservationTable()
        for a in roster:
            # independent optimal plans; earlier roots only steer tie-breaking
            p = spacetime_astar(grid, a.kind, a.start, a.goal, budget=budget, avoid=avoid)
            if p is None:
                return SolveResult(NO_SOLUTION, reason=f"agent {a.id}: goal unreachable", stats=stats())
            paths[a.id] = p
            avoid.reserve_path(p)

        tick = count()
        root = _node((), paths)
        best_cost = root.cost
        heap = [(root.cost, len(root.conflicts), next(tick), root)]
        while heap:
            cost, _, _, node = heappop(heap)
            best_cost = cost
            if not node.conflicts:
                return SolveResult(SOLVED, solution=make_solution(node.paths), stats=stats())
            ct_expanded += 1
            budget.check_time()
            conflict = node.conflicts[0]
            for cons in constraints_from_conflict(conflict):
                agent = by_id[cons.agent_id]
                child_constraints = node.constraints + (cons,)
                own = tuple(c for c in child_constraints if c.agent_id == agent.id)
                avoid = ReservationTable()  # every other agent's current path
                for aid, q in node.paths.items():
                    if aid != agent.id:
                        avoid.reserve_path(q)
                p = spacetime_astar(
                    grid,
                    agent.kind,
                    agent.start,
                    agent.goal,
                    own,
                    budget=budget,
                    avoid=avoid,
                )
                if p is None:
                    continue
                child_paths = dict(node.paths)
                child_paths[agent.id] = p
                child = _node(child_constraints, child_paths)
                heappush(heap, (child.cost, len(child.conflicts), next(tick), child))
        return SolveResult(NO_SOLUTION, reason="constraint tree exhausted", stats=stats())
    except SearchLimitExceeded as exc:
        return SolveResult(RESOURCE_LIMIT, reason=str(exc), stats=stats())
