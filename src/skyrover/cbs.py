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

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

from .astar import Budget, ReservationTable, spacetime_astar
from .mapf import constraints_from_conflict, detect_conflicts, path_cost


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


def search(grid, roster, budget: Budget):
    """Optimal paths by agent id, or the reason there are none.

    Every goal must be reachable from its start. Expanded CT nodes and the
    cost of the last node popped, a lower bound on the optimum, are recorded
    on ``budget``.
    """
    by_id = {a.id: a for a in roster}
    paths = {}
    avoid = ReservationTable()
    for a in roster:
        # independent optimal plans; earlier roots only steer tie-breaking
        paths[a.id] = spacetime_astar(grid, a.kind, a.start, a.goal, budget=budget, avoid=avoid)
        avoid.reserve_path(paths[a.id])

    tick = count()
    root = _node((), paths)
    heap = [(root.cost, len(root.conflicts), next(tick), root)]
    while heap:
        cost, _, _, node = heappop(heap)
        budget.best_cost = cost
        if not node.conflicts:
            return node.paths
        budget.ct_expanded += 1
        budget.check_time()
        for cons in constraints_from_conflict(node.conflicts[0]):
            agent = by_id[cons.agent_id]
            child_constraints = node.constraints + (cons,)
            blocked = ReservationTable()
            for c in child_constraints:
                if c.agent_id == agent.id:
                    blocked.forbid(c)
            avoid = ReservationTable()  # every other agent's current path
            for aid, q in node.paths.items():
                if aid != agent.id:
                    avoid.reserve_path(q)
            p = spacetime_astar(grid, agent.kind, agent.start, agent.goal, blocked, budget, avoid)
            if p is None:
                continue
            child_paths = dict(node.paths)
            child_paths[agent.id] = p
            child = _node(child_constraints, child_paths)
            heappush(heap, (child.cost, len(child.conflicts), next(tick), child))
    return "constraint tree exhausted"
