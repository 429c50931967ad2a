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

A child differs from its parent in one path, so nothing is rescanned per
child. The search keeps one space-time occupancy index: a counted
``ReservationTable`` of the expanded node's paths, moved from node to node
by releasing and reserving only the paths that differ. A replan's avoid
table is that index without the replanned agent's path. The child's
conflicts are updated rather than rescanned: the parent's conflicts that do
not involve the agent, plus ``step_conflicts`` at the timesteps the index
reports the new path touching another (``ReservationTable.touches``). Only
the root runs the full scan, ``detect_conflicts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

from .astar import Budget, ReservationTable, spacetime_astar
from .mapf import Conflict, cell_at, constraints_from_conflict, detect_conflicts, path_cost, step_conflicts


@dataclass
class CTNode:
    constraints: tuple
    paths: dict
    cost: int
    conflicts: list


def replan_conflicts(conflicts, paths: dict, aid, cells, others: ReservationTable) -> list[Conflict]:
    """``detect_conflicts`` of ``paths`` once agent ``aid``'s path is replaced by ``cells``.

    ``conflicts`` is ``detect_conflicts(paths)`` and ``others`` the table of
    every path but ``aid``'s. New conflicts come from ``step_conflicts``:
    among the parked others past the old horizon, and for ``aid`` only at
    the timesteps at which the table reports that its path touches another.
    """
    rest = {b: q for b, q in paths.items() if b != aid}
    t_old = max(len(p) for p in paths.values()) - 1
    t_end = max([len(cells)] + [len(q) for q in rest.values()]) - 1
    out = [c for c in conflicts if aid not in c.agents and c.time <= t_end]
    final = {b: q[-1] for b, q in rest.items()}  # every other agent is parked from t_old on
    for t in range(t_old + 1, t_end + 1):
        out.extend(step_conflicts(final, final, t))
    for t in others.touches(cells, t_end):
        u, v = cell_at(cells, max(t - 1, 0)), cell_at(cells, t)
        near = [b for b, q in rest.items() if cell_at(q, t) in (u, v)]
        prev = {b: cell_at(rest[b], max(t - 1, 0)) for b in near}
        cur = {b: cell_at(rest[b], t) for b in near}
        prev[aid], cur[aid] = u, v
        out.extend(c for c in step_conflicts(prev, cur, t) if aid in c.agents)
    out.sort(key=lambda c: c.sort_key)
    return out


def search(grid, roster, budget: Budget):
    """Optimal paths by agent id, or the reason there are none.

    Every goal must be reachable from its start. Expanded CT nodes and the
    cost of the last node popped, a lower bound on the optimum, are recorded
    on ``budget``.
    """
    by_id = {a.id: a for a in roster}
    paths = {}
    index = ReservationTable(grid)
    for a in roster:
        # independent optimal plans; earlier roots only steer tie-breaking
        paths[a.id] = spacetime_astar(grid, a.kind, a.start, a.goal, budget=budget, avoid=index)
        index.reserve_path(paths[a.id])
    held = dict(paths)  # the path the index holds per agent; None when left out

    tick = count()
    root = CTNode((), paths, sum(path_cost(p) for p in paths.values()), detect_conflicts(paths))
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
            blocked = ReservationTable(grid)
            for c in child_constraints:
                if c.agent_id == agent.id:
                    blocked.forbid(c)
            for aid, q in node.paths.items():  # index := every other agent's current path
                want = None if aid == agent.id else q
                if held[aid] is not want:
                    if held[aid] is not None:
                        index.release_path(held[aid])
                    if want is not None:
                        index.reserve_path(want)
                    held[aid] = want
            p = spacetime_astar(grid, agent.kind, agent.start, agent.goal, blocked, budget, index)
            if p is None:
                continue
            child_paths = dict(node.paths)
            child_paths[agent.id] = p
            child_cost = node.cost - path_cost(node.paths[agent.id]) + path_cost(p)
            conflicts = replan_conflicts(node.conflicts, node.paths, agent.id, p, index)
            child = CTNode(child_constraints, child_paths, child_cost, conflicts)
            heappush(heap, (child_cost, len(conflicts), next(tick), child))
    return "constraint tree exhausted"
