"""Prioritized planning: sequential space-time A* against a reservation table.

Agents plan in ascending id order; each finished path is reserved, terminal
cell forever. Fast and always conflict-free when it returns a solution, but
complete only relative to the ordering.
"""

from __future__ import annotations

from .astar import Budget, ReservationTable, spacetime_astar


def search(grid, roster, budget: Budget):
    """Paths by agent id, or the reason the id order cannot route them."""
    table = ReservationTable(grid)
    paths = {}
    for agent in roster:
        p = spacetime_astar(grid, agent.kind, agent.start, agent.goal, table, budget)
        if p is None:
            return f"agent {agent.id} cannot be routed around earlier reservations"
        paths[agent.id] = p
        table.reserve_path(p)
    return paths
