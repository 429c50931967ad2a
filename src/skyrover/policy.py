"""Online step policies and the collision shield.

A policy proposes one move per agent each tick; the shield then downgrades
moves to waits until the joint move is collision-free. Starting from a
conflict-free configuration the shielded step always lands in another
conflict-free configuration (everyone waiting reproduces the current one),
though livelock is possible and left for the benchmark to measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .mapf import EDGE, MOVES, manhattan, step_conflicts


@dataclass(frozen=True)
class WorldView:
    """Everything a policy may look at: static grid, goals, current cells."""

    grid: object
    agents: tuple
    cells: dict


class GreedyShieldedPolicy:
    """Move each agent along the Manhattan gradient toward its goal.

    Agents already at their goal propose wait. Ties between equally good
    moves break on the canonical move order, so steps are deterministic.
    """

    name = "greedy-shielded"

    def propose(self, view: WorldView) -> dict:
        grid = view.grid
        out = {}
        for agent in view.agents:
            cell = view.cells[agent.id]
            if cell == agent.goal:
                out[agent.id] = cell
                continue
            best_key = None
            best_cell = cell
            for index, (dx, dy, dz) in enumerate(MOVES[agent.kind]):
                nxt = (cell[0] + dx, cell[1] + dy, cell[2] + dz)
                if not grid.in_bounds(*nxt) or grid.is_occupied(*nxt):
                    continue
                key = (manhattan(nxt, agent.goal), index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_cell = nxt
            out[agent.id] = best_cell
        return out


POLICIES = {GreedyShieldedPolicy.name: GreedyShieldedPolicy}


def get_policy(name: str):
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown online policy {name!r}; known: {sorted(POLICIES)}") from None


def shield_moves(cells: dict, proposals: dict) -> dict:
    """Downgrade proposed moves to waits until the joint move is safe.

    Each round resolves the conflict (``mapf.step_conflicts``) of the lowest
    (a, b) agent pair. Contended cell between two movers: the lower id
    enters, the higher id waits. A mover colliding with a waiter yields
    regardless of id (the waiter has nowhere to go). Swaps always involve
    two movers, so the higher id waits. Terminates in at most one round per
    agent since waits only accumulate.
    """
    moves = dict(proposals)
    for _ in range(len(moves) + 1):
        conflicts = step_conflicts(cells, moves)
        if not conflicts:
            return moves
        conflict = min(conflicts, key=lambda c: c.agents)
        a, b = conflict.agents
        if conflict.kind == EDGE:
            offender = b
        else:
            a_waits = moves[a] == cells[a]
            b_waits = moves[b] == cells[b]
            if a_waits and b_waits:
                raise InvariantViolation(f"agents {a} and {b} already share cell {moves[a]}")
            offender = a if b_waits else b
        moves[offender] = cells[offender]
    raise InvariantViolation("shield failed to converge")


def online_policy_step(policy, view: WorldView) -> dict:
    """One shielded joint move; every agent's move is legal for its kind."""
    proposals = policy.propose(view)
    grid = view.grid
    legal = {}
    for agent in view.agents:
        cell = view.cells[agent.id]
        nxt = tuple(proposals.get(agent.id, cell))
        delta = (nxt[0] - cell[0], nxt[1] - cell[1], nxt[2] - cell[2])
        if (
            delta not in MOVES[agent.kind]
            or not grid.in_bounds(*nxt)
            or grid.is_occupied(*nxt)
        ):
            nxt = cell  # illegal proposal degrades to wait
        legal[agent.id] = nxt
    return shield_moves(view.cells, legal)
