"""Online step policies and the collision shield.

A policy proposes one move per agent each tick; the shield then downgrades
moves to waits until the joint move is collision-free. Starting from a
conflict-free configuration the shielded step always lands in another
conflict-free configuration (everyone waiting reproduces the current one),
though livelock is possible and left for the benchmark to measure.
``online_policy_step`` and ``shield_moves`` keep nothing between calls,
and no state lives at module level: a ``Simulator`` keeps what it needs to
skip a stalled tick, and a ``GreedyShieldedPolicy`` keeps its step tables
and its last answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import index

from .astar import legal_moves
from .errors import InvariantViolation
from .mapf import EDGE, KINDS, step_conflicts


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
    An instance keeps one cell-keyed step table per agent, built for the
    last grid and agents tuple it saw, so a tick costs one lookup per agent,
    and copies of its last cells and answer: equal cells on the next tick,
    as a stalled fleet's, get a new dict equal to that answer. Current cells
    are (i, j, k) tuples, as the ``Simulator`` keeps them.
    """

    name = "greedy-shielded"

    def __init__(self):
        # (grid, agents tuple, each agent's id and step table, a copy of the last cells, the last answer)
        self._kept = (None, None, (), None, None)

    def propose(self, view: WorldView) -> dict:
        grid, agents, cells = view.grid, view.agents, view.cells
        kept_grid, kept_agents, rows, kept_cells, proposals = self._kept
        if kept_grid is not grid or kept_agents is not agents:
            rows = [(a.id, _StepsToward(legal_moves(grid, a.kind), a.goal)) for a in agents]
        elif cells == kept_cells:
            return dict(proposals)
        proposals = {aid: steps[cells[aid]] for aid, steps in rows}
        if type(agents) is tuple:  # a list could change in place
            self._kept = (grid, agents, rows, dict(cells), proposals)
        return dict(proposals)


class _StepsToward(dict):
    """cell -> the legal next cell nearest ``goal`` by Manhattan distance, the first in ``MOVES`` order
    (``cell`` at the goal or with no legal move), filled on first use."""

    def __init__(self, moves, goal):
        super().__init__()
        self.moves = moves
        self.goal = goal

    def __missing__(self, cell):
        step = cell = tuple(map(index, cell))  # numpy ints are stored as ints
        goal = self.goal
        if cell != goal:
            gi, gj, gk = goal
            best = None
            for option in self.moves[cell]:  # a cell outside the grid raises ValueError
                i, j, k = option
                d = abs(i - gi) + abs(j - gj) + abs(k - gk)
                if best is None or d < best:  # the first minimum in move order
                    best = d
                    step = option
        self[cell] = step
        return step


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
    two movers, so the higher id waits. Two waiters on one cell mean the
    input already collides, which raises.

    One full ``step_conflicts`` scan per call fills a heap of conflicting
    pairs, each stamped with the round that found it. A pair's conflict
    depends on the two agents' moves alone, so it holds until one of them is
    downgraded; from then on the entry is stale and dropped when popped.
    A move only ever turns into a wait, so downgrading agent x can only make
    x collide with the agents that enter ``cells[x]`` (a waiter cannot
    swap): those few are all that is scanned again, and their pairs with x
    are queued with the next round's stamp (a swap that became a vertex
    conflict among them). Every resolved round turns one mover into a
    waiter, so the loop ends within one round per agent; no convergence
    guard is needed, since a conflict left among waiters raises. The answer
    depends on the two dicts alone; nothing is kept between calls.
    """
    moves = dict(proposals)
    entering = {}  # cell -> the agents whose move ends there
    for a, cell in moves.items():
        entering.setdefault(cell, []).append(a)
    heap = [(*c.agents, 0, c.kind) for c in step_conflicts(cells, moves)]
    heapify(heap)
    downgraded = {}  # agent -> the round it was turned into a waiter
    while heap:
        a, b, stamp, kind = heappop(heap)
        if downgraded.get(a, -1) >= stamp or downgraded.get(b, -1) >= stamp:
            continue  # stale: a or b was downgraded since the scan that found it
        if kind == EDGE:
            offender = b
        else:
            a_waits = moves[a] == cells[a]
            b_waits = moves[b] == cells[b]
            if a_waits and b_waits:
                raise InvariantViolation(f"agents {a} and {b} already share cell {moves[a]}")
            offender = a if b_waits else b
        here = cells[offender]
        entering[moves[offender]].remove(offender)
        moves[offender] = here
        downgraded[offender] = rnd = len(downgraded)
        group = entering.setdefault(here, [])
        group.append(offender)
        if len(group) > 1:
            for c in step_conflicts(cells, {x: moves[x] for x in group}):
                if offender in c.agents:  # pairs without it are already queued
                    heappush(heap, (*c.agents, rnd + 1, c.kind))
    return moves


def online_policy_step(view: WorldView, proposals: dict) -> dict:
    """One shielded joint move; every agent's move is legal for its kind.

    A proposal equal to one of the cells ``legal_moves`` lists for the
    agent's (i, j, k) tuple cell moves it to that listed cell; anything else
    (an illegal cell, a value that is not a cell) degrades to a wait. Each
    kind's table is fetched once per call and subscripted per agent; a
    current cell outside the grid raises ``ValueError``. The moves depend on
    the view and the proposals alone.
    """
    cells = view.cells
    tables = {kind: legal_moves(view.grid, kind) for kind in KINDS}
    legal = {}
    for agent in view.agents:
        aid = agent.id
        cell = cells[aid]
        options = tables[agent.kind][cell]
        try:
            legal[aid] = options[options.index(tuple(proposals.get(aid, cell)))]
        except (TypeError, ValueError):  # not a cell, or not a legal one
            legal[aid] = cell
    return shield_moves(cells, legal)
