"""Online step policies and the collision shield.

A policy proposes one move per agent each tick; the shield then downgrades
moves to waits until the joint move is collision-free. Starting from a
conflict-free configuration the shielded step always lands in another
conflict-free configuration (everyone waiting reproduces the current one),
though livelock is possible and left for the benchmark to measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .astar import legal_moves, next_cells
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

    A step depends only on the agent's kind, goal and cell and on the grid,
    so each instance keeps the steps it has proposed, keyed by (kind, goal,
    cell), for as long as it is shown the same grid object; a view of any
    other grid starts the cache afresh. A cell given as a list gets the step
    of its tuple.
    """

    name = "greedy-shielded"

    def __init__(self):
        # the grid and its (kind, goal, cell) -> step dict, swapped as one so
        # that a call never fills one grid's dict with another grid's steps
        self._cache = (None, {})

    def propose(self, view: WorldView) -> dict:
        grid = view.grid
        cached, steps = self._cache
        if cached is not grid:
            steps = {}
            self._cache = (grid, steps)
        cells = view.cells
        out = {}
        for agent in view.agents:
            key = (agent.kind, agent.goal, cells[agent.id])
            try:
                out[agent.id] = steps[key]
            except KeyError:
                out[agent.id] = steps[key] = _greedy_step(grid, *key)
            except TypeError:  # an unhashable (i, j, k) list: the step of its tuple, not kept
                out[agent.id] = _greedy_step(grid, agent.kind, agent.goal, tuple(key[2]))
        return out


def _greedy_step(grid, kind: str, goal, cell):
    """The legal next cell of ``cell`` nearest ``goal`` by Manhattan distance,
    the first such in ``MOVES`` order; ``cell`` itself at the goal or with no legal move."""
    if cell == goal:
        return cell
    gi, gj, gk = goal
    best = None
    best_cell = cell
    for option in next_cells(grid, kind, cell):
        i, j, k = option
        d = abs(i - gi) + abs(j - gj) + abs(k - gk)
        if best is None or d < best:  # the first minimum in move order
            best = d
            best_cell = option
    return best_cell


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
    guard is needed, since a conflict left among waiters raises.

    The answer depends on the two dicts alone, and a stalled fleet asks the
    same question tick after tick, so the last call that returned is kept:
    copies of its ``cells`` and ``proposals`` and the agents it downgraded.
    A call whose dicts equal those returns a new dict, in its own
    ``proposals`` key order, built from its own dicts as a full run would
    build it. A call that raised keeps nothing, so its repeat raises again,
    and an input that cannot be compared with the kept one (a numpy array)
    is computed, and fails, as before.
    """
    global _last
    last = _last
    try:
        hit = last is not None and last[0] == cells and last[1] == proposals
    except ValueError:  # numpy arrays refuse to be truth-tested: computed, and failing, as before
        hit = False
    if hit:
        downgraded = last[2]
        return {a: cells[a] if a in downgraded else p for a, p in proposals.items()}
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
    _last = (dict(cells), dict(proposals), downgraded)
    return moves


_last = None  # shield_moves' last (cells, proposals, downgraded agents), replaced as one


def online_policy_step(policy, view: WorldView) -> dict:
    """One shielded joint move; every agent's move is legal for its kind.

    A proposal equal to one of the cells ``next_cells`` lists moves the
    agent to that listed cell; anything else (an illegal cell, a value that
    is not a cell) degrades to a wait. Each kind's ``legal_moves`` table is
    fetched once per call and subscripted per agent. A current cell given as an (i, j, k) list is
    read, and shielded, as its tuple; one outside the grid raises
    ``ValueError``.
    """
    proposals = policy.propose(view)
    grid = view.grid
    cells = view.cells
    tables = {kind: legal_moves(grid, kind) for kind in KINDS}
    legal = {}
    for agent in view.agents:
        aid = agent.id
        cell = cells[aid]
        moves = tables[agent.kind]
        try:
            options = moves[cell]
        except TypeError:  # an unhashable (i, j, k) list
            if cells is view.cells:
                cells = dict(cells)
            cells[aid] = cell = tuple(cell)
            options = moves[cell]
        try:
            legal[aid] = options[options.index(tuple(proposals.get(aid, cell)))]
        except (TypeError, ValueError):  # not a cell, or not a legal one
            legal[aid] = cell
    return shield_moves(cells, legal)
