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

from .astar import move_mask
from .errors import InvariantViolation
from .mapf import EDGE, KINDS, MOVES, VERTEX, WAIT, _collisions


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
            rows = [(a.id, _StepsToward(grid, a.kind, a.goal)) for a in agents]
        elif cells == kept_cells:
            return dict(proposals)
        proposals = {aid: steps[cells[aid]] for aid, steps in rows}
        if type(agents) is tuple:  # a list could change in place
            self._kept = (grid, agents, rows, dict(cells), proposals)
        return dict(proposals)


# per kind: its wait's bit in the move mask; the bits below it are +i, -i, +j, -j (, +k, -k), as in ``toward``
_WAITS = {kind: 1 << len(ms) - 1 for kind, ms in MOVES.items()}
# per kind: a mask byte -> the move of its lowest set bit, the first in MOVES order (WAIT for none)
_FIRST = {kind: [ms[(p & -p).bit_length() - 1] if p else WAIT for p in range(1 << len(ms))] for kind, ms in MOVES.items()}
# per kind: a MOVES delta -> (its bit in the move mask, the delta)
_BITS = {kind: {d: (1 << b, d) for b, d in enumerate(ms)} for kind, ms in MOVES.items()}
_NOT_A_MOVE = (0, WAIT)


def _outside(cell, dims) -> ValueError:
    return ValueError(f"cell {tuple(map(index, cell))} is outside the grid's dims {dims}")


class _StepsToward(dict):
    """cell -> the legal next cell nearest ``goal`` by Manhattan distance, the first in ``MOVES`` order
    (``cell`` at the goal or with no legal move), filled on first use from the kind's move mask. A move
    changes the distance by one and a wait by none, so this is the first legal move toward the goal, else
    a wait, else (on a cell whose own wait bit is clear) the first legal move."""

    def __init__(self, grid, kind, goal):
        super().__init__()
        self.mask, self.dims, self.goal = move_mask(grid, kind), grid.dims, goal
        self.wait, self.first = _WAITS[kind], _FIRST[kind]

    def __missing__(self, cell):
        step = cell = tuple(map(index, cell))  # numpy ints are stored as ints
        if cell != self.goal:
            nx, ny, nz = self.dims
            i, j, k = cell
            if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
                raise _outside(cell, self.dims)
            bits = self.mask[(i * ny + j) * nz + k]
            gi, gj, gk = self.goal
            toward = (gi > i) | (gi < i) << 1 | (gj > j) << 2 | (gj < j) << 3 | (gk > k) << 4 | (gk < k) << 5
            toward &= bits & (self.wait - 1)
            if toward or not bits & self.wait:
                di, dj, dk = self.first[toward or bits]
                step = (i + di, j + dj, k + dk)
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

    One full scan per call (``mapf._collisions``: the rule's loops, no
    ``Conflict`` objects) fills a heap of conflicting pairs, each stamped
    with the round that found it. A pair's conflict depends on the two
    agents' moves alone, so it holds until one of them is downgraded; from
    then on the entry is stale and dropped when popped. A move only ever
    turns into a wait, so downgrading agent x can only make x collide with
    the agents that enter ``cells[x]``. Each of them ends there, as x now
    does, so each pair is a vertex conflict (a waiter cannot swap), queued
    with the next round's stamp without a scan. Every resolved round turns
    one mover into a waiter, so the loop ends within one round per agent; no
    convergence guard is needed, since a conflict left among waiters raises.
    The answer depends on the two dicts alone; nothing is kept between calls.
    """
    moves = dict(proposals)
    entering = {}  # cell -> the agents whose move ends there
    for a, cell in moves.items():
        entering.setdefault(cell, []).append(a)
    heap = [(a, b, 0, kind) for a, b, kind, _ in _collisions(cells, moves)]
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
        for x in group:
            heappush(heap, (x, offender, rnd + 1, VERTEX) if x < offender else (offender, x, rnd + 1, VERTEX))
        group.append(offender)
    return moves


def online_policy_step(view: WorldView, proposals: dict) -> dict:
    """One shielded joint move; every agent's move is legal for its kind.

    A proposal that unpacks into three coordinates whose difference from the
    agent's (i, j, k) cell is one of the kind's ``MOVES`` whose bit is set in
    the grid's move mask (``astar.move_mask``) moves the agent to its cell
    plus that canonical move, so a float, bool or numpy proposal is stored as
    a cell of ints; anything else waits. Each kind's mask is fetched once per
    call; a current cell outside the grid raises ``ValueError``. The moves
    depend on the view and the proposals alone.
    """
    cells = view.cells
    nx, ny, nz = dims = view.grid.dims
    tables = {kind: (move_mask(view.grid, kind), _BITS[kind]) for kind in KINDS}
    legal = {}
    for agent in view.agents:
        aid = agent.id
        cell = cells[aid]
        i, j, k = cell
        if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
            raise _outside(cell, dims)
        mask, bits = tables[agent.kind]
        try:
            x, y, z = proposals.get(aid, cell)
            flag, (di, dj, dk) = bits.get((x - i, y - j, z - k), _NOT_A_MOVE)
        except (TypeError, ValueError):  # not a cell
            flag = 0
        legal[aid] = (i + di, j + dj, k + dk) if mask[(i * ny + j) * nz + k] & flag else cell
    return shield_moves(cells, legal)
