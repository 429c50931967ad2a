"""Problem model shared by every solver: agents, motion, reachability, conflicts, solutions.

Cells are (i, j, k) integer tuples. A path is a cell sequence indexed by
timestep; once a path ends the agent keeps occupying its final cell forever
(stay-at-goal). UAVs move with 6-connectivity plus wait, AGVs with planar
4-connectivity plus wait on the ground layer k = 0.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

UAV = "uav"
AGV = "agv"
KINDS = (UAV, AGV)

VERTEX = "vertex"
EDGE = "edge"

WAIT = (0, 0, 0)
MOVES = {
    UAV: ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), WAIT),
    AGV: ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), WAIT),
}
# Move legality in validation is checked against the 6-connected superset;
# the planar restriction for AGVs surfaces as a "kinematic" violation.
_LEGAL_DELTAS = frozenset(MOVES[UAV])


def as_int(value, what: str) -> int:
    """``value`` as a Python int when it is an int or a numpy integer; a bool, a float or a string is a ValueError naming ``what``."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def as_cell(value, what: str) -> tuple[int, int, int]:
    """``value`` as an (i, j, k) tuple of Python ints when it is a sequence of three integers; otherwise a ValueError naming ``what``."""
    try:
        if len(value) == 3:
            return (as_int(value[0], what), as_int(value[1], what), as_int(value[2], what))
    except (TypeError, ValueError, LookupError):
        pass
    raise ValueError(f"{what} must be an [i, j, k] triple of integers, got {value!r}")


def as_finite(value, what: str, positive: bool = False) -> float:
    """``value`` as a float when it is a finite real number (numpy's too, not a bool), above 0 if ``positive``; otherwise a ValueError naming ``what``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an int past the largest float
            real = math.inf
        if math.isfinite(real) and (real > 0 or not positive):
            return real
    raise ValueError(f"{what} must be {'positive and finite' if positive else 'finite and real'}, got {value!r}")


def as_positive(value, what: str) -> float:
    return as_finite(value, what, positive=True)


def manhattan(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2])


@dataclass(frozen=True)
class Agent:
    id: int
    kind: str
    start: tuple[int, int, int]
    goal: tuple[int, int, int]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown agent kind {self.kind!r}")
        object.__setattr__(self, "id", as_int(self.id, "id"))
        object.__setattr__(self, "start", as_cell(self.start, "start"))
        object.__setattr__(self, "goal", as_cell(self.goal, "goal"))


def per_grid(grid, build, *key):
    """``build(grid, *key)``, built once per grid and kept in ``grid.derived``; it must not refer to the grid, which then frees at once."""
    entry = (build, *key)
    if entry not in grid.derived:
        grid.derived[entry] = build(grid, *key)
    return grid.derived[entry]


def components(grid, kind: str) -> np.ndarray:
    """Static reachability, labelled once per grid: a read-only label per flat cell index of the grid.

    Two free cells share a label exactly when an agent of ``kind`` can move
    between them, and the label is the smallest flat index in their component;
    obstacles, and for AGVs every cell above layer 0, get -1 (dtype int64).
    """
    return per_grid(grid, _label_components, kind)


def _label_components(grid, kind: str) -> np.ndarray:
    """The labels of ``components``, built anew. Free cells form runs along i; runs
    that overlap across a j row or a k layer are joined by min-hooking and pointer
    jumping, so each run takes the first cell of its component's lowest run. AGVs
    are labelled on the ground slice alone, whose flat indices are the grid's own."""
    free = grid.cells.reshape(grid.dims[::-1]) == 0
    if kind == AGV:
        free = free[:1]
    out = np.full(len(grid.cells), -1)
    run = out[: free.size]  # per free cell: its run's number, in flat order
    first = _run_firsts(free)
    np.cumsum(first, out=run)
    run -= 1
    starts = np.flatnonzero(first)
    ny, nx = free.shape[1:]
    edges = []
    for axis, step in ((1, nx), (0, nx * ny)):  # an edge per overlap segment of neighbouring rows, then layers
        lo, hi = (slice(None),) * axis + (slice(-1),), (slice(None),) * axis + (slice(1, None),)
        both = np.zeros_like(free)
        both[lo] = free[lo] & free[hi]
        seg = np.flatnonzero(_run_firsts(both))
        edges.append(run[np.stack((seg, seg + step))])
    a, b = np.concatenate(edges, axis=1)
    root = np.arange(len(starts))
    while len(a):
        np.minimum.at(root, a, b)
        np.minimum.at(root, b, a)
        while not np.array_equal(up := root[root], root):
            root = up
        a, b = root[a], root[b]
        a, b = a[a != b], b[a != b]
    mask = free.ravel()
    run[mask] = starts[root[run[mask]]]
    run[~mask] = -1
    out.flags.writeable = False  # shared by every caller on the grid
    return out


def _run_firsts(mask) -> np.ndarray:
    """The cells of ``mask`` whose i-predecessor is not in it: the first cell of each run along i."""
    first = mask.copy()
    first[..., 1:] &= ~mask[..., :-1]
    return first


def validate_agents(grid, agents) -> list[str]:
    """Instance-level checks; returns human-readable problems, empty when fine."""
    problems = []
    seen_ids = set()
    starts = {}
    goals = {}
    for a in agents:
        if a.id in seen_ids:
            problems.append(f"duplicate agent id {a.id}")
        seen_ids.add(a.id)
        for label, cell in (("start", a.start), ("goal", a.goal)):
            if not grid.in_bounds(*cell):
                problems.append(f"agent {a.id} {label} {cell} is out of bounds")
            elif grid.is_occupied(*cell):
                problems.append(f"agent {a.id} {label} {cell} is inside an obstacle")
            if a.kind == AGV and cell[2] != 0:
                problems.append(f"ground agent {a.id} {label} {cell} is above the ground layer")
        if a.start in starts:
            problems.append(f"agents {starts[a.start]} and {a.id} share start {a.start}")
        starts[a.start] = a.id
        if a.goal in goals:
            problems.append(f"agents {goals[a.goal]} and {a.id} share goal {a.goal}")
        goals[a.goal] = a.id
    return problems


def path_cost(cells) -> int:
    """Arrival timestep: first index of the maximal trailing run of the final cell.

    Trailing waits at the destination are free; any earlier step, including
    waits away from (or before finally settling on) the final cell, costs 1
    per timestep.
    """
    t = len(cells) - 1
    last = cells[-1]
    while t > 0 and cells[t - 1] == last:
        t -= 1
    return t


@dataclass(frozen=True)
class Conflict:
    """A vertex or edge collision between two agents, canonically ordered.

    ``agents`` is (a, b) with a < b. For edge conflicts ``cells`` is agent
    a's (from, to) transition into timestep ``time``.
    """

    kind: str
    agents: tuple[int, int]
    time: int
    cells: tuple

    @property
    def sort_key(self):
        return (self.time, self.agents[0], 0 if self.kind == VERTEX else 1, self.agents[1], self.cells)


@dataclass(frozen=True)
class Constraint:
    """Forbids one (agent, cell-or-transition, timestep) triple."""

    agent_id: int
    kind: str
    time: int
    cells: tuple


def constraints_from_conflict(conflict: Conflict) -> tuple[Constraint, Constraint]:
    """The two branch constraints resolving a conflict, lower agent first."""
    a, b = conflict.agents
    if conflict.kind == VERTEX:
        cells = conflict.cells
        return (
            Constraint(a, VERTEX, conflict.time, cells),
            Constraint(b, VERTEX, conflict.time, cells),
        )
    u, v = conflict.cells
    return (
        Constraint(a, EDGE, conflict.time, (u, v)),
        Constraint(b, EDGE, conflict.time, (v, u)),
    )


def cell_at(cells, t: int):
    """The cell a path occupies at timestep t; an ended path stays on its last cell."""
    return cells[t] if t < len(cells) else cells[-1]


def step_conflicts(prev: dict, cur: dict, t: int = 0) -> list[Conflict]:
    """The vertex and swap conflicts of one joint step ``prev`` -> ``cur``.

    This is the one collision rule (CBS, Sharon et al. 2015): two agents
    conflict when they end the step in the same cell (vertex) or trade cells
    (edge). Both mappings are agent id -> cell over the same agents; ``t`` is
    the timestep ``cur`` belongs to. Cells are hashed, so the cost is
    O(n + conflicts). The output is unordered.
    """
    out = []
    first = {}
    shared = {}
    for a, cell in cur.items():
        b = first.setdefault(cell, a)
        if b != a:
            shared.setdefault(cell, [b]).append(a)
    for cell, group in shared.items():
        out.extend(Conflict(VERTEX, pair, t, (cell,)) for pair in combinations(sorted(group), 2))
    movers = {}
    for a, v in cur.items():
        u = prev[a]
        if u == v:
            continue
        for b in movers.get((v, u), ()):
            if a < b:
                out.append(Conflict(EDGE, (a, b), t, (u, v)))
            else:
                out.append(Conflict(EDGE, (b, a), t, (v, u)))
        movers.setdefault((u, v), []).append(a)
    return out


def detect_conflicts(paths: dict) -> list[Conflict]:
    """Every vertex and edge conflict among the paths, canonically ordered.

    Paths are a mapping agent id -> cell sequence. Agents whose path has
    ended are treated as parked on their final cell. The scan runs through
    the longest path; output is sorted by (time, lower agent id, vertex
    before edge). Each path is padded to that length once, so a timestep's
    joint position is one row of the zipped paths. A row equal to the one
    before it is skipped when that one had no conflicts: nobody moved, so
    it has none either. After a row with conflicts it is scanned, so agents
    parked on one cell are reported at every timestep.
    """
    ids = sorted(paths)
    if len(ids) < 2:
        return []
    horizon = max(len(paths[a]) for a in ids)
    out = []
    prev = {a: paths[a][0] for a in ids}
    padded = [list(cells) + [cells[-1]] * (horizon - len(cells)) for cells in (paths[a] for a in ids)]
    last = found = None
    for t, row in enumerate(zip(*padded)):
        if not found and row == last:
            continue
        cur = dict(zip(ids, row))
        found = step_conflicts(prev, cur, t)
        out.extend(found)
        prev = cur
        last = row
    out.sort(key=lambda c: c.sort_key)
    return out


@dataclass(frozen=True)
class Violation:
    kind: str
    agent: int | None
    time: int | None
    detail: str


def validate_solution(grid, agents, paths: dict) -> list[Violation]:
    """Check every path invariant plus conflict-freedom.

    The returned list is the single source of truth for benchmark success:
    a solution is valid exactly when it is empty.
    """
    out = []
    by_id = {a.id: a for a in agents}
    for a in agents:
        if a.id not in paths:
            out.append(Violation("missing-path", a.id, None, f"agent {a.id} has no path"))
    for aid in sorted(paths):
        agent = by_id.get(aid)
        if agent is None:
            out.append(Violation("unknown-agent", aid, None, f"path for unknown agent {aid}"))
            continue
        cells = paths[aid]
        if not cells:
            out.append(Violation("empty-path", aid, None, f"agent {aid} path is empty"))
            continue
        if tuple(cells[0]) != agent.start:
            out.append(Violation("start-mismatch", aid, 0, f"path starts at {cells[0]}, agent starts at {agent.start}"))
        if tuple(cells[-1]) != agent.goal:
            out.append(Violation("goal-mismatch", aid, len(cells) - 1, f"path ends at {cells[-1]}, goal is {agent.goal}"))
        for t, cell in enumerate(cells):
            if not grid.in_bounds(*cell):
                out.append(Violation("out-of-bounds", aid, t, f"cell {cell} at t={t} is out of bounds"))
                continue
            if grid.is_occupied(*cell):
                out.append(Violation("occupied-cell", aid, t, f"cell {cell} at t={t} is an obstacle"))
            if agent.kind == AGV and cell[2] != 0:
                out.append(Violation("kinematic", aid, t, f"ground agent at {cell} above layer 0 at t={t}"))
        for t in range(1, len(cells)):
            u, v = tuple(cells[t - 1]), tuple(cells[t])
            delta = (v[0] - u[0], v[1] - u[1], v[2] - u[2])
            if delta not in _LEGAL_DELTAS:
                out.append(Violation("illegal-move", aid, t, f"move {u} -> {v} at t={t} is not a unit step"))
    for c in detect_conflicts({aid: cells for aid, cells in paths.items() if cells}):  # an empty path is reported above
        out.append(
            Violation(
                f"{c.kind}-conflict",
                c.agents[0],
                c.time,
                f"agents {c.agents[0]} and {c.agents[1]} collide at t={c.time} on {c.cells}",
            )
        )
    return out


@dataclass(frozen=True)
class Solution:
    """One path per agent plus the two standard objectives."""

    paths: dict
    sum_of_costs: int
    makespan: int


def make_solution(paths: dict) -> Solution:
    paths = {aid: tuple(map(tuple, cells)) for aid, cells in paths.items()}
    costs = {aid: path_cost(cells) for aid, cells in paths.items()}
    return Solution(
        paths=paths,
        sum_of_costs=sum(costs.values()),
        makespan=max(costs.values(), default=0),
    )
