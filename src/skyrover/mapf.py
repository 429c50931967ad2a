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
from functools import partial
from itertools import chain, combinations, compress, islice, repeat, takewhile
from typing import NamedTuple

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


def as_origin(value) -> tuple[float, float, float]:
    """``value`` as three floats when it is a sequence of three finite real numbers, the rule of a grid's frame; otherwise a ValueError."""
    try:
        if len(origin := tuple(as_finite(v, "origin") for v in value)) == 3:
            return origin
    except TypeError:  # not a sequence
        pass
    raise ValueError(f"origin must be three finite real numbers, got {value!r}")


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


class _PlanArray(NamedTuple):
    """Non-empty paths as one array: a row per joint position that differs from the one before it."""

    ids: list  # the agents, ascending
    lens: np.ndarray  # each path's length
    times: list  # each row's first timestep; a row holds until the next one's, the last until ``horizon``
    horizon: int  # the longest length
    coords: np.ndarray  # (3, rows, agents) int64: i, j and k; an ended path is parked on its last cell

    def cell(self, row, agent) -> tuple[int, int, int]:
        return tuple(self.coords[:, row, agent].tolist())


# Coordinates stay below this in magnitude, so every difference of two fits int64.
_CELL_BOUND = 2**62


def _plain(groups) -> bool:
    """Whether every cell of ``groups`` (a list of cell sequences) is a tuple or list of three Python ints."""
    return (
        set(map(type, chain.from_iterable(groups))) <= {tuple, list}
        and set(map(len, chain.from_iterable(groups))) <= {3}
        and set(map(type, chain.from_iterable(chain.from_iterable(groups)))) <= {int}
    )


def _joint_rows(paths) -> tuple[list, list, list, list]:
    """The non-empty ``paths`` as joint rows, ``(ids, lens, rows, fresh)``, built in C: the agents ascending, their
    paths' lengths, each timestep's cell objects (an ended path parked on its last one) and whether each row
    differs from the one before. Numpy array cells refuse that comparison with a ValueError."""
    ids = sorted(aid for aid, cells in paths.items() if len(cells))
    seqs = [paths[aid] for aid in ids]
    lens = list(map(len, seqs))
    horizon = max(lens, default=0)
    rows = list(zip(*(cells if n == horizon else chain(cells, repeat(cells[-1], horizon - n)) for cells, n in zip(seqs, lens))))
    return ids, lens, rows, list(map(operator.ne, rows, [None, *rows]))


def _plan_array(paths, screened: bool = False) -> _PlanArray | None:
    """The non-empty ``paths`` as a ``_PlanArray``; None when a cell is not three plain ints below ``_CELL_BOUND``.

    Only each path's cells at the rows ``_joint_rows`` marks fresh, up to its
    trailing copies of its final cell object, are screened (all of them were
    when ``screened``) and read, by one ``np.fromiter``: neither a frozen
    fleet's repeated rows nor a parked tail, padded or replayed, is converted.
    """
    try:
        ids, lens, rows, fresh = _joint_rows(paths)
    except ValueError:  # numpy cells refuse to be truth-tested
        return None
    seqs = [paths[aid] for aid in ids]
    # a path's cells at those rows, up to the first of its trailing copies of the final cell object
    tails = [len(list(takewhile(partial(operator.is_, cells[-1]), reversed(cells)))) for cells in seqs]
    kept = [list(compress(cells, islice(fresh, n - tail + 1))) for cells, n, tail in zip(seqs, lens, tails)]
    if not (screened or _plain(kept)):
        return None
    counts = np.fromiter(map(len, kept), np.int64, len(kept))
    try:
        values = np.fromiter(chain.from_iterable(chain.from_iterable(kept)), np.int64, 3 * int(counts.sum()))
    except OverflowError:
        return None
    if values.size and (values.min() <= -_CELL_BOUND or values.max() >= _CELL_BOUND):
        return None
    times = list(compress(range(len(rows)), fresh))
    at = np.minimum(np.arange(len(times))[:, None], counts - 1) + (np.cumsum(counts) - counts)
    return _PlanArray(ids, np.array(lens, dtype=np.int64), times, len(rows), values.reshape(-1, 3).T[:, at])


def _read_cells(paths) -> tuple[dict, list]:
    """``paths`` with every cell read by ``as_cell``, and a "malformed-cell" ``Violation`` for each
    cell that is not three integers below ``_CELL_BOUND`` in magnitude; a path holding one is left out."""
    clean, refused = {}, []
    for aid in sorted(paths):
        cells = []
        for t, value in enumerate(paths[aid]):
            try:
                cell = as_cell(value, "cell")
            except ValueError:
                cell = None
            if cell is None or max(map(abs, cell)) >= _CELL_BOUND:
                detail = f"cell {value!r} at t={t} is not an [i, j, k] triple of integers below 2**62 in magnitude"
                refused.append(Violation("malformed-cell", aid, t, detail))
            else:
                cells.append(cell)
        if len(cells) == len(paths[aid]):
            clean[aid] = cells
    return clean, refused


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Per row of a 2-D array: whether it holds some value twice."""
    return (np.diff(np.sort(rows, axis=1), axis=1) == 0).any(axis=1)


def _conflicts(plan: _PlanArray) -> list[Conflict]:
    """``detect_conflicts`` of a ``_PlanArray``.

    Each cell gets an id (its offset in the paths' bounding box, or its rank
    when the box is too big to square), and each move the id of its
    unordered cell pair. A row whose cell ids or move ids repeat may hold a
    conflict; ``step_conflicts`` is run on those rows alone. A row with a
    vertex conflict is run again at every timestep it holds.
    """
    ids, times, coords = plan.ids, plan.times, plan.coords
    if len(ids) < 2:
        return []
    lo = [int(c.min()) for c in coords]
    span = [int(c.max()) - low + 1 for c, low in zip(coords, lo)]
    size = span[0] * span[1] * span[2]
    if size < 2**31:
        i, j, k = (c - low for c, low in zip(coords, lo))
        flat = i + span[0] * (j + span[1] * k)
    else:
        _, flat = np.unique(coords.reshape(3, -1), axis=1, return_inverse=True)
        flat = flat.reshape(coords.shape[1:])
        size = int(flat.max()) + 1
    vertex = _repeats(flat)
    a, b = flat[:-1], flat[1:]
    moves = np.where(a != b, np.minimum(a, b) * size + np.maximum(a, b), -1 - np.arange(len(ids)))
    swap = np.concatenate(([False], _repeats(moves)))
    out = []
    ends = times[1:] + [plan.horizon]
    for d in np.flatnonzero(vertex | swap).tolist():
        cur = dict(zip(ids, map(tuple, coords[:, d].T.tolist())))
        prev = dict(zip(ids, map(tuple, coords[:, d - 1].T.tolist()))) if d else cur
        out.extend(step_conflicts(prev, cur, times[d]))
        if vertex[d]:
            for t in range(times[d] + 1, ends[d]):
                out.extend(step_conflicts(cur, cur, t))
    out.sort(key=lambda c: c.sort_key)
    return out


def detect_conflicts(paths: dict) -> list[Conflict]:
    """Every vertex and edge conflict among the paths, canonically ordered.

    Paths are a mapping agent id -> cell sequence; an empty path is left
    out. Agents whose path has ended are treated as parked on their final
    cell. The scan runs through the longest path; output is sorted by
    (time, lower agent id, vertex before edge). A cell that is not three
    integers below 2**62 in magnitude is a ValueError.
    """
    if len(paths) < 2:
        return []
    plan = _plan_array(paths)
    if plan is None:
        paths, refused = _read_cells(paths)
        if refused:
            raise ValueError(refused[0].detail)
        plan = _plan_array(paths)
    return _conflicts(plan)


@dataclass(frozen=True)
class Violation:
    kind: str
    agent: int | None
    time: int | None
    detail: str


def validate_solution(grid, agents, paths: dict) -> list[Violation]:
    """Check every path invariant plus conflict-freedom.

    The returned list is the single source of truth for benchmark success:
    a solution is valid exactly when it is empty. Missing paths come first,
    then each path's faults by agent id, then the conflicts among the
    paths whose cells could be read.
    """
    by_id = {a.id: a for a in agents}
    out = [Violation("missing-path", a.id, None, f"agent {a.id} has no path") for a in agents if a.id not in paths]
    found = []  # (agent, place within the agent's faults, violation)
    for aid, cells in paths.items():
        if aid not in by_id:
            found.append((aid, (0, -1), Violation("unknown-agent", aid, None, f"path for unknown agent {aid}")))
        elif not len(cells):
            found.append((aid, (0, -1), Violation("empty-path", aid, None, f"agent {aid} path is empty")))
    plan = _plan_array(paths, screened=True) if _plain(list(paths.values())) else None
    if plan is None:
        clean, refused = _read_cells(paths)
        found += [(v.agent, (0, v.time), v) for v in refused]
        plan = _plan_array(clean)
    found += _path_faults(grid, by_id, plan)
    found.sort(key=lambda f: f[:2])
    out += [v for _, _, v in found]
    for c in _conflicts(plan):
        a, b = c.agents
        out.append(Violation(f"{c.kind}-conflict", a, c.time, f"agents {a} and {b} collide at t={c.time} on {c.cells}"))
    return out


def _path_faults(grid, by_id, plan: _PlanArray) -> list:
    """The start, goal, cell and move faults of each known agent's path, as
    (agent, place, violation); places sort starts, goals, cells by time, moves by time."""
    ids, lens, times, coords = plan.ids, plan.lens, plan.times, plan.coords
    out = []
    last_row = np.searchsorted(times, lens - 1, side="right") - 1
    firsts = coords[:, 0].T.tolist() if times else []
    lasts = coords[:, last_row, np.arange(len(ids))].T.tolist()
    for aid, n, first, last in zip(ids, lens.tolist(), firsts, lasts):
        agent = by_id.get(aid)
        if agent is None:
            continue
        if tuple(first) != agent.start:
            out.append((aid, (1,), Violation("start-mismatch", aid, 0, f"path starts at {tuple(first)}, agent starts at {agent.start}")))
        if tuple(last) != agent.goal:
            out.append((aid, (2,), Violation("goal-mismatch", aid, n - 1, f"path ends at {tuple(last)}, goal is {agent.goal}")))
    known = np.array([aid in by_id for aid in ids], dtype=bool)
    ground = np.array([aid in by_id and by_id[aid].kind == AGV for aid in ids], dtype=bool)
    held = known & (np.array(times)[:, None] < lens)  # a row's cell lies on the path, not on its parked tail
    outside = held & (coords.view(np.uint64) >= np.array(grid.dims, dtype=np.uint64)[:, None, None]).any(axis=0)
    inside = held & ~outside
    occupied = inside & (grid.cells[np.ravel_multi_index(coords, grid.dims, mode="clip", order="F")] != 0)
    lifted = inside & ground & (coords[2] != 0)
    ends = times[1:] + [plan.horizon]
    for d, p in zip(*np.nonzero(outside | occupied | lifted)):
        aid, cell = ids[p], plan.cell(d, p)
        for t in range(times[d], min(ends[d], lens[p])):
            if outside[d, p]:
                out.append((aid, (3, t, 0), Violation("out-of-bounds", aid, t, f"cell {cell} at t={t} is out of bounds")))
            if occupied[d, p]:
                out.append((aid, (3, t, 1), Violation("occupied-cell", aid, t, f"cell {cell} at t={t} is an obstacle")))
            if lifted[d, p]:
                out.append((aid, (3, t, 2), Violation("kinematic", aid, t, f"ground agent at {cell} above layer 0 at t={t}")))
    # a move is checked against the 6-connected superset; an AGV's planar limit surfaces as "kinematic"
    illegal = known & (np.minimum(np.abs(np.diff(coords, axis=1)), 2).sum(axis=0) > 1)
    for d, p in zip(*np.nonzero(illegal)):
        aid, t = ids[p], times[d + 1]
        out.append((aid, (4, t), Violation("illegal-move", aid, t, f"move {plan.cell(d, p)} -> {plan.cell(d + 1, p)} at t={t} is not a unit step")))
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
