"""Simulation wrapper (init/step/reset), plan execution, and run metrics.

One Simulator instance drives one scenario, either replaying a precomputed
solution or querying an online policy every tick. Steps preserve
conflict-freedom by construction. Online steps re-check it defensively (a
violation means a shield bug and raises); precomputed ticks read the joint
rows ``init`` kept of the plan it validated. An online step that moves
nobody is not re-checked: tick 0 passed ``validate_agents``, and every
later state was checked or repeats a checked one. The policy is asked every
tick; a Simulator keeps the proposals of its last tick when that tick moved
nobody, and a tick that proposes the same again moves nobody either,
without the legality check or the shield. The policy module keeps no state.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import chain, compress, count
from operator import eq, getitem, ne
from operator import index as as_index
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation, ParseError, ScenarioError, solve_error
from .mapf import (
    Solution,
    _joint_rows,
    as_cell,
    as_finite,
    as_int,
    as_origin,
    as_positive,
    detect_conflicts,
    make_solution,
    path_cost,
    step_conflicts,
    validate_agents,
    validate_solution,
)
from .policy import WorldView, get_policy, online_policy_step
from .solvers import ONLINE, SolverConfig, SolveStats, solve

EN_ROUTE = "en-route"
AT_GOAL = "at-goal"
FAILED = "failed"

PRECOMPUTED_MODE = "precomputed-plan"
ONLINE_MODE = "online-policy"

DEFAULT_CELL_DURATION = 1.0  # seconds per step: 1 m cells at 1 m/s, presentational only


@dataclass(frozen=True)
class SimState:
    tick: int
    cells: dict
    status: dict
    mode: str

    @cached_property
    def all_at_goal(self) -> bool:
        """Worked out on first use and kept: ``run`` and ``step`` both ask it of each state."""
        return all(map(AT_GOAL.__eq__, self.status.values()))


@dataclass(frozen=True)
class RunRecord:
    """Everything a finished (or budget-exhausted) run left behind."""

    grid: object
    agents: tuple
    mode: str
    computation_time: float
    states: tuple
    solution: Solution | None
    budget: int

    def trajectories(self) -> dict:
        """Each agent's cell at every tick, ``{id: (cell at tick 0, ...)}``, agents in roster order.

        Worked out from ``states`` on every call and never kept, so a record
        holds no second copy of its run.
        """
        ids = [a.id for a in self.agents]
        return dict(zip(ids, zip(*(tuple(map(s.cells.__getitem__, ids)) for s in self.states))))


@dataclass(frozen=True)
class RunMetrics:
    computation_time: float
    success_rate: float
    makespan: int
    sum_of_costs: int


def _with_tuple_cells(solution: Solution) -> Solution:
    """A validated plan as the replay keeps its rows, every path a tuple of cell tuples:
    ``solution`` itself when it is one already, else a copy with its sequences made tuples."""
    paths = list(solution.paths.values())
    if set(map(type, paths)) | set(map(type, chain.from_iterable(paths))) <= {tuple}:
        return solution  # numpy-int coordinates hash and compare as the ints they hold
    return replace(solution, paths={aid: tuple(map(tuple, cells)) for aid, cells in solution.paths.items()})


def grid_diameter(grid) -> int:
    nx, ny, nz = grid.dims
    return (nx - 1) + (ny - 1) + (nz - 1)


class Simulator:
    """Unified stepping interface over precomputed plans and online policies."""

    def __init__(self):
        self._grid = None
        self._agents = ()
        self._solution = None
        self._arrivals = None
        self._replay = None  # the validated plan's ids and joint rows, which precomputed ticks read
        self._stats = None
        self._policy = None
        self._computation_time = 0.0
        self._policy_time = 0.0
        self._stalled = None  # the last tick's proposals, when that tick moved nobody
        self._states = []

    # -- lifecycle ---------------------------------------------------------

    def init(self, scenario, config: SolverConfig | None = None, solution: Solution | None = None) -> SimState:
        """Load the scenario, check its roster, run the solver (timed) or load the policy, tick 0.

        ``scenario.grid`` may be a file path, an inline spec or an already
        loaded grid. The roster, ordered by id, is checked once: by
        ``solve()`` when init plans, here otherwise; an invalid one is a
        ``ScenarioError`` naming its ``validate_agents`` problems. An
        externally supplied ``solution`` (a replayed plan file) is replayed
        whatever ``config.algorithm`` says: it skips the solver and the
        policy but is still validated before it is trusted, its
        ``sum_of_costs`` and ``makespan`` must be those of its paths (else a
        ``ScenarioError``), and it is replayed with tuple cells whatever
        sequences it holds. On a failed
        solve ``computation_time`` and ``stats`` hold the time and the
        search effort spent. A refused init keeps nothing of the last scenario.
        """
        self.__init__()
        config = config or scenario.solver or SolverConfig()
        grid = scenario.materialize_grid()
        roster = tuple(sorted(scenario.agents, key=lambda a: a.id))
        planned = solution is None and config.algorithm != ONLINE
        if planned:
            result = solve(grid, roster, config)  # checks the roster before anything is kept
        elif problems := validate_agents(grid, roster):
            raise ScenarioError("invalid instance:\n  " + "\n  ".join(problems))
        self._grid = grid
        self._agents = roster
        if planned:
            self._computation_time = result.stats.wall_time
            self._stats = result.stats
            if not result.ok:
                raise solve_error(result.status, f"{config.algorithm}: {result.reason}")
            solution = result.solution
        if solution is None:
            t0 = time.perf_counter()
            self._policy = get_policy(config.online_policy)
            self._computation_time = time.perf_counter() - t0
            mode = ONLINE_MODE
        else:
            violations = validate_solution(grid, roster, solution.paths)
            if violations:
                detail = "; ".join(v.detail for v in violations[:5])
                if not planned:
                    raise ScenarioError(f"supplied plan fails validation: {detail}")
                raise InvariantViolation(f"solver produced an invalid solution: {detail}")
            solution = solution if planned else _with_tuple_cells(solution)
            arrivals = {aid: path_cost(cells) for aid, cells in solution.paths.items()}
            costs = (sum(arrivals.values()), max(arrivals.values(), default=0))
            if not planned and (solution.sum_of_costs, solution.makespan) != costs:  # the replay runs for makespan ticks
                raise ScenarioError(
                    f"supplied plan says sum_of_costs={solution.sum_of_costs} makespan={solution.makespan}, "
                    f"its paths give sum_of_costs={costs[0]} makespan={costs[1]}"
                )
            self._solution = solution
            self._arrivals = arrivals
            self._replay = _joint_rows(solution.paths)[::2]  # ids and rows of the tuple-cell paths just validated
            mode = PRECOMPUTED_MODE
        return self._rewind(mode)

    def _rewind(self, mode) -> SimState:
        self._policy_time = 0.0
        self._stalled = None
        cells = {a.id: a.start for a in self._agents}
        self._states = [SimState(0, cells, self._statuses(cells, 0, mode), mode)]
        return self.state

    def _statuses(self, cells, tick, mode) -> dict:
        """At goal from a replayed path's arrival tick (worked out once, in init); online, while on the goal."""
        if mode == PRECOMPUTED_MODE:
            arrivals = self._arrivals
            return {a.id: AT_GOAL if tick >= arrivals[a.id] else EN_ROUTE for a in self._agents}
        return {a.id: AT_GOAL if cells[a.id] == a.goal else EN_ROUTE for a in self._agents}

    @property
    def state(self) -> SimState:
        """The last tick; before init, or after a failed solve, there is none and this raises ``ScenarioError``."""
        if not self._states:
            raise ScenarioError("no tick 0: init has not run, or its solve failed")
        return self._states[-1]

    @property
    def grid(self):
        return self._grid

    @property
    def computation_time(self) -> float:
        """Seconds spent deciding moves: the solve, or in online mode loading
        the policy plus every tick's policy step since the last init or reset."""
        return self._computation_time + self._policy_time

    @property
    def solution(self) -> Solution | None:
        """The validated plan being replayed, every path a tuple of cell tuples; None in online mode."""
        return self._solution

    @property
    def stats(self) -> SolveStats | None:
        """The solver's search effort; None when nothing was solved (online mode or a supplied plan)."""
        return self._stats

    def step(self) -> SimState:
        """Advance one tick; a state with everyone at goal is a fixpoint no-op. Only online ticks are re-checked."""
        cur = self.state
        if cur.all_at_goal:
            return cur
        tick = cur.tick + 1
        if cur.mode == PRECOMPUTED_MODE:  # the row init kept of the plan it validated; a replay ends by the last row
            ids, rows = self._replay
            nxt = dict(zip(ids, rows[tick]))
            status = self._statuses(nxt, tick, cur.mode)
        else:
            view = WorldView(self._grid, self._agents, cur.cells)
            t0 = time.perf_counter()
            proposals = self._policy.propose(view)
            try:
                stalled = proposals == self._stalled
            except ValueError:  # numpy values refuse to be truth-tested: computed
                stalled = False
            if stalled:  # the same question as a tick that moved nobody, on the same cells
                nxt = dict(cur.cells)
            else:
                nxt = online_policy_step(view, proposals)
                kept = nxt == cur.cells and all(type(p) is tuple for p in proposals.values())
                self._stalled = dict(proposals) if kept else None  # a copy: the policy may reuse its dict
            self._policy_time += time.perf_counter() - t0
            if nxt != cur.cells:
                conflicts = step_conflicts(cur.cells, nxt, tick)
                if conflicts:
                    c = min(conflicts, key=lambda c: c.sort_key)
                    raise InvariantViolation(f"agents {c.agents[0]} and {c.agents[1]} collide at tick {c.time} on {c.cells}")
                status = self._statuses(nxt, tick, cur.mode)
            elif FAILED not in cur.status.values():
                status = dict(cur.status)  # nobody moved, and online statuses depend on cells alone (not a run's FAILED marks)
            else:
                status = self._statuses(nxt, tick, cur.mode)
        state = SimState(tick, nxt, status, cur.mode)
        self._states.append(state)
        return state

    def reset(self) -> SimState:
        """Tick 0 with the same plan or policy; a new scenario or config goes through ``init``."""
        return self._rewind(self.state.mode)

    def run(self, max_ticks: int | None = None) -> RunRecord:
        """Step to completion (precomputed) or until the tick budget runs out.

        ``max_ticks`` must be ``None`` (the mode's default budget) or an integer >= 0.
        """
        if max_ticks is None:
            budget = self._solution.makespan if self.state.mode == PRECOMPUTED_MODE else 4 * grid_diameter(self._grid)
        elif (budget := as_int(max_ticks, "max_ticks")) < 0:
            raise ValueError(f"max_ticks must be >= 0, got {max_ticks}")
        while not self.state.all_at_goal and self.state.tick < budget:
            self.step()
        if not self.state.all_at_goal:
            final = self.state
            status = {aid: (s if s == AT_GOAL else FAILED) for aid, s in final.status.items()}
            self._states[-1] = SimState(final.tick, final.cells, status, final.mode)
        return RunRecord(
            grid=self._grid,
            agents=self._agents,
            mode=self.state.mode,
            computation_time=self.computation_time,
            states=tuple(self._states),
            solution=self._solution,
            budget=budget,
        )


# -- metrics -------------------------------------------------------------


def collect_metrics(record: RunRecord) -> RunMetrics:
    """The four headline numbers, recomputed from the record, never trusted.

    Success needs conflict-freedom for the whole run plus arrival within the
    tick budget; for precomputed runs the stored solution is re-validated as
    the authoritative check.
    """
    agents = record.agents
    trajectories = record.trajectories()
    flagged = set()
    if record.mode == PRECOMPUTED_MODE:
        for v in validate_solution(record.grid, agents, record.solution.paths):
            if v.agent is not None:
                flagged.add(v.agent)
    for c in detect_conflicts(trajectories):
        flagged.update(c.agents)

    arrivals = {}
    for a in agents:
        traj = trajectories[a.id]
        arrivals[a.id] = path_cost(traj) if traj[-1] == a.goal else None

    successes = sum(1 for a in agents if arrivals[a.id] is not None and a.id not in flagged)
    costs = {
        aid: (len(trajectories[aid]) - 1 if t is None else t) for aid, t in arrivals.items()
    }
    return RunMetrics(
        computation_time=record.computation_time,
        success_rate=successes / len(agents) if agents else 1.0,
        makespan=max(costs.values(), default=0),
        sum_of_costs=sum(costs.values()),
    )


# -- plan execution ------------------------------------------------------


class WaypointCommand(NamedTuple):
    agent_id: int
    timestamp: float
    position: tuple[float, float, float]
    hold: bool


_row = partial(tuple.__new__, WaypointCommand)  # a row as namedtuple's ``_make`` builds it, without a Python frame
_HOLDS = (False, True)  # the hold table of a lowered or parsed log


def _encoded(column: tuple) -> tuple:
    """A column's table of distinct objects, first seen first, and the int32 code of each value in it."""
    table = dict(zip(map(id, column), column))  # the column keeps every object alive, so no id is reused
    code = dict(zip(table, count()))
    return tuple(table.values()), np.fromiter(map(code.__getitem__, map(id, column)), np.int32, len(column))


class WaypointLog(Sequence):
    """A waypoint stream held as four value tables and int codes, read as ``WaypointCommand`` rows.

    The tables hold the distinct agent ids, timestamps, positions and hold
    flags; each row is four int32 codes, one index into each table. The
    columns ``agent_ids``, ``timestamps``, ``positions`` and ``holds`` are
    tuples decoded each time they are read, never kept, and row ``i`` is
    built only when it is read (indexing or iteration), so a log holds no
    row objects. A slice is a log with tables of its own values. Built from
    four columns, a log keys each table on the objects themselves: one
    entry per distinct object, so equal values that print apart (``0.0``
    and ``-0.0``; ``1``, ``1.0`` and ``True``) stay apart. A log equals
    another log with equal rows, whatever order their tables are in, and
    any other sequence of equal rows, so ``log == ()`` and ``log ==
    tuple(rows)`` hold. It is unhashable, as a list is.
    """

    __slots__ = ("_tables", "_codes")
    __hash__ = None

    def __init__(self, agent_ids=(), timestamps=(), positions=(), holds=()):
        columns = tuple(map(tuple, (agent_ids, timestamps, positions, holds)))
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"waypoint columns differ in length: {[len(c) for c in columns]}")
        tables, codes = zip(*map(_encoded, columns))
        self._tables = tables
        self._codes = np.stack(codes, axis=1)

    @classmethod
    def _of(cls, tables, codes) -> WaypointLog:
        """A log of four tables and a ``(rows, 4)`` int32 array of codes into them."""
        log = cls.__new__(cls)
        log._tables = tables
        log._codes = codes
        return log

    def _column(self, field: int, rows=slice(None)):
        return map(self._tables[field].__getitem__, self._codes[rows, field].tolist())

    @property
    def agent_ids(self) -> tuple:
        return tuple(self._column(0))

    @property
    def timestamps(self) -> tuple:
        return tuple(self._column(1))

    @property
    def positions(self) -> tuple:
        return tuple(self._column(2))

    @property
    def holds(self) -> tuple:
        return tuple(self._column(3))

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            tables, codes = [], []
            for table, column in zip(self._tables, self._codes[index].T):
                used = np.zeros(len(table), bool)
                used[column] = True
                tables.append(tuple(compress(table, used.tolist())))
                codes.append((np.cumsum(used) - 1)[column])
            return WaypointLog._of(tuple(tables), np.stack(codes, axis=1, dtype=np.int32))
        return _row(tuple(map(getitem, self._tables, self._codes[as_index(index)].tolist())))

    def __iter__(self):
        for start in range(0, len(self), _WAYPOINT_SLICE):
            rows = slice(start, start + _WAYPOINT_SLICE)
            yield from map(_row, zip(*(self._column(field, rows) for field in range(4))))

    def __eq__(self, other):
        if isinstance(other, WaypointLog):
            return len(self) == len(other) and all(self._same_rows(other, start) for start in range(0, len(self), _WAYPOINT_SLICE))
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def _same_rows(self, other: WaypointLog, start: int) -> bool:
        """Whether the ``_WAYPOINT_SLICE`` rows from ``start`` on are equal in both logs.

        Each distinct pair of codes in a column is compared once, as a list
        compares its items: the same object, or equal values.
        """
        rows = slice(start, start + _WAYPOINT_SLICE)
        for mine, codes, theirs, their_codes in zip(self._tables, self._codes[rows].T, other._tables, other._codes[rows].T):
            pairs = np.sort(codes.astype(np.int64) * len(theirs) + their_codes)
            ours, others = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], len(theirs))
            if list(map(mine.__getitem__, ours.tolist())) != list(map(theirs.__getitem__, others.tolist())):
                return False
        return True

    def __repr__(self) -> str:
        return f"<WaypointLog of {len(self)} rows>"


def execute_plan(solution: Solution, cell_duration: float, resolution: float, origin) -> WaypointLog:
    """Lower a discrete solution to a merged, timestamped waypoint stream.

    One command per agent per path index: timestamp = index * cell_duration,
    position at the cell center, hold set when the cell repeats the previous
    one. Rows run in stream order, timestep by timestep and agents in id
    order, so the log is in (timestamp, agent id) order. Its tables hold
    one agent id per non-empty path, one timestamp per step and one
    position per distinct cell, worked out from the first of the equal
    cells in the stream. The codes are filled from ``mapf._joint_rows``:
    only the rows marked fresh are compared cell by cell, and only the cells
    where a path moves are looked up, so a frozen fleet's repeated cells are
    never read. ``cell_duration`` and ``resolution`` must be positive and
    finite, ``origin`` three finite values, and so must the last timestamp
    and every position be.
    """
    as_positive(cell_duration, "cell_duration")
    ox, oy, oz = as_origin(origin)
    resolution = as_positive(resolution, "resolution")
    ids, lens, rows, fresh = _joint_rows(solution.paths)
    steps = len(rows)
    if not math.isfinite((steps - 1) * cell_duration):
        raise ValueError(f"cell_duration {cell_duration!r} makes the last timestamp, at step {steps - 1}, overflow")
    moved = np.zeros((steps, len(ids)), bool)  # where a path's cell differs from the one before it
    for t in compress(range(steps), fresh):
        moved[t] = np.fromiter(map(ne, rows[t], rows[t - 1]), bool, len(ids)) if t else True
    starts = list(compress(chain.from_iterable(rows), moved.ravel().tolist()))  # the cells moved to, in stream order
    code = dict(zip(dict.fromkeys(starts), count()))  # equal cells share the code of the first in the stream
    places = tuple((ox + (i + 0.5) * resolution, oy + (j + 0.5) * resolution, oz + (k + 0.5) * resolution) for i, j, k in code)
    if not all(map(math.isfinite, chain.from_iterable(places))):
        cell = next(c for c, place in zip(code, places) if not all(map(math.isfinite, place)))
        raise ValueError(f"resolution {resolution!r} and origin {origin!r} make the position of cell {cell} overflow")
    at = np.zeros(moved.shape, np.int32)  # each (step, path)'s position code
    at[moved] = np.fromiter(map(code.__getitem__, starts), np.int32, len(starts))
    last = np.maximum.accumulate(np.where(moved, np.arange(steps)[:, None], 0), axis=0)  # the step of each path's last move
    at = at[last, np.arange(len(ids))]
    live = np.arange(steps)[:, None] < np.array(lens, np.int64)  # stream order is the C order of this (step, path) mask
    step, path = np.nonzero(live)
    tables = (tuple(ids), tuple(t * cell_duration for t in range(steps)), places, _HOLDS)
    return WaypointLog._of(tables, np.stack([path, step, at[live], ~moved[live]], axis=1, dtype=np.int32))


_WAYPOINT_HEADER = "agent_id,timestamp_s,x,y,z,hold"
_WAYPOINT_SLICE = 4096  # rows written, read, iterated or compared at a time, so none holds per-row objects for a whole log


def _gathered(rows) -> WaypointLog:
    """Rows as a log, each unpacked into its four fields, so a row of another length is a ``ValueError``."""
    ids, times, places, holds = [], [], [], []
    for aid, timestamp, pos, hold in rows:
        ids.append(aid)
        times.append(timestamp)
        places.append(pos)
        holds.append(hold)
    return WaypointLog(ids, times, places, holds)


def waypoints_to_bytes(commands) -> bytes:
    """The waypoint CSV: a header, then one row per command, numbers as ``repr``.

    ``commands`` is a ``WaypointLog``, or any iterable of rows, which is
    gathered into one first. Each table entry of the log is formatted once,
    with the separator or line end that follows it, into one array of
    pieces; each ``_WAYPOINT_SLICE`` of rows is then one join of the pieces
    its codes pick, gathered in C, encoded at once. Beside the result the
    writer holds one slice's text. An entry is one object, so it always
    prints alike.
    """
    log = commands if isinstance(commands, WaypointLog) else _gathered(commands)
    ids, stamps, places, holds = log._tables
    pieces = [f"{aid}," for aid in ids]
    pieces += [f"{timestamp!r}," for timestamp in stamps]
    pieces += [f"{x!r},{y!r},{z!r}," for x, y, z in places]
    pieces += ["true\n" if hold else "false\n" for hold in holds]
    pieces = np.array(pieces, dtype=object)
    offsets = np.cumsum([0, len(ids), len(stamps), len(places)])  # where each table's pieces start
    chunks = [f"{_WAYPOINT_HEADER}\n".encode("ascii")]
    for start in range(0, len(log), _WAYPOINT_SLICE):
        codes = log._codes[start : start + _WAYPOINT_SLICE] + offsets
        chunks.append("".join(pieces[codes.ravel()].tolist()).encode("ascii"))
    return b"".join(chunks)


def _lines(data: bytes):
    """The lines of ``data``, as ``data.splitlines()`` gives them, split a slice at a time.

    A slice is ``32 * _WAYPOINT_SLICE`` bytes, some 4096 rows of a log
    ``execute_plan`` lowers, and runs on to just after the next ``\\n``, so
    no CRLF line end is cut in two.
    """
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + 32 * _WAYPOINT_SLICE) + 1 or len(data)
        yield from data[start:end].splitlines()
        start = end


def waypoints_from_bytes(data: bytes) -> WaypointLog:
    """The waypoint log of the CSV; LF or CRLF line ends.

    Its tables are keyed on the raw field bytes: one int per distinct id
    text, one float per distinct timestamp text and one position tuple per
    distinct ``x,y,z`` text (equal bytes parse to equal values, and ``-0.0``
    and ``0.0`` stay apart), each first seen first. Lines are split a slice
    at a time and their codes go straight into one growing C array, which
    the log then reads without a copy, so beside the log the reader holds
    one slice's lines. A row's fields are read in column order, so its
    first bad field names the error.
    """
    lines = _lines(data)
    if next(lines, None) != _WAYPOINT_HEADER.encode("ascii"):
        raise ParseError(f"waypoint CSV must start with header {_WAYPOINT_HEADER!r}")
    ids, times, places = {}, {}, {}  # raw field bytes -> code
    id_table, time_table, place_table = [], [], []
    codes = array("i")  # four C ints per row
    push = codes.append
    for n, line in enumerate(lines, start=2):
        fields = line.split(b",")
        if len(fields) != 6:
            raise ParseError(f"waypoint row {n} has {len(fields)} columns, expected 6")
        aid, timestamp, x, y, z, hold = fields
        if hold not in (b"true", b"false"):
            raise ParseError(f"waypoint row {n} hold flag must be true or false")
        try:  # int() and float() read bytes as ASCII only, so a non-ASCII byte fails here too
            who = ids.get(aid)
            if who is None:
                id_table.append(int(aid))
                ids[aid] = who = len(ids)
            when = times.get(timestamp)
            if when is None:
                time_table.append(float(timestamp))
                times[timestamp] = when = len(times)
            key = (x, y, z)
            where = places.get(key)
            if where is None:
                place_table.append((float(x), float(y), float(z)))
                places[key] = where = len(places)
        except ValueError as exc:
            raise ParseError(f"waypoint row {n}: {exc}") from None
        push(who)
        push(when)
        push(where)
        push(hold == b"true")  # the hold's code in _HOLDS
    tables = (tuple(id_table), tuple(time_table), tuple(place_table), _HOLDS)
    return WaypointLog._of(tables, np.frombuffer(codes, np.intc).reshape(-1, 4))


# -- plan files ----------------------------------------------------------


@dataclass(frozen=True)
class PlanFile:
    paths: dict
    kinds: dict
    sum_of_costs: int
    makespan: int
    computation_time_s: float

    @property
    def solution(self) -> Solution:
        return make_solution(self.paths)


def _plan_time(value) -> float:
    if (seconds := as_finite(value, "computation_time_s")) < 0:  # a finite real number >= 0
        raise ValueError(f"computation_time_s must be >= 0, got {value!r}")
    return seconds


def plan_to_bytes(solution: Solution, agents, computation_time: float) -> bytes:
    """The plan file: ``json.dumps(payload, indent=2, sort_keys=True)`` and a line end, laid out by hand.

    json's C encoder writes each scalar; json's indenting encoder, which
    runs in pure Python, writes only cells that are not three exact ints.
    Each distinct cell's block is written once. Only cells of exact ints
    are looked up by value: ``(True, 2, 0) == (1, 2, 0)``, but json prints
    them apart, and a numpy int must still raise ``TypeError``.
    """
    computation_time = _plan_time(computation_time)
    kinds = {a.id: a.kind for a in agents}
    if missing := set(solution.paths) - set(kinds):
        raise ValueError(f"agent {min(missing)} of the plan has no kind: it is not among the agents")
    dumps = json.dumps
    blocks = {}  # a tuple of three exact ints -> its block
    entries = []
    for aid in sorted(solution.paths):
        head = f'    {{\n      "id": {dumps(aid)},\n      "kind": {dumps(kinds[aid])},\n      "path": '
        lines = []
        for cell in solution.paths[aid]:
            if type(cell) is tuple and len(cell) == 3 and type(cell[0]) is type(cell[1]) is type(cell[2]) is int:
                block = blocks.get(cell)
                if block is None:
                    i, j, k = cell
                    blocks[cell] = block = f"        [\n          {i},\n          {j},\n          {k}\n        ]"
            else:
                block = "        " + dumps(list(cell), indent=2).replace("\n", "\n        ")
            lines.append(block)
        path = "[\n" + ",\n".join(lines) + "\n      ]" if lines else "[]"
        entries.append(f"{head}{path}\n    }}")
    listed = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    return (
        f'{{\n  "agents": {listed},\n  "computation_time_s": {dumps(computation_time)},\n'
        f'  "makespan": {dumps(solution.makespan)},\n  "sum_of_costs": {dumps(solution.sum_of_costs)}\n}}\n'
    ).encode("ascii")


def plan_from_bytes(data: bytes) -> PlanFile:
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"plan is not valid JSON: {exc}") from None
    expected = {"agents", "sum_of_costs", "makespan", "computation_time_s"}
    if not isinstance(payload, dict) or set(payload) != expected:
        raise ParseError(f"plan must have exactly the keys {sorted(expected)}")
    paths = {}
    kinds = {}
    try:
        for n, entry in enumerate(payload["agents"]):
            if not isinstance(entry, dict) or set(entry) != {"id", "kind", "path"}:
                raise ParseError("plan agent entries must have exactly id, kind, path")
            aid = as_int(entry["id"], "id")
            path = tuple(as_cell(c, "path cell") for c in entry["path"])
            if not path:
                raise ParseError(f"plan agent #{n}: path must be a non-empty list of [i, j, k] cells")
            if aid in paths:
                raise ParseError(f"plan lists agent {aid} twice")
            paths[aid] = path
            kinds[aid] = entry["kind"]
        plan = PlanFile(
            paths=paths,
            kinds=kinds,
            sum_of_costs=as_int(payload["sum_of_costs"], "sum_of_costs"),
            makespan=as_int(payload["makespan"], "makespan"),
            computation_time_s=_plan_time(payload["computation_time_s"]),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad plan: {exc}") from None
    solution = plan.solution
    if (plan.sum_of_costs, plan.makespan) != (solution.sum_of_costs, solution.makespan):
        raise ParseError(
            f"plan says sum_of_costs={plan.sum_of_costs} makespan={plan.makespan}, "
            f"its paths give sum_of_costs={solution.sum_of_costs} makespan={solution.makespan}"
        )
    return plan


def write_plan(path, solution: Solution, agents, computation_time: float) -> None:
    Path(path).write_bytes(plan_to_bytes(solution, agents, computation_time))  # a refused plan opens no file


def read_plan(path) -> PlanFile:
    return plan_from_bytes(Path(path).read_bytes())
