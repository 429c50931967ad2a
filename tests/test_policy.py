import json
import random
import weakref
from collections import Counter
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

import skyrover.mapf
import skyrover.policy
import skyrover.sim
from skyrover import (
    AGV,
    UAV,
    Agent,
    GreedyShieldedPolicy,
    InvariantViolation,
    OccupancyGrid3D,
    Scenario,
    Simulator,
    SolverConfig,
    WorldView,
    empty_grid,
    generate_warehouse,
    get_policy,
    manhattan,
    online_policy_step,
    parse_roster,
    sample_agents,
    shield_moves,
    solve,
)

from skyrover.mapf import KINDS, MOVES, components
from skyrover.sim import grid_diameter
from skyrover.warehouse import warehouse_grid

from oracles import free_cells, pairwise_shield, random_grid, random_instance, table_policy_step


def _step(grid, agents, cells):
    return _policy_step(GreedyShieldedPolicy(), WorldView(grid, tuple(agents), dict(cells)))


def _config_ok(cells_before, cells_after):
    after = list(cells_after.values())
    if len(set(after)) != len(after):
        return False
    ids = sorted(cells_after)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            a, b = ids[x], ids[y]
            if (
                cells_after[a] == cells_before[b]
                and cells_after[b] == cells_before[a]
                and cells_before[a] != cells_before[b]
            ):
                return False
    return True


def test_single_agent_descends_distance_until_arrival():
    grid = empty_grid((6, 6, 3))
    agent = Agent(0, UAV, (0, 0, 0), (4, 5, 2))
    cells = {0: agent.start}
    dist = manhattan(agent.start, agent.goal)
    for _ in range(dist):
        cells = _step(grid, (agent,), cells)
        nd = manhattan(cells[0], agent.goal)
        assert nd == dist - 1
        dist = nd
    assert cells[0] == agent.goal
    assert _step(grid, (agent,), cells) == cells  # parked agents propose wait


def test_contended_cell_lower_id_enters():
    grid = empty_grid((3, 3, 1))
    agents = (Agent(0, AGV, (0, 0, 0), (1, 0, 0)), Agent(1, AGV, (2, 0, 0), (1, 0, 0)))
    # both propose (1,0,0); shield on ids 0 < 1
    moves = _step(grid, agents, {0: (0, 0, 0), 1: (2, 0, 0)})
    assert moves[0] == (1, 0, 0)
    assert moves[1] == (2, 0, 0)


def test_swapping_agent_ids_swaps_who_yields():
    grid = empty_grid((3, 3, 1))
    agents = (Agent(0, AGV, (2, 0, 0), (1, 0, 0)), Agent(1, AGV, (0, 0, 0), (1, 0, 0)))
    moves = _step(grid, agents, {0: (2, 0, 0), 1: (0, 0, 0)})
    assert moves[0] == (1, 0, 0)  # still the lower id that enters
    assert moves[1] == (0, 0, 0)


def test_mover_yields_to_waiting_agent():
    grid = empty_grid((3, 1, 1))
    # agent 0 already sits on its goal; agent 1 would need that cell
    agents = (Agent(0, AGV, (1, 0, 0), (1, 0, 0)), Agent(1, AGV, (0, 0, 0), (2, 0, 0)))
    moves = _step(grid, agents, {0: (1, 0, 0), 1: (0, 0, 0)})
    assert moves[0] == (1, 0, 0)
    assert moves[1] == (0, 0, 0)  # the mover waits even though its id is higher


def test_corridor_exhaustive_one_step_safety():
    """Every conflict-free 2-agent configuration in 1xNx1 corridors steps safely."""
    for n in range(2, 7):
        grid = empty_grid((1, n, 1))
        spots = [(0, y, 0) for y in range(n)]
        for start_a, start_b in permutations(spots, 2):
            for goal_a, goal_b in permutations(spots, 2):
                agents = (Agent(0, AGV, start_a, goal_a), Agent(1, AGV, start_b, goal_b))
                # reachable states are conflict-free states; sweep them all
                for cell_a, cell_b in permutations(spots, 2):
                    before = {0: cell_a, 1: cell_b}
                    after = _step(grid, agents, before)
                    assert _config_ok(before, after), (before, after, agents)


def test_random_steps_never_conflict():
    rng = random.Random(2024)
    checks = 0
    while checks < 1000:
        grid, agents = random_instance(rng, (10, 10, 3), 6, density=0.15)
        cells = {a.id: a.start for a in agents}
        for _ in range(10):
            after = _step(grid, agents, cells)
            assert _config_ok(cells, after)
            cells = after
            checks += 1


def _random_joint_move(rng):
    """Cells and proposed cells for a few agents on a tiny floor, so they contend.

    Ids are sparse and inserted in random order; one configuration in ten
    lets agents start on a shared cell.
    """
    nx, ny = rng.choice(((1, 4), (2, 3), (3, 3)))
    spots = [(i, j, 0) for i in range(nx) for j in range(ny)]
    n = rng.randrange(2, min(7, len(spots)) + 1)
    ids = rng.sample(range(20), n)
    if rng.random() < 0.1:
        cells = {a: rng.choice(spots) for a in ids}
    else:
        cells = dict(zip(ids, rng.sample(spots, n)))
    proposals = {}
    for a in rng.sample(ids, n):
        i, j, k = cells[a]
        options = [(i, j, k)] + [
            (i + di, j + dj, k) for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)) if (i + di, j + dj, k) in spots
        ]
        proposals[a] = rng.choice(options)
    return cells, proposals


def _outcome(shield, cells, proposals):
    try:
        return shield(cells, proposals)
    except InvariantViolation as exc:
        return ("raised", str(exc))


def test_shield_matches_pairwise_reference():
    rng = random.Random(77)
    seen = Counter()
    for _ in range(12_000):
        cells, proposals = _random_joint_move(rng)
        want = _outcome(pairwise_shield, cells, proposals)
        assert _outcome(shield_moves, cells, proposals) == want, (cells, proposals)
        movers = [a for a in proposals if proposals[a] != cells[a]]
        waiters = {cells[a] for a in proposals if proposals[a] == cells[a]}
        seen["raised"] += isinstance(want, tuple)
        seen["3-way contention"] += max(Counter(proposals[a] for a in movers).values(), default=0) >= 3
        seen["mover into waiter"] += any(proposals[a] in waiters for a in movers)
        seen["swap"] += any(proposals[a] == cells[b] and proposals[b] == cells[a] for a in movers for b in movers if a < b)
    assert all(seen[k] >= 100 for k in ("raised", "3-way contention", "mover into waiter", "swap")), seen


def _dense_joint_move(rng):
    """10-60 agents packed into a box with 1.1-2 cells per agent, proposing 6-connected steps.

    Long downgrade cascades and pairs that an earlier downgrade already
    resolved are common here. One configuration in five starts two agents
    on one cell.
    """
    n = rng.randrange(10, 61)
    nx, ny = rng.randrange(3, 9), rng.randrange(3, 9)
    nz = -(-int(n * rng.uniform(1.1, 2.0)) // (nx * ny))
    spots = {(i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)}
    ids = rng.sample(range(200), n)
    cells = dict(zip(ids, rng.sample(sorted(spots), n)))
    if rng.random() < 0.2:
        a, b = rng.sample(ids, 2)
        cells[b] = cells[a]
    steps = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    proposals = {}
    for a in rng.sample(ids, n):
        i, j, k = cells[a]
        options = [(i, j, k)] + [c for c in ((i + di, j + dj, k + dk) for di, dj, dk in steps) if c in spots]
        proposals[a] = rng.choice(options)
    return cells, proposals


def test_shield_matches_pairwise_reference_at_fleet_density():
    rng = random.Random(9)
    seen = Counter()
    for _ in range(500):
        cells, proposals = _dense_joint_move(rng)
        want = _outcome(pairwise_shield, cells, proposals)
        assert _outcome(shield_moves, cells, proposals) == want, (cells, proposals)
        if isinstance(want, tuple):
            seen["raised"] += 1
        else:
            seen["downgrades"] += sum(1 for a in proposals if want[a] != proposals[a])
    assert seen["downgrades"] >= 5000 and seen["raised"] >= 20, seen


@pytest.fixture
def computed(monkeypatch):
    """Counts the legality checks (``move_mask`` fetches) and shields ``online_policy_step`` runs: a stalled tick runs neither."""
    count = Counter()
    for name in ("move_mask", "shield_moves"):

        def counted(*args, _real=getattr(skyrover.policy, name), _name=name):
            count[_name] += 1
            return _real(*args)

        monkeypatch.setattr(skyrover.policy, name, counted)
    return count


def _answered(computed, call):
    """``call()`` and whether it was answered without a legality check or a shield."""
    before = computed.total()
    out = call()
    return out, computed.total() == before


def _policy_step(policy, view):
    return online_policy_step(view, policy.propose(view))


class _FixedPolicy:
    def __init__(self, proposals):
        self.proposals = proposals

    def propose(self, view):
        return self.proposals


class _ScriptedPolicy:
    """Proposes each of ``script`` in turn, one per tick."""

    def __init__(self, *script):
        self.script = iter(script)

    def propose(self, view):
        return next(self.script)


def _online(monkeypatch, policy, grid, agents):
    """A Simulator in online mode whose policy is ``policy``."""
    monkeypatch.setattr(skyrover.sim, "get_policy", lambda name: policy)
    sim = Simulator()
    sim.init(Scenario(grid=grid, agents=tuple(agents)), SolverConfig(algorithm="online"))
    return sim


def _stall():
    """AGVs on an open 3x3 floor whose proposals the shield turns into waits for all.

    0 walks into 1, which waits; 2 and 3 try to swap, so 3 waits and 2 then
    yields to it; 4 waits. Returns the grid, agents, cells and proposals.
    """
    cells = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 2, 0), 3: (1, 2, 0), 4: (2, 2, 0)}
    proposals = {0: (1, 0, 0), 1: (1, 0, 0), 2: (1, 2, 0), 3: (0, 2, 0), 4: (2, 2, 0)}
    goals = {0: (2, 0, 0), 1: (1, 1, 0), 2: (2, 1, 0), 3: (0, 1, 0), 4: (0, 0, 0)}
    agents = tuple(Agent(a, AGV, cell, goals[a]) for a, cell in cells.items())
    return empty_grid((3, 3, 1)), agents, cells, proposals


def test_stalled_online_runs_equal_a_shield_without_memo(monkeypatch, computed):
    """Greedy runs stepped by a Simulator equal a loop that computes every tick with the pairwise shield."""
    hits = stalls = 0
    counted_shield = skyrover.policy.shield_moves
    for seed in (1, 2, 3):
        grid, agents = generate_warehouse((24, 20, 4), 3, "4uav+12agv", seed=seed)
        monkeypatch.setattr(skyrover.policy, "shield_moves", counted_shield)
        sim = Simulator()
        sim.init(Scenario(grid=grid, agents=agents), SolverConfig(algorithm="online"))
        while not sim.state.all_at_goal and sim.state.tick < 4 * grid_diameter(grid):
            _, hit = _answered(computed, sim.step)
            hits += hit
        got = [s.cells for s in sim.run().states]
        monkeypatch.setattr(skyrover.policy, "shield_moves", pairwise_shield)
        policy = GreedyShieldedPolicy()
        want = [got[0]]
        for _ in got[1:]:
            want.append(_policy_step(policy, WorldView(grid, tuple(agents), want[-1])))
        assert got == want
        stalls += sum(a == b for a, b in zip(got, got[1:]))
    assert stalls >= 300 and hits >= 300, (stalls, hits)  # most ticks of these runs stall


def test_a_repeated_shield_call_returns_a_new_equal_dict(monkeypatch, computed):
    """A stalled tick's cells are a new dict equal to the last; proposals the policy edits in place are seen."""
    grid, agents, cells, proposals = _stall()
    sim = _online(monkeypatch, _FixedPolicy(proposals), grid, agents)
    first, hit = _answered(computed, sim.step)
    assert not hit and first.cells == cells  # computed: the shield turned every move into a wait
    again, hit = _answered(computed, sim.step)
    assert hit
    assert again.cells == first.cells and again.cells is not first.cells
    proposals[1] = (1, 1, 0)  # the same dict, edited: 1 leaves, so 0 may enter its cell
    moved, hit = _answered(computed, sim.step)
    assert not hit
    assert moved.cells == online_policy_step(WorldView(grid, agents, cells), proposals) != cells


def test_a_repeated_shield_call_keeps_the_callers_key_order(monkeypatch, computed):
    grid, agents, cells, proposals = _stall()
    sim = _online(monkeypatch, _FixedPolicy(dict(reversed(proposals.items()))), grid, reversed(agents))
    first = sim.step()
    again, hit = _answered(computed, sim.step)
    assert hit
    assert list(again.cells) == list(first.cells) == sorted(cells) and again.cells == first.cells  # agents order


def test_a_changed_cell_or_proposal_gets_computed_moves(monkeypatch, computed):
    """Only a tick after one that moved nobody, proposing that tick's proposals again, skips the computation."""
    grid, agents, cells, proposals = _stall()
    changed = proposals | {4: (2, 1, 0)}  # 4 moves now
    policy = _ScriptedPolicy(proposals, dict(proposals), changed, changed, changed, changed)
    sim = _online(monkeypatch, policy, grid, agents)
    answered = []
    for _ in range(6):
        state, hit = _answered(computed, sim.step)
        answered.append((hit, state.cells == cells))
    assert answered == [
        (False, True),  # computed: everyone waits
        (True, True),  # a new dict with the same proposals: nobody moves
        (False, False),  # a stateful policy changed its proposals on a stalled tick: 4 moves
        (False, False),  # the same proposals, but the last tick moved: computed, 4 waits on its new cell
        (True, False),
        (True, False),
    ]
    assert sim.state.cells == cells | {4: (2, 1, 0)}


def test_an_agents_list_changed_in_place_gets_fresh_moves_and_proposals():
    """The step keeps nothing, and a greedy policy keeps its per-agent tables only for an agents tuple."""
    grid = empty_grid((2, 1, 2))
    agents = [Agent(0, UAV, (0, 0, 0), (0, 0, 1))]
    view = WorldView(grid, agents, {0: (0, 0, 0)})
    climb = {0: (0, 0, 1)}
    assert online_policy_step(view, climb) == {0: (0, 0, 1)}
    agents[0] = replace(agents[0], kind=AGV)  # a ground agent cannot climb
    assert online_policy_step(view, climb) == {0: (0, 0, 0)}
    greedy = GreedyShieldedPolicy()
    assert greedy.propose(view) == {0: (0, 0, 0)}  # no legal move nearer its goal
    agents[0] = replace(agents[0], goal=(1, 0, 0))
    assert greedy.propose(view) == {0: (1, 0, 0)}


def test_a_colliding_move_raises_on_every_repeat(computed):
    cells = {0: (0, 0, 0), 1: (0, 0, 0), 2: (1, 0, 0)}
    proposals = {0: (0, 0, 0), 1: (0, 0, 0), 2: (2, 0, 0)}
    agents = tuple(Agent(a, AGV, cell, (2, 0, 0)) for a, cell in cells.items())
    view = WorldView(empty_grid((3, 1, 1)), agents, cells)
    for _ in range(3):
        before = computed["shield_moves"]
        with pytest.raises(InvariantViolation, match="already share cell"):
            online_policy_step(view, proposals)
        assert computed["shield_moves"] == before + 1  # computed each time
        with pytest.raises(InvariantViolation, match="already share cell"):
            shield_moves(cells, proposals)


def test_alternating_shield_calls_are_each_answered():
    rng = random.Random(19)
    pairs = []
    while len(pairs) < 2:
        cells, proposals = _dense_joint_move(rng)
        want = _outcome(pairwise_shield, cells, proposals)
        if not isinstance(want, tuple) and want != proposals:
            pairs.append((cells, proposals, want))
    for _ in range(5):
        for cells, proposals, want in pairs:
            assert shield_moves(cells, proposals) == want


def test_two_simulators_stepped_in_turn_each_run_as_alone(computed):
    """Each Simulator keeps its own stalled tick, so interleaving them costs no extra shield."""
    grid, agents = generate_warehouse((24, 20, 4), 3, "4uav+12agv", seed=1)
    budget = 4 * grid_diameter(grid)

    def started():
        sim = Simulator()
        sim.init(Scenario(grid=grid, agents=agents), SolverConfig(algorithm="online"))
        return sim

    alone = []
    for _ in range(2):
        sim = started()
        alone.append(sim.run(max_ticks=budget).states)
    solo_shields = computed["shield_moves"]
    sims = [started(), started()]
    for _ in range(budget):
        for sim in sims:
            sim.step()
    assert [sim.run(max_ticks=budget).states for sim in sims] == alone
    assert computed["shield_moves"] - solo_shields == solo_shields  # 72 on this world, where a shared memo cost 360


def test_the_first_tick_after_reset_is_computed(monkeypatch, computed):
    grid, agents, cells, proposals = _stall()
    sim = _online(monkeypatch, _FixedPolicy(proposals), grid, agents)
    hits = [_answered(computed, sim.step)[1] for _ in range(3)]
    sim.reset()
    hits += [_answered(computed, sim.step)[1] for _ in range(2)]
    assert hits == [False, True, True, False, True]


def test_an_unhashable_proposal_fails_as_without_the_memo(monkeypatch, computed):
    """The shield still fails on an array; a stalled tick's proposals cannot be compared with one, so it is computed."""
    grid, agents, cells, proposals = _stall()
    with pytest.raises(TypeError, match="unhashable"):
        shield_moves(cells, proposals | {0: np.array([1, 0, 0])})
    foreign = np.array([1, 0, 0])  # equal to the kept (1, 0, 0), but never kept itself
    script = [
        proposals,  # everyone waits, and these are kept
        proposals | {0: foreign},  # cannot be compared with the kept tuple
        proposals,  # nothing was kept after an array
        proposals | {0: [1, 0, 0]},  # a list is not equal to a tuple
        proposals | {0: foreign},  # edited below: now 0 steps aside
    ]
    sim = _online(monkeypatch, _ScriptedPolicy(*script), grid, agents)
    hits = []
    for proposed in script:
        if proposed is script[-1]:
            foreign[:] = (0, 1, 0)
        before = sim.state.cells
        state, hit = _answered(computed, sim.step)
        hits.append(hit)
        assert state.cells == online_policy_step(WorldView(grid, agents, before), proposed)
    assert hits == [False] * len(script)
    assert sim.state.cells == cells | {0: (0, 1, 0)}


def test_illegal_proposals_degrade_to_waits():
    cells = np.zeros(4 * 3 * 2, dtype=np.uint8)
    cells[empty_grid((4, 3, 2)).index(2, 1, 0)] = 1
    grid = OccupancyGrid3D((0, 0, 0), 1.0, (4, 3, 2), cells)
    agents = (
        Agent(0, UAV, (0, 0, 0), (3, 2, 1)),
        Agent(1, UAV, (1, 1, 0), (3, 2, 1)),
        Agent(2, UAV, (3, 2, 1), (0, 0, 0)),
        Agent(3, AGV, (0, 2, 0), (3, 2, 0)),
        Agent(4, UAV, (3, 0, 0), (3, 0, 1)),
    )
    at = {a.id: a.start for a in agents}
    proposals = {
        0: (-1, 0, 0),  # out of bounds
        1: (2, 1, 0),  # into the obstacle
        2: (1, 2, 1),  # two cells away
        3: (0, 2, 1),  # a ground agent leaving layer 0
        4: (3, 0, 1),  # legal
    }
    moves = online_policy_step(WorldView(grid, agents, dict(at)), proposals)
    assert moves == at | {4: (3, 0, 1)}


def _hostile_proposals(rng, cell):
    """Proposals near ``cell``: its moves and jumps in many shapes, and values that are not cells at all."""
    i, j, k = cell
    d = rng.choice([(1, 0, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (0, 0, 0), (1, 1, 0), (2, 0, 0), (-1, 0, 1)])
    target = (i + d[0], j + d[1], k + d[2])
    if rng.random() < 0.4:
        return target
    shapes = [
        tuple(map(float, target)),
        tuple(np.int64(v) for v in target),
        np.array(target),
        list(target),
        tuple(bool(v) if v in (0, 1) else v for v in target),
        dict.fromkeys(target),  # its keys are the cell when they are distinct
        None,
        "abc",
        (i, j),
        (*target, 0),
        (float("nan"), j, k),
        {"i": i, "j": j, "k": k},
        object(),
    ]
    if all(0 <= v < 256 for v in target):
        shapes.append(bytes(target))
    return rng.choice(shapes)


def _step_outcome(step, view, proposals):
    try:
        moves = step(view, proposals)
    except (InvariantViolation, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return moves, {a: tuple(map(type, c)) for a, c in moves.items()}


def test_mask_legality_equals_the_table_reference_on_hostile_proposals():
    """Seeded fleets on random grids, occupied cells and AGVs above layer 0 included, now and then two agents on
    one cell or one outside the grid: moves, cell types and errors equal the table-based step's."""
    rng = random.Random(39)
    seen = Counter()
    for _ in range(800):
        grid = random_grid(rng, (5, 4, 3), rng.choice((0.0, 0.3, 0.7)))
        nx, ny, nz = grid.dims
        spots = [(i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)]
        n = rng.randrange(1, 12)
        cells = dict(zip(rng.sample(range(50), n), rng.sample(spots, n)))
        ids = list(cells)
        if rng.random() < 0.1:
            cells[ids[0]] = cells[ids[-1]]
        if rng.random() < 0.1:
            cells[ids[0]] = rng.choice([(nx, 0, 0), (0, -1, 0), (0, 0, nz)])
        agents = tuple(Agent(a, rng.choice((UAV, AGV)), cell, (0, 0, 0)) for a, cell in cells.items())
        proposals = {a: _hostile_proposals(rng, cell) for a, cell in cells.items() if rng.random() < 0.9}
        view = WorldView(grid, agents, cells)
        want = _step_outcome(table_policy_step, view, proposals)
        assert _step_outcome(online_policy_step, view, proposals) == want, (cells, proposals)
        if want[0] in ("ValueError", "InvariantViolation"):
            seen[want[0]] += 1
            continue
        kinds = {a.id: a.kind for a in agents}
        for a, p in proposals.items():
            moved = want[0][a] != cells[a]
            seen["moved"] += moved
            seen["foreign moved"] += moved and type(p) is not tuple
            if type(p) is tuple and len(p) == 3 and {type(v) for v in p} == {int} and not moved:
                i, j, k = cells[a]
                seen["climb refused"] += kinds[a] == AGV and p == (i, j, k + 1) and grid.in_bounds(*p)
                seen["wall refused"] += grid.in_bounds(*p) and grid.is_occupied(*p) and manhattan(p, cells[a]) == 1
    assert all(seen[k] >= 40 for k in ("moved", "foreign moved", "climb refused", "wall refused", "ValueError")), seen
    assert seen["InvariantViolation"] >= 10, seen


@pytest.mark.parametrize(
    "proposal, move",
    [((1.0, 0.0, 0.0), (1, 0, 0)), (None, (0, 0, 0)), (np.array([1, 0, 0]), (1, 0, 0))],
    ids=["float-tuple", "none", "numpy-array"],
)
def test_foreign_proposals_are_stored_as_grid_cells(proposal, move):
    """A proposal equal to a legal cell moves there as that int cell; anything else waits."""
    grid = empty_grid((3, 3, 2))
    agent = Agent(0, UAV, (0, 0, 0), (2, 2, 1))
    moves = online_policy_step(WorldView(grid, (agent,), {0: agent.start}), {0: proposal})
    assert moves == {0: move}
    assert all(type(v) is int for v in moves[0])
    assert json.loads(json.dumps(moves)) == {"0": list(move)}  # the tick log can write it
    # and the next tick starts from it
    after = _policy_step(GreedyShieldedPolicy(), WorldView(grid, (agent,), moves))
    assert manhattan(after[0], agent.goal) == manhattan(move, agent.goal) - 1


def test_a_current_cell_outside_the_grid_raises():
    grid = empty_grid((4, 3, 2))
    agent = Agent(0, UAV, (0, 0, 0), (3, 2, 1))
    for cell in ((0, 3, 0), (0, 0, -1)):
        view = WorldView(grid, (agent,), {0: cell})
        for policy in (GreedyShieldedPolicy(), _FixedPolicy({})):
            with pytest.raises(ValueError, match="outside the grid"):
                _policy_step(policy, view)


def _legal(grid, kind, cell):
    i, j, k = cell
    options = [(i + dx, j + dy, k + dz) for dx, dy, dz in MOVES[kind]]
    return [c for c in options if grid.in_bounds(*c) and not grid.is_occupied(*c)]


def _greedy_reference(grid, agent, cell):
    """The uncached rule: wait at the goal, else the first legal move in ``MOVES`` order nearest the goal."""
    if cell == agent.goal:
        return cell
    options = _legal(grid, agent.kind, cell)
    return min(options, key=lambda c: manhattan(c, agent.goal), default=cell)  # min keeps the first minimum


def test_cached_greedy_steps_equal_the_uncached_rule():
    rng = random.Random(11)
    seen = Counter()
    for _ in range(40):
        grid = random_grid(rng, (6, 5, 3), density=rng.choice((0.2, 0.5, 0.7)))
        policy = GreedyShieldedPolicy()  # later views hit the grid's kept steps
        for _ in range(10):
            agents, cells = [], {}
            for aid in range(8):
                kind = rng.choice((UAV, AGV))
                spots = free_cells(grid, kind)
                if not spots:
                    continue
                goal = rng.choice(spots)
                agents.append(Agent(aid, kind, rng.choice(spots), goal))
                cells[aid] = goal if rng.random() < 0.2 else rng.choice(spots)
            want = {a.id: _greedy_reference(grid, a, cells[a.id]) for a in agents}
            assert policy.propose(WorldView(grid, tuple(agents), cells)) == want
            for a in agents:
                seen["at goal"] += cells[a.id] == a.goal
                seen["boxed in"] += cells[a.id] != a.goal and _legal(grid, a.kind, cells[a.id]) == [cells[a.id]]
    assert seen["at goal"] >= 100 and seen["boxed in"] >= 100, seen  # obstacles leave them only the wait


def test_mask_greedy_steps_equal_the_uncached_rule_on_every_cell():
    """Every cell of seeded random grids, occupied ones and AGVs above layer 0 included, for both kinds and
    several goals: the step read from the move mask equals the first-minimum rule."""
    rng = random.Random(39)
    seen = Counter()
    for density in (0.0, 0.3, 0.7):
        for dims in ((5, 4, 3), (1, 6, 2), (4, 1, 1)):
            grid = random_grid(rng, dims, density)
            nx, ny, nz = dims
            cells = [(i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)]
            for kind in (UAV, AGV):
                for goal in rng.sample(cells, min(4, len(cells))):
                    agent = Agent(0, kind, goal, goal)
                    steps = skyrover.policy._StepsToward(grid, kind, goal)
                    for cell in cells:
                        want = _greedy_reference(grid, agent, cell)
                        assert steps[cell] == want, (density, dims, kind, goal, cell)
                        gain = manhattan(cell, goal) - manhattan(want, goal)
                        seen[{1: "toward", 0: "wait", -1: "away"}[gain]] += 1
                        seen["occupied"] += grid.is_occupied(*cell)
                        seen["boxed in"] += cell != goal and not _legal(grid, kind, cell)
    assert all(seen[k] >= 50 for k in ("toward", "wait", "away", "occupied", "boxed in")), seen


def test_greedy_policy_reused_on_another_grid_proposes_like_a_fresh_one():
    shelved = [warehouse_grid((24, 30, 4), shelf_rows=rows) for rows in (2, 4)]
    assert shelved[0].dims == shelved[1].dims and shelved[0].occ_bytes != shelved[1].occ_bytes
    spots = sorted(set(free_cells(shelved[0], AGV)) & set(free_cells(shelved[1], AGV)))
    rng = random.Random(3)
    agents = tuple(Agent(aid, AGV, cell, rng.choice(spots)) for aid, cell in enumerate(rng.sample(spots, 40)))
    cells = {a.id: a.start for a in agents}
    views = [WorldView(grid, agents, cells) for grid in shelved]
    fresh = [GreedyShieldedPolicy().propose(view) for view in views]
    assert fresh[0] != fresh[1]  # the shelves change some steps
    reused = GreedyShieldedPolicy()
    for view, want in zip(views + views, fresh + fresh):
        assert reused.propose(view) == want


@pytest.fixture
def lookups(monkeypatch):
    """Counts the greedy policy's step-table subscripts: a repeated answer makes none."""
    count = Counter()

    class Counted(skyrover.policy._StepsToward):
        def __getitem__(self, cell):
            count["lookups"] += 1
            return super().__getitem__(cell)

    monkeypatch.setattr(skyrover.policy, "_StepsToward", Counted)
    return count


def _fleet():
    """A warehouse roster in an order other than its ids', at its starts."""
    grid, agents = generate_warehouse((24, 20, 4), 3, "4uav+12agv", seed=2)
    agents = tuple(reversed(agents))
    return grid, agents, {a.id: a.start for a in agents}


def test_equal_cells_get_a_new_dict_equal_to_a_fresh_answer(lookups):
    grid, agents, cells = _fleet()
    policy = GreedyShieldedPolicy()
    first = policy.propose(WorldView(grid, agents, cells))
    assert lookups["lookups"] == len(agents)
    again = policy.propose(WorldView(grid, agents, dict(cells)))  # a new, equal dict
    assert lookups["lookups"] == len(agents)  # answered from the kept proposals
    fresh = GreedyShieldedPolicy().propose(WorldView(grid, agents, cells))
    assert again == first == fresh == {a.id: _greedy_reference(grid, a, cells[a.id]) for a in agents}
    assert again is not first
    assert list(again) == list(first) == list(fresh) == [a.id for a in agents]  # the agents' order


def test_changing_a_returned_dict_or_the_cells_in_place_leaves_the_next_answer_right(lookups):
    grid, agents, cells = _fleet()
    policy = GreedyShieldedPolicy()
    view = WorldView(grid, agents, cells)
    want = policy.propose(view)
    first = policy.propose(view)
    first[agents[0].id] = agents[0].goal
    del first[agents[1].id]
    assert policy.propose(view) == want and list(policy.propose(view)) == list(want)
    mover = next(a for a in agents if want[a.id] != a.start)
    cells[mover.id] = want[mover.id]  # the same dict, edited: the kept copy no longer equals it
    before = lookups["lookups"]
    assert policy.propose(view) == {a.id: _greedy_reference(grid, a, cells[a.id]) for a in agents}
    assert lookups["lookups"] == before + len(agents)


def test_a_new_grid_or_agents_tuple_is_answered_anew(lookups):
    grid, agents, cells = _fleet()
    policy = GreedyShieldedPolicy()
    policy.propose(WorldView(grid, agents, cells))
    before = lookups["lookups"]
    same = OccupancyGrid3D(grid.origin, grid.resolution, grid.dims, grid.cells)  # equal, but another object
    assert policy.propose(WorldView(same, agents, cells)) == policy.propose(WorldView(grid, agents, cells))
    assert lookups["lookups"] == before + 2 * len(agents)
    moved = tuple(replace(a, goal=a.start) for a in agents)  # everyone is at its goal now
    assert policy.propose(WorldView(grid, moved, cells)) == cells
    walled = OccupancyGrid3D(grid.origin, grid.resolution, grid.dims, np.ones_like(grid.cells))
    boxed = {a.id: _greedy_reference(walled, a, cells[a.id]) for a in agents}
    assert boxed == cells != policy.propose(WorldView(grid, agents, cells))  # no free cell: all wait
    assert policy.propose(WorldView(walled, agents, cells)) == boxed


def test_a_list_roster_and_numpy_cells_get_the_uncached_steps():
    grid, agents, cells = _fleet()
    roster = list(agents)
    policy = GreedyShieldedPolicy()
    numpy_cells = {aid: tuple(np.int64(v) for v in cell) for aid, cell in cells.items()}
    for view_cells in (cells, numpy_cells, numpy_cells, cells):
        got = policy.propose(WorldView(grid, roster, view_cells))
        assert got == {a.id: _greedy_reference(grid, a, cells[a.id]) for a in roster}
        assert all(type(v) is int for cell in got.values() for v in cell)
    roster[0] = replace(roster[0], goal=roster[0].start)  # changed in place: the same list, another answer
    assert policy.propose(WorldView(grid, roster, numpy_cells))[roster[0].id] == roster[0].start
    assert policy.propose(WorldView(grid, roster, numpy_cells)) == {
        a.id: _greedy_reference(grid, a, cells[a.id]) for a in roster
    }


def test_one_grid_derives_each_table_once_and_is_freed_at_once(monkeypatch):
    """Sampling and two solves label each kind once; a policy builds one step table per agent, once."""
    labelled = []
    build = skyrover.mapf._label_components

    def counted(g, kind):
        labelled.append(kind)
        return build(g, kind)

    fetched = []
    fetch = skyrover.policy.move_mask

    def counted_fetch(g, kind):
        fetched.append(kind)
        return fetch(g, kind)

    stepped = []
    step = skyrover.policy._StepsToward.__missing__

    def counted_step(table, cell):
        stepped.append(cell)
        return step(table, cell)

    monkeypatch.setattr(skyrover.mapf, "_label_components", counted)
    monkeypatch.setattr(skyrover.policy, "move_mask", counted_fetch)
    monkeypatch.setattr(skyrover.policy._StepsToward, "__missing__", counted_step)
    grid = warehouse_grid((40, 30, 6), shelf_rows=6)
    agents = sample_agents(grid, parse_roster("4uav+10agv"), 7)
    for alg in ("astar", "cbs"):
        assert solve(grid, agents, SolverConfig(algorithm=alg)).ok
    assert sorted(labelled) == [AGV, UAV]
    for kind in KINDS:
        assert components(grid, kind) is components(grid, kind)
        assert not components(grid, kind).flags.writeable  # shared, so nobody may change it
    policy = GreedyShieldedPolicy()
    view = WorldView(grid, agents, {a.id: a.start for a in agents})
    want = policy.propose(view)
    assert sorted(fetched) == sorted(a.kind for a in agents)  # one mask fetch per step table, one table per agent
    assert len(stepped) == len(agents)  # one step each
    assert policy.propose(view) == want
    assert len(fetched) == len(stepped) == len(agents)  # the repeat built no table and no step
    sim = Simulator()
    sim.init(Scenario(grid=grid, agents=agents), SolverConfig(algorithm="online"))
    del fetched[:], stepped[:]
    first = sim.run()
    first_fetches = len(fetched)
    sim.reset()
    del fetched[:], stepped[:]
    assert sim.run().states == first.states
    assert stepped == []  # every cell's step was kept from the first run
    assert len(fetched) == first_fetches - len(agents)  # only the legality check's mask fetches, one per kind and computed tick
    assert sorted(labelled) == [AGV, UAV]
    ref = weakref.ref(grid)
    del grid, view, policy, sim, first
    assert ref() is None  # freed at once: no cached table holds its grid


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown online policy"):
        get_policy("does-not-exist")
