import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from skyrover import (
    AGV,
    UAV,
    Agent,
    Scenario,
    ScenarioError,
    Simulator,
    SolverConfig,
    TaskScript,
    empty_grid,
    load_scenario,
    save_scenario,
    scenario_from_bytes,
    scenario_to_bytes,
)


def _random_scenario(rng: random.Random) -> Scenario:
    n = rng.randrange(1, 6)
    agents = []
    used = set()
    for aid in range(n):
        kind = rng.choice((UAV, AGV))
        while True:
            s = (rng.randrange(8), rng.randrange(8), 0 if kind == AGV else rng.randrange(3))
            g = (rng.randrange(8), rng.randrange(8), 0 if kind == AGV else rng.randrange(3))
            if s != g and s not in used and g not in used:
                used.update((s, g))
                break
        agents.append(Agent(aid, kind, s, g))
    task = None
    if rng.random() < 0.3:
        task = TaskScript(
            kind=rng.choice(("inventory_scan", "aerial_transfer")),
            agv_id=0,
            uav_id=1,
            point_a=(2, 2, 0),
            point_b=(5, 5, 0),
            hover_offset=rng.randrange(1, 4),
            hold_steps=rng.randrange(1, 5),
        )
    solver = None
    if rng.random() < 0.4:
        solver = SolverConfig(
            algorithm=rng.choice(("astar", "cbs", "online")),
            node_expansion_limit=rng.randrange(1, 10**6),
            time_limit=rng.choice((1.0, 30.0, 120.5)),
        )
    grid = rng.choice(
        (
            "some/grid.grid",
            {"kind": "empty", "dims": [8, 8, 3]},
            {"kind": "empty", "dims": (8, 8, 3)},
            {"kind": "warehouse", "dims": [40, 30, 8], "shelf_rows": 3},
            {"kind": "warehouse", "dims": (40, 30, 8), "shelf_rows": 3},
        )
    )
    return Scenario(grid=grid, agents=tuple(agents), seed=rng.randrange(10**6), task=task, solver=solver)


def test_roundtrip_value_and_bytes_stability():
    rng = random.Random(9)
    for _ in range(200):
        sc = _random_scenario(rng)
        data = scenario_to_bytes(sc)
        back = scenario_from_bytes(data)
        assert back == sc
        assert scenario_to_bytes(back) == data


_BAD_GRIDS = (
    {"kind": "empty", "dims": [4.5, 1, 1]},
    {"kind": "empty", "dims": [4, 1]},
    {"kind": "empty", "dims": [4, True, 1]},
    {"kind": "warehouse", "dims": [40, 30, 8], "shelf_rows": 3.0},
    {"kind": "warehouse", "dims": [40, 30, 8], "aisle": 2},
    {"kind": "maze", "dims": [8, 8, 3]},
    {"dims": [8, 8, 3]},
    7,
)


def test_a_saved_scenario_loads_back_equal_and_a_refused_one_writes_nothing(tmp_path):
    """JSON-typed fields, some of them ones the reader refuses: every save that succeeds loads back equal."""
    rng = random.Random(24)
    outcomes = Counter()
    for n in range(300):
        sc = _random_scenario(rng)
        if rng.random() < 0.3:
            sc = replace(sc, grid=rng.choice(_BAD_GRIDS))
        if rng.random() < 0.3:
            sc = replace(sc, seed=rng.choice((2.5, True, "3", None, -4, 2**70)))
        if rng.random() < 0.1:
            sc = replace(sc, agents=())
        path = tmp_path / f"{n}.json"
        try:
            save_scenario(sc, path)
        except ScenarioError:
            assert not path.exists()
            outcomes["refused"] += 1
            continue
        assert load_scenario(path) == sc
        outcomes["saved"] += 1
    assert outcomes["refused"] >= 50 and outcomes["saved"] >= 100, outcomes


def test_file_roundtrip(tmp_path):
    sc = Scenario(
        grid={"kind": "empty", "dims": [4, 4, 2]},
        agents=(Agent(0, UAV, (0, 0, 0), (3, 3, 1)),),
        seed=7,
    )
    path = tmp_path / "s.json"
    save_scenario(sc, path)
    assert load_scenario(path) == sc


def test_unknown_top_level_field_rejected():
    payload = {
        "grid": {"kind": "empty", "dims": [3, 3, 1]},
        "agents": [{"id": 0, "kind": "agv", "start": [0, 0, 0], "goal": [1, 0, 0]}],
        "surprise": 1,
    }
    with pytest.raises(ScenarioError, match="unknown fields.*surprise"):
        scenario_from_bytes(json.dumps(payload).encode())


def test_unknown_agent_field_rejected():
    payload = {
        "grid": {"kind": "empty", "dims": [3, 3, 1]},
        "agents": [{"id": 0, "kind": "agv", "start": [0, 0, 0], "goal": [1, 0, 0], "speed": 2}],
    }
    with pytest.raises(ScenarioError, match="agent #0 has unknown fields"):
        scenario_from_bytes(json.dumps(payload).encode())


def test_unknown_task_field_rejected():
    payload = {
        "grid": {"kind": "empty", "dims": [9, 9, 4]},
        "agents": [
            {"id": 0, "kind": "agv", "start": [0, 0, 0], "goal": [1, 0, 0]},
            {"id": 1, "kind": "uav", "start": [2, 0, 0], "goal": [3, 0, 1]},
        ],
        "task": {
            "kind": "inventory_scan",
            "agv_id": 0,
            "uav_id": 1,
            "point_a": [4, 4, 0],
            "point_b": [5, 5, 0],
            "altitude": 3,
        },
    }
    with pytest.raises(ScenarioError, match="task has unknown fields"):
        scenario_from_bytes(json.dumps(payload).encode())


def test_missing_required_fields_rejected():
    with pytest.raises(ScenarioError, match="missing fields"):
        scenario_from_bytes(b'{"agents": []}')


def test_empty_agent_list_rejected():
    payload = {"grid": {"kind": "empty", "dims": [3, 3, 1]}, "agents": []}
    with pytest.raises(ScenarioError, match="non-empty"):
        scenario_from_bytes(json.dumps(payload).encode())


def test_bad_kind_rejected():
    payload = {
        "grid": {"kind": "empty", "dims": [3, 3, 1]},
        "agents": [{"id": 0, "kind": "boat", "start": [0, 0, 0], "goal": [1, 0, 0]}],
    }
    with pytest.raises(ScenarioError, match="kind"):
        scenario_from_bytes(json.dumps(payload).encode())


def test_grid_path_resolves_relative_to_file(tmp_path):
    from skyrover import empty_grid, write_grid

    write_grid(empty_grid((2, 2, 1)), tmp_path / "w.grid")
    sc = Scenario(grid="w.grid", agents=(Agent(0, AGV, (0, 0, 0), (1, 0, 0)),))
    save_scenario(sc, tmp_path / "s.json")
    loaded = load_scenario(tmp_path / "s.json")
    grid = loaded.materialize_grid()
    assert grid.dims == (2, 2, 1)


def test_inline_specs_materialize():
    sc = Scenario(
        grid={"kind": "warehouse", "dims": [30, 24, 6], "shelf_rows": 2},
        agents=(Agent(0, AGV, (0, 0, 0), (1, 0, 0)),),
    )
    grid = sc.materialize_grid()
    assert grid.dims == (30, 24, 6)
    assert grid.occupied_count > 0
    sc2 = Scenario(grid={"kind": "empty", "dims": [4, 5, 6]}, agents=sc.agents)
    assert sc2.materialize_grid().occupied_count == 0


def test_legacy_rng_seed_is_accepted_and_ignored(tmp_path):
    payload = {
        "grid": {"kind": "empty", "dims": [4, 4, 1]},
        "agents": [{"id": 0, "kind": "agv", "start": [0, 0, 0], "goal": [3, 3, 0]}],
        "solver": {"algorithm": "astar", "time_limit": 5.0, "rng_seed": 42},
    }
    (tmp_path / "old.json").write_text(json.dumps(payload))
    sc = load_scenario(tmp_path / "old.json")
    assert sc.solver == SolverConfig(algorithm="astar", time_limit=5.0)
    assert "rng_seed" not in json.loads(scenario_to_bytes(sc))["solver"]


def test_not_json_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="not valid JSON"):
        scenario_from_bytes(b"{nope")


def _typed_payload():
    return {
        "grid": {"kind": "warehouse", "dims": [30, 24, 6], "shelf_rows": 2},
        "agents": [
            {"id": 0, "kind": "agv", "start": [0, 0, 0], "goal": [1, 0, 0]},
            {"id": 1, "kind": "uav", "start": [2, 0, 0], "goal": [3, 0, 1]},
        ],
        "task": {"kind": "inventory_scan", "agv_id": 0, "uav_id": 1, "point_a": [4, 4, 0], "point_b": [5, 5, 0]},
        "solver": {"algorithm": "cbs", "time_limit": 5.0},
    }


@pytest.mark.parametrize(
    "path, value",
    [
        (("solver", "time_limit"), [1]),
        (("solver", "node_expansion_limit"), "many"),
        (("solver", "algorithm"), [1]),
        (("solver", "online_policy"), [1]),
        (("agents", 0, "id"), [0]),
        (("agents", 1, "goal"), [3, [0], 1]),
        (("task", "hover_offset"), [2]),
        (("task", "point_a"), 4),
        (("grid", "dims"), [30, None, 6]),
        (("grid", "shelf_rows"), {}),
        # non-finite limits: NaN would turn the clock off, int(inf) overflows
        (("solver", "time_limit"), float("nan")),
        (("solver", "time_limit"), float("inf")),
        (("solver", "node_expansion_limit"), float("inf")),
        (("solver", "node_expansion_limit"), float("nan")),
        # integer fields take JSON integers only: no truncation, no strings, no bools
        (("grid", "dims"), [30.9, 24, 6]),
        (("grid", "dims"), [30, "24", 6]),
        (("grid", "shelf_rows"), 2.0),
        (("grid", "shelf_height"), True),
        (("agents", 0, "id"), 0.5),
        (("agents", 0, "id"), "0"),
        (("agents", 0, "id"), False),
        (("agents", 0, "start"), [1.7, 0, 0]),
        (("agents", 1, "goal"), [3, 0, True]),
        (("task", "agv_id"), 0.0),
        (("task", "uav_id"), "1"),
        (("task", "hover_offset"), 2.5),
        (("task", "hold_steps"), True),
        (("task", "point_b"), [5, 5.5, 0]),
        (("seed",), "10"),
        (("seed",), True),
        (("solver", "node_expansion_limit"), 1000.0),
        (("solver", "node_expansion_limit"), "10"),
        # real fields take JSON numbers only
        (("solver", "time_limit"), "5"),
        (("solver", "time_limit"), True),
    ],
)
def test_wrongly_typed_field_is_a_scenario_error(tmp_path, path, value):
    from skyrover.cli import main

    payload = _typed_payload()
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    data = json.dumps(payload).encode()
    with pytest.raises(ScenarioError, match="bad "):
        scenario_from_bytes(data)
    (tmp_path / "s.json").write_bytes(data)
    assert main(["solve", "--scenario", str(tmp_path / "s.json")]) == 2


@pytest.mark.parametrize("kind", [["warehouse"], {"kind": "empty"}, 3, None])
def test_a_grid_kind_that_is_no_known_name_is_a_scenario_error(tmp_path, kind):
    from skyrover.cli import main

    payload = _typed_payload()
    payload["grid"]["kind"] = kind
    data = json.dumps(payload).encode()
    with pytest.raises(ScenarioError, match="kind must be one of"):
        scenario_from_bytes(data)
    (tmp_path / "s.json").write_bytes(data)
    assert main(["solve", "--scenario", str(tmp_path / "s.json")]) == 2
    sc = Scenario(grid=payload["grid"], agents=(Agent(0, AGV, (0, 0, 0), (1, 0, 0)),))  # built, refused when saved
    with pytest.raises(ScenarioError, match="kind must be one of"):
        save_scenario(sc, tmp_path / "saved.json")
    assert not (tmp_path / "saved.json").exists()


@pytest.mark.parametrize(
    "spec, match",
    [
        ({"kind": "bogus", "dims": [80, 60, 10]}, "kind must be one of"),
        ({"kind": "empty"}, r"missing fields: \['dims'\]"),
        ({"kind": "empty", "dims": [4, 4, 2], "shelf_rows": 3}, r"unknown fields: \['shelf_rows'\]"),
    ],
    ids=["unknown-kind", "no-dims", "unknown-key"],
)
def test_an_inline_spec_built_in_python_is_checked_when_built(spec, match):
    sc = Scenario(grid=spec, agents=(Agent(0, AGV, (0, 0, 0), (1, 0, 0)),))
    assert sc.grid == spec  # kept as given
    with pytest.raises(ScenarioError, match=match):
        sc.materialize_grid()
    with pytest.raises(ScenarioError, match=match):
        Simulator().init(sc)


def test_scenario_holding_a_loaded_grid_is_not_saved(tmp_path):
    sc = Scenario(grid=empty_grid((2, 2, 1)), agents=(Agent(0, AGV, (0, 0, 0), (1, 0, 0)),))
    with pytest.raises(ScenarioError, match="loaded grid"):
        scenario_to_bytes(sc)
    with pytest.raises(ScenarioError, match="loaded grid"):
        save_scenario(sc, tmp_path / "s.json")
    assert not (tmp_path / "s.json").exists()


def test_inline_warehouse_spec_defaults_to_the_library_world():
    from skyrover import warehouse_grid
    from skyrover.warehouse import DEFAULT_DIMS

    sc = Scenario(grid={"kind": "warehouse", "dims": list(DEFAULT_DIMS)}, agents=())
    assert sc.materialize_grid() == warehouse_grid()
