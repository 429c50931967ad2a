"""Cross-domain 3D multi-agent pathfinding engine and simulator core.

Turns point-cloud or 2D map captures into 3D occupancy grids, solves
heterogeneous UAV/AGV fleets with prioritized space-time A*, CBS, or an
online shielded policy behind one init/step/reset interface, lowers plans
to timestamped waypoint streams, and benchmarks success rate and
computation time.
"""

from .astar import Budget, ReservationTable, spacetime_astar
from .errors import (
    CapacityError,
    InvariantViolation,
    NoSolutionError,
    ParseError,
    PlacementError,
    ResourceLimitError,
    ScenarioError,
    SkyroverError,
    TaskError,
    UnsupportedFormatError,
)
from .mapf import (
    AGV,
    EDGE,
    UAV,
    VERTEX,
    Agent,
    Conflict,
    Constraint,
    Solution,
    Violation,
    detect_conflicts,
    make_solution,
    manhattan,
    path_cost,
    step_conflicts,
    validate_agents,
    validate_solution,
)
from .pcd import parse_pcd
from .pgm import parse_pgm
from .policy import GreedyShieldedPolicy, WorldView, get_policy, online_policy_step, shield_moves
from .scenario import Scenario, load_scenario, save_scenario, scenario_from_bytes, scenario_to_bytes
from .sim import (
    RunMetrics,
    RunRecord,
    SimState,
    Simulator,
    WaypointCommand,
    WaypointLog,
    collect_metrics,
    execute_plan,
    plan_from_bytes,
    plan_to_bytes,
    read_plan,
    waypoints_from_bytes,
    waypoints_to_bytes,
    write_plan,
)
from .solvers import SolveResult, SolverConfig, solve
from .tasks import Episode, TaskReport, TaskScript, compile_task, run_task
from .voxelgrid import (
    OccupancyGrid3D,
    PointCloud,
    empty_grid,
    extrude_ground,
    grid_from_bytes,
    grid_to_bytes,
    rasterize,
    read_grid,
    write_grid,
)
from .warehouse import generate_warehouse, parse_roster, sample_agents, warehouse_grid

__version__ = "0.1.0"
