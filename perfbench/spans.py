"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, instance, info]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``instance`` the id of the
benchmark instance that was running, and ``info`` whatever the wrapper's
``on_result`` hook derived from the call's result. Spans are appended when
they open, so the list is ordered by start time.

Two sources feed it: ``Tracer.span`` around the benchmark's own calls into
the library, and ``Tracer.wrap``, which replaces a public function or method
in the namespace it is looked up from (the consumer module) so inner layer
boundaries are seen without touching the library. The untraced run uses a
``NullTracer``, whose spans cost one no-op context manager.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL_CONTEXT = nullcontext()


class NullTracer:
    enabled = False

    def __init__(self):
        self.instance = None

    def span(self, name):
        return _NULL_CONTEXT


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.instance, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def wrap(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` by a traced wrapper until ``unwrap_all``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                rec[5] = on_result(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path):
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "instance", "info"]) + "\n")
            for n, rec in enumerate(self.spans):
                fh.write(json.dumps([n, *rec]) + "\n")


def install_library_wrappers(tracer):
    """Wrap the inner layer boundaries the benchmark cannot reach directly.

    Each function is wrapped where its caller looks it up, e.g. CBS calls
    ``skyrover.cbs.spacetime_astar``, so that is the name patched; methods
    are patched on their class.
    """
    import skyrover.cbs
    import skyrover.policy
    import skyrover.prioritized
    import skyrover.sim
    from skyrover import GreedyShieldedPolicy, ReservationTable, Simulator

    def found_path(args, result):
        return result is not None

    def shield_outcome(args, result):
        cells, proposals = args
        moving = [aid for aid, nxt in proposals.items() if nxt != cells[aid]]
        kept = sum(1 for aid in moving if result[aid] == proposals[aid])
        return [len(moving), kept]

    tracer.wrap(skyrover.cbs, "spacetime_astar", "cbs.spacetime_astar", found_path)
    tracer.wrap(skyrover.cbs, "detect_conflicts", "cbs.detect_conflicts")
    tracer.wrap(skyrover.prioritized, "spacetime_astar", "prioritized.spacetime_astar", found_path)
    tracer.wrap(ReservationTable, "reserve_path", "ReservationTable.reserve_path")
    tracer.wrap(skyrover.sim, "validate_solution", "sim.validate_solution")
    tracer.wrap(skyrover.sim, "detect_conflicts", "sim.detect_conflicts")
    tracer.wrap(skyrover.sim, "online_policy_step", "sim.online_policy_step")
    tracer.wrap(Simulator, "step", "Simulator.step")
    tracer.wrap(skyrover.policy, "shield_moves", "policy.shield_moves", shield_outcome)
    tracer.wrap(GreedyShieldedPolicy, "propose", "GreedyShieldedPolicy.propose")


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans):
    """Sum spans into the per-layer quantities, before per-pass scaling.

    ``reserve_path`` is attributed by its parent: under a CBS solve it is an
    avoid-table rebuild, under a prioritized solve a reservation. CBS
    low-level calls made before the solve's first conflict scan plan the
    root; the ones after it are constraint-tree replans.
    """
    selfs = self_times(spans)
    dur = {}
    self_by_name = {}
    count = {}
    reserve = {"solve.cbs": 0.0, "solve.astar": 0.0}
    replans = [0, 0]  # [attempted, found a path]
    shield = [0, 0, 0]  # [moves proposed, moves kept, downgrades]
    scanned = set()  # solve.cbs spans that have run a conflict scan
    for n, (name, start, end, parent, _, info) in enumerate(spans):
        d = end - start
        dur[name] = dur.get(name, 0.0) + d
        self_by_name[name] = self_by_name.get(name, 0.0) + selfs[n]
        count[name] = count.get(name, 0) + 1
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "ReservationTable.reserve_path" and parent_name in reserve:
            reserve[parent_name] += d
        elif name == "cbs.detect_conflicts":
            scanned.add(parent)
        elif name == "cbs.spacetime_astar" and parent in scanned:
            replans[0] += 1
            replans[1] += bool(info)
        elif name == "policy.shield_moves":
            shield[0] += info[0]
            shield[1] += info[1]
            shield[2] += info[0] - info[1]
    return dur, self_by_name, count, reserve, replans, shield


def per_layer_metrics(spans, counters, passes):
    """Per-layer metrics per pass: (value, unit) by name.

    Times and counts are totals over the run divided by the number of
    passes; ratios are taken over the whole run. A layer the workload never
    reaches reads 0.
    """
    dur, self_s, count, reserve, replans, shield = layer_totals(spans)

    def d(*names):
        return sum(dur.get(n, 0.0) for n in names) / passes

    def c(name):
        return counters.get(name, 0) / passes

    astar_s = d("cbs.spacetime_astar", "prioritized.spacetime_astar")
    expansions = c("astar.expansions")
    return {
        "astar.calls": ((count.get("cbs.spacetime_astar", 0) + count.get("prioritized.spacetime_astar", 0)) / passes, "count"),
        "astar.expansions": (expansions, "count"),
        "astar.time_s": (astar_s, "s"),
        "astar.us_per_expansion": (astar_s / expansions * 1e6 if expansions else 0.0, "us"),
        "cbs.ct_nodes": (c("cbs.ct_nodes"), "count"),
        "cbs.replan_ok_ratio": (replans[1] / replans[0] if replans[0] else 0.0, "ratio"),
        "cbs.detect_conflicts_s": (d("cbs.detect_conflicts"), "s"),
        "cbs.avoid_table_s": (reserve["solve.cbs"] / passes, "s"),
        "cbs.self_s": (self_s.get("solve.cbs", 0.0) / passes, "s"),
        "prioritized.reserve_s": (reserve["solve.astar"] / passes, "s"),
        "prioritized.self_s": (self_s.get("solve.astar", 0.0) / passes, "s"),
        "mapf.validate_solution_s": (d("mapf.validate_solution", "sim.validate_solution"), "s"),
        "sim.replay_s": (d("sim.replay"), "s"),
        "sim.metrics_s": (d("sim.metrics"), "s"),
        "sim.plan_write_s": (d("sim.plan_write"), "s"),
        "sim.waypoints_s": (d("sim.waypoints"), "s"),
        "sim.bytes_written": (c("sim.bytes_written"), "bytes"),
        "policy.propose_s": (d("GreedyShieldedPolicy.propose"), "s"),
        "policy.shield_s": (d("policy.shield_moves"), "s"),
        "policy.shield_downgrades": (shield[2] / passes, "count"),
        "policy.move_kept_ratio": (shield[1] / shield[0] if shield[0] else 0.0, "ratio"),
        "policy.step_self_s": (self_s.get("sim.online_policy_step", 0.0) / passes, "s"),
        "sim.step_self_s": (self_s.get("Simulator.step", 0.0) / passes, "s"),
        "sim.ticks": (count.get("Simulator.step", 0) / passes, "count"),
        "mapf.detect_conflicts_s": (d("sim.detect_conflicts"), "s"),
        "pcd.parse_s": (d("pcd.parse"), "s"),
        "pcd.points": (c("pcd.points"), "count"),
        "pcd.dropped": (c("pcd.dropped"), "count"),
        "pgm.parse_s": (d("pgm.parse"), "s"),
        "voxelgrid.rasterize_s": (d("voxelgrid.rasterize"), "s"),
        "voxelgrid.extrude_s": (d("voxelgrid.extrude"), "s"),
        "voxelgrid.read_s": (d("voxelgrid.read"), "s"),
        "voxelgrid.write_s": (d("voxelgrid.write"), "s"),
        "voxelgrid.rle_runs": (c("voxelgrid.rle_runs"), "count"),
        "voxelgrid.bytes": (c("voxelgrid.bytes"), "bytes"),
        "warehouse.grid_s": (d("warehouse.grid"), "s"),
        "warehouse.sample_s": (d("warehouse.sample"), "s"),
        "scenario.read_s": (d("scenario.read"), "s"),
        "scenario.write_s": (d("scenario.write"), "s"),
        "mapf.validate_agents_s": (d("mapf.validate_agents"), "s"),
    }


def cbs_accounting(spans):
    """How much of the traced CBS solve time the layer self times explain."""
    dur, self_s, _, reserve, _, _ = layer_totals(spans)
    total = dur.get("solve.cbs", 0.0)
    parts = {
        "astar": dur.get("cbs.spacetime_astar", 0.0),
        "detect_conflicts": dur.get("cbs.detect_conflicts", 0.0),
        "avoid_table": reserve["solve.cbs"],
        "self": self_s.get("solve.cbs", 0.0),
    }
    return {"plan_s.cbs_traced": total, "parts_s": parts, "accounted_ratio": sum(parts.values()) / total if total else 0.0}
