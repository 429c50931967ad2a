#!/usr/bin/env python3
"""skyrover benchmark: run one workload (or all of them) and report metrics.

Run from the repository root:

    python3 perfbench/run.py --workload warehouse-plan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs in this process: inputs are generated from ``--seed``
(and ``--world-seeds`` for the warehouse workloads), then passes over the
instances run for ``--seconds``, at least one pass. Untraced runs sample
the host's speed throughout (see ``hostspeed``). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics listed in
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every metric the workload computes is printed above it by name and unit and
written, with the environment and input hashes, to
``perfbench/results/BENCH_<workload>_seed<seed>_trace<t>.json``.

``--workload all`` runs each workload untraced and traced, each in a fresh
process, prints every metric, reports the tracing overhead and writes
``perfbench/results/BENCH_all_seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "work"
WORKLOAD_NAMES = ("warehouse-plan", "warehouse-online", "map-ingest")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 900


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True, help="workload seed the inputs are generated from")
    p.add_argument("--seconds", type=float, required=True, help="measure for this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--world-seeds",
        default="1,2,3",
        help="warehouse world seeds; seeds outside 1-3 have no reference answers (held-out re-checks)",
    )
    args = p.parse_args(argv)
    try:
        args.world_seeds = tuple(int(s) for s in args.world_seeds.split(","))
    except ValueError:
        p.error("--world-seeds must be a comma-separated list of integers")
    return args


def import_library():
    """Import skyrover from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "skyrover" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'skyrover'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import skyrover

    if Path(skyrover.__file__).resolve().parent != (src / "skyrover").resolve():
        raise SystemExit(f"error: imported skyrover from {skyrover.__file__}, expected {src}")


def load_benchmark_spec():
    with open(ROOT / "BENCHMARK.json", "rb") as fh:
        return json.load(fh)


def git_commit(root: Path):
    """HEAD commit read from .git without starting a process; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, tracer, seconds):
    """Prepare inputs, then run passes for ``seconds``.

    A further pass starts only if one more pass as long as the previous one
    still ends within ``seconds``; the first always runs. Untraced runs
    sample the host's speed throughout; traced runs do not, so that the
    reference loop never sits inside a span.
    """
    from hostspeed import HostSpeed, NoHostSpeed
    from workloads import PassLog

    t0 = perf_counter()
    workload.prepare()
    prepare_s = perf_counter() - t0
    if tracer.enabled:
        from spans import install_library_wrappers

        install_library_wrappers(tracer)
    speed = NoHostSpeed() if tracer.enabled else HostSpeed()
    try:
        passes = []
        with speed:
            start = last = perf_counter()
            while not passes or 2 * perf_counter() - last - start <= seconds:
                last = perf_counter()
                log = PassLog(tracer)
                workload.run_pass(log, len(passes))
                passes.append(log)
            measured_s = perf_counter() - start
    finally:
        if tracer.enabled:
            tracer.unwrap_all()
    for log in passes:
        log.close(speed)
    return passes, prepare_s, measured_s, speed.summary()


def measure(workload, trace, seconds, spec):
    """Run one workload; return its report, the result line's object and the tracer."""
    from spans import NullTracer, Tracer, cbs_accounting, per_layer_metrics

    tracer = Tracer() if trace else NullTracer()
    passes, prepare_s, measured_s, host_speed = run_workload(workload, tracer, seconds)

    ops = [op for p in passes for op in p.ops]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    metrics = workload.metrics(passes)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["failed_frac"] = (failed / attempted if attempted else 1.0, "ratio")
    report = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": trace,
        "seconds": seconds,
        "passes": len(passes),
        "prepare_s": prepare_s,
        "measured_s": measured_s,
        "host_speed": host_speed,
        "environment": environment(),
        "inputs_sha256": workload.inputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "pass_phases_s": [p.phases for p in passes],
        "pass_phases_ref": [p.phases_ref for p in passes],
        "operations": ops,
    }
    if trace:
        counters = {}
        for p in passes:
            for k, v in p.counters.items():
                counters[k] = counters.get(k, 0) + v
        layers = per_layer_metrics(tracer.spans, counters, len(passes))
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["cbs_accounting"] = cbs_accounting(tracer.spans)
        report["spans"] = len(tracer.spans)
        reported, wanted = layers, spec["per_layer"]
    else:
        reported, wanted = metrics, spec["end_to_end"]

    result_metrics = {}
    for m in wanted:
        value, unit = reported[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"error: {m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        result_metrics[m["name"]] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}
    return report, result, tracer


def run_one(args) -> int:
    from workloads import WORKLOADS, MapIngest

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cls = WORKLOADS[args.workload]
    workload = cls(work, args.seed) if cls is MapIngest else cls(work, args.seed, args.world_seeds)
    report, result, tracer = measure(workload, args.trace, args.seconds, load_benchmark_spec())
    if cls is not MapIngest:
        report["world_seeds"] = list(args.world_seeds)
    if args.trace:
        spans_path = RESULTS / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    out_path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={report['passes']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for section in ("metrics", "per_layer"):
        for name, m in sorted(report.get(section, {}).items()):
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for op in report["operations"]:
        if not op["ok"]:
            print(f"  FAILED {op['op']}: {'; '.join(op['failures'])}")
    print(f"  written to {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload untraced then traced, each in a fresh process."""
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        runs = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--world-seeds", ",".join(map(str, args.world_seeds)),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"error: {name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            bench_path = RESULTS / f"BENCH_{name}_seed{args.seed}_trace{trace}.json"
            runs[trace] = json.loads(bench_path.read_text())
        if 0 not in runs or 1 not in runs:
            continue
        untraced, traced = runs[0]["metrics"], runs[1]["metrics"]
        overhead = {
            k: traced[k]["value"] - untraced[k]["value"]
            for k in ("pipeline_s", "tick_p50_ms")
            if k in untraced
        }
        summary["workloads"][name] = {
            "metrics": untraced,
            "per_layer": runs[1]["per_layer"],
            "tracing_overhead": overhead,
            "cbs_accounting": runs[1]["cbs_accounting"],
            "attempted": runs[0]["attempted"],
            "failed": runs[0]["failed"],
        }
    summary["environment"] = environment()

    print("\n== end-to-end metrics (untraced runs) ==")
    for name, entry in summary["workloads"].items():
        print(f"{name}  attempted={entry['attempted']} failed={entry['failed']}")
        for metric, m in sorted(entry["metrics"].items()):
            print(f"  {metric:<24} {m['value']:>14.6g} {m['unit']}")
        for metric, value in entry["tracing_overhead"].items():
            print(f"  tracing overhead {metric:<12} {value:+.6g}")
    out_path = RESULTS / f"BENCH_all_seed{args.seed}.json"
    out_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"written to {out_path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # pinned before numpy is imported, here and in every child process
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_library()
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
