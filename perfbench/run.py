#!/usr/bin/env python3
"""End-to-end benchmark of the hcs simulator (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload pruned_grid [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --steadiness 10 [--workload W] [--seed FIRST]
  python3 perfbench/run.py --self-check
  python3 perfbench/run.py --write-reference
  python3 perfbench/run.py --write-manifest

A single run builds perfbench/ (and through it the hcs library) into
.bench_build/, runs one workload, checks every grid point's outcome digest,
prints every metric by name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 2019
# Seeds whose per-point digests are committed under reference/.  Any other
# seed is checked for self-consistency only: every repetition of a point,
# traced or not, must reproduce the same digest.
REFERENCE_SEEDS = [DEFAULT_SEED] + list(range(0, 11))
RUN_TIMEOUT_S = 170

# The single source of BENCHMARK.json (written by --write-manifest).
MANIFEST = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "pruned_grid",
         "why": "Fig. 9 pruned MM/MSD/MMU grid on 2 trial threads: pruning "
                "passes, PCT cache and PMF arena carry the work; the only "
                "workload on the trial-parallel engine"},
        {"name": "deep_backlog",
         "why": "Fig. 10 unpruned FCFS-RR/SJF/EDF at 25k load: ~700-task "
                "batch queues, map() is ~97% of trial time, PMF layer idle"},
        {"name": "fed_churn_stream",
         "why": "4-cluster federation with churn, retry, queue_bound "
                "admission and streamed arrivals at 10x paper size: shallow "
                "queues, event loop and gateway dominate"},
    ],
    "end_to_end": [
        {"name": "tasks_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "cpu_ms_per_ktask", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.15},
        {"name": "robustness_pct", "unit": "%", "better": "higher",
         "bound": 0.2},
    ],
    "per_layer": [
        {"name": n, "unit": u, "better": b} for n, u, b in [
            ("exp.parse_s", "s", "lower"),
            ("exp.bind_s", "s", "lower"),
            ("exp.point_s_p50", "s", "lower"),
            ("exp.trial_busy_s", "s", "lower"),
            ("exp.parallel_efficiency", "ratio", "higher"),
            ("exp.trial_threads_per_point", "count", "higher"),
            ("workload.source_s", "s", "lower"),
            ("workload.share", "ratio", "lower"),
            ("core.run_self_s", "s", "lower"),
            ("core.mapping_events_per_task", "1/task", "lower"),
            ("core.us_per_mapping_event", "us", "lower"),
            ("heuristics.map_s", "s", "lower"),
            ("heuristics.map_share", "ratio", "lower"),
            ("heuristics.calls_per_task", "1/task", "lower"),
            ("heuristics.candidates_per_call", "count", "lower"),
            ("heuristics.us_per_candidate", "us", "lower"),
            ("heuristics.assigned_ratio", "ratio", "higher"),
            ("pct_cache.hit_ratio", "ratio", "higher"),
            ("pct_cache.misses_per_task", "1/task", "lower"),
            ("pruning.defers_per_task", "1/task", "lower"),
            ("pruning.drops_proactive_per_task", "1/task", "lower"),
            ("pruning.drops_reactive_per_task", "1/task", "lower"),
            ("pruning.useful_start_ratio", "ratio", "higher"),
            ("prob.arena_acquires_per_task", "1/task", "lower"),
            ("prob.arena_alloc_ratio", "ratio", "lower"),
            ("sim.trace_events_per_task", "1/task", "lower"),
            ("sim.events_per_task.arrival", "1/task", "lower"),
            ("sim.events_per_task.dispatched", "1/task", "lower"),
            ("sim.events_per_task.started", "1/task", "lower"),
            ("sim.events_per_task.completed", "1/task", "higher"),
            ("sim.events_per_task.deferred", "1/task", "lower"),
            ("sim.events_per_task.dropped_reactive", "1/task", "lower"),
            ("sim.events_per_task.dropped_proactive", "1/task", "lower"),
            ("sim.events_per_task.machine_failed", "1/task", "lower"),
            ("sim.events_per_task.machine_recovered", "1/task", "lower"),
            ("sim.events_per_task.task_failed", "1/task", "lower"),
            ("sim.events_per_task.retried", "1/task", "lower"),
            ("sim.events_per_task.abandoned", "1/task", "lower"),
            ("sim.events_per_task.rejected", "1/task", "lower"),
            ("sim.retries_per_task", "1/task", "lower"),
            ("sim.machine_failures_per_ktask", "1/ktask", "lower"),
            ("fed.rejected_per_task", "1/task", "lower"),
            ("trace.overhead_ratio", "ratio", "lower"),
            ("host.probe_ms", "ms", "lower"),
            ("host.wall_tasks_per_s", "1/s", "higher"),
        ]
    ],
}
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no hcs sources at {ROOT}; run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed", 1)


def run_binary(workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns the parsed report."""
    command = [str(BINARY), "--scenario", str(HERE / "workloads" /
                                               f"{workload}.json"),
               "--seed", str(seed), "--seconds", str(seconds)]
    spans = None
    if trace:
        SPANS.mkdir(parents=True, exist_ok=True)
        spans = SPANS / f"{workload}-{seed}.json"
        command += ["--trace", "--spans", str(spans)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"{workload}: perfbench exited with {proc.returncode}", 1)
    report = json.loads(proc.stdout)
    report["spans_file"] = str(spans.relative_to(ROOT)) if spans else None
    return report


def reference_digests(workload, seed):
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def point_failures(workload, report):
    """Per grid point: the reason it failed, or None.  A point fails when
    it threw, when any repetition (traced or not) disagreed with the first,
    or when the seed has a committed reference and the digest differs."""
    reference = reference_digests(workload, report["seed"])
    failures = []
    for point in report["points"]:
        reason = point["error"] or None
        if reason is None and reference is not None:
            expected = reference.get(point["label"])
            if expected != point["digest"]:
                reason = f"digest {point['digest']} != reference {expected}"
        failures.append(reason)
    return failures


def role_check(layers, jobs):
    """Checks that each workload plays the role the benchmark gives it.
    `layers` / `jobs` map workload name -> per-layer metrics / trial jobs;
    claims needing a workload that is absent are skipped."""
    checks = []
    if "deep_backlog" in layers and len(layers) > 1:
        share = {w: m["heuristics.map_share"] for w, m in layers.items()}
        checks.append(("heuristics.map_share is highest on deep_backlog",
                       max(share, key=share.get) == "deep_backlog",
                       share))
    if "deep_backlog" in layers and "pruned_grid" in layers:
        deep = layers["deep_backlog"]["prob.arena_acquires_per_task"]
        grid = layers["pruned_grid"]["prob.arena_acquires_per_task"]
        checks.append(("prob.arena_acquires_per_task: deep_backlog >= 100x "
                       "below pruned_grid", deep * 100 <= grid,
                       {"deep_backlog": deep, "pruned_grid": grid}))
    if "fed_churn_stream" in layers:
        cpc = layers["fed_churn_stream"]["heuristics.candidates_per_call"]
        checks.append(("heuristics.candidates_per_call is about 1 on "
                       "fed_churn_stream", 1.0 <= cpc <= 1.5, cpc))
    for w, m in layers.items():
        parallel = m["exp.trial_threads_per_point"] > 1
        checks.append((f"{w}: trials ran in parallel only if jobs > 1",
                       parallel == (jobs[w] > 1),
                       {"jobs": jobs[w],
                        "threads": m["exp.trial_threads_per_point"],
                        "parallel_efficiency":
                            m["exp.parallel_efficiency"]}))
    return checks


def print_checks(checks):
    for claim, ok, detail in checks:
        print(f"  role check {'ok    ' if ok else 'FAILED'} {claim}: {detail}")
    return all(ok for _, ok, _ in checks)


def single_run(args):
    report = run_binary(args.workload, args.seed, args.seconds, args.trace)
    failures = point_failures(args.workload, report)
    failed = sum(1 for f in failures if f is not None)
    attempted = len(failures)
    has_reference = reference_digests(args.workload, args.seed) is not None

    print(f"workload {args.workload}  seed {args.seed}  "
          f"tasks {report['tasks']:.0f}  jobs {report['jobs']}  "
          f"reps {report['untraced_reps']} untraced + "
          f"{report['traced_reps']} traced  "
          f"check {'reference' if has_reference else 'self-consistency'}")
    for point, reason in zip(report["points"], failures):
        if reason is not None:
            print(f"  FAILED point [{point['label']}]: {reason}")
    for m in MANIFEST["end_to_end"]:
        print(f"  {m['name']:<34} {report['metrics'][m['name']]:.6g} "
              f"{m['unit']}")
    print(f"  {'error_rate':<34} {failed / attempted:.6g} "
          f"({failed}/{attempted} grid points)")
    if args.trace:
        for m in MANIFEST["per_layer"]:
            print(f"  {m['name']:<34} {report['layers'][m['name']]:.6g} "
                  f"{m['unit']}")
        print(f"  spans written to {report['spans_file']}")
        print_checks(role_check({args.workload: report["layers"]},
                                {args.workload: report["jobs"]}))

    source = report["layers"] if args.trace else report["metrics"]
    names = MANIFEST["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in names},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def steadiness(args):
    """Runs each workload N times on consecutive seeds and prints, per
    end-to-end metric, the median, quartiles and relative spread, flagged
    when the spread exceeds the metric's bound.  The same figures for
    tasks per host wall second (not scaled by the host probe) follow, for
    comparison only."""
    flagged = False
    for workload in [args.workload] if args.workload else WORKLOADS:
        values = {m: [] for m in BOUNDS}
        wall_tps = []
        for i in range(args.steadiness):
            report = run_binary(workload, args.seed + i, args.seconds, False)
            if any(point_failures(workload, report)):
                fail(f"{workload} seed {args.seed + i}: a grid point failed",
                     1)
            for m in BOUNDS:
                values[m].append(report["metrics"][m])
            wall_tps.append(report["tasks"] /
                            statistics.median(report["wall_s"]))
        print(f"{workload}: {args.steadiness} runs, seeds "
              f"{args.seed}..{args.seed + args.steadiness - 1}")
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > BOUNDS[m]:
                flag = "  EXCEEDS BOUND" + ("" if m == "setup_s" else " (!)")
                flagged = flagged or m != "setup_s"
            print(f"  {m:<18} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} "
                  f"(bound {BOUNDS[m]}){flag}")
        q1, med, q3 = statistics.quantiles(wall_tps, n=4)
        print(f"  {'(unscaled tasks/s)':<18} median {med:<12.6g} "
              f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {(q3 - q1) / med:.4f}")
    return 1 if flagged else 0


def self_check(args):
    layers, jobs, ok = {}, {}, True
    for workload in WORKLOADS:
        report = run_binary(workload, args.seed, args.seconds, True)
        if any(point_failures(workload, report)):
            print(f"{workload}: a grid point failed")
            ok = False
        layers[workload] = report["layers"]
        jobs[workload] = report["jobs"]
        print(f"{workload}: tracing overhead "
              f"{report['layers']['trace.overhead_ratio']:.3f}x")
    ok = print_checks(role_check(layers, jobs)) and ok
    return 0 if ok else 1


def write_reference(args):
    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        seeds = {}
        for seed in REFERENCE_SEEDS:
            report = run_binary(workload, seed, 0, False)
            if any(p["error"] for p in report["points"]):
                fail(f"{workload} seed {seed}: a grid point failed", 1)
            seeds[str(seed)] = {p["label"]: p["digest"]
                                for p in report["points"]}
            print(f"{workload} seed {seed}: {len(report['points'])} points",
                  file=sys.stderr)
        (REFERENCE / f"{workload}.json").write_text(
            json.dumps({"workload": workload, "seeds": seeds}, indent=1) +
            "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--steadiness", type=int, metavar="N")
    mode.add_argument("--self-check", action="store_true")
    mode.add_argument("--write-reference", action="store_true")
    mode.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 53:
        fail("--seed must be in [0, 2^53)")
    if args.seconds < 0:
        fail("--seconds must be >= 0")

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(MANIFEST, indent=2) + "\n")
        return 0
    build()
    if args.steadiness:
        return steadiness(args)
    if args.self_check:
        return self_check(args)
    if args.write_reference:
        return write_reference(args)
    if args.workload is None:
        fail("--workload is required")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
