"""End-to-end wall-time trajectory of the six-configuration harness.

The committed ``BENCH_*.json`` snapshots so far cover subsystem
comparisons (SAT backends, portfolio sharing).  This harness extends the
same committed-snapshot discipline to the *full evaluation*: it runs all
six paper configurations over a suite exactly as ``repro-check
evaluate`` does — same runner, same hard-timeout pool — and records per
(configuration, case) verdicts and runtimes, per-configuration PAR-1
totals, and two machine-independent shapes:

* ``config_ratios`` — each configuration's PAR-1 total relative to the
  first configuration's (RIC3).  Machines differ in absolute speed but
  the *relative* cost of the configurations is a property of the code;
* ``overhead_ratio`` — harness wall clock divided by the sum of the
  engines' own runtimes: the end-to-end overhead of process pools,
  result plumbing and (when enabled) tracing and heartbeats.

Usage::

    PYTHONPATH=src python benchmarks/trajectory.py \
        --suite quick --repeat 3 --output BENCH_10.json

    PYTHONPATH=src python benchmarks/trajectory.py \
        --suite quick --baseline BENCH_10.json --max-slowdown 1.6

Exit status is non-zero when any verdict contradicts the ground truth,
when a worker crashed, or when ``--baseline`` is given and (a) any
shared (configuration, case) verdict drifted, (b) any configuration's
PAR-1 ratio regressed beyond ``--max-slowdown`` relative to the
snapshot's ratio (ratio of ratios), or (c) the overhead ratio grew past
``--max-overhead-growth`` times the snapshot's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.benchgen.suite import (
    bench_suite,
    default_suite,
    extended_suite,
    quick_suite,
)
from repro.harness.configs import paper_configurations
from repro.harness.runner import BenchmarkRunner

SUITES = {
    "quick": quick_suite,
    "bench": bench_suite,
    "default": default_suite,
    "extended": extended_suite,
}

BENCH_SCHEMA = "repro-check/trajectory/v1"


def run_trajectory(args: argparse.Namespace) -> dict:
    """Run the six configurations over the suite and assemble the report."""
    cases = SUITES[args.suite]()
    configs = paper_configurations()
    best_suite = None
    best_wall = None
    for _ in range(max(args.repeat, 1)):
        runner = BenchmarkRunner(
            cases,
            configs,
            timeout=args.timeout,
            validate=False,
            jobs=args.jobs,
            reduce=not args.no_reduce,
        )
        start = time.perf_counter()
        suite_result = runner.run()
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall, best_suite = wall, suite_result
    suite_result, wall_clock = best_suite, best_wall

    results = [
        {
            "case": r.case_name,
            "config": r.config_name,
            "result": r.result.value,
            "runtime": round(r.runtime, 6),
            "penalized_runtime": round(r.penalized_runtime, 6),
            "solved": r.solved,
            "correct": r.correct,
            "error": r.error,
        }
        for r in suite_result.results
    ]
    totals = {
        name: {
            "solved": suite_result.solved_count(name),
            "par1_time": round(
                sum(r.penalized_runtime for r in suite_result.by_config(name)), 6
            ),
        }
        for name in suite_result.configs()
    }
    anchor = next(iter(totals))
    anchor_par1 = totals[anchor]["par1_time"]
    config_ratios = {
        name: (round(bucket["par1_time"] / anchor_par1, 4) if anchor_par1 else None)
        for name, bucket in totals.items()
    }
    solve_time = sum(r.runtime for r in suite_result.results)
    return {
        "schema": BENCH_SCHEMA,
        "suite": args.suite,
        "timeout": args.timeout,
        "jobs": args.jobs,
        "reduce": not args.no_reduce,
        "repeat": max(args.repeat, 1),
        "num_cases": len(cases),
        "configs": list(totals),
        "anchor_config": anchor,
        "totals": totals,
        "config_ratios": config_ratios,
        "wall_clock": round(wall_clock, 6),
        "solve_time": round(solve_time, 6),
        "overhead_ratio": round(wall_clock / solve_time, 4) if solve_time else None,
        "wrong": [
            f"{r.config_name}/{r.case_name}"
            for r in suite_result.incorrect_results()
        ],
        "crashed": [
            f"{r.config_name}/{r.case_name}"
            for r in suite_result.results
            if r.error
        ],
        "results": results,
    }


def compare_to_baseline(
    report: dict,
    baseline: dict,
    max_slowdown: float,
    max_overhead_growth: float,
):
    """Replay a committed snapshot; returns a list of failure strings.

    All three checks are machine-independent: verdict equality on shared
    (configuration, case) pairs, per-configuration PAR-1 ratios within
    ``max_slowdown`` of the snapshot's ratios (ratio of ratios — the
    anchor configuration normalizes machine speed away), and the
    harness overhead ratio within ``max_overhead_growth`` of the
    snapshot's.
    """
    failures = []
    snapshot = {
        (row["config"], row["case"]): row for row in baseline.get("results", [])
    }
    shared = 0
    for row in report["results"]:
        base_row = snapshot.get((row["config"], row["case"]))
        if base_row is None:
            continue
        shared += 1
        if row["result"] != base_row["result"]:
            failures.append(
                f"verdict drift vs baseline on {row['config']}/{row['case']}: "
                f"{row['result']} != {base_row['result']}"
            )
    if shared == 0:
        failures.append("baseline shares no (config, case) pairs with this run")
    base_ratios = baseline.get("config_ratios", {})
    for name, ratio in report.get("config_ratios", {}).items():
        base_ratio = base_ratios.get(name)
        if not base_ratio or not ratio:
            continue
        if ratio > base_ratio * max_slowdown:
            failures.append(
                f"config {name} PAR-1 ratio regressed: {ratio}x vs baseline "
                f"{base_ratio}x (allowed factor {max_slowdown})"
            )
    base_overhead = baseline.get("overhead_ratio")
    overhead = report.get("overhead_ratio")
    if base_overhead and overhead and overhead > base_overhead * max_overhead_growth:
        failures.append(
            f"harness overhead ratio regressed: {overhead}x vs baseline "
            f"{base_overhead}x (allowed factor {max_overhead_growth})"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=sorted(SUITES), default="quick")
    parser.add_argument("--timeout", type=float, default=5.0, help="per-case limit")
    parser.add_argument(
        "--jobs", type=int, default=1, help="pool workers (1 keeps timings stable)"
    )
    parser.add_argument(
        "--no-reduce", action="store_true", help="solve the unreduced models"
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="full harness runs; the fastest is recorded (noise damping)",
    )
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_10.json to replay (verdicts + ratios)",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=1.6,
        help="allowed per-config PAR-1 ratio regression vs the baseline",
    )
    parser.add_argument(
        "--max-overhead-growth",
        type=float,
        default=2.0,
        help="allowed harness overhead-ratio growth vs the baseline",
    )
    args = parser.parse_args(argv)

    report = run_trajectory(args)
    print(
        f"trajectory ({report['suite']} suite, {report['num_cases']} cases, "
        f"{len(report['configs'])} configs, wall={report['wall_clock']:.2f}s, "
        f"overhead={report['overhead_ratio']}x):"
    )
    for name in report["configs"]:
        bucket = report["totals"][name]
        print(
            f"  {name:<14s} solved={bucket['solved']:<3d} "
            f"par1={bucket['par1_time']:8.2f}s "
            f"ratio={report['config_ratios'][name]}x"
        )

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"  report written to {args.output}")

    exit_code = 0
    if report["wrong"]:
        print(f"FAIL: verdicts contradict the ground truth: {report['wrong']}")
        exit_code = 1
    if report["crashed"]:
        print(f"FAIL: workers crashed on: {report['crashed']}")
        exit_code = 1
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = compare_to_baseline(
            report, baseline, args.max_slowdown, args.max_overhead_growth
        )
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            exit_code = 1
        else:
            print(f"  baseline {args.baseline} replayed clean")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
