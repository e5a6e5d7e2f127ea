"""Benchmark of the IC3 stack: Table-1 metrics per workload, per-layer self-times.

Run from the repository root::

    python3 perfbench/run.py --workload safe-proofs --seed 1 --seconds 35 --trace 0

``--trace 0`` runs the six paper configurations over the workload's cases
through the harness (``BenchmarkRunner``, one worker process per run,
one at a time) in as many passes as fit in ``--seconds`` and reports the
end-to-end metrics: set-up time, harness wall time, PAR-1 overall and per
configuration, solved runs and peak worker memory.  End-to-end times are
scaled to a reference machine speed (:mod:`perfbench.calibrate`) and each
run counts with the median over its passes (see :func:`summarize`); the
per-layer times of ``--trace 1`` are raw.  ``--trace 1`` runs
the same cases in process with and without the layer profiler
(:mod:`perfbench.layers`) and reports per-layer self-times, the engines'
own counters and the Table 2 success rates.

Every verdict is compared with the case's expected verdict and every
witness is re-checked against the original, unreduced circuit (the
harness' ``validate`` path: ``check_certificate`` for SAFE,
``check_counterexample`` for UNSAFE).  A timeout, crash, wrong verdict,
or missing or rejected witness counts as failed and is charged the case
limit in PAR-1.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.harness.configs import paper_configurations  # noqa: E402
from repro.harness.runner import BenchmarkRunner, CaseResult  # noqa: E402

from perfbench import calibrate  # noqa: E402
from perfbench.layers import LayerProfiler, buckets  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    build_cases,
    parse_cases,
    workload_names,
    write_cases,
)

CASE_LIMIT_S = 20.0
"""Per-run time limit; a failed run is charged this much in PAR-1."""

SETUP_PROBES = 7
"""Fresh interpreters timed for ``setup_s`` (the median is reported)."""

CONFIGS = paper_configurations()

END_TO_END: List[Tuple[str, str]] = (
    [("setup_s", "s"), ("wall_s", "s"), ("par1_s", "s")]
    + [(f"par1_s.{config.name}", "s") for config in CONFIGS]
    + [("solved", "count"), ("peak_rss_mb", "MB")]
)

PER_LAYER: List[Tuple[str, str]] = (
    [(bucket, "s") for bucket in buckets()]
    + [
        ("reduce.latches_in", "count"),
        ("reduce.latches_out", "count"),
        ("sat.calls", "count"),
        ("sat.conflicts", "count"),
        ("sat.propagations", "count"),
        ("sat.engine_share", "frac"),
        ("frames.consecution_calls", "count"),
        ("frames.lemmas_added", "count"),
        ("frames.lemmas_pushed", "count"),
        ("ic3.propagate_s", "s"),
        ("ic3.generalize_phase_s", "s"),
        ("ic3.predict_phase_s", "s"),
        ("ic3.obligations", "count"),
        ("generalize.calls", "count"),
        ("generalize.drop_attempts", "count"),
        ("generalize.drop_successes", "count"),
        ("generalize.ric3_share", "frac"),
        ("predict.queries", "count"),
        ("predict.successes", "count"),
        ("predict.parent_hits", "count"),
        ("predict.sr_lp", "frac"),
        ("predict.sr_fp", "frac"),
        ("predict.sr_adv", "frac"),
        ("harness.overhead_s", "s"),
        ("harness.tasks", "count"),
        ("trace.unattributed_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_frac", "frac"),
    ]
)

# Self-time buckets outside the engine: parsing, witness checks, harness.
NON_ENGINE = {
    "aiger.parse_s",
    "invariant.certificate_s",
    "invariant.trace_s",
    "harness.self_s",
}


def run_failed(result: CaseResult) -> bool:
    """True unless the run gave the expected verdict with an accepted witness."""
    return not (
        result.error is None
        and result.solved
        and result.result == result.expected
        and result.validated is True
    )


Run = Tuple[CaseResult, float, float]
"""One (config, case) run: its result, its harness wall time and its speed scale."""


def summarize(passes: List[List[Run]]) -> Dict[str, float]:
    """End-to-end numbers of repeated passes over the same runs.

    Times are scaled to reference machine speed (:mod:`perfbench.calibrate`).
    Each (config, case) run is charged the median of its scaled runtimes
    over the passes, and ``wall_s`` sums the median scaled harness wall
    time of each run.  A run that failed in any pass is charged the case
    limit and does not count as solved.
    """
    runtimes: Dict[Tuple[str, str], List[float]] = {}
    walls: Dict[Tuple[str, str], List[float]] = {}
    failed = set()
    for runs in passes:
        for result, wall, scale in runs:
            key = (result.config_name, result.case_name)
            runtimes.setdefault(key, []).append(result.runtime * scale)
            walls.setdefault(key, []).append(wall * scale)
            if run_failed(result):
                failed.add(key)
    metrics = {f"par1_s.{config.name}": 0.0 for config in CONFIGS}
    for key, values in runtimes.items():
        metrics[f"par1_s.{key[0]}"] += (
            CASE_LIMIT_S if key in failed else statistics.median(values)
        )
    metrics["par1_s"] = sum(metrics[f"par1_s.{config.name}"] for config in CONFIGS)
    metrics["wall_s"] = sum(statistics.median(values) for values in walls.values())
    metrics["solved"] = len(runtimes) - len(failed)
    return metrics


def harness_pass(cases) -> List[Run]:
    """One pass through the harness, one (config, case) run at a time.

    Each run gets its own one-task ``BenchmarkRunner`` (one worker
    process) between two calibration slices.
    """
    runs = []
    before = calibrate.slice_seconds()
    for case in cases:
        for config in CONFIGS:
            runner = BenchmarkRunner([case], [config], timeout=CASE_LIMIT_S, validate=True)
            start = time.perf_counter()
            (result,) = runner.run().results
            wall = time.perf_counter() - start
            after = calibrate.slice_seconds()
            runs.append((result, wall, calibrate.scale(before, after)))
            before = after
    return runs


def in_process_pass(written) -> Tuple[List[CaseResult], float]:
    """Parse the AAG texts and run every pair in this process."""
    runner = BenchmarkRunner([], CONFIGS, timeout=CASE_LIMIT_S, validate=True)
    start = time.perf_counter()
    cases = parse_cases(written)
    results = [runner.run_one(case, config) for case in cases for config in CONFIGS]
    return results, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Scaled wall time of a fresh interpreter that imports and builds the workload."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", workload, "--seed", str(seed)]
    before = calibrate.slice_seconds()
    start = time.perf_counter()
    subprocess.run(command, check=True, cwd=ROOT)
    elapsed = time.perf_counter() - start
    return elapsed * calibrate.scale(before, calibrate.slice_seconds())


def measure_end_to_end(workload: str, seed: int, seconds: float, probes: int = SETUP_PROBES):
    """Harness passes for ``seconds``, then set-up probes; the ``--trace 0`` run."""
    cases = build_cases(workload, seed)
    start = time.perf_counter()
    passes = []
    while True:
        pass_start = time.perf_counter()
        passes.append(harness_pass(cases))
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            break
    # Read before the set-up probes, which are child processes too.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setup = statistics.median(probe_setup(workload, seed) for _ in range(probes))

    metrics = summarize(passes)
    metrics.update(setup_s=setup, peak_rss_mb=peak_rss_mb)
    all_runs = [run for runs in passes for run in runs]
    failed = sum(run_failed(result) for result, _wall, _scale in all_runs)
    scales = sorted(scale for _result, _wall, scale in all_runs)
    print(f"# workload={workload} seed={seed} cases={len(cases)} passes={len(passes)} "
          f"failed_frac={failed / len(all_runs):.4f} speed_scale min={scales[0]:.3f} "
          f"median={statistics.median(scales):.3f} max={scales[-1]:.3f}")
    return metrics, len(all_runs), failed


def measure_layers(workload: str, seed: int, seconds: float):
    """One harness pass, then plain and profiled in-process passes; the ``--trace 1`` run."""
    written = write_cases(workload, seed)
    start = time.perf_counter()
    pool_runs = harness_pass(parse_cases(written))
    pool_results = [result for result, _wall, _scale in pool_runs]
    checked = list(pool_results)
    overheads, traced = [], []
    while True:
        plain_results, plain_wall = in_process_pass(written)
        with LayerProfiler() as profiler:
            results, traced_wall = in_process_pass(written)
        overheads.append(traced_wall / plain_wall - 1.0)
        traced.append((traced_wall, profiler.self_time, results))
        checked += plain_results + results
        if time.perf_counter() - start + plain_wall + traced_wall > seconds:
            break
    traced.sort(key=lambda item: item[0])
    traced_wall, self_time, results = traced[(len(traced) - 1) // 2]

    metrics = {bucket: self_time.get(bucket, 0.0) for bucket in buckets()}
    metrics.update(layer_counters(results))
    engine_time = sum(t for bucket, t in self_time.items() if bucket not in NON_ENGINE)
    metrics["sat.engine_share"] = metrics["sat.solve_s"] / engine_time
    # Process overhead plus the witness checks, which the worker runs
    # after the timed run.
    metrics["harness.overhead_s"] = sum(wall - r.runtime for r, wall, _scale in pool_runs)
    metrics["harness.tasks"] = len(pool_results)
    metrics["trace.unattributed_s"] = traced_wall - sum(self_time.values())
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = statistics.median(overheads)

    failed = sum(map(run_failed, checked))
    print(f"# workload={workload} seed={seed} traced_passes={len(traced)} "
          f"failed_frac={failed / len(checked):.4f}")
    return metrics, len(checked), failed


def layer_counters(results: List[CaseResult]) -> Dict[str, float]:
    """Engine counters summed over a pass, plus the Table 2 rates of ``-pl``."""
    total = {}
    for result in results:
        for key, value in vars(result.stats).items():
            total[key] = total.get(key, 0) + value
    predicting = [r.stats for r in results if r.config_name.endswith("-pl")]
    n_p = sum(s.prediction_queries for s in predicting)
    n_sp = sum(s.prediction_successes for s in predicting)
    n_fp = sum(s.parent_lemma_hits for s in predicting)
    n_g = sum(s.generalizations for s in predicting)
    ric3 = [r for r in results if r.config_name == "RIC3"]
    seen, latches_in, latches_out = set(), 0, 0
    for result in results:
        if result.reduction and result.case_name not in seen:
            seen.add(result.case_name)
            latches_in += result.reduction["original"]["latches"]
            latches_out += result.reduction["reduced"]["latches"]
    return {
        "reduce.latches_in": latches_in,
        "reduce.latches_out": latches_out,
        "sat.calls": total["sat_calls"],
        "sat.conflicts": total["solver_conflicts"],
        "sat.propagations": total["solver_propagations"],
        "frames.consecution_calls": total["consecution_calls"],
        "frames.lemmas_added": total["lemmas_added"],
        "frames.lemmas_pushed": total["lemmas_pushed"],
        "ic3.propagate_s": total["time_propagation"],
        "ic3.generalize_phase_s": total["time_generalization"],
        "ic3.predict_phase_s": total["time_prediction"],
        "ic3.obligations": total["obligations_processed"],
        "generalize.calls": total["generalizations"],
        "generalize.drop_attempts": total["mic_drop_attempts"],
        "generalize.drop_successes": total["mic_drop_successes"],
        "generalize.ric3_share": (
            sum(r.stats.time_generalization for r in ric3) / sum(r.runtime for r in ric3)
        ),
        "predict.queries": n_p,
        "predict.successes": n_sp,
        "predict.parent_hits": n_fp,
        "predict.sr_lp": n_sp / n_p if n_p else 0.0,
        "predict.sr_fp": n_fp / n_g if n_g else 0.0,
        "predict.sr_adv": n_sp / n_g if n_g else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        build_cases(args.workload, args.seed)
        return 0
    # One core for the benchmark, its workers and its calibration slices,
    # so that the slices see the same machine load as the runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        metrics, attempted, failed = measure_layers(args.workload, args.seed, args.seconds)
        units = dict(PER_LAYER)
    else:
        metrics, attempted, failed = measure_end_to_end(args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
