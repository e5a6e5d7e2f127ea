"""Machine-readable run manifests.

``repro-check evaluate --output run.json`` records everything needed to
track performance across PRs (the ``BENCH_*.json`` trajectory): the suite
and harness parameters, per-case verdicts and runtimes, the portfolio
winner and full engine statistics of every run, the original-vs-reduced
model sizes the preprocessing pipeline achieved, and per-configuration
totals.  The schema is versioned so future readers can evolve without
guessing.

Schema v2 (``repro-check/manifest/v2``) additions over v1:

* per-result ``winner`` — the member engine that won a portfolio race
  (None for non-portfolio configurations);
* per-result ``stats`` — the engine's statistics counters
  (:meth:`repro.core.stats.IC3Stats.as_dict`);
* per-result ``reduction`` — original and reduced model sizes plus the
  pass list (None when preprocessing was disabled);
* top-level ``reduce`` — whether preprocessing was enabled for the run.

Schema v3 (``repro-check/manifest/v3``) additions over v2:

* per-result ``stats`` now includes the solving-substrate counters of
  the incremental layer: ``lemma_clauses_added`` /
  ``lemma_clauses_removed`` (physical lemma clause traffic),
  ``solver_clauses_shared`` vs ``solver_clauses_duplicated`` (frame
  placements served by one clause vs per-frame copies),
  ``solver_garbage_lemmas`` and ``solver_rebuilds`` (per-frame backend
  garbage shedding), ``activation_vars_allocated`` / ``_recycled`` /
  ``_retired`` (removable-clause scopes), ``consecution_fallbacks``
  (clause-free consecution re-queries) and ``assumption_levels_reused``
  (solver trail reuse across queries);
* per-configuration ``frame_backend`` and the SAT-kernel name — which
  solving substrate the configuration ran on (None for engines that do
  not take IC3 options; the kernel name was dropped in v10).

Schema v4 (``repro-check/manifest/v4``) additions over v3:

* per-result ``properties`` — for multi-property scheduler runs, one
  record per property of the model (number/label/kind, verdict, engine,
  runtime, validation status, ``shared_lemmas_applied`` hits and the
  liveness-transformation summary); None for single-property runs;
* per-result ``transformation`` — the l2s/k-liveness compiler summary
  (kind, tracked literals, auxiliary latches, proved bound ``k``) when
  the configuration ran a liveness engine directly; None otherwise;
* per-result ``stats`` now includes the multi-property sharing counters
  ``shared_lemmas_offered`` / ``shared_lemmas_applied`` (invariant
  clauses seeded across sibling properties) and
  ``shared_unrolling_queries`` (BMC queries answered by the scheduler's
  shared unrolling).

Schema v5 (``repro-check/manifest/v5``) additions over v4:

* per-result ``stats`` now includes the SAT-kernel memory-system
  counters maintained identically by both SAT kernels:
  ``watch_traversals`` (watcher entries inspected by unit propagation),
  ``blocker_hits`` (entries resolved from the cached blocker literal
  without touching clause memory), ``literal_pool_bytes``
  (clause-storage bytes at finalize; for the arena kernel the int32
  clause pool at 4 bytes per word, dead words not yet compacted
  included), ``arena_compactions``
  (clause-storage garbage collections) and ``solver_removed_clauses``
  (lazily deleted clauses: reduce-DB victims, removed guarded clauses
  and purged learnts).

Schema v6 (``repro-check/manifest/v6``) additions over v5:

* optional top-level ``service`` — when the run was produced through the
  ``repro.serve`` daemon (or its smoke benchmark), a block describing
  the serving context: the service counters of
  :data:`repro.serve.metrics.COUNTERS` (jobs submitted/completed/failed,
  cache hits/misses, queue and budget rejections, worker
  recycles/crashes/timeouts, reduction reuses) plus any transport
  details the producer adds.  ``None`` for plain ``repro-check
  evaluate`` runs, so readers that ignore unknown keys keep working;
* per-result records produced by the daemon follow the same shape as
  harness results (``result``/``runtime``/``engine``/``stats``/
  ``reduction``/``properties``/``transformation``/``witness``), with an
  additional ``cache_hit`` flag on the job envelope.

Schema v7 (``repro-check/manifest/v7``) additions over v6:

* per-configuration ``phase_times`` in ``totals`` — a wall-clock
  attribution dict summed over the configuration's cases from the
  engines' own phase timers: ``sat`` (inside SAT solver calls),
  ``generalization``, ``prediction``, ``propagation``, ``reduction``
  (preprocessing pipeline) and ``other`` (total minus the above, the
  engine's bookkeeping and blocking overhead).  Seconds, rounded to
  microseconds.  The same attribution is available per run, at full
  span granularity, through ``repro-check evaluate --trace-out`` and
  ``repro-check trace-report`` (the :mod:`repro.obs` tracing layer).

Schema v8 (``repro-check/manifest/v8``) additions over v7:

* per-result ``stats`` now includes the SAT-kernel search totals
  ``solver_conflicts`` / ``solver_decisions`` / ``solver_propagations``
  (aggregated over every kernel the run created) and six cooperative
  lemma-sharing counters plus an import-validation timer (all removed
  in v13);
* per-configuration ``seed`` — the SAT-kernel RNG seed the
  configuration ran with (0 for the deterministic unseeded order, None
  for engines that do not take IC3 options);
* per-result ``sharing`` — for cooperative portfolio runs, the lemma
  bus accounting; None when the run did not share lemmas (removed in
  v13).

Schema v9 (``repro-check/manifest/v9``) additions over v8:

* optional top-level ``telemetry`` — when the run was executed with the
  live telemetry layer active (``repro-check evaluate --live`` or any
  producer that opts in), the condensed per-family totals of the
  process-wide metrics registry at manifest build time
  (:func:`repro.obs.metrics.snapshot_totals`: counter totals such as
  ``repro_engine_runs_total`` / ``repro_sat_calls_total`` /
  ``repro_harness_tasks_total`` / ``repro_stalls_total``, and
  ``sum``/``count`` pairs for the latency histograms).  ``None`` —
  and therefore byte-identical output for identical runs — otherwise.

Schema v10 (``repro-check/manifest/v10``) changes over v9:

* the per-configuration SAT-kernel name is gone: every engine runs the
  one production SAT kernel (:class:`repro.sat.arena.ArenaSolver`), so there
  is no per-configuration kernel choice left to record;
* per-result ``stats`` now carries every :class:`repro.core.stats.IC3Stats`
  field, which adds ``sat_time`` (seconds inside SAT calls) to the
  record.

Schema v11 (``repro-check/manifest/v11``) additions over v10:

* per-result ``stats`` now includes ``pushes_skipped``: propagation
  pushes that IC3 skipped without a SAT call because the stored
  counterexample to propagation of the lemma's previous failed push
  still proved the push would fail.

Schema v12 (``repro-check/manifest/v12``) changes over v11:

* per-result ``stats`` replaces ``pushes_skipped`` with
  ``consecution_reuses``: failed consecution queries (blocking, pushes,
  propagation, prediction, CTG blocking and the cooperative portfolio's
  lemma imports; MIC drop attempts always run on the solver) that the frame manager answered
  from a stored SAT model instead of a SAT call.
  ``consecution_calls`` keeps counting SAT-backed queries only.

Schema v13 (``repro-check/manifest/v13``) changes over v12:

* cooperative lemma sharing between portfolio members was removed, so
  per-result ``sharing`` is gone, and per-result ``stats`` drops the six
  lemma-bus counters of v8 (``lemmas_published`` through
  ``bus_overflows``) and the ``time_import_validation`` timer.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional, Sequence

from repro.harness.configs import EngineConfig
from repro.harness.runner import CaseResult, SuiteResult

MANIFEST_SCHEMA = "repro-check/manifest/v13"


def _phase_times(results: Sequence[CaseResult]) -> Dict[str, float]:
    """Sum per-phase wall-clock attribution over one configuration's runs.

    Built from the engines' own phase timers (``IC3Stats.time_*``,
    ``sat_time``) and the reduction pipeline's recorded ``elapsed``;
    ``other`` is whatever of the total the named phases do not explain.
    """
    phases = {
        "sat": 0.0,
        "generalization": 0.0,
        "prediction": 0.0,
        "propagation": 0.0,
        "reduction": 0.0,
        "other": 0.0,
    }
    for result in results:
        stats = result.stats
        phases["sat"] += stats.sat_time
        phases["generalization"] += stats.time_generalization
        phases["prediction"] += stats.time_prediction
        phases["propagation"] += stats.time_propagation
        reduction_elapsed = 0.0
        if result.reduction:
            reduction_elapsed = float(result.reduction.get("elapsed") or 0.0)
        phases["reduction"] += reduction_elapsed
        attributed = (
            stats.sat_time
            + stats.time_generalization
            + stats.time_prediction
            + stats.time_propagation
            + reduction_elapsed
        )
        # Generalization/prediction/propagation all sit on top of SAT
        # calls they issue, so "attributed" can legitimately exceed the
        # runtime; never report negative slack for that.
        phases["other"] += max(0.0, result.runtime - attributed)
    return {name: round(value, 6) for name, value in phases.items()}


def _reduction_sizes(result: CaseResult) -> Optional[Dict[str, object]]:
    """Slim per-case reduction record (sizes + passes, no per-pass detail)."""
    summary = result.reduction
    if not summary:
        return None
    return {
        "original": summary.get("original"),
        "reduced": summary.get("reduced"),
        "passes": summary.get("passes"),
    }


def build_manifest(
    suite_result: SuiteResult,
    *,
    suite: str = "custom",
    jobs: int = 1,
    validate: bool = False,
    reduce: bool = True,
    configs: Optional[Sequence[EngineConfig]] = None,
    wall_clock: Optional[float] = None,
    service: Optional[Dict[str, object]] = None,
    telemetry: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the JSON-serializable manifest of one harness run."""
    config_meta = {
        config.name: {
            "engine": config.engine,
            "plays_role_of": config.plays_role_of,
            "uses_prediction": config.uses_prediction,
            "frame_backend": (
                config.options.frame_backend if config.options is not None else None
            ),
            "seed": (
                config.options.seed if config.options is not None else None
            ),
        }
        for config in (configs or [])
    }
    results = [
        {
            "case": r.case_name,
            "config": r.config_name,
            "result": r.result.value,
            "runtime": round(r.runtime, 6),
            "penalized_runtime": round(r.penalized_runtime, 6),
            "frames": r.frames,
            "engine": r.engine,
            "winner": r.winner,
            "solved": r.solved,
            "correct": r.correct,
            "validated": r.validated,
            "stats": r.stats.as_dict(),
            "reduction": _reduction_sizes(r),
            "properties": r.properties,
            "transformation": r.transformation,
            "error": r.error,
        }
        for r in suite_result.results
    ]
    totals = {
        name: {
            "solved": suite_result.solved_count(name),
            "safe": sum(
                1 for r in suite_result.by_config(name) if r.result.value == "safe"
            ),
            "unsafe": sum(
                1 for r in suite_result.by_config(name) if r.result.value == "unsafe"
            ),
            "wrong": sum(1 for r in suite_result.by_config(name) if not r.correct),
            "par1_time": round(
                sum(r.penalized_runtime for r in suite_result.by_config(name)), 6
            ),
            "phase_times": _phase_times(suite_result.by_config(name)),
        }
        for name in suite_result.configs()
    }
    return {
        "schema": MANIFEST_SCHEMA,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "suite": suite,
        "timeout": suite_result.timeout,
        "jobs": jobs,
        "validate": validate,
        "reduce": reduce,
        "num_cases": len(suite_result.cases()),
        "num_configs": len(suite_result.configs()),
        "configs": config_meta,
        "totals": totals,
        "results": results,
        "wall_clock": round(wall_clock, 6) if wall_clock is not None else None,
        "service": service,
        "telemetry": telemetry,
    }


def write_manifest(path: str, manifest: Dict[str, object]) -> None:
    """Write a manifest dictionary as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=False)
        handle.write("\n")
