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
  solving substrate the configuration ran on (None for a configuration
  without options; the kernel name was dropped in v10).

Schema v4 (``repro-check/manifest/v4``) additions over v3:

* per-result ``properties`` (one verdict record per property of a
  multi-property run) and ``transformation`` (the liveness compiler
  summary of a direct liveness run), plus three multi-property sharing
  counters in per-result ``stats``.  All removed in v16.

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

* optional top-level ``service`` — the serving context (job counters and
  transport details) of runs produced through the verification HTTP
  daemon; ``None`` for plain ``repro-check evaluate`` runs.  Removed in
  v14 together with the daemon.

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
  for a configuration without options);
* per-result ``sharing`` — for cooperative portfolio runs, the lemma
  bus accounting; None when the run did not share lemmas (removed in
  v13).

Schema v9 (``repro-check/manifest/v9``) additions over v8:

* optional top-level ``telemetry`` — with ``repro-check evaluate
  --live``, the condensed totals of the parent process's metrics
  registry (``None`` otherwise).  Removed in v15.

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

Schema v14 (``repro-check/manifest/v14``) changes over v13:

* the verification daemon was removed, so the top-level ``service`` key
  of v6 is gone (``repro-check evaluate`` always wrote it as ``None``).

Schema v15 (``repro-check/manifest/v15``) changes over v14:

* the metrics registry was removed, so the top-level ``telemetry`` key
  of v9 is gone.  The engines run in pool workers and only the parent's
  registry was read, so its totals (``repro_engine_runs_total``,
  ``repro_sat_calls_total``, ...) were 0 for every pooled run.  The
  numbers they meant to total are on every result: ``stats.sat_calls``,
  ``stats.sat_time``, ``stats.solver_conflicts`` / ``_decisions`` /
  ``_propagations``, ``result``, ``engine``, ``winner`` and ``error``.

Schema v16 (``repro-check/manifest/v16``) changes over v15:

* the liveness engines and the multi-property scheduler were removed,
  so the per-result ``properties`` and ``transformation`` keys of v4
  are gone and per-result ``stats`` drops the three v4 sharing
  counters.  Every result is one safety property checked by one engine
  run.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional, Sequence

from repro.harness.configs import EngineConfig
from repro.harness.runner import CaseResult, SuiteResult

MANIFEST_SCHEMA = "repro-check/manifest/v16"


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
    }


def write_manifest(path: str, manifest: Dict[str, object]) -> None:
    """Write a manifest dictionary as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=False)
        handle.write("\n")
