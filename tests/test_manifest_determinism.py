"""Determinism regression: ``evaluate`` manifests for jobs=1 vs jobs=4.

The harness promises byte-identical results regardless of worker-pool
parallelism.  With manifest schema v3 the per-result ``stats`` block also
carries the solving-substrate counters (activation variables, shared
clauses, trail reuse), all of which must be deterministic — only
wall-clock fields may differ between runs.
"""

import json

from repro.benchgen import modular_counter, token_ring
from repro.core.options import IC3Options
from repro.harness.configs import EngineConfig
from repro.harness.manifest import MANIFEST_SCHEMA, build_manifest
from repro.harness.runner import BenchmarkRunner

CASES = [
    token_ring(3),
    token_ring(4),
    modular_counter(3, modulus=8, bad_value=7),
    modular_counter(3, modulus=6, bad_value=2),
]

CONFIGS = [
    EngineConfig(name="ic3-base", options=IC3Options()),
    EngineConfig(name="ic3-pl", options=IC3Options().with_prediction()),
]

TIMING_FIELDS = {
    "runtime",
    "penalized_runtime",
    "sat_time",
    "time_total",
    "time_generalization",
    "time_prediction",
    "time_propagation",
    "par1_time",
    "phase_times",
    "wall_clock",
    "created_at",
}


def _normalize(node):
    """Replace every timing field with a constant, recursively."""
    if isinstance(node, dict):
        return {
            key: (0 if key in TIMING_FIELDS else _normalize(value))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [_normalize(item) for item in node]
    return node


def _manifest(jobs: int) -> dict:
    suite_result = BenchmarkRunner(
        CASES, CONFIGS, timeout=60.0, jobs=jobs, validate=True
    ).run()
    return build_manifest(
        suite_result, suite="determinism", jobs=jobs, validate=True,
        configs=CONFIGS,
    )


class TestManifestDeterminism:
    def test_jobs_1_and_4_byte_identical_modulo_timing(self):
        one = _manifest(jobs=1)
        four = _manifest(jobs=4)
        one["jobs"] = four["jobs"] = 0
        text_one = json.dumps(_normalize(one), indent=2, sort_keys=True)
        text_four = json.dumps(_normalize(four), indent=2, sort_keys=True)
        assert text_one == text_four

    def test_substrate_stats_present_and_deterministic(self):
        manifest = _manifest(jobs=4)
        assert manifest["schema"] == MANIFEST_SCHEMA == "repro-check/manifest/v17"
        # v14: the daemon's service block is gone; v15: so is the
        # metrics registry's telemetry block.
        assert "service" not in manifest
        assert "telemetry" not in manifest
        for result in manifest["results"]:
            stats = result["stats"]
            for field in (
                "lemma_clauses_added",
                "lemma_clauses_removed",
                "solver_clauses_shared",
                "activation_vars_allocated",
                "activation_vars_recycled",
                "activation_vars_retired",
                "assumption_levels_reused",
                "consecution_fallbacks",
                "watch_traversals",
                "blocker_hits",
                "literal_pool_bytes",
                "arena_compactions",
                "solver_removed_clauses",
                # v8: kernel search totals.
                "solver_conflicts",
                "solver_decisions",
                "solver_propagations",
                # v12: failed consecutions answered from stored witnesses.
                "consecution_reuses",
            ):
                assert field in stats
                assert isinstance(stats[field], int)
            # v10: the stats record carries every IC3Stats field.
            assert "sat_time" in stats
            # v13: the lemma-bus counters and the sharing record are gone.
            assert {key for key in stats if key.startswith("lemmas_")} == {
                "lemmas_added",
                "lemmas_pushed",
            }
            assert "bus_overflows" not in stats
            assert "time_import_validation" not in stats
            assert "sharing" not in result
            # v16: the multi-property and liveness records are gone.
            assert "properties" not in result
            assert "transformation" not in result
            assert not [key for key in stats if key.startswith("shared_")]
            # v17: one frame substrate, so no per-frame counters.
            for field in (
                "solver_clauses_duplicated",
                "solver_garbage_lemmas",
                "solver_rebuilds",
            ):
                assert field not in stats
            assert result["validated"] is True
        # Every configuration records its seed; v17: one frame substrate,
        # so none records it.
        for meta in manifest["configs"].values():
            assert set(meta) == {"engine", "plays_role_of", "uses_prediction", "seed"}
            assert meta["seed"] == 0
        # v7: every configuration total carries the phase-time breakdown.
        for totals in manifest["totals"].values():
            phase_times = totals["phase_times"]
            assert set(phase_times) == {
                "sat",
                "generalization",
                "prediction",
                "propagation",
                "reduction",
                "other",
            }
            for value in phase_times.values():
                assert isinstance(value, float) and value >= 0.0
