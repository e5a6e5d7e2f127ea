"""Tests of the benchmark itself: output contract, correctness gate, tracing."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.ic3 import IC3  # noqa: E402
from repro.core.result import (  # noqa: E402
    Certificate,
    CheckResult,
    CounterexampleTrace,
)
from repro.logic.cube import Clause  # noqa: E402

from perfbench import layers, run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_declared_metric_with_its_unit(trace, section):
    result = _run_cli(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == declared


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == [name for name in workloads.workload_names() if name != "smoke"]
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _wrong_verdict(self, time_limit=None):
    outcome = _ORIGINAL_CHECK(self, time_limit)
    flipped = CheckResult.UNSAFE if outcome.result == CheckResult.SAFE else CheckResult.SAFE
    outcome.result = flipped
    return outcome


def _bogus_witness(self, time_limit=None):
    outcome = _ORIGINAL_CHECK(self, time_limit)
    if outcome.result == CheckResult.SAFE:
        # "Every latch is 0" is not inductive on any smoke case.
        outcome.certificate = Certificate(
            clauses=[Clause([-var]) for var in self.ts.latch_vars], level=1
        )
    else:
        outcome.trace = CounterexampleTrace(steps=outcome.trace.steps[:1])
    return outcome


_ORIGINAL_CHECK = IC3.check


@pytest.mark.parametrize("patched", [_wrong_verdict, _bogus_witness])
def test_wrong_verdict_or_bogus_witness_counts_as_failed(monkeypatch, patched):
    monkeypatch.setattr(IC3, "check", patched)
    metrics, attempted, failed = run.measure_end_to_end("smoke", 1, 0.1, probes=1)
    assert attempted > 0 and failed / attempted > 0
    assert metrics["solved"] < attempted


def test_self_times_add_up_and_wrappers_are_restored():
    metrics, _attempted, failed = run.measure_layers("smoke", 2, 0.1)
    assert failed == 0
    wall = metrics["trace.wall_s"]
    attributed = sum(metrics[bucket] for bucket in layers.buckets())
    assert all(metrics[bucket] >= 0 for bucket in layers.buckets())
    assert 0 <= metrics["trace.unattributed_s"] <= 0.01 * wall
    assert attributed + metrics["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    for module_name, path, _bucket, _opaque in layers.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert not hasattr(owner, "layer_bucket"), path
    from repro.core.invariant import check_certificate
    from repro.harness import runner

    assert runner.check_certificate is check_certificate


def test_profiler_attributes_nested_calls_exclusively():
    profiler = layers.LayerProfiler()
    inner = profiler._wrap(lambda: sum(range(20000)), "inner", False)
    outer = profiler._wrap(lambda: [inner() for _ in range(5)], "outer", False)
    opaque = profiler._wrap(outer, "opaque", True)
    outer()
    assert profiler.self_time["inner"] > 0 and profiler.self_time["outer"] > 0
    before = dict(profiler.self_time)
    opaque()
    assert profiler.self_time["inner"] == before["inner"]
    assert profiler.self_time["outer"] == before["outer"]
    assert profiler.self_time["opaque"] > 0


def test_seed_zero_keeps_generator_numbering_and_seeds_are_reproducible():
    generated = [make() for make, _why in workloads.WORKLOADS["smoke"]]
    seed0 = workloads.write_cases("smoke", 0)
    from repro.aiger import to_aag_string

    assert [text for _case, text in seed0] == [to_aag_string(c.aig) for c in generated]
    again = workloads.write_cases("smoke", 7)
    assert [t for _c, t in again] == [t for _c, t in workloads.write_cases("smoke", 7)]
    assert [t for _c, t in again] != [t for _c, t in seed0]


def _simulate_by_name(aig, stimuli):
    sequence = [{lit: values[aig.input_name(lit)] for lit in aig.inputs} for values in stimuli]
    return [
        ([record["latches"][latch.lit] for latch in aig.latches],
         record["outputs"], record["bads"])
        for record in aig.simulate(sequence)
    ]


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_renumbering_is_isomorphic_and_keeps_verdicts(seed):
    import random

    from repro.engines import create_engine

    rng = random.Random(seed)
    originals = [make() for make, _why in workloads.WORKLOADS["smoke"]]
    for original, case in zip(originals, workloads.build_cases("smoke", seed)):
        names = [original.aig.input_name(lit) for lit in original.aig.inputs]
        stimuli = [{name: rng.random() < 0.5 for name in names} for _ in range(24)]
        assert _simulate_by_name(case.aig, stimuli) == _simulate_by_name(original.aig, stimuli)
        outcome = create_engine("ic3", case.aig).check(time_limit=30)
        assert outcome.result == case.expected
