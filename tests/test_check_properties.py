"""``check --all-properties`` / ``--property N``: the checked property loop.

Each safety property gets its own engine run and its witness is
re-checked against the original model before the verdict counts.
"""

import re
import warnings
from collections import Counter

import pytest

from repro import cli
from repro.aiger import write_aag
from repro.aiger.aig import AIG, FALSE_LIT
from repro.aiger.writer import write_aig
from repro.cli import main
from repro.core.result import Certificate, CheckOutcome, CheckResult, CounterexampleTrace
from repro.engines.adapters import IC3Engine
from repro.harness import runner
from repro.logic.cube import Clause
from repro.sat.arena import ArenaSolver
from repro.sat.solver import Solver
from repro.ts.system import TransitionSystem

VERDICT = re.compile(r"^([bo]\d+): .*?: (safe|unsafe|unknown),", re.MULTILINE)


def _ring_with_mixed_bads(size=4, as_outputs=False, noise=False, extra_outputs=0):
    """A one-hot token ring with bads SAFE (b0, b2) and UNSAFE (b1).

    ``as_outputs`` declares the three properties as outputs instead of
    bads; ``noise`` adds an input-driven latch outside every property's
    cone, which reduction removes; ``extra_outputs`` adds outputs that
    the bads take precedence over.
    """
    aig = AIG(comment="ring with mixed bads")
    stages = [aig.add_latch(init=1 if i == 0 else 0) for i in range(size)]
    for index, stage in enumerate(stages):
        aig.set_latch_next(stage, stages[(index - 1) % size])
    if noise:
        flip = aig.add_input("flip")
        noisy = aig.add_latch(init=0, name="noise")
        aig.set_latch_next(noisy, aig.xor_gate(noisy, flip))
    collision = FALSE_LIT
    for i in range(size):
        for j in range(i + 1, size):
            collision = aig.or_gate(collision, aig.add_and(stages[i], stages[j]))
    add = aig.add_output if as_outputs else aig.add_bad
    add(collision)  # two tokens: never
    add(stages[2])  # the token reaches stage 2 after two steps
    add(aig.add_and(stages[0], stages[2]))  # never
    for _ in range(extra_outputs):
        aig.add_output(stages[1])
    aig.validate()
    return aig


RING = _ring_with_mixed_bads()
RING_VERDICTS = {"b0": "safe", "b1": "unsafe", "b2": "safe"}


@pytest.fixture()
def ring_model(tmp_path):
    path = tmp_path / "ring.aag"
    write_aag(RING, path)
    return str(path)


@pytest.fixture()
def justice_only_model(tmp_path):
    aig = AIG()
    x = aig.add_latch(init=0)
    aig.set_latch_next(x, aig.negate(x))
    aig.add_justice([x])
    path = tmp_path / "justice.aag"
    write_aag(aig, path)
    return str(path)


@pytest.fixture()
def write_model(tmp_path):
    def write(aig, name="model.aag"):
        path = tmp_path / name
        (write_aig if name.endswith(".aig") else write_aag)(aig, path)
        return str(path)

    return write


def _verdicts(out):
    return dict(VERDICT.findall(out))


def _record_witness_checks(monkeypatch):
    """Wrap the loop's witness check; return the list it appends to."""
    checks = []
    original = cli.validate_witness

    def recording(aig, outcome, property_index=0):
        verdict = original(aig, outcome, property_index=property_index)
        checks.append((property_index, aig.num_latches, outcome.result, verdict))
        return verdict

    monkeypatch.setattr(cli, "validate_witness", recording)
    return checks


class TestLoop:
    def test_all_properties_matches_each_single_property(self, ring_model, capsys):
        assert main(["check", ring_model, "--all-properties", "--engine", "ic3"]) == 1
        out = capsys.readouterr().out
        verdicts = _verdicts(out)
        assert verdicts == {"b0": "safe", "b1": "unsafe", "b2": "safe"}
        assert "aggregate: unsafe" in out
        assert "WARNING" not in out
        for index, expected_code in ((0, 0), (1, 1), (2, 0)):
            code = main(["check", ring_model, "--property", str(index), "--engine", "ic3"])
            single = capsys.readouterr().out
            assert code == expected_code
            assert _verdicts(single) == {f"b{index}": verdicts[f"b{index}"]}
            assert f"aggregate: {verdicts[f'b{index}']}" in single

    @pytest.mark.parametrize(
        "settings",
        [
            [],
            ["--no-reduce"],
            ["--passes", "coi"],
            ["--passes", "merge"],
            ["--passes", "ternary"],
            ["--passes", "coi,merge,ternary"],
            ["--frame-backend", "per-frame"],
        ],
        ids=lambda argv: " ".join(argv) or "default",
    )
    @pytest.mark.parametrize("engine", ["ic3", "ic3-pl"])
    def test_every_witness_is_checked_on_the_original_model(
        self, write_model, capsys, monkeypatch, engine, settings
    ):
        noisy = _ring_with_mixed_bads(noise=True)
        checks = _record_witness_checks(monkeypatch)
        argv = ["check", write_model(noisy), "--all-properties", "--engine", engine]
        assert main(argv + settings) == 1
        out = capsys.readouterr().out
        assert _verdicts(out) == RING_VERDICTS
        assert "WARNING" not in out
        # Witnesses found on the reduced model are lifted back and
        # accepted on the original one, noise latch included.
        assert checks == [
            (0, 5, CheckResult.SAFE, True),
            (1, 5, CheckResult.UNSAFE, True),
            (2, 5, CheckResult.SAFE, True),
        ]

    def test_reduction_drops_what_no_property_reads(self, write_model, capsys, monkeypatch):
        reductions = []
        honest = IC3Engine.check

        def recording(self, time_limit=None):
            outcome = honest(self, time_limit)
            reductions.append(outcome.reduction)
            return outcome

        monkeypatch.setattr(IC3Engine, "check", recording)
        model = write_model(_ring_with_mixed_bads(noise=True))
        assert main(["check", model, "--all-properties", "--passes", "coi"]) == 1
        assert [r["original"]["latches"] for r in reductions] == [5, 5, 5]
        assert all(r["reduced"]["latches"] <= 4 for r in reductions)

    def test_binary_model_gives_the_same_verdicts(self, write_model, capsys):
        assert main(["check", write_model(RING, "ring.aig"), "--all-properties"]) == 1
        assert _verdicts(capsys.readouterr().out) == RING_VERDICTS

    def test_outputs_are_the_properties_when_no_bads_are_declared(self, write_model, capsys):
        model = write_model(_ring_with_mixed_bads(as_outputs=True))
        assert main(["check", model, "--all-properties"]) == 1
        assert _verdicts(capsys.readouterr().out) == {"o0": "safe", "o1": "unsafe", "o2": "safe"}

    def test_output_labels(self, write_model, capsys):
        model = write_model(_ring_with_mixed_bads(as_outputs=True))
        assert main(["check", model, "--property", "1"]) == 1
        assert capsys.readouterr().out.startswith("o1: ic3-pl: unsafe")

    def test_bads_take_precedence_over_outputs(self, write_model, capsys):
        model = write_model(_ring_with_mixed_bads(extra_outputs=2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["check", model, "--all-properties"]) == 1
        out = capsys.readouterr().out
        assert _verdicts(out) == RING_VERDICTS

    @pytest.mark.parametrize("engine", ["bmc", "ic3", "ic3-pl", "kind", "k-induction"])
    def test_counterexample_is_accepted_for_every_engine(self, ring_model, capsys, engine):
        assert main(["check", ring_model, "--property", "1", "--engine", engine]) == 1
        out = capsys.readouterr().out
        assert re.match(r"b1: [\w-]+: unsafe, .*\n", out)
        assert "[witness rejected]" not in out and "WARNING" not in out

    @pytest.mark.parametrize(
        "depth, code, aggregate",
        [("1", 2, "unknown"), ("3", 1, "unsafe")],
        ids=["all-unknown", "unsafe-beats-unknown"],
    )
    def test_unknown_verdicts(self, ring_model, capsys, depth, code, aggregate):
        argv = ["check", ring_model, "--all-properties", "--engine", "bmc"]
        assert main(argv + ["--max-depth", depth]) == code
        out = capsys.readouterr().out
        assert len(_verdicts(out)) == 3
        assert f"aggregate: {aggregate}" in out

    def test_rejected_certificate_exits_2_with_warning(self, ring_model, capsys, monkeypatch):
        honest = IC3Engine.check
        every_latch_zero = Certificate(
            clauses=[Clause([-var]) for var in TransitionSystem(RING).latch_vars]
        )

        def bogus(self, time_limit=None):
            outcome = honest(self, time_limit)
            if outcome.result == CheckResult.SAFE:
                outcome.certificate = every_latch_zero  # fails initiation
            return outcome

        monkeypatch.setattr(IC3Engine, "check", bogus)
        assert main(["check", ring_model, "--all-properties"]) == 2
        out = capsys.readouterr().out
        assert "WARNING: witness validation failed for: b0, b2" in out
        assert "b0: ic3-pl: safe" in out and "[witness rejected]" in out

    def test_rejected_counterexample_exits_2_with_warning(
        self, ring_model, capsys, monkeypatch
    ):
        honest = IC3Engine.check

        def truncated(self, time_limit=None):
            outcome = honest(self, time_limit)
            if outcome.result == CheckResult.UNSAFE:
                # Only the initial state, where no bad holds.
                outcome.trace = CounterexampleTrace(steps=outcome.trace.steps[:1])
            return outcome

        monkeypatch.setattr(IC3Engine, "check", truncated)
        assert main(["check", ring_model, "--all-properties"]) == 2
        out = capsys.readouterr().out
        assert "WARNING: witness validation failed for: b1\n" in out
        assert "b1: ic3-pl: unsafe" in out and "aggregate: unsafe" in out

    def test_only_the_witness_checker_runs_the_reference_kernel(
        self, ring_model, capsys, monkeypatch
    ):
        calls = Counter()
        for kernel in (Solver, ArenaSolver):
            for name in ("solve", "solve_limited"):
                original = getattr(kernel, name)

                def counted(self, *args, _original=original, _kernel=kernel, **kwargs):
                    calls[_kernel.__name__] += 1
                    return _original(self, *args, **kwargs)

                monkeypatch.setattr(kernel, name, counted)
        checker_calls = Counter()
        for name in ("check_certificate", "check_counterexample"):
            original = getattr(runner, name)

            def counted_check(*args, _original=original, _name=name, **kwargs):
                before = calls["Solver"]
                try:
                    return _original(*args, **kwargs)
                finally:
                    checker_calls[_name] += 1
                    checker_calls["Solver"] += calls["Solver"] - before

            monkeypatch.setattr(runner, name, counted_check)
        assert main(["check", ring_model, "--all-properties", "--engine", "ic3"]) == 1
        assert checker_calls["check_certificate"] == 2
        assert checker_calls["check_counterexample"] == 1
        assert calls["ArenaSolver"] > 0
        assert calls["Solver"] == checker_calls["Solver"] > 0


S, U, K = CheckResult.SAFE, CheckResult.UNSAFE, CheckResult.UNKNOWN


class _ScriptedEngine:
    """Stands in for an engine: returns a fixed verdict with no witness."""

    def __init__(self, result, calls, property_index, **kwargs):
        self.result = result
        self.calls = calls
        self.property_index = property_index

    def check(self, time_limit=None):
        self.calls.append((self.property_index, time_limit))
        return CheckOutcome(result=self.result, engine="scripted")


class TestAggregation:
    @pytest.fixture()
    def scripted(self, monkeypatch):
        """Script per-property verdicts and rejected witnesses."""
        calls = []

        def script(results, rejected=()):
            monkeypatch.setattr(
                cli,
                "create_engine",
                lambda kind, aig, property_index, **kwargs: _ScriptedEngine(
                    results[property_index], calls, property_index
                ),
            )
            monkeypatch.setattr(
                cli,
                "validate_witness",
                lambda aig, outcome, property_index: False if property_index in rejected else None,
            )
            return calls

        return script

    @pytest.mark.parametrize(
        "results, rejected, code, aggregate",
        [
            ((S, S, S), (), 0, "safe"),
            ((S, U, S), (), 1, "unsafe"),
            ((U, U, U), (), 1, "unsafe"),
            ((K, S, S), (), 2, "unknown"),
            ((K, U, K), (), 1, "unsafe"),
            ((K, K, K), (), 2, "unknown"),
            ((S, U, S), (1,), 2, "unsafe"),
            ((S, S, S), (2,), 2, "safe"),
            ((K, U, S), (0, 2), 2, "unsafe"),
        ],
        ids=[
            "all-safe",
            "one-unsafe",
            "all-unsafe",
            "one-unknown",
            "unsafe-beats-unknown",
            "all-unknown",
            "rejected-trace",
            "rejected-certificate",
            "two-rejected",
        ],
    )
    def test_exit_code_and_aggregate(
        self, ring_model, capsys, scripted, results, rejected, code, aggregate
    ):
        scripted(results, rejected)
        assert main(["check", ring_model, "--all-properties"]) == code
        out = capsys.readouterr().out
        assert _verdicts(out) == {f"b{i}": r.value for i, r in enumerate(results)}
        assert f"aggregate: {aggregate} (" in out
        labels = ", ".join(f"b{i}" for i in rejected)
        assert ("WARNING: witness validation failed for: " + labels in out) == bool(rejected)

    @pytest.mark.parametrize(
        "argv, runs",
        [
            (["--all-properties"], [0, 1, 2]),
            (["--property", "0"], [0]),
            (["--property", "2"], [2]),
        ],
        ids=["all-properties", "property-0", "property-2"],
    )
    def test_one_run_per_property_each_with_the_full_timeout(
        self, ring_model, capsys, scripted, argv, runs
    ):
        calls = scripted((S, S, S))
        assert main(["check", ring_model, "--timeout", "7.5"] + argv) == 0
        assert calls == [(index, 7.5) for index in runs]


class TestUsageErrors:
    @pytest.mark.parametrize("index", ["-1", "3", "7"])
    def test_out_of_range_property_matches_reduce(self, ring_model, capsys, index):
        assert main(["check", ring_model, "--property", index]) == 2
        check_out = capsys.readouterr().out
        assert main(["reduce", ring_model, "--property", index]) == 2
        assert capsys.readouterr().out == check_out
        assert check_out == f"error: property index {index} out of range (valid: 0..2)\n"

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["check", "--all-properties"], ["check", "--property", "0"], ["reduce"]],
        ids=" ".join,
    )
    def test_justice_only_model_is_a_usage_error(self, justice_only_model, capsys, argv):
        assert main(argv[:1] + [justice_only_model] + argv[1:]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: the AIG declares neither bad states nor outputs")
        assert "justice property is parsed but not checked" in out

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["check", "--all-properties"], ["check", "--property", "0"], ["reduce"]],
        ids=" ".join,
    )
    def test_model_without_properties_is_a_usage_error(self, write_model, capsys, argv):
        aig = AIG()
        x = aig.add_latch(init=0)
        aig.set_latch_next(x, x)
        assert main(argv[:1] + [write_model(aig)] + argv[1:]) == 2
        assert capsys.readouterr().out == "error: the AIG declares neither bad states nor outputs\n"

    @pytest.mark.parametrize("command", ["check", "reduce"])
    def test_outputs_are_numbered_like_bads(self, write_model, capsys, command):
        model = write_model(_ring_with_mixed_bads(as_outputs=True))
        assert main([command, model, "--property", "3"]) == 2
        assert capsys.readouterr().out == "error: property index 3 out of range (valid: 0..2)\n"

    @pytest.mark.parametrize("command", ["check", "reduce"])
    def test_justice_properties_are_not_numbered(self, write_model, capsys, command):
        aig = _ring_with_mixed_bads()
        aig.add_justice([aig.latches[0].lit])
        aig.add_justice([aig.latches[1].lit])
        assert main([command, write_model(aig), "--property", "3"]) == 2
        assert capsys.readouterr().out == "error: property index 3 out of range (valid: 0..2)\n"

    def test_all_properties_and_property_are_exclusive(self, ring_model, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", ring_model, "--all-properties", "--property", "0"])
        assert exit_info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
