"""Integration tests: pipeline composition and witness lift-back."""

from hashlib import sha256

import pytest

from repro.aiger import AIG, AigerError, parse_aiger, to_aag_string
from repro.benchgen import (
    default_suite,
    monitored_counter,
    reduction_suite,
    shadowed_ring,
)
from repro.core import IC3, BMC, CheckResult, IC3Options
from repro.logic import Cube
from repro.core.invariant import CertificateError, check_certificate, check_counterexample
from repro.core.result import CounterexampleTrace, TraceStep
from repro.engines import create_engine
from repro.reduce import (
    DEFAULT_PASSES,
    ReductionError,
    ReductionPipeline,
    available_passes,
    reduce_aig,
    register_pass,
    resolve_pass,
)
from repro.reduce.base import KEPT, LatchFate
from repro.reduce.coi import ConeOfInfluencePass
from repro.ts.system import TransitionSystem, latch_variables


class TestRegistry:
    def test_default_passes_are_registered(self):
        assert set(DEFAULT_PASSES) <= set(available_passes())

    def test_resolve_unknown_pass(self):
        with pytest.raises(KeyError):
            resolve_pass("no-such-pass")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReductionError):
            register_pass("coi", type("Fake", (), {}))

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ReductionError):
            ReductionPipeline([])


class TestPipeline:
    def test_summary_shape(self):
        case = monitored_counter(3, noise=4)
        result = reduce_aig(case.aig)
        summary = result.summary()
        assert summary["passes"] == list(DEFAULT_PASSES)
        assert summary["original"]["latches"] == case.aig.num_latches
        assert summary["reduced"]["latches"] == result.aig.num_latches
        assert len(summary["per_pass"]) == len(DEFAULT_PASSES)
        assert result.reduced

    def test_all_passes_contribute_on_soc_case(self):
        case = monitored_counter(4, noise=6)
        result = reduce_aig(case.aig)
        by_name = {}
        for info in result.infos:
            by_name.setdefault(info.pass_name, []).append(info)
        assert by_name["coi"][0].details["removed_latches"] >= 6
        assert any(i.details.get("constant_latches") for i in by_name["ternary"])
        assert any(i.details.get("merged_latches") for i in by_name["merge"])

    def test_custom_pass_list(self):
        case = monitored_counter(3, noise=4)
        result = reduce_aig(case.aig, passes=["coi"])
        assert [info.pass_name for info in result.infos] == ["coi"]
        # COI alone keeps the shadow and strap latches.
        assert result.aig.num_latches > reduce_aig(case.aig).aig.num_latches

    def test_never_grows_on_default_suite(self):
        for case in default_suite():
            result = reduce_aig(case.aig)
            assert result.aig.num_latches <= case.aig.num_latches, case.name
            assert result.aig.num_ands <= case.aig.num_ands, case.name
            assert result.aig.num_inputs <= case.aig.num_inputs, case.name

    def test_shrinks_every_nontrivial_cone_case(self):
        """Acceptance: every suite case with reducible structure shrinks."""
        for case in default_suite() + reduction_suite():
            if case.family != "soc":
                continue
            result = reduce_aig(case.aig)
            assert result.aig.num_latches < case.aig.num_latches, case.name
            assert result.aig.num_ands < case.aig.num_ands, case.name


class TestWitnessLiftBack:
    @pytest.mark.parametrize("factory", [
        lambda: monitored_counter(3, noise=5, safe=True),
        lambda: shadowed_ring(4, noise=4, safe=True),
    ], ids=["moncnt", "shring"])
    def test_certificate_lifts_to_original(self, factory):
        case = factory()
        result = reduce_aig(case.aig)
        outcome = IC3(
            result.aig, IC3Options().with_prediction(),
            property_index=result.property_index,
        ).check(time_limit=60)
        assert outcome.result == CheckResult.SAFE
        lifted = result.recon.lift_certificate(outcome.certificate)
        assert check_certificate(case.aig, lifted)

    @pytest.mark.parametrize("factory", [
        lambda: monitored_counter(3, noise=5, safe=False),
        lambda: shadowed_ring(4, noise=4, safe=False),
    ], ids=["moncnt", "shring"])
    def test_trace_lifts_to_original(self, factory):
        case = factory()
        result = reduce_aig(case.aig)
        outcome = IC3(
            result.aig, IC3Options().with_prediction(),
            property_index=result.property_index,
        ).check(time_limit=60)
        assert outcome.result == CheckResult.UNSAFE
        lifted = result.recon.lift_trace(outcome.trace)
        assert check_counterexample(case.aig, lifted)
        assert lifted.depth == outcome.trace.depth

    def test_bmc_trace_lifts_to_original(self):
        case = shadowed_ring(4, noise=4, safe=False)
        result = reduce_aig(case.aig)
        outcome = BMC(result.aig, property_index=result.property_index).check(
            max_depth=10
        )
        assert outcome.result == CheckResult.UNSAFE
        lifted = result.recon.lift_trace(outcome.trace)
        assert check_counterexample(case.aig, lifted)

    def test_certificate_valid_even_when_model_vanishes(self):
        """Merging can fold the bad cone to constant false; the lifted
        invariant must still explain that to the original model."""
        aig = AIG()
        tick = aig.add_input()
        first = aig.add_latch(init=0)
        second = aig.add_latch(init=0)
        aig.set_latch_next(first, aig.xor_gate(first, tick))
        aig.set_latch_next(second, aig.xor_gate(second, tick))
        aig.add_bad(aig.xor_gate(first, second))
        result = reduce_aig(aig)
        assert result.aig.num_latches == 0
        outcome = IC3(result.aig, property_index=result.property_index).check()
        assert outcome.result == CheckResult.SAFE
        lifted = result.recon.lift_certificate(outcome.certificate)
        assert check_certificate(aig, lifted)

    def test_lift_outcome_keeps_verdict_and_stats(self):
        case = monitored_counter(3, noise=5, safe=False)
        result = reduce_aig(case.aig)
        outcome = IC3(
            result.aig, property_index=result.property_index
        ).check(time_limit=60)
        lifted = result.lift_outcome(outcome)
        assert lifted.result == outcome.result
        assert lifted.stats is outcome.stats
        assert lifted.trace is not outcome.trace


# Latch variable 1 sits below both input variables 2 and 3; bad is
# latch ∧ x ∧ y, reached in one step.
INTERLEAVED_AAG = "aag 5 2 1 0 2 1\n4\n6\n2 8\n10\n8 6 4\n10 8 2\n"


def _latch_first_aig():
    """A builder AIG that creates latches before and between inputs."""
    aig = AIG()
    first = aig.add_latch(init=0)
    enable = aig.add_input()
    second = aig.add_latch(init=None)
    noise = aig.add_input()
    aig.set_latch_next(first, aig.xor_gate(first, enable))
    aig.set_latch_next(second, noise)
    aig.add_bad(aig.add_and(first, enable))
    return aig


class TestLiftBackNumbering:
    """Lift-back reads the variable numbering without encoding a model."""

    @pytest.mark.parametrize("safe", [True, False], ids=["certificate", "trace"])
    def test_lift_outcome_builds_no_transition_system(self, safe, monkeypatch):
        case = monitored_counter(3, noise=6, copies=2, safe=safe)
        result = reduce_aig(case.aig)
        outcome = IC3(result.aig, property_index=result.property_index).check(
            time_limit=60
        )
        assert outcome.result == (CheckResult.SAFE if safe else CheckResult.UNSAFE)

        def refuse(self, *args, **kwargs):
            raise AssertionError("lift-back built a TransitionSystem")

        monkeypatch.setattr(TransitionSystem, "__init__", refuse)
        lifted = result.lift_outcome(outcome)
        monkeypatch.undo()

        if safe:
            assert check_certificate(case.aig, lifted.certificate)
        else:
            assert check_counterexample(case.aig, lifted.trace)
            assert lifted.trace.depth == outcome.trace.depth

    @pytest.mark.parametrize(
        "build",
        [lambda: parse_aiger(INTERLEAVED_AAG), _latch_first_aig],
        ids=["aag latch below inputs", "builder latch before input"],
    )
    def test_numbering_matches_transition_system(self, build):
        aig = build()
        ts = TransitionSystem(aig)
        assert list(latch_variables(aig)) == ts.latch_vars
        assert ts.latch_vars == [ts.to_solver_lit(latch.lit) for latch in aig.latches]

    @pytest.mark.parametrize(
        "build",
        [lambda: parse_aiger(INTERLEAVED_AAG), _latch_first_aig],
        ids=["aag latch below inputs", "builder latch before input"],
    )
    @pytest.mark.parametrize("engine", ["ic3", "bmc"])
    def test_lifted_trace_checks_on_interleaved_numbering(self, build, engine):
        aig = build()
        outcome = create_engine(engine, aig).check()
        assert outcome.result == CheckResult.UNSAFE
        assert check_counterexample(aig, outcome.trace)


# bad = ¬x ∧ x, with the gate that reads the other listed first.
AND_LINES_OUT_OF_ORDER = "aag 3 1 0 0 2 1\n2\n6\n6 5 2\n4 2 2\n"


class TestAndLinesOutOfOrder:
    """Reduction, IC3 and the checker read AND gates front to back; an
    ASCII model may list them in any order."""

    def test_reduced_model_is_safe(self):
        result = reduce_aig(parse_aiger(AND_LINES_OUT_OF_ORDER))
        outcome = IC3(result.aig, property_index=result.property_index).check(
            time_limit=60
        )
        assert outcome.result == CheckResult.SAFE
        aig = parse_aiger(AND_LINES_OUT_OF_ORDER)
        assert check_certificate(aig, result.lift_outcome(outcome).certificate)

    @pytest.mark.parametrize("x", [False, True])
    def test_checker_rejects_a_depth_0_trace(self, x):
        aig = parse_aiger(AND_LINES_OUT_OF_ORDER)
        trace = CounterexampleTrace(steps=[TraceStep(state=Cube([]), inputs={2: x})])
        with pytest.raises(CertificateError, match="bad"):
            check_counterexample(aig, trace)

    def test_checker_refuses_a_gate_list_out_of_order(self):
        aig = parse_aiger(AND_LINES_OUT_OF_ORDER)
        aig.ands.reverse()
        trace = CounterexampleTrace(steps=[TraceStep(state=Cube([]), inputs={2: True})])
        with pytest.raises(AigerError, match="before it is defined"):
            check_counterexample(aig, trace)


class TestEngineIntegration:
    """Reduction is on by default in every registered engine."""

    @pytest.mark.parametrize("kind", ["ic3", "ic3-pl", "bmc", "kind"])
    def test_outcome_records_reduction(self, kind):
        case = monitored_counter(3, noise=5, safe=False)
        outcome = create_engine(kind, case.aig).check(time_limit=30)
        assert outcome.reduction is not None
        assert outcome.reduction["reduced"]["latches"] < case.aig.num_latches
        if outcome.trace is not None:
            assert check_counterexample(case.aig, outcome.trace)

    def test_opt_out(self):
        case = monitored_counter(3, noise=5)
        outcome = create_engine("ic3-pl", case.aig, reduce=False).check(time_limit=30)
        assert outcome.reduction is None
        assert outcome.result == CheckResult.SAFE

    def test_engine_passes_override(self):
        case = monitored_counter(3, noise=5)
        engine = create_engine("ic3-pl", case.aig, passes=["coi"])
        assert engine.reduction.summary()["passes"] == ["coi"]

    def test_verdicts_match_with_and_without_reduction(self):
        """Acceptance: end-to-end verdicts unchanged by reduction."""
        sample = [c for c in default_suite() if c.family == "soc"]
        assert sample
        for case in sample:
            with_reduce = create_engine("ic3-pl", case.aig).check(time_limit=60)
            without = create_engine("ic3-pl", case.aig, reduce=False).check(
                time_limit=60
            )
            assert with_reduce.result == without.result == case.expected, case.name
            if with_reduce.trace is not None:
                assert check_counterexample(case.aig, with_reduce.trace)
            if with_reduce.certificate is not None:
                assert check_certificate(case.aig, with_reduce.certificate)

    def test_portfolio_lifts_winner_witness(self):
        case = shadowed_ring(3, noise=4, safe=False)
        outcome = create_engine("portfolio", case.aig).check(time_limit=30)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.winner
        assert outcome.reduction is not None
        assert check_counterexample(case.aig, outcome.trace)


# One input x, latch l loading x & !l, bad = a second, identical x & !l.
RAW_DUPLICATE_GATES = "aag 4 1 1 0 2 1\n2\n4 6\n8\n6 5 2\n8 5 2\n"


class TestEveryPassRebuilds:
    """Every pass rebuilds its input, so its output is always hashed."""

    @pytest.mark.parametrize("name", ["ternary", "merge", "coi"])
    def test_rebuilding_a_fixpoint_changes_nothing(self, name):
        reduced = reduce_aig(monitored_counter(3, noise=40, copies=4, safe=False).aig).aig
        model = ConeOfInfluencePass().run(reduced).aig
        result = resolve_pass(name).run(model, 0)
        assert result.aig is not model
        assert to_aag_string(result.aig) == to_aag_string(model)
        assert result.latch_fates == [
            LatchFate(kind=KEPT, new_index=index) for index in range(model.num_latches)
        ]
        assert result.input_map == list(range(model.num_inputs))
        assert not result.info.reduced and result.property_index == 0

    @pytest.mark.parametrize("passes", [["merge"], ["ternary"]])
    def test_raw_input_comes_out_hashed(self, passes):
        raw = parse_aiger(RAW_DUPLICATE_GATES)
        result = reduce_aig(raw, passes=passes)
        assert result.infos[0].details in ({"constant_latches": 0},
                                           {"merged_latches": 0, "equivalence_classes": 0})
        assert (raw.num_ands, result.aig.num_ands) == (2, 1)
        gate = result.aig.ands[0]
        assert result.aig.add_and(gate.rhs0, gate.rhs1) == gate.lhs

    def test_model_with_a_dead_gate_is_rebuilt(self):
        # Sweeping the stuck latch folds k's next state, x | (x & k & stuck),
        # to x, which leaves the rebuilt x & k without a reader; merging
        # finds no class but still rebuilds the dead gate away.
        aig = AIG()
        x = aig.add_input()
        stuck, k = aig.add_latch(init=0), aig.add_latch(init=0)
        aig.set_latch_next(stuck, stuck)
        aig.set_latch_next(k, aig.or_gate(x, aig.add_and(aig.add_and(x, k), stuck)))
        aig.add_bad(k)
        swept = reduce_aig(aig, passes=["ternary"]).aig
        assert swept.num_ands == 1 and swept.latches[0].next == swept.inputs[0]
        result = reduce_aig(aig, passes=["ternary", "merge"])
        assert result.infos[1].details == {"merged_latches": 0, "equivalence_classes": 0}
        assert (result.infos[1].ands_before, result.infos[1].ands_after) == (1, 0)

    def test_model_past_max_var_is_refused(self):
        aig = parse_aiger(RAW_DUPLICATE_GATES)
        aig.inputs.append(20)
        with pytest.raises(AigerError, match="input literal 20 is out of range for max_var 4"):
            reduce_aig(aig)


def _reduction_digest(aig):
    """sha256 over the default reduction of ``aig`` and IC3ref's lifted witness.

    Covers the reduced model's AAG text, every pass's info, the composed
    fate of every original latch and the verdict with its witness.
    """
    result = reduce_aig(aig)
    fates = [(fate.kind, fate.reduced_index, fate.value, fate.rep_original_index,
              fate.negated) for fate in result.recon.latch_fates]
    outcome = create_engine("ic3", aig, options=IC3Options.profile_ic3_a()).check()
    witness = []
    if outcome.trace is not None:
        witness = [(list(step.state), sorted(step.inputs.items()))
                   for step in outcome.trace.steps]
    if outcome.certificate is not None:
        witness = [list(clause) for clause in outcome.certificate.clauses]
    parts = [
        to_aag_string(result.aig),
        repr([info.as_dict() for info in result.infos]),
        repr(fates),
        outcome.result.value,
        repr(witness),
    ]
    return sha256("\n".join(parts).encode()).hexdigest()


class TestPinnedReductions:
    """The three wide SoC cases of the benchmark (generator numbering),
    reduced and checked: any change to a reduced model, its bookkeeping
    or the lifted witness shows as a changed digest."""

    @pytest.mark.parametrize(
        "make, digest",
        [
            (lambda: monitored_counter(4, noise=1000, copies=16, safe=True),
             "b0801872dce466d79acf5643080bdf081a6fc3dd905f760eee6670ee3e9024e0"),
            (lambda: shadowed_ring(4, noise=1000, safe=True),
             "1efa8459254abdc9f82a76563a917b29a41d2554ed3e8f960b3ee2841c3113b2"),
            (lambda: monitored_counter(3, noise=1000, copies=16, safe=False),
             "7d96b341d9ef4ab8bdd2d3fd69f5f269a41be8e005ebedb28b7d8c25b1461ad8"),
        ],
        ids=["moncnt_w4", "shring_n4", "moncnt_w3"],
    )
    def test_digest(self, make, digest):
        aig = parse_aiger(to_aag_string(make().aig))
        assert _reduction_digest(aig) == digest
