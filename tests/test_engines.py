"""Tests for the pluggable engine layer: protocol, registry, adapters, portfolio."""

import time
from dataclasses import replace

import pytest

from repro.benchgen import modular_counter, parity_counter, token_ring
from repro.core import CheckOutcome, CheckResult, IC3Options
from repro.engines import (
    BMCEngine,
    DEFAULT_PORTFOLIO,
    Engine,
    EngineError,
    IC3Engine,
    KInductionEngine,
    PortfolioEngine,
    available_engines,
    canonical_name,
    create_engine,
    register_engine,
    resolve_engine,
)
from repro.harness.configs import EngineConfig, apply_seed, paper_configurations
from repro.sat import ArenaSolver


class _SleepyEngine:
    """Test double that ignores its cooperative budget (a 'stuck SAT call')."""

    name = "sleepy"

    def __init__(self, aig, options=None, property_index=0, delay=60.0, **_):
        self.delay = delay

    def check(self, time_limit=None):
        time.sleep(self.delay)
        return CheckOutcome(result=CheckResult.UNKNOWN, engine=self.name)


register_engine(
    "sleepy-test", lambda aig, **kw: _SleepyEngine(aig, **kw), overwrite=True
)


class TestRegistry:
    def test_default_engines_registered(self):
        names = available_engines()
        for expected in ("ic3", "ic3-pl", "bmc", "kind", "portfolio"):
            assert expected in names

    def test_alias_resolution(self):
        assert canonical_name("k-induction") == "kind"
        assert resolve_engine("k-induction") is resolve_engine("kind")
        assert "k-induction" in available_engines(include_aliases=True)
        assert "k-induction" not in available_engines()

    def test_unknown_engine_raises_keyerror(self):
        with pytest.raises(KeyError, match="available"):
            create_engine("no-such-engine", token_ring(3).aig)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(EngineError):
            register_engine("ic3", lambda aig, **kw: None)

    def test_custom_registration_and_overwrite(self):
        @register_engine("custom-test", overwrite=True)
        def _factory(aig, **kwargs):
            return BMCEngine(aig, **kwargs)

        engine = create_engine("custom-test", token_ring(3).aig, max_depth=7)
        assert engine.max_depth == 7

    @pytest.mark.parametrize("kind", ["ic3", "ic3-pl", "bmc", "kind", "portfolio"])
    def test_unknown_keyword_raises_type_error(self, kind):
        # Settings travel in IC3Options: a stray keyword is an error, not
        # a silent run with the defaults.
        with pytest.raises(TypeError, match="mic_max_rounds"):
            create_engine(kind, token_ring(3).aig, mic_max_rounds=3)

    def test_created_engines_satisfy_protocol(self):
        aig = token_ring(3).aig
        for name in ("ic3", "ic3-pl", "bmc", "kind", "portfolio"):
            assert isinstance(create_engine(name, aig), Engine)


class TestAdapters:
    def test_ic3_engine_names_follow_prediction(self):
        aig = token_ring(3).aig
        assert create_engine("ic3", aig).name == "ic3"
        assert create_engine("ic3-pl", aig).name == "ic3-pl"
        assert IC3Engine(aig).name == "ic3"
        assert IC3Engine(aig, IC3Options().with_prediction()).name == "ic3-pl"

    def test_ic3_pl_factory_enables_prediction_on_passed_options(self):
        engine = create_engine("ic3-pl", token_ring(3).aig, options=IC3Options())
        assert engine.options.enable_prediction

    def test_uniform_check_signature_and_outcomes(self):
        safe = token_ring(3).aig
        assert create_engine("ic3", safe).check(time_limit=20).result == CheckResult.SAFE
        assert create_engine("kind", safe).check(time_limit=20).result == CheckResult.SAFE
        # BMC alone cannot prove safety.
        assert create_engine("bmc", safe).check(time_limit=20).result == CheckResult.UNKNOWN

    def test_bmc_engine_finds_counterexample(self):
        unsafe = modular_counter(3, modulus=8, bad_value=2).aig
        outcome = BMCEngine(unsafe, max_depth=5).check(time_limit=20)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace is not None

    def test_kinduction_engine_respects_max_k(self):
        aig = modular_counter(4, modulus=14, bad_value=15).aig
        outcome = KInductionEngine(aig, max_k=1).check(time_limit=20)
        assert outcome.result in (CheckResult.UNKNOWN, CheckResult.SAFE)

    @pytest.mark.parametrize("kind", ["bmc", "kind"])
    def test_bmc_and_kind_read_the_seed_from_the_options(self, kind, monkeypatch):
        # --seed reaches a configuration without options as IC3Options(seed=...).
        seeds = []
        monkeypatch.setattr(ArenaSolver, "set_seed", lambda _solver, seed: seeds.append(seed))
        (config,) = apply_seed([EngineConfig(name=kind, engine=kind)], 3)
        assert config.options == IC3Options(seed=3) and config.engine_kwargs == {}
        create_engine(kind, token_ring(3).aig, options=config.options)
        assert seeds == [3]

    @pytest.mark.parametrize("config", paper_configurations(), ids=lambda config: config.name)
    def test_paper_configuration_seeds_every_kernel_it_creates(self, config, monkeypatch):
        # --seed replaces only the seed of a paper profile, and every
        # kernel the IC3 run creates is seeded with it.
        seeds = []
        set_seed = ArenaSolver.set_seed

        def recording(solver, seed):
            seeds.append(seed)
            set_seed(solver, seed)

        monkeypatch.setattr(ArenaSolver, "set_seed", recording)
        (seeded,) = apply_seed([config], 7)
        assert seeded.options == replace(config.options, seed=7)
        assert seeded.engine_kwargs == config.engine_kwargs
        engine = create_engine(seeded.engine, token_ring(3).aig, options=seeded.options)
        assert engine.check(time_limit=60).result == CheckResult.SAFE
        assert seeds and set(seeds) == {7}


class TestPortfolio:
    def test_default_members(self):
        engine = PortfolioEngine(token_ring(3).aig)
        assert engine.engines == DEFAULT_PORTFOLIO

    def test_rejects_unknown_member(self):
        with pytest.raises(KeyError):
            PortfolioEngine(token_ring(3).aig, engines=("ic3", "bogus"))

    def test_rejects_empty_members(self):
        with pytest.raises(ValueError):
            PortfolioEngine(token_ring(3).aig, engines=())

    def test_duplicate_members_get_labels_and_seeds(self):
        # Duplicated kinds are allowed and auto-labelled; member i runs
        # with the shared options, only the seed replaced by base_seed + i.
        options = IC3Options().with_prediction()
        engine = PortfolioEngine(
            token_ring(3).aig, engines=("ic3", "ic3", "bmc"), options=options
        )
        labels = [plan.label for plan in engine._plan]
        assert labels == ["ic3#1", "ic3#2", "bmc"]
        assert [plan.options for plan in engine._plan] == [
            replace(options, seed=seed) for seed in (1, 2, 3)
        ]
        assert all(plan.kwargs == {"reduce": False} for plan in engine._plan)
        assert engine.options is options

    def test_alias_duplicates_are_labelled_together(self):
        # "k-induction" is an alias of "kind" — duplicates by canonical name.
        engine = PortfolioEngine(token_ring(3).aig, engines=("kind", "k-induction"))
        labels = [plan.label for plan in engine._plan]
        assert labels == ["kind#1", "k-induction#2"]

    def test_safe_race_records_winner(self):
        outcome = PortfolioEngine(token_ring(3).aig).check(time_limit=30)
        assert outcome.result == CheckResult.SAFE
        assert outcome.engine == "portfolio"
        assert outcome.winner in DEFAULT_PORTFOLIO
        assert "won by" in outcome.summary()

    def test_unsafe_race_records_winner(self):
        outcome = PortfolioEngine(token_ring(3, safe=False).aig).check(time_limit=30)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.winner in DEFAULT_PORTFOLIO

    def test_portfolio_matches_standalone_winner_verdict(self):
        aig = token_ring(3, safe=False).aig
        outcome = PortfolioEngine(aig, engines=("bmc", "ic3")).check(time_limit=30)
        standalone = create_engine(outcome.winner, aig).check(time_limit=30)
        assert outcome.result == standalone.result

    def test_stuck_member_does_not_block_the_race(self):
        aig = modular_counter(3, modulus=8, bad_value=2).aig
        start = time.perf_counter()
        outcome = PortfolioEngine(aig, engines=("sleepy-test", "bmc")).check(
            time_limit=30
        )
        elapsed = time.perf_counter() - start
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.winner == "bmc"
        assert elapsed < 10.0

    def test_all_members_unknown(self):
        # BMC cannot prove safety, so a BMC-only portfolio stays inconclusive.
        outcome = PortfolioEngine(token_ring(3).aig, engines=("bmc",)).check(
            time_limit=30
        )
        assert outcome.result == CheckResult.UNKNOWN
        assert outcome.winner is None
        assert "bmc" in outcome.reason

    def test_hard_time_limit_on_stuck_members(self):
        start = time.perf_counter()
        outcome = PortfolioEngine(
            token_ring(3).aig, engines=("sleepy-test",), grace=0.2
        ).check(time_limit=0.5)
        elapsed = time.perf_counter() - start
        assert outcome.result == CheckResult.UNKNOWN
        assert "time limit" in outcome.reason
        assert elapsed < 2.0  # ~2x the 0.5 s budget, with scheduling slack

    def test_jobs_bound_still_reaches_later_members(self):
        # With one slot, the sleepy member must be beaten by the time limit
        # machinery... so put the fast engine first and confirm ordering works.
        aig = modular_counter(3, modulus=8, bad_value=2).aig
        outcome = PortfolioEngine(aig, engines=("bmc", "sleepy-test"), jobs=1).check(
            time_limit=30
        )
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.winner == "bmc"

    def test_parity_counter_portfolio_proves_quickly(self):
        outcome = PortfolioEngine(parity_counter(4).aig).check(time_limit=30)
        assert outcome.result == CheckResult.SAFE
