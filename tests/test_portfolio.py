"""Portfolio races: teardown hygiene, seeding, removed sharing switches.

The contracts pinned here:

* killing the losers leaks nothing — no member process survives a race,
  whether the members finished or were killed midway;
* ``--seed`` is deterministic end to end: the same seed reproduces a
  byte-identical evaluation manifest (modulo wall-clock fields), seeded
  kernels are self-consistent, and seed 0 is exactly the unseeded order;
* member ``i`` runs with the portfolio's options, only the seed replaced
  by ``base_seed + i``, so ``--seed`` and every other setting reach the
  IC3 members;
* cooperative lemma sharing is gone: its CLI switches are refused and
  ``PortfolioOptions`` no longer takes its fields;
* an ``ic3-pl,kind`` race gives every case of the canonical bench suite its
  ground-truth verdict, with a replayable trace on UNSAFE cases and a
  valid invariant whenever IC3 wins a SAFE case.
"""

import json
import multiprocessing
import threading
import time

import pytest

from repro.aiger import write_aag
from repro.benchgen import bench_suite, modular_counter, token_ring
from repro.cli import main
from repro.core.invariant import check_certificate, check_counterexample
from repro.core.options import IC3Options
from repro.core.result import CheckOutcome, CheckResult
from repro.engines import register_engine, registry
from repro.engines.portfolio import PortfolioEngine, PortfolioOptions
from repro.harness.configs import EngineConfig, apply_seed
from repro.harness.manifest import build_manifest
from repro.harness.runner import BenchmarkRunner
from repro.sat.arena import ArenaSolver


def _live_children():
    return {p.pid for p in multiprocessing.active_children() if p.is_alive()}


class _LingeringUnsafe:
    """Answers UNSAFE at once but leaves a non-daemon thread running, so
    its process outlives the answer it shipped."""

    name = "lingering-unsafe"

    def __init__(self, aig, **_):
        pass

    def check(self, time_limit=None):
        threading.Thread(target=time.sleep, args=(30,), daemon=False).start()
        return CheckOutcome(result=CheckResult.UNSAFE, engine=self.name)


register_engine(
    "lingering-unsafe-test", lambda aig, **kw: _LingeringUnsafe(aig, **kw), overwrite=True
)


class _OptionsProbe:
    """Gives up at once, naming the seed and push setting of its options."""

    name = "options-probe"

    def __init__(self, aig, options=None, **_):
        self.options = options

    def check(self, time_limit=None):
        reason = f"seed={self.options.seed} push={self.options.aggressive_push}"
        return CheckOutcome(result=CheckResult.UNKNOWN, engine=self.name, reason=reason)


register_engine(
    "options-probe-test", lambda aig, **kw: _OptionsProbe(aig, **kw), overwrite=True
)


class TestTeardown:
    def test_no_process_leak_after_race(self):
        children_before = _live_children()
        for _ in range(3):
            outcome = PortfolioEngine(
                modular_counter(3, modulus=6, bad_value=7).aig,
                engines=("ic3-pl", "bmc", "kind"),
            ).check(time_limit=60)
            assert outcome.solved
        for proc in multiprocessing.active_children():
            if proc.pid not in children_before:
                proc.join(timeout=5)
        assert _live_children() <= children_before

    def test_no_leak_when_losers_are_killed_midway(self):
        # BMC wins UNSAFE quickly; the IC3 members are killed while still
        # searching.  No member process may outlive the race.
        children_before = _live_children()
        case = modular_counter(4, modulus=14, bad_value=3)
        outcome = PortfolioEngine(
            case.aig, engines=("ic3", "ic3-pl", "bmc")
        ).check(time_limit=60)
        assert outcome.result == CheckResult.UNSAFE
        assert _live_children() <= children_before

    def test_lingering_winner_is_reaped(self):
        # The winner ships its verdict, then a non-daemon thread keeps
        # its process alive: the race must still end that process.
        children_before = _live_children()
        outcome = PortfolioEngine(
            token_ring(2).aig, engines=("lingering-unsafe-test",), reduce=False
        ).check(time_limit=60)
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.winner == "lingering-unsafe-test"
        assert _live_children() <= children_before


SEED_CASES = [token_ring(3), modular_counter(3, modulus=6, bad_value=7)]


def _seeded_manifest(seed):
    configs = apply_seed(
        [EngineConfig(name="ic3-seeded", options=IC3Options())], seed
    )
    suite_result = BenchmarkRunner(
        SEED_CASES, configs, timeout=60.0, jobs=1, validate=True
    ).run()
    return build_manifest(
        suite_result, suite="seeded", jobs=1, validate=True, configs=configs
    )


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
    if isinstance(node, dict):
        return {
            key: (0 if key in TIMING_FIELDS else _normalize(value))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [_normalize(item) for item in node]
    return node


class TestSeedDeterminism:
    def test_same_seed_byte_identical_manifest(self):
        one = json.dumps(_normalize(_seeded_manifest(7)), sort_keys=True)
        two = json.dumps(_normalize(_seeded_manifest(7)), sort_keys=True)
        assert one == two
        assert json.loads(one)["configs"]["ic3-seeded"]["seed"] == 7

    def test_seed_zero_matches_unseeded(self):
        zero = json.dumps(_normalize(_seeded_manifest(0)), sort_keys=True)
        unseeded = json.dumps(_normalize(_seeded_manifest(None)), sort_keys=True)
        assert zero == unseeded

    def test_seeded_kernel_is_reproducible(self):
        def run(seed):
            solver = ArenaSolver()
            solver.set_seed(seed)
            # A loose pigeonhole-ish instance with many solutions, so the
            # model found depends on the branching order.
            n = 12
            for var in range(1, n + 1):
                solver.ensure_var(var)
            for a in range(1, n, 2):
                solver.add_clause([a, a + 1])
            for a in range(1, n - 2, 3):
                solver.add_clause([-a, -(a + 2)])
            assert solver.solve([])
            model = solver.get_model()
            return [model[v] for v in range(1, n + 1)]

        assert run(5) == run(5)
        assert run(1) == run(1)


class TestCLISwitches:
    @pytest.fixture()
    def safe_model(self, tmp_path):
        path = tmp_path / "safe.aag"
        write_aag(token_ring(3).aig, path)
        return str(path)

    def test_check_seed_flag(self, safe_model, capsys):
        assert main(["check", safe_model, "--seed", "3"]) == 0
        assert "safe" in capsys.readouterr().out

    def test_seed_flag_reaches_the_portfolio_members(
        self, safe_model, tmp_path, monkeypatch, capsys
    ):
        # The first member (ic3-pl) runs alone (--jobs 1) and records the
        # options its engine was built with, in its own process.
        record = tmp_path / "members.txt"
        make_ic3_pl = registry.resolve_engine("ic3-pl")

        def recording(aig, **kwargs):
            engine = make_ic3_pl(aig, **kwargs)
            frames = type(engine._engine.frames).__name__
            with open(record, "a") as handle:
                handle.write(f"{engine.options.seed} {frames}\n")
            return engine

        monkeypatch.setitem(registry._REGISTRY, "ic3-pl", recording)
        command = ["check", safe_model, "--engine", "portfolio", "--jobs", "1",
                   "--seed", "4"]
        assert main(command) == 0
        assert "won by ic3-pl" in capsys.readouterr().out
        assert record.read_text() == "4 MonolithicFrameManager\n"

    @pytest.mark.parametrize("flag", ["--portfolio-share", "--no-portfolio-share"])
    def test_removed_sharing_flags_are_refused(self, safe_model, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", safe_model, "--engine", "portfolio", flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


class TestPortfolioOptions:
    def test_only_seeding_remains(self):
        assert PortfolioOptions(base_seed=3).base_seed == 3

    @pytest.mark.parametrize("base_seed", [0, 1, 7])
    def test_member_seeds_follow_base_seed(self, base_seed):
        # Member i runs with IC3Options.seed == base_seed + i, and the
        # other settings unchanged; 0 leaves every member on the
        # portfolio's own options.
        outcome = PortfolioEngine(
            token_ring(3).aig,
            engines=("options-probe-test",) * 3,
            options=IC3Options(seed=5, aggressive_push=False),
            portfolio_options=PortfolioOptions(base_seed=base_seed),
        ).check(time_limit=60)
        assert outcome.result == CheckResult.UNKNOWN
        for index in range(3):
            seed = base_seed + index if base_seed else 5
            member = f"options-probe-test#{index + 1}"
            assert f"{member}: seed={seed} push=False" in outcome.reason

    @pytest.mark.parametrize(
        "field", ["share", "transport", "capacity", "max_lits", "min_level", "diversify"]
    )
    def test_sharing_fields_are_rejected(self, field):
        with pytest.raises(TypeError):
            PortfolioOptions(**{field: True})


BENCH_CASES = {case.name: case for case in bench_suite()}


class TestBenchVerdicts:
    @pytest.mark.parametrize("name", sorted(BENCH_CASES))
    def test_race_gives_expected_verdict(self, name):
        case = BENCH_CASES[name]
        outcome = PortfolioEngine(case.aig, engines=("ic3-pl", "kind")).check(
            time_limit=60
        )
        assert outcome.result == case.expected
        assert outcome.winner in ("ic3-pl", "kind")
        if outcome.result == CheckResult.UNSAFE:
            assert check_counterexample(case.aig, outcome.trace)
        elif outcome.winner == "ic3-pl":
            assert check_certificate(case.aig, outcome.certificate)
