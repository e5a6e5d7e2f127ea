"""Microbenchmarks of the substrates the engine is built on.

These are not paper experiments; they track the cost of the building
blocks (SAT solving, consecution queries, AIG encoding, BMC unrolling) so
that regressions in the substrates are visible independently of the
end-to-end IC3 numbers.
"""


from repro.benchgen import johnson_counter, modular_counter, token_ring
from repro.core import BMC, CheckResult, IC3Options
from repro.core.frames import MonolithicFrameManager, PerFrameFrameManager
from repro.core.stats import IC3Stats
from repro.logic import Cube
from repro.sat import Solver
from repro.ts import TransitionSystem, Unroller


class TestSatSolverMicrobenchmarks:
    def test_random_3sat_solving(self, benchmark):
        import random

        rng = random.Random(12345)
        num_vars, num_clauses = 60, 240
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3)]
            for _ in range(num_clauses)
        ]

        def run():
            solver = Solver()
            solver.ensure_var(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            return solver.solve()

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_incremental_assumption_queries(self, benchmark):
        ts = TransitionSystem(johnson_counter(10).aig)
        solver = Solver()
        solver.ensure_var(ts.num_vars)
        for clause in ts.trans:
            solver.add_clause(clause)
        latches = ts.latch_vars

        def run():
            answers = []
            for index in range(len(latches)):
                assumptions = [latches[index], -latches[(index + 1) % len(latches)]]
                answers.append(solver.solve(assumptions))
            return answers

        benchmark.pedantic(run, rounds=5, iterations=1)


class TestEncodingMicrobenchmarks:
    def test_transition_system_encoding(self, benchmark):
        case = johnson_counter(16)

        def run():
            ts = TransitionSystem(case.aig)
            return len(ts.trans)

        benchmark.pedantic(run, rounds=5, iterations=1)

    def test_consecution_query_cost(self, benchmark):
        case = token_ring(10)
        ts = TransitionSystem(case.aig)
        manager = MonolithicFrameManager(ts, IC3Options(), IC3Stats())
        manager.add_frame()
        cube = Cube([ts.latch_vars[0], ts.latch_vars[1]])

        def run():
            return manager.consecution(0, cube).holds

        benchmark.pedantic(run, rounds=10, iterations=1)


class TestFrameBackendMicrobenchmarks:
    """IC3's frame substrate on a consecution workload, checked against
    the per-frame reference."""

    @staticmethod
    def _consecution_burst(substrate) -> int:
        case = token_ring(8)
        ts = TransitionSystem(case.aig)
        manager = substrate(ts, IC3Options(), IC3Stats())
        for _ in range(4):
            manager.add_frame()
        held = 0
        latches = ts.latch_vars
        for level in (4, 3, 2, 1):
            for index in range(len(latches) - 1):
                cube = Cube([latches[index], latches[index + 1]])
                held += manager.consecution(level, cube).holds
        return held

    def test_consecution_burst_monolithic(self, benchmark):
        benchmark.pedantic(
            lambda: self._consecution_burst(MonolithicFrameManager), rounds=5, iterations=1
        )

    def test_backends_agree_on_burst(self):
        assert self._consecution_burst(PerFrameFrameManager) == self._consecution_burst(
            MonolithicFrameManager
        )


class TestBmcMicrobenchmarks:
    def test_bmc_unrolling_depth_10(self, benchmark):
        case = modular_counter(4, modulus=16, bad_value=10)

        def run():
            outcome = BMC(case.aig).check(max_depth=12)
            assert outcome.result == CheckResult.UNSAFE
            return outcome.trace.depth

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_unroller_frame_instantiation(self, benchmark):
        case = johnson_counter(12)

        def run():
            unroller = Unroller(case.aig)
            unroller.lit_at(case.aig.latches[0].lit, 15)
            return unroller.num_frames

        benchmark.pedantic(run, rounds=3, iterations=1)
