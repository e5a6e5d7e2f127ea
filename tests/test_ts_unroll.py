"""Tests for the time-frame unroller (the substrate of BMC / k-induction).

Every test runs under both SAT kernels: the autouse fixture below swaps
the reference :class:`~repro.sat.solver.Solver` in for the arena kernel,
so default-constructed unrollers alternate between the two.
"""

import pytest

from repro.aiger import AIG
from repro.benchgen import modular_counter, combination_lock
from repro.sat import Solver
from repro.ts import Unroller
import repro.ts.unroll as _unroll_mod


@pytest.fixture(params=["default", "arena"], autouse=True)
def sat_kernel(request, monkeypatch):
    if request.param == "default":
        monkeypatch.setattr(_unroll_mod, "ArenaSolver", Solver)
    return request.param


def _counter_aig(width=3):
    case = modular_counter(width, modulus=1 << width, bad_value=(1 << width) - 1)
    return case.aig


class TestLiteralMapping:
    def test_frames_created_lazily(self):
        unroller = Unroller(_counter_aig())
        assert unroller.num_frames == 0
        unroller.lit_at(unroller.aig.latches[0].lit, 2)
        assert unroller.num_frames == 3

    def test_constants(self):
        unroller = Unroller(_counter_aig())
        assert unroller.lit_at(1, 0) > 0
        assert unroller.lit_at(0, 0) == -unroller.lit_at(1, 0)

    def test_negated_literals_map_to_negated_solver_literals(self):
        unroller = Unroller(_counter_aig())
        latch = unroller.aig.latches[0].lit
        assert unroller.lit_at(latch ^ 1, 0) == -unroller.lit_at(latch, 0)

    def test_distinct_frames_get_distinct_variables(self):
        unroller = Unroller(_counter_aig())
        latch = unroller.aig.latches[0].lit
        assert abs(unroller.lit_at(latch, 0)) != abs(unroller.lit_at(latch, 1))


class TestUnrollingSemantics:
    def test_initial_state_enforced(self):
        unroller = Unroller(_counter_aig())
        solver = unroller.solver
        # At frame 0 the counter is 0, so every latch literal is false.
        for latch in unroller.aig.latches:
            assert solver.solve([unroller.lit_at(latch.lit, 0)]) is False

    def test_counter_value_at_depth_matches_simulation(self):
        aig = _counter_aig(3)
        unroller = Unroller(aig)
        solver = unroller.solver
        for depth in range(6):
            # The counter must equal `depth` at frame `depth` (it increments each step).
            assumptions = []
            for index, latch in enumerate(aig.latches):
                lit = unroller.lit_at(latch.lit, depth)
                expected = bool((depth >> index) & 1)
                assumptions.append(lit if expected else -lit)
            assert solver.solve(assumptions) is True
            # ... and cannot equal depth+1.
            wrong = []
            for index, latch in enumerate(aig.latches):
                lit = unroller.lit_at(latch.lit, depth)
                expected = bool(((depth + 1) >> index) & 1)
                wrong.append(lit if expected else -lit)
            assert solver.solve(wrong) is False

    def test_bad_reachability_depth(self):
        # modular counter with bad value 5 is first bad at depth 5.
        case = modular_counter(3, modulus=8, bad_value=5)
        unroller = Unroller(case.aig)
        for depth in range(5):
            assert unroller.solver.solve([unroller.bad_lit_at(depth)]) is False
        assert unroller.solver.solve([unroller.bad_lit_at(5)]) is True

    def test_without_init_any_state_possible(self):
        unroller = Unroller(_counter_aig(), use_init=False)
        latch = unroller.aig.latches[0].lit
        assert unroller.solver.solve([unroller.lit_at(latch, 0)]) is True
        assert unroller.solver.solve([-unroller.lit_at(latch, 0)]) is True

    def test_inputs_are_free(self):
        case = combination_lock([1, 2], symbol_bits=2)
        unroller = Unroller(case.aig)
        sym0 = case.aig.inputs[0]
        assert unroller.solver.solve([unroller.lit_at(sym0, 0)]) is True
        assert unroller.solver.solve([-unroller.lit_at(sym0, 0)]) is True

    def test_constraints_enforced_every_frame(self):
        aig = AIG()
        free = aig.add_input()
        latch = aig.add_latch(init=0)
        aig.set_latch_next(latch, free)
        aig.add_bad(latch)
        aig.add_constraint(aig.negate(free))  # the input is forced low
        unroller = Unroller(aig)
        # With the constraint the latch can never become true.
        assert unroller.solver.solve([unroller.lit_at(latch, 3)]) is False


class TestModelExtraction:
    def test_latch_cube_and_inputs_at_frames(self):
        case = combination_lock([1, 3], symbol_bits=2)
        unroller = Unroller(case.aig)
        bad = unroller.bad_lit_at(2)
        assert unroller.solver.solve([bad]) is True
        model = unroller.solver.get_model()
        cube0 = unroller.latch_cube_at(model, 0)
        assert len(cube0) == case.aig.num_latches
        inputs0 = unroller.input_values_at(model, 0)
        inputs1 = unroller.input_values_at(model, 1)
        # The unlocking sequence is exactly the code: symbols 1 then 3.
        value0 = sum((1 << i) for i, lit in enumerate(case.aig.inputs) if inputs0[lit])
        value1 = sum((1 << i) for i, lit in enumerate(case.aig.inputs) if inputs1[lit])
        assert value0 == 1
        assert value1 == 3

    def test_shared_solver_can_be_supplied(self):
        solver = Solver()
        unroller = Unroller(_counter_aig(), solver=solver)
        assert unroller.solver is solver
        assert solver.solve() is True


class TestIncrementalReuse:
    """One persistent unrolling serves every bound (ISSUE 4 satellite)."""

    def test_literal_mappings_stable_across_solves_and_extensions(self):
        aig = _counter_aig(3)
        unroller = Unroller(aig)
        before = {
            (latch.lit, frame): unroller.lit_at(latch.lit, frame)
            for frame in range(3)
            for latch in aig.latches
        }
        assert unroller.solver.solve([unroller.bad_lit_at(2)]) in (True, False)
        # Extending to deeper frames after a SAT call must not disturb
        # any previously handed-out literal.
        unroller.lit_at(aig.latches[0].lit, 6)
        after = {
            (latch.lit, frame): unroller.lit_at(latch.lit, frame)
            for frame in range(3)
            for latch in aig.latches
        }
        assert before == after
        assert unroller.num_frames == 7

    def test_latch_cube_projection_consistent_across_bounds(self):
        # A mod-8 counter reaches value 7 exactly at depth 7; solving at
        # increasing bounds on the same unroller must keep earlier
        # frames' model projections consistent with simulation.
        aig = _counter_aig(3)
        unroller = Unroller(aig)
        assert not unroller.solver.solve([unroller.bad_lit_at(3)])
        assert unroller.solver.solve([unroller.bad_lit_at(7)])
        model = unroller.solver.get_model()
        for frame in range(8):
            cube = unroller.latch_cube_at(model, frame)
            value = 0
            for bit, latch in enumerate(aig.latches):
                lit = unroller.lit_at(latch.lit, frame)
                bit_true = model.get(abs(lit), False)
                if lit < 0:
                    bit_true = not bit_true
                value |= int(bit_true) << bit
            assert value == frame  # counter counts 0,1,2,...
            assert len(cube) == len(aig.latches)

    def test_frames_are_appended_never_reencoded(self):
        aig = _counter_aig(3)
        unroller = Unroller(aig)
        unroller.bad_lit_at(2)
        clauses_at_depth_2 = unroller.solver.num_clauses
        unroller.solver.solve([unroller.bad_lit_at(2)])
        unroller.bad_lit_at(4)
        grown = unroller.solver.num_clauses
        assert grown > clauses_at_depth_2
        # Re-requesting an old frame adds nothing.
        unroller.bad_lit_at(2)
        assert unroller.solver.num_clauses == grown


class TestInitAsAssumption:
    def test_init_guard_anchors_frame_zero_only_when_assumed(self):
        aig = _counter_aig(3)
        unroller = Unroller(aig, init_as_assumption=True)
        bad0 = unroller.bad_lit_at(0)
        # Without the init assumption frame 0 is unconstrained: the bad
        # value (7) is reachable "immediately".
        assert unroller.solver.solve([bad0])
        # With it, frame 0 is the reset state (0), which is not bad.
        assert not unroller.solver.solve(unroller.init_assumptions() + [bad0])

    def test_init_assumptions_usable_before_first_frame(self):
        # Regression: on a fresh unroller, init_assumptions() must build
        # frame 0 itself — left-to-right evaluation of
        # `solve(u.init_assumptions() + [u.bad_lit_at(0)])` calls it
        # before any frame exists.
        aig = _counter_aig(3)
        unroller = Unroller(aig, init_as_assumption=True)
        assumptions = unroller.init_assumptions()
        assert len(assumptions) == 1
        assert not unroller.solver.solve(assumptions + [unroller.bad_lit_at(0)])

    def test_init_assumptions_empty_without_the_mode(self):
        unroller = Unroller(_counter_aig(3))
        assert unroller.init_assumptions() == []
        unroller_no_init = Unroller(_counter_aig(3), use_init=False)
        assert unroller_no_init.init_assumptions() == []

    def test_base_and_step_queries_share_one_unrolling(self):
        # k-induction's two cases on one unroller: base (init assumed)
        # finds no counterexample at depth 1; step (no init) can still
        # place an arbitrary state at frame 0.
        aig = _counter_aig(3)
        unroller = Unroller(aig, init_as_assumption=True)
        bad1 = unroller.bad_lit_at(1)
        assert not unroller.solver.solve(unroller.init_assumptions() + [bad1])
        assert unroller.solver.solve([unroller.bad_lit_at(0)])
        num_vars = unroller.solver.num_vars
        # Both query families reused the same frames: no second encoding.
        assert unroller.num_frames == 2
        assert unroller.solver.num_vars == num_vars
