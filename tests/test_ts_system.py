"""Tests for the transition-system encoding.

The key property is that the CNF encoding agrees with circuit simulation:
a SAT model of ``state ∧ inputs ∧ T`` must assign the primed variables the
same values the simulator computes, and the bad literal must match the
simulated bad signal.
"""

import functools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.aiger import AIG
from repro.aiger.aig import AndGate
from repro.benchgen import token_ring, fifo_controller, modular_counter, monitored_counter
from repro.core import CheckResult, check_certificate, check_counterexample
from repro.engines import create_engine
from repro.logic import Clause, Cube
from repro.sat import ArenaSolver, Solver, SolverError
from repro.ts import TransitionSystem, EncodingError


def _toggle_system():
    aig = AIG()
    enable = aig.add_input("enable")
    latch = aig.add_latch(init=0)
    aig.set_latch_next(latch, aig.xor_gate(latch, enable))
    aig.add_bad(latch)
    return aig, enable, latch


class TestEncodingBasics:
    def test_variable_partition(self):
        aig, _, _ = _toggle_system()
        ts = TransitionSystem(aig)
        assert len(ts.input_vars) == 1
        assert len(ts.latch_vars) == 1
        assert len(ts.next_state_variables) == 1
        assert set(ts.latch_vars).isdisjoint(ts.input_vars)
        assert set(ts.latch_vars).isdisjoint(ts.next_state_variables)

    def test_requires_bad_or_output(self):
        aig = AIG()
        latch = aig.add_latch()
        aig.set_latch_next(latch, latch)
        with pytest.raises(EncodingError):
            TransitionSystem(aig)

    def test_output_used_as_bad_when_no_bad_declared(self):
        aig = AIG()
        latch = aig.add_latch()
        aig.set_latch_next(latch, latch)
        aig.add_output(latch)
        ts = TransitionSystem(aig)
        assert ts.bad_lit in (ts.latch_vars[0], -ts.latch_vars[0])

    def test_property_index_out_of_range(self):
        aig, _, _ = _toggle_system()
        with pytest.raises(EncodingError):
            TransitionSystem(aig, property_index=3)

    def test_init_cube_respects_reset_values(self):
        aig = AIG()
        l0 = aig.add_latch(init=0)
        l1 = aig.add_latch(init=1)
        lx = aig.add_latch(init=None)
        for latch in (l0, l1, lx):
            aig.set_latch_next(latch, latch)
        aig.add_bad(l0)
        ts = TransitionSystem(aig)
        assert len(ts.init_cube) == 2  # the uninitialised latch is unconstrained
        values = {abs(l): l > 0 for l in ts.init_cube}
        assert values[ts.latch_vars[0]] is False
        assert values[ts.latch_vars[1]] is True

    def test_describe_mentions_counts(self):
        aig, _, _ = _toggle_system()
        assert "latches=1" in TransitionSystem(aig).describe()


class TestPriming:
    def test_prime_and_unprime_roundtrip(self):
        ts = TransitionSystem(token_ring(3).aig)
        for var in ts.latch_vars:
            assert ts.unprime_lit(ts.prime_lit(var)) == var
            assert ts.unprime_lit(ts.prime_lit(-var)) == -var

    def test_prime_cube(self):
        ts = TransitionSystem(token_ring(3).aig)
        cube = Cube([ts.latch_vars[0], -ts.latch_vars[1]])
        primed = ts.prime_cube(cube)
        assert ts.unprime_cube(primed) == cube

    def test_prime_non_latch_rejected(self):
        ts = TransitionSystem(token_ring(3).aig)
        with pytest.raises(EncodingError):
            ts.prime_lit(ts.input_vars[0]) if ts.input_vars else ts.prime_lit(10**6)

    def test_is_state_lit(self):
        ts = TransitionSystem(fifo_controller(2).aig)
        assert all(ts.is_state_lit(v) for v in ts.latch_vars)
        assert all(ts.is_state_lit(-v) for v in ts.latch_vars)
        assert not any(ts.is_state_lit(v) for v in ts.input_vars)


class TestInitReasoning:
    def test_cube_intersects_init(self):
        ts = TransitionSystem(token_ring(3).aig)
        # Initial state: token in stage 0 only.
        init_like = Cube([ts.latch_vars[0]])
        not_init = Cube([-ts.latch_vars[0]])
        assert ts.cube_intersects_init(init_like)
        assert not ts.cube_intersects_init(not_init)

    def test_empty_cube_intersects_init(self):
        ts = TransitionSystem(token_ring(3).aig)
        assert ts.cube_intersects_init(Cube())

    def test_clause_holds_on_init(self):
        ts = TransitionSystem(token_ring(3).aig)
        holds = Clause([ts.latch_vars[0]])          # token0 is 1 initially
        fails = Clause([ts.latch_vars[1]])          # token1 is 0 initially
        assert ts.clause_holds_on_init(holds)
        assert not ts.clause_holds_on_init(fails)

    def test_init_clauses_are_units(self):
        ts = TransitionSystem(fifo_controller(2).aig)
        assert all(len(c) == 1 for c in ts.init_clauses())
        assert len(ts.init_clauses()) == len(ts.init_cube)


class TestEncodingAgreesWithSimulation:
    def _solver_for(self, ts):
        solver = Solver()
        solver.ensure_var(ts.num_vars)
        for clause in ts.trans:
            solver.add_clause(clause.literals)
        return solver

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=7), st.booleans())
    def test_toggle_circuit_next_state(self, state_bits, enable):
        aig, enable_lit, latch_lit = _toggle_system()
        ts = TransitionSystem(aig)
        solver = self._solver_for(ts)
        latch_var = ts.latch_vars[0]
        input_var = ts.input_vars[0]
        current = bool(state_bits & 1)

        assumptions = [
            latch_var if current else -latch_var,
            input_var if enable else -input_var,
        ]
        assert solver.solve(assumptions)
        model = solver.get_model()
        primed_value = model[ts.primed_of[latch_var]]
        assert primed_value == (current ^ enable)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=3), st.booleans(), st.booleans())
    def test_fifo_counter_next_state_matches_simulation(self, count, push, pop):
        case = fifo_controller(2)
        ts = TransitionSystem(case.aig)
        solver = self._solver_for(ts)

        state_literals = []
        latch_values = {}
        for index, (latch, var) in enumerate(zip(case.aig.latches, ts.latch_vars)):
            value = bool((count >> index) & 1)
            latch_values[latch.lit] = value
            state_literals.append(var if value else -var)
        input_assignment = {case.aig.inputs[0]: push, case.aig.inputs[1]: pop}
        input_literals = [
            var if value else -var
            for var, value in zip(ts.input_vars, (push, pop))
        ]

        assert solver.solve(state_literals + input_literals)
        model = solver.get_model()

        # Reference: evaluate the circuit directly.
        values = case.aig._evaluate_combinational(input_assignment, latch_values)
        for latch, var in zip(case.aig.latches, ts.latch_vars):
            assert model[ts.primed_of[var]] == values[latch.next]
        assert (model.get(abs(ts.bad_lit), False) == (ts.bad_lit > 0)) == values[
            case.aig.bads[0]
        ]

    def test_bad_literal_matches_simulation_for_counter(self):
        case = modular_counter(3, modulus=6, bad_value=2)
        ts = TransitionSystem(case.aig)
        solver = self._solver_for(ts)
        # State "2" must satisfy the bad cone, state "1" must not.
        for value, expect_bad in [(2, True), (1, False)]:
            assumptions = []
            for index, var in enumerate(ts.latch_vars):
                bit = bool((value >> index) & 1)
                assumptions.append(var if bit else -var)
            assumptions.append(ts.bad_lit if expect_bad else -ts.bad_lit)
            assert solver.solve(assumptions)


class TestModelProjection:
    def test_state_and_input_cubes_from_model(self):
        case = token_ring(3)
        ts = TransitionSystem(case.aig)
        solver = Solver()
        solver.ensure_var(ts.num_vars)
        for clause in ts.trans:
            solver.add_clause(clause.literals)
        for lit in ts.init_cube:
            solver.add_clause([lit])
        assert solver.solve()
        model = solver.get_model()
        state = ts.state_cube(solver)
        assert state == Cube(v if model.get(v, False) else -v for v in ts.latch_vars)
        assert ts.cube_intersects_init(state)
        succ = ts.successor_cube(solver)
        assert succ == Cube(
            v if model.get(ts.primed_of[v], False) else -v for v in ts.latch_vars
        )  # over current vars
        bits = ts.input_bits(solver)
        inputs = ts.inputs_of(bits)
        assert inputs == Cube(v if model.get(v, False) else -v for v in ts.input_vars)
        assert ts.input_values_of(bits) == {
            aig_lit: model.get(var, False)
            for aig_lit, var in zip(case.aig.inputs, ts.input_vars)
        }

    def test_cubes_are_canonical(self):
        ts = TransitionSystem(token_ring(3).aig)
        solver = ArenaSolver()
        solver.ensure_var(ts.num_vars)
        solver.add_clause([ts.latch_vars[0]])
        assert solver.solve()
        inputs = ts.inputs_of(ts.input_bits(solver))
        for cube in (ts.state_cube(solver), ts.successor_cube(solver), inputs):
            assert cube.literals == Cube(cube.literals).literals
            assert hash(cube) == hash(Cube(cube.literals))

    def test_projection_without_model_raises(self):
        ts = TransitionSystem(token_ring(3).aig)
        solver = ArenaSolver()
        solver.ensure_var(ts.num_vars)
        with pytest.raises(SolverError):
            ts.state_cube(solver)

    def test_primed_literals_match_prime_lit(self):
        ts = TransitionSystem(token_ring(3).aig)
        cube = Cube(-v if i % 2 else v for i, v in enumerate(ts.latch_vars))
        assert ts.primed_literals(cube) == [ts.prime_lit(lit) for lit in cube]
        with pytest.raises(KeyError):
            ts.primed_literals(Cube([ts.bad_lit]))
        assert ts.next_state_variables == [ts.primed_of[v] for v in ts.latch_vars]

    def test_duplicate_latch_variable_rejected(self):
        aig = token_ring(3).aig
        aig.latches.append(aig.latches[0])
        with pytest.raises(EncodingError, match="distinct variables"):
            TransitionSystem(aig)

    @pytest.mark.parametrize("kind", ["input", "latch", "and"])
    def test_and_gate_redefining_a_variable_rejected(self, kind):
        aig, enable, latch = _toggle_system()
        lhs = {"input": enable, "latch": latch, "and": aig.ands[0].lhs}[kind]
        aig.ands.append(AndGate(lhs=lhs, rhs0=0, rhs1=0))
        with pytest.raises(EncodingError, match="distinct variables"):
            TransitionSystem(aig)


class TestLazyEncoding:
    @pytest.fixture
    def encoded(self, monkeypatch):
        """The AIG of every TransitionSystem whose T gets encoded."""
        aigs = []
        encode = TransitionSystem.__dict__["trans"].func

        def recording(ts):
            aigs.append(ts.aig)
            return encode(ts)

        trans = functools.cached_property(recording)
        trans.__set_name__(TransitionSystem, "trans")
        monkeypatch.setattr(TransitionSystem, "trans", trans)
        return aigs

    def test_construction_does_not_encode(self):
        ts = TransitionSystem(fifo_controller(2).aig)
        assert "trans" not in vars(ts)
        trans = ts.trans
        assert "trans" in vars(ts)
        assert ts.trans is trans

    def test_trans_layout(self):
        # Constant unit, three clauses per gate, two per latch, then the
        # constraints, in AIG order.
        aig = fifo_controller(2).aig
        ts = TransitionSystem(aig)
        assert ts.trans[0] == Clause([1])
        gate = aig.ands[0]
        out, a, b = (ts.to_solver_lit(lit) for lit in (gate.lhs, gate.rhs0, gate.rhs1))
        assert list(ts.trans)[1:4] == [Clause([-out, a]), Clause([-out, b]), Clause([out, -a, -b])]
        expected = 1 + 3 * len(aig.ands) + 2 * len(aig.latches) + len(aig.constraints)
        assert len(ts.trans) == expected
        assert f"trans_clauses={expected}" in ts.describe()

    def test_cone_of_every_latch_is_the_whole_relation(self):
        ts = TransitionSystem(token_ring(4).aig)
        cone = ts.cone_trans(ts.latch_vars)
        assert Counter(map(Clause, cone)) == Counter(ts.trans)

    def test_cone_leaves_out_unmentioned_logic(self):
        ts = TransitionSystem(monitored_counter(3, noise=8, copies=2).aig, warn_on_ambiguity=False)
        cone = list(ts.cone_trans([]))
        assert 0 < len(cone) < len(ts.trans)
        assert set(map(Clause, cone)).issubset(set(ts.trans))
        assert not any(ts.unprimed_of.get(abs(lit)) for clause in cone for lit in clause)
        latch = ts.latch_vars[0]
        mentioned = {abs(lit) for clause in ts.cone_trans([latch]) for lit in clause}
        assert mentioned & set(ts.unprimed_of) == {ts.prime_lit(latch)}

    def test_checkers_do_not_encode(self, encoded):
        case = token_ring(4)
        ts = TransitionSystem(case.aig)
        outcome = create_engine("ic3", case.aig, reduce=False).check(time_limit=60)
        assert outcome.result == CheckResult.SAFE
        encoded.clear()
        assert check_certificate(ts, outcome.certificate)
        assert "trans" not in vars(ts)

        unsafe = modular_counter(3, modulus=8, bad_value=4).aig
        outcome = create_engine("bmc", unsafe).check(time_limit=60)
        assert outcome.result == CheckResult.UNSAFE
        encoded.clear()
        assert check_counterexample(unsafe, outcome.trace)
        assert encoded == []

    @pytest.mark.parametrize("safe", [True, False])
    def test_lift_back_does_not_encode_the_original(self, encoded, safe):
        aig = monitored_counter(3, noise=8, copies=2, safe=safe).aig
        outcome = create_engine("ic3", aig, reduce=True).check(time_limit=60)
        assert outcome.result == (CheckResult.SAFE if safe else CheckResult.UNSAFE)
        assert outcome.reduction is not None
        assert encoded and not any(seen is aig for seen in encoded)
