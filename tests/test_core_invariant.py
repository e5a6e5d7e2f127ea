"""Tests for certificate and counterexample validation.

Both validators must accept genuine artefacts produced by the engines and,
just as importantly, reject doctored ones — otherwise they could not serve
as independent oracles.
"""

import pytest

from repro.aiger import AIG
from repro.benchgen import (
    bench_suite,
    fifo_controller,
    modular_counter,
    monitored_counter,
    shadowed_ring,
    token_ring,
)
from repro.core import (
    IC3,
    BMC,
    CheckResult,
    Certificate,
    IC3Options,
    check_certificate,
    check_counterexample,
    CertificateError,
)
from repro.core.invariant import split_certificate
from repro.core.result import CheckOutcome, CounterexampleTrace, TraceStep
from repro.engines import create_engine
from repro.harness.runner import validate_witness
from repro.logic import Clause, Cube
from repro.sat import ArenaSolver, Solver
from repro.ts import TransitionSystem, select_bads


@pytest.fixture(scope="module")
def safe_run():
    case = token_ring(4)
    outcome = IC3(case.aig, IC3Options().with_prediction()).check(time_limit=60)
    assert outcome.result == CheckResult.SAFE
    return case, outcome


@pytest.fixture(scope="module")
def unsafe_run():
    case = modular_counter(3, modulus=8, bad_value=4)
    outcome = IC3(case.aig, IC3Options().with_prediction()).check(time_limit=60)
    assert outcome.result == CheckResult.UNSAFE
    return case, outcome


class TestCertificateValidation:
    def test_genuine_certificate_accepted(self, safe_run):
        case, outcome = safe_run
        assert check_certificate(case.aig, outcome.certificate)

    def test_accepts_transition_system_argument(self, safe_run):
        case, outcome = safe_run
        ts = TransitionSystem(case.aig)
        assert check_certificate(ts, outcome.certificate)

    def test_rejects_clause_violating_initiation(self, safe_run):
        case, outcome = safe_run
        ts = TransitionSystem(case.aig)
        # "token0 is low" is false in the initial state.
        broken = Certificate(
            clauses=list(outcome.certificate.clauses) + [Clause([-ts.latch_vars[0]])]
        )
        with pytest.raises(CertificateError):
            check_certificate(case.aig, broken)

    def test_rejects_certificate_that_allows_bad_states(self, safe_run):
        case, _ = safe_run
        # The empty clause set does not rule out the two-token bad states.
        with pytest.raises(CertificateError):
            check_certificate(case.aig, Certificate(clauses=[]))

    def test_rejects_non_inductive_clause_set(self):
        case = modular_counter(3, modulus=6, bad_value=7)
        ts = TransitionSystem(case.aig)
        # "counter < 4" rules out the bad value 7 and holds initially, but is
        # not inductive on its own (the counter does reach 4 and 5).
        clauses = [Clause([-ts.latch_vars[2]])]
        with pytest.raises(CertificateError):
            check_certificate(case.aig, Certificate(clauses=clauses))

    def test_consecution_names_the_first_failing_clause(self):
        # Counting modulo 6, "c2 is low" and "c0 is low" leave the values
        # 0 and 2.  Their successors 1 and 3 break "c0 is low", and 3 also
        # breaks ¬c0 ∨ ¬c1, so both fail: each order names its first.
        case = modular_counter(3, modulus=6, bad_value=7)
        ts = TransitionSystem(case.aig)
        c0, c1, c2 = ts.latch_vars
        even, not_three = Clause([-c0]), Clause([-c0, -c1])
        for failing in ([even, not_three], [not_three, even]):
            clauses = failing + [Clause([-c2])]
            with pytest.raises(CertificateError) as error:
                check_certificate(case.aig, Certificate(clauses=clauses))
            assert str(error.value) == f"consecution fails for clause {failing[0]!r}"

    def test_accepts_hand_built_invariant(self):
        # For the 2-bit FIFO controller, "count <= 2" is inductive: the
        # clause ¬(count0 ∧ count1) excludes 3 and the counter saturates.
        case = fifo_controller(2)
        ts = TransitionSystem(case.aig)
        certificate = Certificate(
            clauses=[Clause([-ts.latch_vars[0], -ts.latch_vars[1]])]
        )
        assert check_certificate(case.aig, certificate)

    def test_rejects_non_latch_literal(self):
        case = token_ring(4)
        ts = TransitionSystem(case.aig)
        assert not ts.is_state_lit(6)
        with pytest.raises(CertificateError, match="not a latch variable"):
            check_certificate(case.aig, Certificate(clauses=[Clause([6, 2])]))

    def test_harness_reports_non_latch_certificate_as_invalid(self):
        case = token_ring(4)
        outcome = CheckOutcome(
            result=CheckResult.SAFE,
            certificate=Certificate(clauses=[Clause([6, 2])]),
        )
        assert validate_witness(case.aig, outcome) is False


# ----------------------------------------------------------------------
# Differential check against the full-width reference algorithm
# ----------------------------------------------------------------------
def _full_solver(ts, kernel=Solver):
    solver = kernel()
    solver.ensure_var(ts.num_vars)
    for clause in ts.trans:
        solver.add_clause(clause.literals)
    return solver


def _reference_failures(ts, clauses, kernel=Solver):
    """The former checker: the full T and one consecution query per clause.

    Returns None when the clauses are accepted, ``"consecution"`` plus the
    list, in certificate order, of the clauses that fail consecution on
    their own, or the name of the first other check that fails.
    ``kernel`` is the SAT solver class.
    """
    if any(not ts.clause_holds_on_init(clause) for clause in clauses):
        return "initiation", []
    solver = _full_solver(ts, kernel)
    for lit in ts.init_cube:
        solver.add_clause([lit])
    if solver.solve([ts.bad_lit]):
        return "init-bad", []
    solver = _full_solver(ts, kernel)
    for clause in clauses:
        solver.add_clause(clause.literals)
    if solver.solve([ts.bad_lit]):
        return "bad", []
    solver.add_clause([-ts.bad_lit])
    failing = [
        clause
        for clause in clauses
        if solver.solve([-ts.prime_lit(lit) for lit in clause])
    ]
    return ("consecution", failing) if failing else None


def _constrained_counter():
    """A 2-bit counter kept below 3 only by an invariant constraint.

    ``en`` increments the counter; the constraint forbids ``en`` at 2, so
    the counter never reaches the bad value 3.  Two noise latches copy an
    input and are outside every cone the property needs.
    """
    aig = AIG(comment="constrained counter")
    en = aig.add_input("en")
    c0 = aig.add_latch(init=0, name="c0")
    c1 = aig.add_latch(init=0, name="c1")
    carry = aig.add_and(en, c0)
    aig.set_latch_next(c0, aig.xor_gate(c0, en))
    aig.set_latch_next(c1, aig.xor_gate(c1, carry))
    at_two = aig.add_and(aig.negate(c0), c1)
    aig.add_constraint(aig.negate(aig.add_and(en, at_two)))
    sensor = aig.add_input("sensor")
    previous = sensor
    for index in range(2):
        noise = aig.add_latch(init=0, name=f"noise{index}")
        aig.set_latch_next(noise, aig.xor_gate(noise, previous))
        previous = noise
    aig.add_bad(aig.add_and(c0, c1))
    return aig


DIFFERENTIAL_MODELS = {
    "monitored_counter": lambda: monitored_counter(3, noise=8, copies=2).aig,
    "shadowed_ring": lambda: shadowed_ring(3, noise=4).aig,
    "constrained_counter": _constrained_counter,
    "token_ring": lambda: token_ring(4).aig,
}


def _genuine_certificates(aig):
    """Certificates of plain IC3 and of a reduced run lifted back."""
    certificates = []
    for kwargs in ({"reduce": False}, {"reduce": True}):
        outcome = create_engine("ic3", aig, **kwargs).check(time_limit=60)
        assert outcome.result == CheckResult.SAFE
        certificates.append(list(outcome.certificate.clauses))
    return certificates


def _mutants(ts, clauses):
    """Dropped clauses, flipped literals and extra reset-value clauses."""
    yield []
    for index in range(len(clauses)):
        yield clauses[:index] + clauses[index + 1:]
    for index, clause in enumerate(clauses):
        lits = list(clause)
        flipped = Clause([-lits[0]] + lits[1:])
        yield clauses[:index] + [flipped] + clauses[index + 1:]
    # "latch keeps its reset value": holds initially, rarely inductive.
    reset = {abs(lit): lit for lit in ts.init_cube}
    for var in ts.latch_vars:
        if var in reset:
            yield clauses + [Clause([reset[var]])]


def _new_verdict(aig, clauses):
    try:
        check_certificate(aig, Certificate(clauses=clauses))
    except CertificateError as error:
        return str(error)
    return None


@pytest.mark.parametrize("model", sorted(DIFFERENTIAL_MODELS))
def test_cone_checker_agrees_with_full_reference(model):
    aig = DIFFERENTIAL_MODELS[model]()
    ts = TransitionSystem(aig, warn_on_ambiguity=False)
    genuine = _genuine_certificates(aig)
    for clauses in genuine:
        assert _reference_failures(ts, clauses) is None
        assert _new_verdict(aig, clauses) is None

    seen = set()
    rejected = consecution_rejections = 0
    for clauses in (m for g in genuine for m in _mutants(ts, g)):
        key = tuple(clauses)
        if key in seen:
            continue
        seen.add(key)
        reference = _reference_failures(ts, clauses)
        message = _new_verdict(aig, clauses)
        assert (reference is None) == (message is None), (clauses, reference, message)
        if reference is None:
            continue
        rejected += 1
        kind, failing = reference
        if kind == "consecution":
            consecution_rejections += 1
            assert message == f"consecution fails for clause {failing[0]!r}"
    assert rejected and consecution_rejections


@pytest.fixture(scope="module")
def wide_certificate():
    """IC3's certificate of a 1,065-latch SoC case, lifted to the original AIG."""
    case = monitored_counter(4, noise=1000, copies=16, safe=True)
    outcome = create_engine("ic3", case.aig).check(time_limit=60)
    assert outcome.result == CheckResult.SAFE
    return case.aig, list(outcome.certificate.clauses)


class TestLargeCone:
    """The checker on the largest certificate of the soc-wide benchmark."""

    def test_certificate_accepted(self, wide_certificate):
        aig, clauses = wide_certificate
        ts = TransitionSystem(aig, warn_on_ambiguity=False)
        mentioned = {abs(lit) for clause in clauses for lit in clause}
        cone = {abs(lit) for clause in ts.cone_trans(mentioned) for lit in clause}
        assert len(clauses) > 100 and len(cone) > 1000
        assert check_certificate(aig, Certificate(clauses=clauses))

    def test_rejected_with_any_one_clause_dropped(self, wide_certificate):
        aig, clauses = wide_certificate
        for index in range(len(clauses)):
            with pytest.raises(CertificateError):
                check_certificate(aig, Certificate(clauses=clauses[:index] + clauses[index + 1:]))

    def test_few_clauses_left_for_sat(self, wide_certificate):
        aig, clauses = wide_certificate
        proven, rest = split_certificate(TransitionSystem(aig, warn_on_ambiguity=False), clauses)
        assert sorted(proven + rest) == sorted(clauses)
        assert len(rest) <= 3

    def test_flipped_literal_mutants_agree_with_reference(self, wide_certificate):
        """Flip each literal of the clauses left for SAT, of the units and
        of the first equivalences, in place and as an extra clause."""
        aig, clauses = wide_certificate
        ts = TransitionSystem(aig, warn_on_ambiguity=False)
        proven, rest = split_certificate(ts, clauses)
        units = [clause for clause in proven if len(clause) == 1]
        equivalences = [clause for clause in proven if len(clause) == 2][:4]
        consecution_rejections = 0
        for clause in rest + units + equivalences:
            index = clauses.index(clause)
            lits = list(clause)
            for position in range(len(lits)):
                flipped = Clause(lits[:position] + [-lits[position]] + lits[position + 1:])
                replaced = clauses[:index] + [flipped] + clauses[index + 1:]
                for mutant in (replaced, clauses + [flipped]):
                    reference = _reference_failures(ts, mutant)
                    message = _new_verdict(aig, mutant)
                    assert (reference is None) == (message is None), (flipped, reference, message)
                    if reference is not None and reference[0] == "consecution":
                        consecution_rejections += 1
                        failing = reference[1]
                        assert message in {f"consecution fails for clause {c!r}" for c in failing}
        assert consecution_rejections


SAFE_BENCH_CASES = [case for case in bench_suite() if case.expected == CheckResult.SAFE]


@pytest.mark.parametrize("case", SAFE_BENCH_CASES, ids=lambda case: case.name)
def test_checker_agrees_with_the_arena_kernel(case):
    """The cone checker on the reference kernel against the full-width
    checker on the engines' arena kernel, for IC3's certificate and for it
    with each clause dropped in turn."""
    outcome = create_engine("ic3", case.aig).check(time_limit=60)
    assert outcome.result == CheckResult.SAFE
    clauses = list(outcome.certificate.clauses)
    ts = TransitionSystem(case.aig, warn_on_ambiguity=False)
    assert _new_verdict(case.aig, clauses) is None
    assert _reference_failures(ts, clauses, ArenaSolver) is None
    for index in range(len(clauses)):
        dropped = clauses[:index] + clauses[index + 1:]
        reference = _reference_failures(ts, dropped, ArenaSolver)
        message = _new_verdict(case.aig, dropped)
        assert (reference is None) == (message is None), (dropped, reference, message)
        if reference is not None and reference[0] == "consecution":
            assert message in {f"consecution fails for clause {c!r}" for c in reference[1]}


# ----------------------------------------------------------------------
# The cone split: property queries see the property part only
# ----------------------------------------------------------------------
def _single_cone(ts, mentioned):
    """The one-step cone as one clause set, sliced out of T by its layout:
    the constant unit, the gates in the fan-in of Bad, of the constraints
    and of the mentioned latches' next-state functions, those latches'
    next-state equivalences and the constraint units."""
    aig = ts.aig
    index_of = {gate.lhs >> 1: index for index, gate in enumerate(aig.ands)}
    latches = [index for index, var in enumerate(ts.latch_vars) if var in mentioned]
    roots = [select_bads(aig, warn_on_ambiguity=False)[0], *aig.constraints]
    roots += [aig.latches[index].next for index in latches]
    gates, stack = set(), [lit >> 1 for lit in roots]
    while stack:
        index = index_of.get(stack.pop())
        if index is not None and index not in gates:
            gates.add(index)
            stack += [aig.ands[index].rhs0 >> 1, aig.ands[index].rhs1 >> 1]
    trans, base = list(ts.trans), 1 + 3 * len(aig.ands)
    kept = [trans[0], *trans[base + 2 * len(aig.latches):]]
    for index in gates:
        kept += trans[1 + 3 * index: 4 + 3 * index]
    for index in latches:
        kept += trans[base + 2 * index: base + 2 * index + 2]
    return set(kept)


def _split(aig, clauses):
    """The cone parts of a certificate, as sets of canonical clauses,
    after checking that they partition the single cone."""
    ts = TransitionSystem(aig, warn_on_ambiguity=False)
    mentioned = {abs(lit) for clause in clauses for lit in clause}
    cone = ts.cone_trans(mentioned)
    property_part = {Clause(clause) for clause in cone.property}
    step_part = {Clause(clause) for clause in cone.step}
    assert property_part.isdisjoint(step_part)
    assert property_part | step_part == _single_cone(ts, mentioned)
    return property_part, step_part


@pytest.mark.parametrize("case", SAFE_BENCH_CASES, ids=lambda case: case.name)
def test_cone_parts_partition_the_cone(case):
    outcome = create_engine("ic3", case.aig).check(time_limit=60)
    assert outcome.result == CheckResult.SAFE
    _split(case.aig, list(outcome.certificate.clauses))


def test_wide_property_part_is_small(wide_certificate):
    aig, clauses = wide_certificate
    property_part, step_part = _split(aig, clauses)
    property_vars = {abs(lit) for clause in property_part for lit in clause}
    cone_vars = {abs(lit) for clause in property_part | step_part for lit in clause}
    assert 3 * len(property_vars) < len(cone_vars)


def _latch(aig, name, init, next_lit=None):
    """A latch that keeps its value unless ``next_lit`` is given."""
    lit = aig.add_latch(init=init, name=name)
    aig.set_latch_next(lit, lit if next_lit is None else next_lit)
    return lit


class TestSplitQueries:
    """Hand-built circuits whose verdict depends on which part a query sees."""

    def test_clauses_outside_the_bad_cone_do_not_imply_the_property(self):
        aig = AIG()
        stuck = _latch(aig, "stuck", init=0)
        watched = _latch(aig, "watched", init=0, next_lit=aig.add_input("i"))
        aig.add_bad(watched)
        ts = TransitionSystem(aig)
        certificate = Certificate(clauses=[Clause([-ts.to_solver_lit(stuck)])])
        with pytest.raises(CertificateError, match="^the invariant does not imply the property$"):
            check_certificate(aig, certificate)

    def test_consecution_fails_through_next_state_gates_only(self):
        aig = AIG()
        i, j = aig.add_input("i"), aig.add_input("j")
        stuck = _latch(aig, "stuck", init=0)
        fed = _latch(aig, "fed", init=0, next_lit=aig.add_and(i, j))
        aig.add_bad(aig.add_and(stuck, i))
        ts = TransitionSystem(aig)
        failing = Clause([-ts.to_solver_lit(fed)])
        certificate = Certificate(clauses=[Clause([-ts.to_solver_lit(stuck)]), failing])
        with pytest.raises(CertificateError, match="consecution fails") as error:
            check_certificate(aig, certificate)
        assert str(error.value) == f"consecution fails for clause {failing!r}"

    @staticmethod
    def _guarded_bad(constrained):
        """Bad is ``x ∧ y`` with ``x`` stuck at 1 and ``y`` free; the
        constraint ``¬(y ∧ z)``, with ``z`` stuck at 1, keeps ``y`` low."""
        aig = AIG()
        x = _latch(aig, "x", init=1)
        y = _latch(aig, "y", init=0, next_lit=aig.add_input("i"))
        z = _latch(aig, "z", init=1)
        if constrained:
            aig.add_constraint(aig.negate(aig.add_and(y, z)))
        aig.add_bad(aig.add_and(x, y))
        ts = TransitionSystem(aig)
        clauses = [Clause([ts.to_solver_lit(x)]), Clause([ts.to_solver_lit(z)])]
        return aig, Certificate(clauses=clauses)

    def test_constraint_makes_the_clauses_imply_the_property(self):
        assert check_certificate(*self._guarded_bad(constrained=True))
        with pytest.raises(CertificateError, match="^the invariant does not imply the property$"):
            check_certificate(*self._guarded_bad(constrained=False))

    def test_reset_state_hits_bad_through_an_unmentioned_latch(self):
        aig = AIG()
        r, s = _latch(aig, "r", init=1), _latch(aig, "s", init=1)
        unrelated = _latch(aig, "unrelated", init=0)
        aig.add_bad(aig.add_and(r, s))
        ts = TransitionSystem(aig)
        certificate = Certificate(clauses=[Clause([-ts.to_solver_lit(unrelated)])])
        with pytest.raises(CertificateError, match="^an initial state satisfies Bad$"):
            check_certificate(aig, certificate)


class TestPropertyIndex:
    """``stuck`` stays low and ``free`` loads an input; the first bad,
    ``stuck``, never holds, the second, ``free``, does."""

    @staticmethod
    def _two_bads():
        aig = AIG()
        stuck = _latch(aig, "stuck", init=0)
        free = _latch(aig, "free", init=0, next_lit=aig.add_input("i"))
        aig.add_bad(stuck)
        aig.add_bad(free)
        ts = TransitionSystem(aig)
        return aig, Certificate(clauses=[Clause([-ts.to_solver_lit(stuck)])])

    def test_index_selects_the_property_of_an_aig(self):
        aig, certificate = self._two_bads()
        assert check_certificate(aig, certificate, property_index=0)
        with pytest.raises(CertificateError, match="does not imply the property"):
            check_certificate(aig, certificate, property_index=1)

    def test_transition_system_checks_its_own_property(self):
        aig, certificate = self._two_bads()
        first, second = TransitionSystem(aig), TransitionSystem(aig, property_index=1)
        assert (first.property_index, second.property_index) == (0, 1)
        assert check_certificate(first, certificate)
        assert check_certificate(first, certificate, property_index=0)
        for index in (None, 1):
            with pytest.raises(CertificateError, match="does not imply the property"):
                check_certificate(second, certificate, property_index=index)

    def test_disagreeing_index_raises(self):
        aig, certificate = self._two_bads()
        with pytest.raises(ValueError, match="property index 0 disagrees"):
            check_certificate(TransitionSystem(aig, property_index=1), certificate, 0)
        with pytest.raises(ValueError, match="property index 1 disagrees"):
            check_certificate(TransitionSystem(aig), certificate, property_index=1)


def _equivalence(a, b):
    """The two clauses of ``a ≡ b`` over solver literals."""
    return [Clause([-a, b]), Clause([a, -b])]


class TestTwoPartCheck:
    """Units and equivalences proven by hashing, the rest by SAT."""

    def test_equivalence_true_at_reset_only_is_rejected(self):
        aig = AIG()
        x = _latch(aig, "x", init=0, next_lit=aig.add_input("i"))
        y = _latch(aig, "y", init=0)
        aig.add_bad(y)
        ts = TransitionSystem(aig)
        x, y = ts.to_solver_lit(x), ts.to_solver_lit(y)
        stuck = Clause([-y])
        clauses = [stuck, *_equivalence(x, y)]
        assert split_certificate(ts, clauses) == ([stuck], clauses[1:])
        assert _reference_failures(ts, clauses) == ("consecution", [clauses[1]])
        with pytest.raises(CertificateError) as error:
            check_certificate(aig, Certificate(clauses=clauses))
        assert str(error.value) == f"consecution fails for clause {clauses[1]!r}"

    def test_dropped_equivalence_takes_down_those_resting_on_it(self):
        # u ≡ v holds only while x ≡ y does, which fails (x copies an input).
        aig = AIG()
        x = _latch(aig, "x", init=0, next_lit=aig.add_input("i"))
        y = _latch(aig, "y", init=0)
        u = _latch(aig, "u", init=0, next_lit=x)
        v = _latch(aig, "v", init=0, next_lit=y)
        aig.add_bad(aig.add_and(u, aig.negate(v)))
        ts = TransitionSystem(aig)
        x, y, u, v = (ts.to_solver_lit(lit) for lit in (x, y, u, v))
        clauses = [*_equivalence(u, v), *_equivalence(x, y)]
        assert split_certificate(ts, clauses) == ([], clauses)
        assert _reference_failures(ts, clauses) == ("consecution", clauses[2:])
        assert _new_verdict(aig, clauses) in {
            f"consecution fails for clause {clause!r}" for clause in clauses[2:]
        }

    def test_non_inductive_lemma_next_to_proven_equivalence_is_rejected(self):
        aig = AIG()
        i, j = aig.add_input("i"), aig.add_input("j")
        x, y = aig.add_latch(init=0, name="x"), aig.add_latch(init=0, name="y")
        aig.set_latch_next(x, aig.add_and(i, x))
        aig.set_latch_next(y, aig.add_and(i, y))
        z1 = _latch(aig, "z1", init=0, next_lit=i)
        z2 = _latch(aig, "z2", init=0, next_lit=j)
        aig.add_bad(aig.add_and(z1, z2))
        ts = TransitionSystem(aig)
        equivalence = _equivalence(ts.to_solver_lit(x), ts.to_solver_lit(y))
        lemma = Clause([-ts.to_solver_lit(z1), -ts.to_solver_lit(z2)])
        clauses = [*equivalence, lemma]
        assert split_certificate(ts, clauses) == (equivalence, [lemma])
        with pytest.raises(CertificateError) as error:
            check_certificate(aig, Certificate(clauses=clauses))
        assert str(error.value) == f"consecution fails for clause {lemma!r}"

    def test_equivalence_needing_a_lemma_is_accepted_by_sat(self):
        # z1, z2 swap a token each step, so z1 ∨ z2 is inductive; x copies
        # i ∧ (z1 ∨ z2) and y copies i, so x ≡ y only given that lemma.
        aig = AIG()
        i = aig.add_input("i")
        z1, z2 = aig.add_latch(init=1, name="z1"), aig.add_latch(init=0, name="z2")
        aig.set_latch_next(z1, z2)
        aig.set_latch_next(z2, z1)
        x = _latch(aig, "x", init=0, next_lit=aig.add_and(i, aig.or_gate(z1, z2)))
        y = _latch(aig, "y", init=0, next_lit=i)
        aig.add_bad(aig.add_and(x, aig.negate(y)))
        ts = TransitionSystem(aig)
        lemma = Clause([ts.to_solver_lit(z1), ts.to_solver_lit(z2)])
        clauses = [*_equivalence(ts.to_solver_lit(x), ts.to_solver_lit(y)), lemma]
        assert split_certificate(ts, clauses) == ([], clauses)
        assert _reference_failures(ts, clauses) is None
        assert check_certificate(aig, Certificate(clauses=clauses))
        with pytest.raises(CertificateError, match="consecution fails"):
            check_certificate(aig, Certificate(clauses=clauses[:2]))

    def test_chained_equivalences_of_both_phases_are_proven(self):
        # x ≡ ¬y, y ≡ z, z ≡ e and the constants c, ¬d and ¬f, each
        # proven only after the others are substituted into the next-state
        # functions and folded (c ∧ y, y ∧ ¬z, y ∧ z, i ∧ f).
        aig = AIG()
        i = aig.add_input("i")
        c = _latch(aig, "c", init=1)
        f = aig.add_latch(init=0, name="f")
        aig.set_latch_next(f, aig.add_and(i, f))
        x, y, z, d, e = (
            aig.add_latch(init=int(name == "x"), name=name) for name in ("x", "y", "z", "d", "e")
        )
        aig.set_latch_next(x, aig.negate(aig.add_and(i, aig.negate(x))))
        aig.set_latch_next(y, aig.add_and(i, aig.add_and(c, y)))
        aig.set_latch_next(z, aig.add_and(i, z))
        aig.set_latch_next(d, aig.add_and(y, aig.negate(z)))
        aig.set_latch_next(e, aig.add_and(i, aig.add_and(y, z)))
        aig.add_bad(aig.add_and(y, aig.negate(z)))
        ts = TransitionSystem(aig)
        c, f, x, y, z, d, e = (ts.to_solver_lit(lit) for lit in (c, f, x, y, z, d, e))
        clauses = [
            Clause([c]), Clause([-d]), Clause([-f]),
            *_equivalence(x, -y), *_equivalence(y, z), *_equivalence(z, e),
        ]
        assert split_certificate(ts, clauses) == (clauses, [])
        assert check_certificate(aig, Certificate(clauses=clauses))

    def test_contradictory_pair_is_rejected(self):
        aig = AIG()
        x, y = _latch(aig, "x", init=0), _latch(aig, "y", init=0)
        aig.add_bad(aig.add_and(x, y))
        ts = TransitionSystem(aig)
        x, y = ts.to_solver_lit(x), ts.to_solver_lit(y)
        same, opposite = _equivalence(x, y), _equivalence(x, -y)
        proven, rest = split_certificate(ts, same + opposite)
        assert {frozenset(proven), frozenset(rest)} == {frozenset(same), frozenset(opposite)}
        with pytest.raises(CertificateError, match="initiation fails"):
            check_certificate(aig, Certificate(clauses=same + opposite))

    def test_long_gate_chain(self):
        # x and y copy a chain of 20,000 AND gates; w copies the chain and
        # i once more, equal to it only semantically, so it goes to SAT.
        aig = AIG()
        i, j = aig.add_input("i"), aig.add_input("j")
        chain = i
        for index in range(20_000):
            chain = aig.add_and(chain, (j, i)[index % 2])
        assert aig.num_ands >= 20_000
        x = _latch(aig, "x", init=0, next_lit=chain)
        y = _latch(aig, "y", init=0, next_lit=chain)
        w = _latch(aig, "w", init=0, next_lit=aig.add_and(chain, i))
        aig.add_bad(aig.add_and(x, aig.negate(y)))
        ts = TransitionSystem(aig)
        x, y, w = (ts.to_solver_lit(lit) for lit in (x, y, w))
        proven, rest = _equivalence(x, y), _equivalence(x, w)
        assert split_certificate(ts, proven + rest) == (proven, rest)
        assert check_certificate(aig, Certificate(clauses=proven + rest))


def test_constrained_counter_needs_the_constraint():
    aig = _constrained_counter()
    ts = TransitionSystem(aig)
    c0, c1 = ts.latch_vars[:2]
    below_three = Certificate(clauses=[Clause([-c0, -c1])])
    assert check_certificate(aig, below_three)
    aig.constraints.clear()
    with pytest.raises(CertificateError, match="consecution fails"):
        check_certificate(aig, below_three)


class TestCounterexampleValidation:
    def test_genuine_trace_accepted(self, unsafe_run):
        case, outcome = unsafe_run
        assert check_counterexample(case.aig, outcome.trace)

    def test_bmc_trace_accepted(self):
        case = modular_counter(3, modulus=8, bad_value=3)
        outcome = BMC(case.aig).check(max_depth=10)
        assert check_counterexample(case.aig, outcome.trace)

    def test_rejects_empty_trace(self, unsafe_run):
        case, _ = unsafe_run
        with pytest.raises(CertificateError):
            check_counterexample(case.aig, CounterexampleTrace(steps=[]))

    def test_rejects_trace_not_starting_in_init(self, unsafe_run):
        case, outcome = unsafe_run
        ts = TransitionSystem(case.aig)
        bogus_first = TraceStep(state=Cube([ts.latch_vars[0]]), inputs={})
        trace = CounterexampleTrace(steps=[bogus_first] + outcome.trace.steps[1:])
        with pytest.raises(CertificateError):
            check_counterexample(case.aig, trace)

    def test_rejects_truncated_trace(self, unsafe_run):
        case, outcome = unsafe_run
        trace = CounterexampleTrace(steps=outcome.trace.steps[:-1])
        with pytest.raises(CertificateError):
            check_counterexample(case.aig, trace)

    def test_rejects_trace_with_corrupted_state(self, unsafe_run):
        case, outcome = unsafe_run
        steps = list(outcome.trace.steps)
        # Flip every latch literal of the last state.
        final = steps[-1]
        steps[-1] = TraceStep(
            state=Cube([-l for l in final.state]), inputs=final.inputs
        )
        if len(steps) < 2:
            pytest.skip("trace too short to corrupt meaningfully")
        with pytest.raises(CertificateError):
            check_counterexample(case.aig, CounterexampleTrace(steps=steps))
