"""Independent validation of certificates and counterexamples.

SAFE verdicts come with an inductive invariant (a set of clauses over the
latch variables); UNSAFE verdicts come with a concrete trace.  Both are
checked here against the *original* transition system with a fresh SAT
solver (for certificates) or by pure circuit simulation (for traces), so a
bug in the IC3 engine cannot silently validate its own output.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.aiger.aig import AIG
from repro.core.result import Certificate, CounterexampleTrace
from repro.sat.solver import Solver
from repro.ts.system import TransitionSystem


class CertificateError(Exception):
    """The certificate or counterexample failed validation."""


def check_certificate(
    system: Union[AIG, TransitionSystem],
    certificate: Certificate,
    property_index: int = 0,
) -> bool:
    """Validate an inductive invariant ``INV = ¬Bad ∧ ⋀ clauses``.

    The checks, in order:

    1. every literal ranges over a latch variable;
    2. initiation of the clauses, ``I ⇒ clause``, syntactically against
       the reset values;
    3. ``I ∧ Bad`` is UNSAT (the initial states are safe);
    4. ``clauses ∧ Bad`` is UNSAT, so ``clauses ⇒ ¬Bad``;
    5. consecution of every clause, ``clauses ∧ ¬Bad ∧ T ∧ ¬clause'`` is
       UNSAT, asked as one query: each ``¬clause'`` is guarded by a fresh
       variable and one clause requires some guard to hold.

    These suffice: by 2 and 5 the clauses hold on every reachable state,
    and by 4 no such state is bad.  Because 4 makes ``¬Bad`` implied by
    the clauses, ``INV`` is inductive without a separate ``¬Bad'`` check,
    and 3 is implied by 2 and 4 (it is kept to name the simpler failure).

    Queries 3–5 run on one fresh reference :class:`Solver`, loaded
    from :meth:`TransitionSystem.cone_trans` of the latches the clauses
    mention, renumbered densely: 3 and 4 see only the cone's property
    part, and the step part is added for 5.  Every clause a query does
    not see defines a gate or a primed latch that the query does not
    mention, from variables the loaded clauses leave free, so each
    query is equisatisfiable with the same query over the full T.

    Raises :class:`CertificateError` on failure, returns True on success.
    """
    ts = system if isinstance(system, TransitionSystem) else TransitionSystem(
        system, property_index=property_index, warn_on_ambiguity=False
    )
    clauses = list(certificate.clauses)
    mentioned = {abs(lit) for clause in clauses for lit in clause}
    for var in sorted(mentioned):
        if not ts.is_state_lit(var):
            raise CertificateError(f"certificate variable {var} is not a latch variable")

    for clause in clauses:
        if not ts.clause_holds_on_init(clause):
            raise CertificateError(f"initiation fails for clause {clause!r}")

    solver = Solver()
    dense: Dict[int, int] = {}  # both literals of a variable -> solver literals

    def lit_of(lit: int) -> int:
        if lit not in dense:
            var = solver.new_var()
            dense[abs(lit)], dense[-abs(lit)] = var, -var
        return dense[lit]

    def add(new_clauses) -> None:
        for clause in new_clauses:
            solver.add_clause([dense[lit] if lit in dense else lit_of(lit) for lit in clause])

    cone = ts.cone_trans(mentioned)
    add(cone.property)
    bad = lit_of(ts.bad_lit)

    # Reset values of latches the property part leaves out constrain nothing.
    init = [lit_of(lit) for lit in ts.init_cube if abs(lit) in dense]
    if solver.solve(init + [bad]):
        raise CertificateError("an initial state satisfies Bad")

    add(clauses)
    if solver.solve([bad]):
        raise CertificateError("the invariant does not imply the property")
    solver.add_clause([-bad])

    add(cone.step)
    guards = []
    for clause in clauses:
        guard = solver.new_var()
        guards.append(guard)
        for lit in clause:
            solver.add_clause([-guard, -lit_of(ts.prime_lit(lit))])
    if guards:
        solver.add_clause(guards)
        if solver.solve():
            failing = next(
                clause
                for clause, guard in zip(clauses, guards)
                if solver.model_value(guard)
            )
            raise CertificateError(f"consecution fails for clause {failing!r}")
    return True


def check_counterexample(
    aig: AIG,
    trace: CounterexampleTrace,
    property_index: int = 0,
) -> bool:
    """Replay a counterexample trace on the AIG by simulation.

    The first step's state must be consistent with the reset values, every
    recorded partial state must agree with the simulated one, and the final
    step must assert the bad signal.  Raises :class:`CertificateError` when
    any of this fails.
    """
    if not trace.steps:
        raise CertificateError("empty counterexample trace")

    ts = TransitionSystem(aig, property_index=property_index, warn_on_ambiguity=False)
    latch_of_var = dict(zip(ts.latch_vars, aig.latches))

    # Initial state: reset values overridden by the trace's first cube
    # (necessary for latches without a defined reset).
    first_state = trace.steps[0].state
    initial = {latch.lit: bool(latch.init) for latch in aig.latches}
    for lit in first_state:
        latch = latch_of_var.get(abs(lit))
        if latch is not None:
            initial[latch.lit] = lit > 0

    if not ts.cube_intersects_init(first_state):
        raise CertificateError("the first trace state is not an initial state")

    records = aig.simulate(trace.input_sequence(), initial_latches=initial)

    for step_index, (step, record) in enumerate(zip(trace.steps, records)):
        simulated = record["latches"]
        for lit in step.state:
            var = abs(lit)
            latch = latch_of_var.get(var)
            if latch is None:
                continue
            if simulated[latch.lit] != (lit > 0):
                raise CertificateError(
                    f"trace step {step_index} disagrees with simulation on latch {latch.lit}"
                )

    # Invariant constraints must hold on every step of the run — a trace
    # that leaves the constrained state space is no counterexample.
    for step_index, record in enumerate(records):
        if not all(record["constraints"]):
            raise CertificateError(
                f"an invariant constraint fails at trace step {step_index}"
            )

    final = records[-1]
    signals = final["bads"] if aig.bads else final["outputs"]
    if not signals[property_index]:
        raise CertificateError("the final trace step does not assert the bad signal")
    return True
