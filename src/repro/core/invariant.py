"""Independent validation of certificates and counterexamples.

SAFE verdicts come with an inductive invariant (a set of clauses over the
latch variables); UNSAFE verdicts come with a concrete trace.  Both are
checked here against the *original* transition system, so a bug in the
IC3 engine cannot silently validate its own output: traces by pure
circuit simulation, certificates in two parts.  The unit clauses and the
latch equivalences among a certificate's clauses (what a reduction's
lift-back adds) are proven inductive by structural hashing in
:func:`split_certificate`; only the remaining clauses (IC3's lemmas, and
any equivalence hashing cannot prove) go to a fresh SAT solver, one
consecution query per clause.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.aiger.aig import AIG, FALSE_LIT, TRUE_LIT
from repro.core.result import Certificate, CounterexampleTrace
from repro.logic.cube import Clause
from repro.sat.solver import Solver
from repro.ts.system import TransitionSystem


class CertificateError(Exception):
    """The certificate or counterexample failed validation."""


def split_certificate(
    ts: TransitionSystem, clauses: Sequence[Clause]
) -> Tuple[List[Clause], List[Clause]]:
    """Split latch clauses into a part R proven inductive and the rest E.

    The candidates for R are found by shape alone: a unit clause ``(x)``
    states ``x ≡ 1``, and a pair ``(a ∨ b), (¬a ∨ ¬b)`` states ``a ≡ ¬b``.
    R is the greatest set of candidates that survives this test:

    1. join the candidates' latches into classes (union-find with
       phases), with the constant in the class of every unit;
    2. rebuild the next-state function of every latch in a class through
       a local structural-hashing table with constant folding, every
       latch replaced by its class representative or constant;
    3. drop every candidate whose two sides' rebuilt functions differ,
       and start again until nothing is dropped.

    A candidate that contradicts the others (``x ≡ y`` next to
    ``x ≡ ¬y``) never reaches the fixpoint: there, the candidates that
    join its two sides make their rebuilt functions complements.

    At the fixpoint every state satisfying R gives each latch the value
    of its substitute, so the substituted functions compute the same
    next state as the originals, and R's candidates hold there too:
    ``R ∧ T ⇒ R'``.  Hashing only sees what is structurally equal, so R
    may miss equivalences that hold, never the other way round.

    Returns ``(R, E)`` as lists of the given clauses, each in the given
    order; every clause is in exactly one of them.
    """
    aig = ts.aig
    latch_of = dict(zip(ts.latch_vars, aig.latches))

    def aig_lit(lit: int) -> int:
        return latch_of[abs(lit)].lit ^ (lit < 0)

    binary: Dict[frozenset, List[int]] = {}
    candidates: List[Tuple[int, int, List[int]]] = []  # (lhs, rhs, clause indices)
    for index, clause in enumerate(clauses):
        if len(clause) == 1:
            candidates.append((aig_lit(clause[0]), TRUE_LIT, [index]))
        elif len(clause) == 2:
            binary.setdefault(frozenset(clause), []).append(index)
    for key, indices in binary.items():
        a, b = sorted(key)
        partner = frozenset((-a, -b))
        if partner in binary and (a, b) < (-b, -a):  # each pair once, from its smaller clause
            candidates.append((aig_lit(a), aig_lit(-b), indices + binary[partner]))

    gate_of = {gate.lhs >> 1: gate for gate in aig.ands}
    next_of = {latch.lit >> 1: latch.next for latch in aig.latches}
    while candidates:
        link: Dict[int, int] = {}  # variable -> literal it equals, toward its root

        def find(lit: int) -> int:
            path = []
            var = lit >> 1
            while var in link:
                path.append(var)
                var = link[var] >> 1
            phase = 0
            for step in reversed(path):
                phase ^= link[step] & 1
                link[step] = 2 * var | phase
            return (2 * var | phase) ^ (lit & 1)

        for a, b, _ in candidates:
            a, b = find(a), find(b)
            if a >> 1 != b >> 1:
                if a < b:
                    a, b = b, a
                link[a >> 1] = b ^ (a & 1)  # the smaller variable, or the constant, is the root

        roots = [lit for a, b, _ in candidates for lit in (a, b) if lit > TRUE_LIT]
        stack = [next_of[lit >> 1] >> 1 for lit in roots]
        cone = set()
        while stack:
            var = stack.pop()
            gate = gate_of.get(var)
            if gate is not None and var not in cone:
                cone.add(var)
                stack += (gate.rhs0 >> 1, gate.rhs1 >> 1)

        image: Dict[int, int] = {}  # gate variable -> rebuilt literal
        table: Dict[Tuple[int, int], int] = {}
        fresh = aig.max_var

        def rebuilt(lit: int) -> int:
            out = image.get(lit >> 1)
            return find(lit) if out is None else out ^ (lit & 1)

        # A gate's variable exceeds its fan-ins' (AIG.validate), so
        # ascending variables are a topological order.
        for var in sorted(cone):
            gate = gate_of[var]
            a, b = sorted((rebuilt(gate.rhs0), rebuilt(gate.rhs1)))
            if a == FALSE_LIT or a == b ^ 1:
                image[var] = FALSE_LIT
            elif a == TRUE_LIT or a == b:
                image[var] = b
            else:
                out = table.get((a, b))
                if out is None:
                    fresh += 1
                    out = table[a, b] = 2 * fresh
                image[var] = out

        def successor(lit: int) -> int:
            return lit if lit <= TRUE_LIT else rebuilt(next_of[lit >> 1] ^ (lit & 1))

        kept = [c for c in candidates if successor(c[0]) == successor(c[1])]
        if len(kept) == len(candidates):
            break
        candidates = kept

    proven = {index for _, _, indices in candidates for index in indices}
    return (
        [clause for index, clause in enumerate(clauses) if index in proven],
        [clause for index, clause in enumerate(clauses) if index not in proven],
    )


def check_certificate(
    system: Union[AIG, TransitionSystem],
    certificate: Certificate,
    property_index: Optional[int] = None,
) -> bool:
    """Validate an inductive invariant ``INV = ¬Bad ∧ ⋀ clauses``.

    The checks, in order:

    1. every literal ranges over a latch variable;
    2. initiation of the clauses, ``I ⇒ clause``, syntactically against
       the reset values;
    3. ``I ∧ Bad`` is UNSAT (the initial states are safe);
    4. ``clauses ∧ Bad`` is UNSAT, so ``clauses ⇒ ¬Bad``;
    5. consecution of every clause, in two parts.  :func:`split_certificate`
       proves a part R of the clauses (units and latch equivalences)
       inductive on its own, ``R ∧ T ⇒ R'``, by structural hashing.  For
       the rest, E, ``clauses ∧ ¬Bad ∧ T ∧ ¬e'`` must be UNSAT for each
       ``e`` in E, asked in certificate order as one assumption query per
       clause (the relative-induction query IC3 itself asks).

    These suffice: by 2 and 5 the clauses hold on every reachable state,
    and by 4 no such state is bad.  Because 4 makes ``¬Bad`` implied by
    the clauses, ``INV`` is inductive without a separate ``¬Bad'`` check,
    and 3 is implied by 2 and 4 (it is kept to name the simpler failure).
    Since ``R ∧ T ⇒ R'``, the clauses are inductive exactly when every
    clause of E is inductive relative to all of them.  A failure names
    the first clause of the certificate that fails consecution relative
    to all the clauses: it lies in E, since no clause of R can fail.

    Queries 3–5 run on one fresh reference :class:`Solver`, loaded
    from :meth:`TransitionSystem.cone_trans` of the latches E mentions,
    renumbered densely: 3 and 4 see only the cone's property part, and
    the step part is added for 5.  The per-clause queries of 5 share
    that solver, so what one learns carries over to the next.  Every
    clause a query does not see defines a gate or a primed latch that
    the query does not mention, from variables the loaded clauses leave
    free, so each query is equisatisfiable with the same query over the
    full T.

    ``property_index`` selects the property of an AIG (default 0).  A
    :class:`TransitionSystem` already encodes one; an explicit index
    that differs from its ``property_index`` raises :class:`ValueError`.

    Raises :class:`CertificateError` on failure, returns True on success.
    """
    if isinstance(system, TransitionSystem):
        ts = system
        if property_index is not None and property_index != ts.property_index:
            raise ValueError(
                f"property index {property_index} disagrees with the transition "
                f"system, which encodes property {ts.property_index}"
            )
    else:
        ts = TransitionSystem(
            system, property_index=property_index or 0, warn_on_ambiguity=False
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

    _, rest = split_certificate(ts, clauses)
    cone = ts.cone_trans({abs(lit) for clause in rest for lit in clause})
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
    for clause in rest:
        if solver.solve([-lit_of(ts.prime_lit(lit)) for lit in clause]):
            raise CertificateError(f"consecution fails for clause {clause!r}")
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
