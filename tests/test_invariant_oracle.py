"""The certificate checker against explicit-state enumeration.

On random AIGs with at most five latches and three inputs, every state
and input is enumerated.  ``check_certificate`` must accept a clause set
exactly when three things hold there:

* initiation: every initial state satisfies the clauses;
* safety: no state satisfying the clauses and the constraints is bad;
* consecution: every successor, under the constraints, of a state
  satisfying the clauses satisfies them too.

On a consecution failure the clause it names must be the first clause
of the certificate that fails relative to all the clauses.  The clause
sets are random ones (many hold initially, so they reach consecution)
and engine certificates, each with every clause dropped in turn and
with random clauses mixed in.
"""

import itertools

import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from repro.core import CheckResult, Certificate, CertificateError, IC3Options
from repro.core.invariant import check_certificate
from repro.engines import create_engine
from repro.logic import Clause
from repro.ts import TransitionSystem

from tests.test_flat_evaluators import random_aigs

pytestmark = pytest.mark.filterwarnings("ignore::repro.ts.system.PropertySelectionWarning")


def explicit_failures(aig, ts, clauses):
    """``(initiation, safety, failing)``: the first two as booleans,
    ``failing`` the indices of the clauses that fail consecution."""
    column = {var: index for index, var in enumerate(ts.latch_vars)}

    def inside(state):
        return all(
            any(state[column[abs(lit)]] == (lit > 0) for lit in clause) for clause in clauses
        )

    states = list(itertools.product([False, True], repeat=aig.num_latches))
    initiation = all(
        inside(state)
        for state in states
        if all(latch.init is None or value == bool(latch.init)
               for latch, value in zip(aig.latches, state))
    )
    inputs = [
        dict(zip(aig.inputs, values))
        for values in itertools.product([False, True], repeat=aig.num_inputs)
    ]
    bad = (aig.bads or aig.outputs)[ts.property_index]
    safety = True
    failing = set()
    for state in filter(inside, states):
        latch_values = {latch.lit: value for latch, value in zip(aig.latches, state)}
        for step_inputs in inputs:
            values = aig._evaluate_combinational(step_inputs, latch_values)
            if not all(values[lit] for lit in aig.constraints):
                continue
            safety = safety and not values[bad]
            successor = [values[latch.next] for latch in aig.latches]
            failing.update(
                index
                for index, clause in enumerate(clauses)
                if not any(successor[column[abs(lit)]] == (lit > 0) for lit in clause)
            )
    return initiation, safety, failing


def assert_verdict_matches(aig, ts, clauses):
    """The checker's verdict equals the enumeration's; returns its kind."""
    initiation, safety, failing = explicit_failures(aig, ts, clauses)
    try:
        check_certificate(ts, Certificate(clauses=clauses))
    except CertificateError as error:
        message = str(error)
    else:
        message = None
    assert (message is None) == (initiation and safety and not failing), (clauses, message)
    if message is not None and initiation and safety:
        first = clauses[min(failing)]
        assert message == f"consecution fails for clause {first!r}", (clauses, failing)
        return "consecution"
    return "accepted" if message is None else "rejected"


@st.composite
def small_models(draw):
    """A random AIG with at most five latches and three inputs, and the
    transition system of one of its properties."""
    aig = draw(random_aigs(max_vars=10))
    assume((aig.bads or aig.outputs) and 1 <= aig.num_latches <= 5 and aig.num_inputs <= 3)
    index = draw(st.integers(0, len(aig.bads or aig.outputs) - 1))
    return aig, TransitionSystem(aig, property_index=index, warn_on_ambiguity=False)


@st.composite
def clause_sets(draw, ts, max_size=5):
    """Up to ``max_size`` clauses over distinct latches; most hold initially."""
    reset = {abs(lit): lit for lit in ts.init_cube}
    clauses = []
    for _ in range(draw(st.integers(0, max_size))):
        variables = draw(st.lists(st.sampled_from(ts.latch_vars), min_size=1, max_size=3,
                                  unique=True))
        lits = [var if draw(st.booleans()) else -var for var in variables]
        anchored = [var for var in variables if var in reset]
        if anchored and draw(st.integers(0, 7)):
            var = draw(st.sampled_from(anchored))
            lits = [reset[var] if abs(lit) == var else lit for lit in lits]
        clauses.append(Clause(lits))
    return clauses


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_clause_sets_match_enumeration(data):
    aig, ts = data.draw(small_models())
    clauses = data.draw(clause_sets(ts))
    for order in (clauses, clauses[::-1]):
        event(assert_verdict_matches(aig, ts, order))


ENGINE_OPTIONS = {
    "IC3ref": IC3Options.profile_ic3_a(),
    "RIC3-pl": IC3Options.profile_ic3_b().with_prediction(),
}


# Only SAFE runs carry a certificate, so about a third of the runs are
# filtered out by design.
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data(), st.sampled_from(sorted(ENGINE_OPTIONS)))
def test_engine_certificates_and_their_variants_match_enumeration(data, config):
    """A SAFE run's certificate, the certificate with each clause dropped,
    and the certificate with extra random clauses mixed in (these keep
    the clauses safe, so a rejection is mostly a consecution failure)."""
    aig, ts = data.draw(small_models())
    outcome = create_engine(
        "ic3", aig, options=ENGINE_OPTIONS[config], property_index=ts.property_index
    ).check(time_limit=20)
    assume(outcome.result == CheckResult.SAFE)
    clauses = list(outcome.certificate.clauses)
    assert assert_verdict_matches(aig, ts, clauses) == "accepted"
    for index in range(len(clauses)):
        event(assert_verdict_matches(aig, ts, clauses[:index] + clauses[index + 1:]))
    mixed = list(clauses)
    for extra in data.draw(clause_sets(ts, max_size=3)):
        mixed.insert(data.draw(st.integers(0, len(mixed))), extra)
    event(assert_verdict_matches(aig, ts, mixed))
