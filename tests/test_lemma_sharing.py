"""Cooperative lemma exchange: soundness under a hostile bus.

The exchange layer's contract is that the bus is *untrusted*: every
foreign record is revalidated locally before installation, so malformed,
out-of-range, non-inductive or mislevelled records may waste a SAT call
but can never change a verdict.  These tests inject exactly such records
— parametrized over both SAT kernels and both frame backends — and
assert verdict preservation, witness validity and the rejection
counters.  The positive path (a published lemma imported and installed
by another member) is covered in-process with two engines sharing one
ring.
"""

import pytest

from repro.aiger.aig import AIG
from repro.benchgen import modular_counter, token_ring
from repro.core.bmc import BMC
from repro.core.ic3 import IC3
from repro.core.invariant import check_certificate
from repro.core.kinduction import KInduction
from repro.core.options import IC3Options
from repro.core.result import CheckResult
from repro.engines.lembus import SharePolicy, ShmRingBus
from repro.sat.solver import Solver

SAT_KERNELS = ["default", "arena"]
FRAME_BACKENDS = ["monolithic", "per-frame"]


@pytest.fixture
def sat_kernel(request, monkeypatch):
    """Run the importers on the production or the reference kernel.

    "default" swaps the reference :class:`Solver` in for the arena kernel
    at every module that builds engine solvers (IC3 frames, the sharing
    importer's context, the BMC / k-induction unrollings), so the hostile
    bus is checked against both kernels' semantics.
    """
    if request.param == "default":
        for module in ("repro.core.frames", "repro.sat.context", "repro.ts.unroll"):
            monkeypatch.setattr(f"{module}.ArenaSolver", Solver)
    return request.param


def _open_bus(min_level=0, max_lits=16):
    """A small ring whose policy lets hostile low-level records through."""
    return ShmRingBus(
        capacity=1 << 16, policy=SharePolicy(max_lits=max_lits, min_level=min_level)
    )


def _publish_hostile(port, num_latches):
    """Flood the port with records the importers must reject."""
    published = 0
    for index in range(num_latches):
        # Unit clauses of both polarities: for every latch at least one
        # of the pair fails the init check (or is plain wrong).
        published += port.publish(3, [index + 1])
        published += port.publish(3, [-(index + 1)])
    published += port.publish(3, [num_latches + 99])     # out of range
    published += port.publish(3, [-(num_latches + 42)])  # out of range
    published += port.publish(3, [0])                    # malformed literal
    published += port.publish(0, [-1])                   # level <= 0
    published += port.publish(-7, [-1, -2])              # negative level
    return published


def _stuck_flag_counter(modulus=None, bad_value=5):
    """A 3-bit counter plus a stuck-at-zero flag latch.

    The flag holds its reset value forever, so the latch-index clause
    ``[-4]`` ("flag is 0") is a true global invariant — the one record a
    sound importer must accept.  ``modulus=None`` lets the counter run
    free (UNSAFE for any ``bad_value``); with a modulus, values at or
    above it are unreachable (SAFE).
    """
    from repro.aiger.aig import FALSE_LIT

    aig = AIG(comment="stuck-flag counter")
    bits = [aig.add_latch(init=0, name=f"cnt{i}") for i in range(3)]
    incremented = aig.increment(bits)
    if modulus is None:
        for bit, inc in zip(bits, incremented):
            aig.set_latch_next(bit, inc)
    else:
        wrap = aig.equal_const(bits, modulus - 1)
        for bit, inc in zip(bits, incremented):
            aig.set_latch_next(bit, aig.mux(wrap, FALSE_LIT, inc))
    flag = aig.add_latch(init=0, name="stuck")
    aig.set_latch_next(flag, flag)
    aig.add_bad(aig.equal_const(bits, bad_value))
    return aig


@pytest.mark.parametrize("sat_kernel", SAT_KERNELS, indirect=True)
@pytest.mark.usefixtures("sat_kernel")
@pytest.mark.parametrize("frame_backend", FRAME_BACKENDS)
class TestIC3HostileBus:
    def test_safe_verdict_survives_poisoned_bus(self, frame_backend):
        case = token_ring(3)
        options = IC3Options(frame_backend=frame_backend)
        baseline = IC3(case.aig, options).check(time_limit=60)
        assert baseline.result == CheckResult.SAFE

        bus = _open_bus()
        try:
            victim_port = bus.open_local_port(0)
            attacker = bus.open_local_port(1)
            _publish_hostile(attacker, num_latches=len(case.aig.latches))
            engine = IC3(case.aig, options, lemma_port=victim_port)
            outcome = engine.check(time_limit=60)
        finally:
            bus.close()
            bus.unlink()

        assert outcome.result == baseline.result == CheckResult.SAFE
        assert check_certificate(case.aig, outcome.certificate)
        assert engine.stats.lemmas_received > 0
        assert engine.stats.lemmas_rejected > 0
        # Anything the validator did accept was proven locally, so the
        # certificate above already vouches for it.
        assert engine.stats.lemmas_imported <= engine.stats.lemmas_validated

    def test_unsafe_verdict_survives_masking_attempt(self, frame_backend):
        case = modular_counter(3, modulus=6, bad_value=3)
        assert case.expected == CheckResult.UNSAFE
        options = IC3Options(frame_backend=frame_backend)

        bus = _open_bus()
        try:
            victim_port = bus.open_local_port(0)
            attacker = bus.open_local_port(1)
            # Try to "block" the bad state with bogus high-level lemmas.
            _publish_hostile(attacker, num_latches=len(case.aig.latches))
            attacker.publish(50, [-1, -2])  # claims value 3 unreachable
            engine = IC3(case.aig, options, lemma_port=victim_port)
            outcome = engine.check(time_limit=60)
        finally:
            bus.close()
            bus.unlink()

        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace is not None
        assert outcome.trace.depth == case.expected_depth


@pytest.mark.parametrize("sat_kernel", SAT_KERNELS, indirect=True)
@pytest.mark.usefixtures("sat_kernel")
class TestIC3ImportAcceptPath:
    def test_true_invariant_accepted_despite_absurd_level(self):
        aig = _stuck_flag_counter(modulus=6, bad_value=7)
        bus = _open_bus()
        try:
            victim_port = bus.open_local_port(0)
            attacker = bus.open_local_port(1)
            # True invariant ("stuck flag is 0") advertised at a level far
            # beyond anything the member has: the level is clamped and the
            # clause revalidated, so it still imports.
            attacker.publish(999, [-4])
            engine = IC3(aig, IC3Options(), lemma_port=victim_port)
            outcome = engine.check(time_limit=60)
        finally:
            bus.close()
            bus.unlink()
        assert outcome.result == CheckResult.SAFE
        assert check_certificate(aig, outcome.certificate)
        assert engine.stats.lemmas_validated >= 1
        assert engine.stats.lemmas_imported >= 1
        assert engine.stats.lemmas_rejected == 0

    def test_two_members_exchange_lemmas_in_process(self):
        case = modular_counter(3, modulus=6, bad_value=7)
        bus = ShmRingBus(
            capacity=1 << 16, policy=SharePolicy(max_lits=8, min_level=1)
        )
        try:
            port_a = bus.open_local_port(0)
            port_b = bus.open_local_port(1)  # opened first: sees a's records
            options = IC3Options()
            engine_a = IC3(case.aig, options, lemma_port=port_a)
            outcome_a = engine_a.check(time_limit=60)
            assert outcome_a.result == CheckResult.SAFE
            assert engine_a.stats.lemmas_published > 0

            engine_b = IC3(
                case.aig, options.with_prediction(), lemma_port=port_b
            )
            outcome_b = engine_b.check(time_limit=60)
        finally:
            bus.close()
            bus.unlink()

        assert outcome_b.result == CheckResult.SAFE
        assert check_certificate(case.aig, outcome_b.certificate)
        assert engine_b.stats.lemmas_received > 0
        assert engine_b.stats.lemmas_validated > 0
        assert engine_b.stats.lemmas_imported > 0


@pytest.mark.parametrize("sat_kernel", SAT_KERNELS, indirect=True)
@pytest.mark.usefixtures("sat_kernel")
class TestUnrollingImporter:
    def test_bmc_rejects_hostile_still_finds_cex(self):
        aig = _stuck_flag_counter(modulus=None, bad_value=5)
        bus = _open_bus()
        try:
            victim_port = bus.open_local_port(0)
            attacker = bus.open_local_port(1)
            _publish_hostile(attacker, num_latches=len(aig.latches))
            # A clause that would mask the counterexample if trusted.
            attacker.publish(10, [-1, -2])
            engine = BMC(aig, lemma_port=victim_port)
            outcome = engine.check(max_depth=10, time_limit=60)
        finally:
            bus.close()
            bus.unlink()
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.trace is not None and outcome.trace.depth == 5
        assert engine.stats.lemmas_received > 0
        assert engine.stats.lemmas_rejected > 0

    def test_bmc_accepts_global_invariant(self):
        aig = _stuck_flag_counter(modulus=None, bad_value=5)
        bus = _open_bus()
        try:
            victim_port = bus.open_local_port(0)
            attacker = bus.open_local_port(1)
            attacker.publish(3, [-4])  # stuck flag stays 0: true invariant
            engine = BMC(aig, lemma_port=victim_port)
            outcome = engine.check(max_depth=10, time_limit=60)
        finally:
            bus.close()
            bus.unlink()
        assert outcome.result == CheckResult.UNSAFE  # invariant masks nothing
        assert outcome.trace is not None and outcome.trace.depth == 5
        assert engine.stats.lemmas_validated == 1
        assert engine.stats.lemmas_imported == 1

    def test_kinduction_hostile_bus_keeps_safe_verdict(self):
        aig = _stuck_flag_counter(modulus=6, bad_value=7)
        baseline = KInduction(aig).check(max_k=20, time_limit=60)
        bus = _open_bus()
        try:
            victim_port = bus.open_local_port(0)
            attacker = bus.open_local_port(1)
            _publish_hostile(attacker, num_latches=len(aig.latches))
            attacker.publish(3, [-4])  # one true invariant in the noise
            engine = KInduction(aig, lemma_port=victim_port)
            outcome = engine.check(max_k=20, time_limit=60)
        finally:
            bus.close()
            bus.unlink()
        assert baseline.result == outcome.result == CheckResult.SAFE
        assert engine.stats.lemmas_rejected > 0
        assert engine.stats.lemmas_imported >= 1
