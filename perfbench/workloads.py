"""Benchmark workloads: named case lists, seeded renumbering, AAG round trip.

Every workload is a fixed list of generator calls.  The benchmark seed
drives an isomorphic renumbering of each generated circuit (a random
input order and a random topological AND order) before the circuit is
written as AAG text; the program under test only ever sees the parsed
text.  Seed 0 keeps the generator's own numbering.

Latches keep their relative order.  The IC3 profiles order literals by
latch index during generalization, so a latch permutation hands the
engines a different search rather than a renumbered copy of the same
one: on ovf_w6_unsafe plus satcnt_w6_l62_b40 it spread RIC3's PAR-1
over five seeds by 31 % (quartile distance over median), against 12 %
with latches in place.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import replace
from typing import Dict, List, Tuple, Union

from repro.aiger import parse_aiger, to_aag_string
from repro.aiger.aig import AIG
from repro.benchgen.case import BenchmarkCase
from repro.benchgen.counters import counter_overflow, parity_counter
from repro.benchgen.datapath import gray_counter
from repro.benchgen.registers import johnson_counter, token_ring
from repro.benchgen.soc import monitored_counter, shadowed_ring

# Each entry: (generator call, why the case is in the workload).  Times
# are means over eight seeded renumberings, one run of each paper
# configuration, in process, on a 2-core x86 container, default SAT
# kernel.  "Spread" is the standard deviation over those renumberings.
WORKLOADS: Dict[str, List[tuple]] = {
    "safe-proofs": [
        (lambda: gray_counter(5, safe=True),
         "SAFE datapath proof, 0.23-0.27 s per configuration, spread 5-12 %"),
        (lambda: johnson_counter(12, safe=True),
         "prediction pays: IC3ref 0.68 s vs IC3ref-pl 0.26 s, spread 7-17 %"),
        (lambda: counter_overflow(3, safe=False),
         "tiny UNSAFE case so the trace checker runs on every workload"),
    ],
    "deep-cex": [
        (lambda: counter_overflow(5, safe=False),
         "32-step counterexample; RIC3 0.47 s vs RIC3-pl 0.24 s, spread 8-11 %"),
        (lambda: gray_counter(6, safe=False),
         "32-step counterexample on 12 latches; RIC3 0.73 s, others 0.30-0.51 s"),
        (lambda: token_ring(4, safe=True),
         "tiny SAFE case so the certificate checker runs on every workload"),
    ],
    "soc-wide": [
        (lambda: monitored_counter(4, noise=1000, copies=16, safe=True),
         "1065 latches reduce to a few; engine 0.05-0.08 s, certificate check 0.5 s"),
        (lambda: shadowed_ring(4, noise=1000, safe=True),
         "1009 latches; engine 0.04 s, reduction and lift-back are most of it"),
        (lambda: monitored_counter(3, noise=1000, copies=16, safe=False),
         "UNSAFE, 7-step trace lifted and replayed on 1049 latches; engine 0.07 s"),
    ],
    "smoke": [
        (lambda: token_ring(3, safe=True), "small SAFE case for the benchmark's own tests"),
        (lambda: parity_counter(3, safe=False), "small UNSAFE case"),
        (lambda: monitored_counter(3, noise=6, copies=2, safe=True),
         "small case that the reduction pipeline shrinks"),
    ],
}

def workload_names() -> List[str]:
    """Workloads in definition order (``smoke`` is for tests only)."""
    return list(WORKLOADS)


def renumber(aig: AIG, seed: Union[int, str]) -> AIG:
    """Return an isomorphic copy of ``aig`` numbered by ``seed``.

    Inputs come first, then latches, then AND gates (the usual AIGER
    numbering).  Inputs take a seeded random order, latches keep theirs,
    and AND gates follow a seeded random topological order.  Names,
    initial values and every property section carry over unchanged.
    """
    rng = random.Random(seed)
    new = AIG(comment=aig.comment)
    lit_of: Dict[int, int] = {0: 0, 1: 1}

    def mapped(lit: int) -> int:
        return lit_of[lit & ~1] ^ (lit & 1)

    for index in rng.sample(range(aig.num_inputs), aig.num_inputs):
        lit = aig.inputs[index]
        lit_of[lit] = new.add_input(aig.input_name(lit))
    for latch in aig.latches:
        lit_of[latch.lit] = new.add_latch(init=latch.init, name=latch.name)
    for gate in _random_topological_order(aig, rng):
        lit_of[gate.lhs] = new.add_and(mapped(gate.rhs0), mapped(gate.rhs1))
    for latch in aig.latches:
        new.set_latch_next(lit_of[latch.lit], mapped(latch.next))
    for lit in aig.outputs:
        new.add_output(mapped(lit))
    for lit in aig.bads:
        new.add_bad(mapped(lit))
    for lit in aig.constraints:
        new.add_constraint(mapped(lit))
    for group in aig.justice:
        new.add_justice([mapped(lit) for lit in group])
    for lit in aig.fairness:
        new.add_fairness(mapped(lit))
    return new


def _random_topological_order(aig: AIG, rng: random.Random) -> list:
    """AND gates in a random order that still lists operands first."""
    gate_of = {gate.lhs: gate for gate in aig.ands}
    users: Dict[int, List[int]] = {}
    missing = {}
    for gate in aig.ands:
        deps = {lit & ~1 for lit in (gate.rhs0, gate.rhs1)} & gate_of.keys()
        missing[gate.lhs] = len(deps)
        for dep in deps:
            users.setdefault(dep, []).append(gate.lhs)
    ready = [(rng.random(), lhs) for lhs, count in missing.items() if count == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, lhs = heapq.heappop(ready)
        order.append(gate_of[lhs])
        for user in users.get(lhs, ()):
            missing[user] -= 1
            if missing[user] == 0:
                heapq.heappush(ready, (rng.random(), user))
    if len(order) != len(aig.ands):
        raise ValueError("AND gates form a cycle")
    return order


def write_cases(workload: str, seed: int) -> List[Tuple[BenchmarkCase, str]]:
    """Generate every case of ``workload`` and write it as AAG text."""
    written = []
    for index, (make, _why) in enumerate(WORKLOADS[workload]):
        case = make()
        aig = case.aig if seed == 0 else renumber(case.aig, f"{seed}/{index}")
        written.append((case, to_aag_string(aig)))
    return written


def parse_cases(written: List[Tuple[BenchmarkCase, str]]) -> List[BenchmarkCase]:
    """Parse the AAG texts back; the cases then hold only parsed circuits."""
    return [replace(case, aig=parse_aiger(text)) for case, text in written]


def build_cases(workload: str, seed: int) -> List[BenchmarkCase]:
    """The workload's cases, generated, renumbered, written and parsed."""
    return parse_cases(write_cases(workload, seed))
