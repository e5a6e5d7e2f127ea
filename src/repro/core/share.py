"""Live lemma exchange between cooperative portfolio members.

Two import/export adapters connect the core engines to a lemma bus (any
object with the ``publish``/``pending``/``drain`` port shape of
:mod:`repro.engines.lembus` — the port is injected, so the core never
imports the engines layer):

* :class:`FrameLemmaExchange` — for IC3.  Exports newly proven frame
  lemmas (a lemma ``¬c`` at level ``i`` means "``c`` is unreachable in at
  most ``i`` steps", a run-independent fact of the model, so it transfers
  between members racing on the same model).  Imports foreign lemmas
  after *local revalidation*: a clause is installed at level ``L`` only
  if it holds on the initial states and passes this member's own
  consecution check at ``L - 1`` — the advertised level is treated as a
  hint, never as a proof, so a hostile or buggy bus can waste a little
  validation time but can never make a verdict wrong.
* :class:`UnrollingInvariantImporter` — for BMC and k-induction.  A
  foreign frame lemma is only sound at *every* unrolling frame if it is a
  global invariant, so the importer checks the stronger condition on a
  dedicated validator solver: the clause must hold on the initial states
  and be inductive relative to the previously accepted clauses (sound by
  mutual induction on path length).  Accepted clauses are asserted at
  every time frame of the unrolling, pruning both engines' searches
  without masking any real counterexample — every state on a real
  counterexample trace is reachable and therefore satisfies every true
  invariant.

Lemmas travel in *latch-index literal* form: literal ``±(index + 1)``
refers to latch ``index`` of the model all members race on.  When a
member reduced its model further, the injected ``map_in``/``map_out``
callables translate clauses through its reduction pipeline (see
:meth:`repro.reduce.recon.ReconstructionMap.map_latch_index_clauses`).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.stats import IC3Stats
from repro.logic.cube import Clause, Cube
from repro.obs.tracer import get_tracer

ClauseMap = Callable[[List[List[int]]], List[List[int]]]

_DRAIN_OBLIGATION_INTERVAL = 16
"""IC3 checks the bus every this many proof obligations."""


def _canonical(clause: Sequence[int]) -> Tuple[int, ...]:
    """Order-independent identity of a latch-index clause."""
    return tuple(sorted(clause))


class FrameLemmaExchange:
    """IC3-side export/import adapter around one bus port."""

    def __init__(
        self,
        port,
        ts,
        frames,
        stats: IC3Stats,
        map_in: Optional[ClauseMap] = None,
        map_out: Optional[ClauseMap] = None,
    ):
        self.port = port
        self.ts = ts
        self.frames = frames
        self.stats = stats
        self._map_in = map_in
        self._map_out = map_out
        self._var_index = {var: i for i, var in enumerate(ts.latch_vars)}
        # Canonical keys (bus space) this member already published or
        # imported: stops echo loops (re-exporting an import) and repeat
        # validation of clauses several members keep republishing.
        self._seen: set = set()
        self._suppress_export = False
        frames.lemma_exporter = self.on_lemma

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def on_lemma(self, cube: Cube, level: int) -> None:
        """Frame-manager hook: a lemma ``¬cube`` now covers ``level``."""
        if self._suppress_export or self.port is None:
            return
        policy = self.port.policy
        if len(cube) > policy.max_lits or level < policy.min_level:
            return
        index_clause = []
        for lit in cube:
            index = self._var_index.get(abs(lit))
            if index is None:
                return  # not a pure latch cube; cannot transfer
            # Lemma clause literal is the negation of the cube literal.
            index_clause.append(-(index + 1) if lit > 0 else (index + 1))
        if self._map_out is not None:
            mapped = self._map_out([index_clause])
            if not mapped:
                return
            index_clause = mapped[0]
        key = _canonical(index_clause)
        if key in self._seen:
            return
        self._seen.add(key)
        if self.port.publish(level, index_clause):
            self.stats.lemmas_published += 1

    # ------------------------------------------------------------------
    # Import
    # ------------------------------------------------------------------
    def drain(self) -> int:
        """Validate and install pending foreign lemmas; returns imports."""
        if self.port is None or not self.port.pending():
            return 0
        records, lost = self.port.drain()
        self.stats.bus_overflows += lost
        if not records:
            return 0
        start = time.perf_counter()
        imported = 0
        for record in records:
            self.stats.lemmas_received += 1
            key = _canonical(record.clause)
            if key in self._seen:
                continue
            self._seen.add(key)
            if self._import_record(record):
                imported += 1
        elapsed = time.perf_counter() - start
        self.stats.time_import_validation += elapsed
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "lembus.drain",
                cat="share",
                received=len(records),
                imported=imported,
                lost=lost,
            )
        return imported

    def _import_record(self, record) -> bool:
        index_clause = list(record.clause)
        if self._map_in is not None:
            mapped = self._map_in([index_clause])
            if not mapped:
                self.stats.lemmas_rejected += 1
                return False
            index_clause = mapped[0]
        literals = []
        for lit in index_clause:
            index = abs(lit) - 1
            if not 0 <= index < len(self.ts.latch_vars):
                self.stats.lemmas_rejected += 1
                return False
            var = self.ts.latch_vars[index]
            literals.append(var if lit > 0 else -var)
        if not literals:
            self.stats.lemmas_rejected += 1
            return False
        clause = Clause(literals)
        cube = clause.negate()

        # The advertised level is only a hint; clamp it to what this
        # member's frame sequence can hold.
        level = min(int(record.level), self.frames.top_level)
        if level < 1:
            self.stats.lemmas_rejected += 1
            return False
        if self.frames.is_blocked_syntactically(cube, level):
            return False  # already known at that strength; nothing to do

        # Local revalidation: the clause must hold on the initial states
        # and be inductive relative to this member's own F_{level-1}.
        if not self.ts.clause_holds_on_init(clause):
            self.stats.lemmas_rejected += 1
            return False
        result = self.frames.consecution(level - 1, cube, extract_model=False)
        if not result.holds:
            self.stats.lemmas_rejected += 1
            return False
        self.stats.lemmas_validated += 1

        self._suppress_export = True
        try:
            self.frames.add_blocked_cube(cube, level)
        finally:
            self._suppress_export = False
        self.stats.lemmas_imported += 1
        return True


class UnrollingInvariantImporter:
    """BMC/k-induction-side import adapter around one bus port.

    Import-only: the unrolling engines learn no frame lemmas of their
    own.  Accepted clauses are *global invariants* (hold on init and
    inductive relative to previously accepted clauses), the only strength
    at which asserting them on every time frame is sound for both the
    initialized (BMC, k-induction base) and uninitialized (k-induction
    step) queries of a shared unrolling.

    Frame lemmas are rarely invariants *individually* — they prop each
    other up (shift-register invariants are the textbook case).  So
    candidates that pass the cheap screens (well-formed, hold on init)
    are pooled, and each drain runs a Houdini-style fixpoint: assume all
    candidates under activation scopes, drop every clause whose
    consecution fails, repeat until a clean pass.  The survivors form the
    largest mutually-inductive subset and are installed together;
    clauses that fail stay pooled for retry once more candidates arrive.
    """

    MAX_PENDING = 256

    def __init__(self, port, aig, unroller, stats: IC3Stats,
                 map_in: Optional[ClauseMap] = None):
        self.port = port
        self.aig = aig
        self.unroller = unroller
        self.stats = stats
        self._map_in = map_in
        self._ts = None
        self._ctx = None
        self._seen: set = set()
        self._pending: list = []
        self._fresh_since_attempt = 0

    def _validator(self):
        """The lazily built transition system + solver of the validator."""
        if self._ctx is None:
            # Imported lazily: the validator is only needed once a first
            # record actually arrives.
            from repro.sat.context import SatContext
            from repro.ts.system import TransitionSystem

            self._ts = TransitionSystem(self.aig)
            self._ctx = SatContext()
            self._ctx.solver.ensure_var(self._ts.num_vars)
            self._ctx.load(clause.literals for clause in self._ts.trans)
        return self._ts, self._ctx

    def drain(self) -> int:
        """Validate and install pending foreign lemmas; returns imports."""
        if self.port is None or not self.port.pending():
            return 0
        records, lost = self.port.drain()
        self.stats.bus_overflows += lost
        if not records:
            return 0
        start = time.perf_counter()
        fresh = 0
        for record in records:
            self.stats.lemmas_received += 1
            key = _canonical(record.clause)
            if key in self._seen:
                continue
            self._seen.add(key)
            if self._screen_record(record):
                fresh += 1
        # Batch the fixpoint: a Houdini attempt over a pool that barely
        # changed mostly re-discovers the same violations, so wait until
        # the pool has grown geometrically since the last attempt (the
        # engine calls :meth:`flush` at its own checkpoints to pick up
        # whatever a quiet stream left batched).
        self._fresh_since_attempt += fresh
        imported = 0
        if self._fresh_since_attempt >= max(2, len(self._pending) // 2):
            self._fresh_since_attempt = 0
            imported = self._houdini()
        self.stats.time_import_validation += time.perf_counter() - start
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "lembus.drain",
                cat="share",
                received=len(records),
                imported=imported,
                lost=lost,
            )
        return imported

    def flush(self) -> int:
        """Run the deferred Houdini attempt over candidates drain() batched."""
        if not self._fresh_since_attempt or not self._pending:
            return 0
        self._fresh_since_attempt = 0
        start = time.perf_counter()
        imported = self._houdini()
        self.stats.time_import_validation += time.perf_counter() - start
        return imported

    def _screen_record(self, record) -> bool:
        """Cheap screens; survivors join the candidate pool.

        A pooled candidate carries two persistent solver artefacts: an
        activation scope asserting the clause in the pre-state, and an
        auxiliary *violation monitor* variable ``aux`` with the permanent
        implications ``aux → ¬lit'`` for every literal — ``aux`` true in
        a model means the candidate fails in the post-state.  Both are
        paid once per candidate, so a Houdini round needs no re-encoding.
        """
        index_clause = list(record.clause)
        if self._map_in is not None:
            mapped = self._map_in([index_clause])
            if not mapped:
                self.stats.lemmas_rejected += 1
                return False
            index_clause = mapped[0]
        if not index_clause or any(
            not 1 <= abs(lit) <= len(self.aig.latches) for lit in index_clause
        ):
            self.stats.lemmas_rejected += 1
            return False
        ts, ctx = self._validator()
        literals = [
            ts.latch_vars[abs(lit) - 1] if lit > 0 else -ts.latch_vars[abs(lit) - 1]
            for lit in index_clause
        ]
        clause = Clause(literals)
        if not ts.clause_holds_on_init(clause):
            self.stats.lemmas_rejected += 1
            return False
        act = ctx.new_scope()
        ctx.add_to_scope(act, clause.literals)
        aux = ctx.solver.new_var()
        for lit in clause.literals:
            ctx.add_clause([-aux, -ts.prime_lit(lit)])
        self._pending.append((index_clause, clause, act, aux))
        if len(self._pending) > self.MAX_PENDING:
            _, _, old_act, _ = self._pending.pop(0)
            ctx.release_scope(old_act)
            self.stats.lemmas_rejected += 1
        return True

    def _houdini(self) -> int:
        """Install the largest mutually-inductive subset of the pool.

        All candidates are assumed together (their activation scopes, on
        top of the already-accepted clauses); one *violation query* per
        round asks whether any active candidate can fail in the
        post-state (a guarded disjunction over the ``aux`` monitors).  A
        model names the violated candidates, which are dropped and the
        round repeats, so the set only shrinks to a fixpoint; UNSAT means
        every remaining candidate's consecution holds.

        Consecution is checked relative to the property (``¬Bad`` is
        assumed in the pre-state).  Survivors therefore hold on every
        reachable state up to and including the *first* property
        violation, which keeps both uses sound: a base/BMC query can
        never lose the shallowest counterexample, and a step query
        strengthened this way is the classic invariant-constrained
        k-induction.  Each survivor is asserted permanently — on the
        validator and at every frame of the engine's unrolling.
        """
        ts, ctx = self._validator()
        active = list(range(len(self._pending)))
        while active:
            round_scope = ctx.new_scope()
            ctx.add_to_scope(
                round_scope, [self._pending[i][3] for i in active]
            )
            assumptions = (
                [-ts.bad_lit, round_scope] + [self._pending[i][2] for i in active]
            )
            sat_start = time.perf_counter()
            satisfiable = ctx.solve(assumptions)
            self.stats.sat_time += time.perf_counter() - sat_start
            self.stats.sat_calls += 1
            if not satisfiable:
                ctx.release_scope(round_scope)
                break
            model = ctx.solver.get_model()
            violated = {i for i in active if model.get(self._pending[i][3])}
            ctx.release_scope(round_scope)
            if not violated:
                # The disjunction guarantees a violated monitor; treat a
                # missing one as encoding trouble and accept nothing.
                active = []
                break
            active = [i for i in active if i not in violated]

        # Belt over the encoding: re-prove each survivor's consecution
        # individually before anything is installed (this is the
        # soundness-critical path; the survivors are genuinely inductive
        # so these are cheap UNSAT confirmations).
        while active:
            confirmed = []
            base = [-ts.bad_lit] + [self._pending[i][2] for i in active]
            for i in active:
                _, clause, _, _ = self._pending[i]
                sat_start = time.perf_counter()
                satisfiable = ctx.solve(
                    base + [-ts.prime_lit(lit) for lit in clause.literals]
                )
                self.stats.sat_time += time.perf_counter() - sat_start
                self.stats.sat_calls += 1
                if not satisfiable:
                    confirmed.append(i)
            if len(confirmed) == len(active):
                break
            active = confirmed

        accepted = set(active)
        for i in active:
            index_clause, clause, act, _ = self._pending[i]
            ctx.release_scope(act)
            ctx.add_clause(clause.literals)
            aig_lits = []
            for lit in index_clause:
                latch = self.aig.latches[abs(lit) - 1]
                aig_lits.append(latch.lit if lit > 0 else latch.lit ^ 1)
            self.unroller.add_invariant_clause(aig_lits)
            self.stats.lemmas_validated += 1
            self.stats.lemmas_imported += 1
        self._pending = [
            entry for i, entry in enumerate(self._pending) if i not in accepted
        ]
        return len(accepted)
