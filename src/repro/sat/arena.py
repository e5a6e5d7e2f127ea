"""Flat-arena CDCL solver: the production SAT kernel of every engine.

:class:`ArenaSolver` takes DIMACS-literal clauses and answers with
models and assumption cores under assumptions.  It has an
activation-literal layer of removable clause groups (``new_activation``
/ ``add_guarded`` / ``remove_guarded`` / ``release``, with learnt
purging), and it reuses the assumption trail between solves.  The
search runs in C (``kernel.c``, compiled and cached on first import by
:mod:`repro.sat.build`); this class is a thin wrapper around it.  Each
:meth:`solve` crosses into C once: the assumptions go in as one int32
array, and the model comes back as one byte array of values indexed by
encoded literal (``(|l| << 1) | (l < 0)``; 1 true, 255 false, 0
unassigned), or the core as one array of literals.

Every literal and variable index must be non-zero and fit the kernel's
encoded int32 range, ``|l| <=`` :data:`MAX_VAR`.  A list or tuple of
ints goes to C as it is, and the kernel checks its literals before it
changes anything; any other input, and one that cffi cannot convert to
int32, is converted and checked here first.  Either way a bad literal
raises the same :class:`SolverError`.

The tests compare every answer with its definition: a fresh solve of
the permanent clauses plus the live clauses of the assumed groups, by
the plain reference :class:`repro.sat.solver.Solver`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracer import get_tracer
from repro.sat import build
from repro.sat.exceptions import ResourceBudgetExceeded, SolverError
from repro.sat.solver import SolverStats, check_model_variables

_ffi, _lib = build.load()

# Largest variable index: the encoded literal (var << 1) | 1 is an int32.
MAX_VAR = (1 << 30) - 1

_SAT, _UNSAT = 1, 0  # k_solve's results; 2 is an exhausted budget
_BAD_LITERAL = -2  # a literal was 0 or out of range; the kernel changed nothing


def _literals(literals: Iterable[int], what: str) -> List[int]:
    """The literals as ints, rejected unless non-zero and in range."""
    lits = list(map(int, literals))
    if lits and (0 in lits or min(lits) < -MAX_VAR or max(lits) > MAX_VAR):
        if 0 in lits:
            raise SolverError(f"0 is not a valid {what}")
        bad = next(l for l in lits if abs(l) > MAX_VAR)
        raise SolverError(f"{what} {bad} is out of the kernel's range (|l| <= {MAX_VAR})")
    return lits


def _check_ok(status: int) -> int:
    if status < 0:
        raise MemoryError("the SAT kernel ran out of memory")
    return status


def _checked_literals(status: int, literals, what: str) -> int:
    """The status of a kernel call given ``literals``, which it checked."""
    if status == _BAD_LITERAL:
        _literals(literals, what)  # raises the SolverError naming the literal
    return _check_ok(status)


class _KernelStats(SolverStats):
    """Live, read-only :class:`SolverStats` view of the kernel's counters."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        self._counters = kernel.stats


for _name in SolverStats.__dataclass_fields__:
    setattr(_KernelStats, _name, property(attrgetter("_counters." + _name)))


class ArenaClauseRef:
    """Handle of a guarded clause, valid for the group that issued it.

    ``index`` addresses the clause in the kernel's handle table (which
    survives pool compaction) and is -1 once the clause is removed;
    ``group`` is the issuing group, so a handle from another solver or
    from a released group is rejected.
    """

    __slots__ = ("index", "group")

    def __init__(self, index: int, group: Dict["ArenaClauseRef", None]):
        self.index = index
        self.group = group

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArenaClauseRef({self.index})"


class ArenaSolver:
    """Incremental CDCL SAT solver over flat integer arenas (in C)."""

    def __init__(
        self,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        restart_base: int = 100,
        max_learnt_factor: float = 1.0 / 3.0,
        learnt_growth: float = 1.1,
    ):
        if not 0.0 < var_decay <= 1.0:
            raise SolverError(f"var_decay must be in (0, 1], got {var_decay}")
        if not 0.0 < clause_decay <= 1.0:
            raise SolverError(f"clause_decay must be in (0, 1], got {clause_decay}")
        kernel = _lib.k_new(
            var_decay, clause_decay, restart_base, max_learnt_factor, learnt_growth
        )
        if kernel == _ffi.NULL:
            raise MemoryError("the SAT kernel ran out of memory")
        self._k = _ffi.gc(kernel, _lib.k_free)
        self._model: Optional[bytes] = None
        self._has_core = False
        # Activation groups: act -> its live handles, in insertion order.
        self._act_groups: Dict[int, Dict[ArenaClauseRef, None]] = {}
        self.stats = _KernelStats(self._k)

    # ------------------------------------------------------------------
    # Variable and clause creation
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of variables known to the solver."""
        return self._k.num_vars

    @property
    def num_clauses(self) -> int:
        """Number of live problem (non-learnt) clauses."""
        return self._k.num_problem

    def new_var(self) -> int:
        """Create a fresh variable and return its index."""
        if self._k.num_vars >= MAX_VAR:
            raise SolverError(f"variable index out of the kernel's range (<= {MAX_VAR})")
        return _check_ok(_lib.k_new_var(self._k))

    def ensure_var(self, var: int) -> None:
        """Make sure variable ``var`` (and all below it) exists."""
        if var <= 0:
            raise SolverError(f"variable index must be positive, got {var}")
        if var > MAX_VAR:
            raise SolverError(f"variable index {var} is out of the kernel's range (<= {MAX_VAR})")
        _check_ok(_lib.k_ensure_var(self._k, var))

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a problem clause.

        Returns False if the solver becomes (or already was) trivially
        unsatisfiable at decision level 0, True otherwise.
        """
        try:
            status = _lib.k_add_clause(self._k, literals, len(literals))
        except (TypeError, OverflowError):
            literals = _literals(literals, "literal")
            status = _lib.k_add_clause(self._k, literals, len(literals))
        return bool(_checked_literals(status, literals, "literal"))

    # ------------------------------------------------------------------
    # Removable clauses guarded by activation literals
    # ------------------------------------------------------------------
    def new_activation(self) -> int:
        """Allocate an activation variable guarding a group of clauses.

        Clauses added with :meth:`add_guarded` constrain a solve only
        while the variable is assumed true, and :meth:`release` removes
        the whole group and recycles the variable.  Recycling is sound
        because activation variables occur only negatively, clause
        minimisation never drops an activation literal, so every learnt
        clause that depends on a group contains its negation, and those
        learnt clauses are purged on release.  Activation variables are
        never branched on.
        """
        act = _check_ok(_lib.k_new_activation(self._k))
        self._act_groups[act] = {}
        return act

    def add_guarded(
        self, act: int, literals: Iterable[int]
    ) -> Tuple[bool, Optional[ArenaClauseRef]]:
        """Add ``(-act OR literals)`` to the group guarded by ``act``.

        Returns ``(ok, handle)``; the handle identifies the stored clause
        for a later :meth:`remove_guarded` (None when the clause was
        simplified away).  While a reusable assumption trail is live the
        clause is attached without flushing it whenever two of its
        literals are non-false.
        """
        group = self._act_groups.get(act)
        if group is None:
            raise SolverError(f"{act} is not an active activation variable")
        try:
            packed = _lib.k_add_guarded(self._k, act, literals, len(literals))
        except (TypeError, OverflowError):
            literals = _literals(literals, "literal")
            packed = _lib.k_add_guarded(self._k, act, literals, len(literals))
        packed = _checked_literals(packed, literals, "literal")
        index = (packed >> 1) - 1
        handle = None
        if index >= 0:
            handle = ArenaClauseRef(index, group)
            group[handle] = None
        return bool(packed & 1), handle

    def remove_guarded(self, act: int, clause: ArenaClauseRef) -> None:
        """Remove one clause from an activation group.

        The caller must guarantee that the clause is implied by the
        remaining clauses: learnt clauses derived from it stay attached
        and must remain sound.  The removal is a lazy-deletion mark;
        propagation drops the stale watchers on its next visit.  Removing
        a clause twice is a no-op.
        """
        group = self._act_groups.get(act)
        if group is None:
            raise SolverError(f"{act} is not an active activation variable")
        if not isinstance(clause, ArenaClauseRef) or clause.group is not group:
            raise SolverError("clause does not belong to the given activation group")
        if clause.index < 0:
            return
        del group[clause]
        _check_ok(_lib.k_remove_guarded(self._k, clause.index))
        clause.index = -1

    def release(self, act: int) -> None:
        """Remove the clause group of ``act`` and recycle the variable.

        Deletes the guarded clauses, purges every learnt clause whose
        derivation could depend on them (all mention ``-act``), and
        either returns the variable to the free list or — when unit
        propagation fixed it at level 0 — retires it permanently.
        """
        group = self._act_groups.pop(act, None)
        if group is None:
            raise SolverError(f"{act} is not an active activation variable")
        indexes = [handle.index for handle in group]
        for handle in group:
            handle.index = -1
        _check_ok(_lib.k_release(self._k, act, indexes, len(indexes)))

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
    ) -> bool:
        """Solve under assumptions; returns True (SAT) or False (UNSAT).

        Raises :class:`ResourceBudgetExceeded` if ``conflict_budget``
        conflicts were reached before a verdict.
        """
        result = self.solve_limited(assumptions, conflict_budget)
        if result is None:
            raise ResourceBudgetExceeded(
                f"conflict budget of {conflict_budget} exhausted"
            )
        return result

    def solve_limited(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
    ) -> Optional[bool]:
        """Like :meth:`solve`, but returns None when the budget is exhausted."""
        tracer = get_tracer()
        if not tracer.enabled:
            return self._solve(assumptions, conflict_budget)
        if not isinstance(assumptions, (list, tuple)):
            # A generator has no length and can be read only once.
            assumptions = _literals(assumptions, "assumption literal")
        with tracer.span(
            "sat.solve", cat="sat", backend="arena", assumptions=len(assumptions)
        ) as span:
            conflicts_before = self.stats.conflicts
            propagations_before = self.stats.propagations
            result = self._solve(assumptions, conflict_budget)
            span.add(
                result={True: "sat", False: "unsat"}.get(result, "budget"),
                conflicts=self.stats.conflicts - conflicts_before,
                propagations=self.stats.propagations - propagations_before,
            )
        tracer.sample("sat.conflicts", self.stats.conflicts, cat="sat")
        tracer.sample("sat.propagations", self.stats.propagations, cat="sat")
        return result

    def _solve(
        self, assumptions: Sequence[int], conflict_budget: Optional[int]
    ) -> Optional[bool]:
        budget = -1 if conflict_budget is None else min(max(conflict_budget, 0), 1 << 62)
        kernel = self._k
        try:
            status = _lib.k_solve(kernel, assumptions, len(assumptions), budget)
        except (TypeError, OverflowError):
            assumptions = _literals(assumptions, "assumption literal")
            status = _lib.k_solve(kernel, assumptions, len(assumptions), budget)
        status = _checked_literals(status, assumptions, "assumption literal")
        self._has_core = status == _UNSAT
        if status == _SAT:
            self._model = _ffi.buffer(kernel.values, (kernel.num_vars + 1) << 1)[:]
            return True
        self._model = None
        return False if status == _UNSAT else None

    def get_model(self) -> Dict[int, bool]:
        """Return the last model as a ``var -> bool`` mapping."""
        if self._model is None:
            raise SolverError("no model available (last call was not SAT)")
        return {
            var: value == 1
            for var, value in enumerate(self._model[2::2], 1)
            if value
        }

    def model_literals(self, variables: Sequence[int]) -> Tuple[int, ...]:
        """The last model projected onto ``variables``, as signed literals.

        One literal per variable, in the given order: ``var`` if it is
        true, ``-var`` otherwise, so an unassigned variable reads as
        false.  Raises :class:`SolverError` when there is no model, or
        when a variable is outside ``1..num_vars`` of the solve that
        found it.
        """
        model = self._model
        if model is None:
            raise SolverError("no model available (last call was not SAT)")
        check_model_variables(variables, (len(model) >> 1) - 1)
        return tuple([var if model[var << 1] == 1 else -var for var in variables])

    def model_values(self, variables: range) -> bytes:
        """The last model's values on a ``range`` of step 1, one byte per
        variable: 1 true, 255 false, 0 unassigned.

        One slice of the model, with one range check; raises
        :class:`SolverError` like :meth:`model_literals`.
        """
        model = self._model
        if model is None:
            raise SolverError("no model available (last call was not SAT)")
        if variables.step != 1:
            raise SolverError(f"model_values reads a range of step 1, got {variables!r}")
        if variables and (variables.start < 1 or variables.stop > len(model) >> 1):
            check_model_variables(variables, (len(model) >> 1) - 1)
        return model[variables.start << 1:variables.stop << 1:2]

    def unsat_core(self) -> List[int]:
        """Subset of the assumptions responsible for the last UNSAT answer."""
        if not self._has_core:
            raise SolverError("no unsat core available (last call was not UNSAT)")
        core = self._k.core
        return _ffi.unpack(core.data, core.size) if core.size else []

    def set_seed(self, seed: int) -> None:
        """Enable seeded random branching (MiniSat-style diversification).

        A ~2% fraction of decisions picks a uniformly random unassigned
        variable, drawn from a C PRNG seeded with ``seed`` and
        reproducible per seed.  Seed 0
        (the default) disables the randomization, keeping the kernel
        identical to its unseeded behaviour.
        """
        _lib.k_set_seed(self._k, 1 if seed else 0, seed % (1 << 64))
