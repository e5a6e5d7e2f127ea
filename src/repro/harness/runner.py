"""Benchmark runner: configurations × cases on a hard-timeout process pool.

Every (configuration, case) pair runs in its own killable worker process
(see :mod:`repro.harness.pool`), so a per-case budget is enforced even
when an engine is stuck inside a single SAT call, and ``jobs > 1`` runs
pairs in parallel on separate cores.  Results are always assembled in the
deterministic case-major, configuration-minor task order — tables and
figures come out byte-for-byte identical regardless of how the scheduler
interleaves completions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchgen.case import BenchmarkCase
from repro.core.invariant import CertificateError, check_certificate, check_counterexample
from repro.core.result import CheckOutcome, CheckResult
from repro.core.stats import IC3Stats
from repro.engines.registry import create_engine
from repro.harness.configs import EngineConfig
from repro.harness.pool import PoolResult, map_with_hard_timeout
from repro.obs.heartbeat import get_heartbeat
from repro.obs.tracer import get_tracer


@dataclass
class CaseResult:
    """Outcome of one (configuration, case) run."""

    case_name: str
    config_name: str
    result: CheckResult
    runtime: float
    timeout: float
    expected: Optional[CheckResult] = None
    stats: IC3Stats = field(default_factory=IC3Stats)
    frames: int = 0
    validated: Optional[bool] = None
    """True/False when the certificate or trace was checked, None if skipped."""

    engine: str = ""
    """Engine kind that produced the verdict (winner name for portfolios)."""

    winner: Optional[str] = None
    """For portfolio configurations: the member engine that won the race."""

    reduction: Optional[Dict[str, object]] = None
    """Original-vs-reduced model sizes (``ReductionResult.summary()``),
    None when the engine ran without reduction preprocessing."""

    properties: Optional[List[Dict[str, object]]] = None
    """For multi-property scheduler configurations: one verdict record per
    property of the case's model (manifest schema v4), None otherwise."""

    transformation: Optional[Dict[str, object]] = None
    """Liveness-transformation summary (l2s/k-liveness compiler stats),
    None for plain safety runs."""

    error: Optional[str] = None
    """Worker failure description (crash or hard kill), None on clean runs."""

    @property
    def solved(self) -> bool:
        """True if a definite verdict was produced within the time limit."""
        return self.result.solved

    @property
    def timed_out(self) -> bool:
        """True if the run hit the per-case time limit."""
        return not self.solved

    @property
    def correct(self) -> bool:
        """True if the verdict matches the ground truth (or was inconclusive)."""
        if not self.solved or self.expected is None:
            return True
        return self.result == self.expected

    @property
    def penalized_runtime(self) -> float:
        """Runtime with timeouts replaced by the time limit (PAR-1)."""
        return self.runtime if self.solved else self.timeout


@dataclass
class SuiteResult:
    """All per-case results of one harness run.

    Lookups are backed by indexes maintained incrementally on
    :meth:`add`, so :meth:`lookup`, :meth:`by_case` and :meth:`by_config`
    are O(1) instead of scanning the whole result list on every call.
    Appending to ``results`` directly also works (the indexes are rebuilt
    lazily when the list length changes); same-length in-place mutation
    of ``results`` is not supported.
    """

    results: List[CaseResult] = field(default_factory=list)
    timeout: float = 0.0

    def __post_init__(self) -> None:
        self._rebuild_index()

    # -- index maintenance ---------------------------------------------
    def _rebuild_index(self) -> None:
        self._pair_index: Dict[Tuple[str, str], CaseResult] = {}
        self._config_index: Dict[str, List[CaseResult]] = {}
        self._case_index: Dict[str, Dict[str, CaseResult]] = {}
        for result in self.results:
            self._index_one(result)
        self._indexed_count = len(self.results)

    def _index_one(self, result: CaseResult) -> None:
        self._pair_index.setdefault((result.config_name, result.case_name), result)
        self._config_index.setdefault(result.config_name, []).append(result)
        self._case_index.setdefault(result.case_name, {})[result.config_name] = result

    def _ensure_index(self) -> None:
        if self._indexed_count != len(self.results):
            self._rebuild_index()

    # -- accessors ------------------------------------------------------
    def add(self, result: CaseResult) -> None:
        """Append one case result (keeps the lookup indexes current)."""
        self._ensure_index()
        self.results.append(result)
        self._index_one(result)
        self._indexed_count += 1

    def configs(self) -> List[str]:
        """Configuration names in first-seen order."""
        self._ensure_index()
        return list(self._config_index)

    def cases(self) -> List[str]:
        """Case names in first-seen order."""
        self._ensure_index()
        return list(self._case_index)

    def by_config(self, config_name: str) -> List[CaseResult]:
        """All results of one configuration."""
        self._ensure_index()
        return list(self._config_index.get(config_name, ()))

    def by_case(self, case_name: str) -> Dict[str, CaseResult]:
        """Results of one case keyed by configuration name."""
        self._ensure_index()
        return dict(self._case_index.get(case_name, {}))

    def lookup(self, config_name: str, case_name: str) -> Optional[CaseResult]:
        """The result of one (configuration, case) pair, if present."""
        self._ensure_index()
        return self._pair_index.get((config_name, case_name))

    def solved_count(self, config_name: str) -> int:
        """Number of cases the configuration solved."""
        return sum(1 for r in self.by_config(config_name) if r.solved)

    def incorrect_results(self) -> List[CaseResult]:
        """Results contradicting the ground truth (should be empty)."""
        return [r for r in self.results if not r.correct]


@dataclass
class _TaskSpec:
    """One (case, configuration) work item shipped to a pool worker."""

    case: BenchmarkCase
    config: EngineConfig
    timeout: float
    validate: bool
    reduce: bool = True


def _execute_case(spec: _TaskSpec) -> CaseResult:
    """Worker body: run one engine configuration on one case (in-process).

    Engine construction — which includes the reduction preprocessing
    pipeline — happens *inside* the timed region and is charged against
    the per-case budget, so reduced and unreduced runs are compared
    fairly and the cooperative budget stays consistent with the pool's
    hard deadline.
    """
    engine_kwargs = dict(spec.config.engine_kwargs)
    engine_kwargs.setdefault("reduce", spec.reduce)
    tracer = get_tracer()
    hb = get_heartbeat()
    if hb.enabled:
        hb.reset(case=spec.case.name, config=spec.config.name)
    start = time.perf_counter()
    with tracer.span(
        "harness.case",
        cat="harness",
        case=spec.case.name,
        config=spec.config.name,
    ) as span:
        engine = create_engine(
            spec.config.engine, spec.case.aig, options=spec.config.options,
            **engine_kwargs,
        )
        remaining = max(0.0, spec.timeout - (time.perf_counter() - start))
        outcome = engine.check(time_limit=remaining)
        span.add(result=outcome.result.value)
    runtime = time.perf_counter() - start
    validated = _validate(spec.case, outcome) if spec.validate else None
    return CaseResult(
        case_name=spec.case.name,
        config_name=spec.config.name,
        result=outcome.result,
        runtime=runtime,
        timeout=spec.timeout,
        expected=spec.case.expected,
        stats=outcome.stats,
        frames=outcome.frames,
        validated=validated,
        engine=outcome.winner or outcome.engine,
        winner=outcome.winner,
        reduction=outcome.reduction,
        properties=outcome.properties,
        transformation=outcome.transformation,
    )


def _validate(case: BenchmarkCase, outcome: CheckOutcome) -> Optional[bool]:
    try:
        if outcome.result == CheckResult.UNSAFE and outcome.lasso is not None:
            from repro.props.witness import check_lasso

            return check_lasso(case.aig, outcome.lasso)
        if (
            outcome.result == CheckResult.SAFE
            and outcome.certificate is not None
            and outcome.transformation is not None
        ):
            from repro.props.witness import check_liveness_certificate

            transformation = outcome.transformation
            return check_liveness_certificate(
                case.aig,
                outcome.certificate,
                justice_index=int(transformation.get("justice_index", 0)),
                method=str(transformation.get("kind", "l2s")),
                max_k=int(transformation.get("max_k", 16)),
                k=int(transformation.get("k", 0)),
            )
        if outcome.result == CheckResult.SAFE and outcome.certificate is not None:
            return check_certificate(case.aig, outcome.certificate)
        if outcome.result == CheckResult.UNSAFE and outcome.trace is not None:
            return check_counterexample(case.aig, outcome.trace)
    except CertificateError:
        return False
    return None


class BenchmarkRunner:
    """Runs every configuration on every case of a suite.

    ``jobs`` controls how many (configuration, case) pairs run
    concurrently (``None``/``0`` = one per CPU); each pair runs in its
    own worker process whose per-case ``timeout`` is enforced with a
    hard kill ``grace`` seconds past the budget.
    """

    def __init__(
        self,
        cases: Sequence[BenchmarkCase],
        configs: Sequence[EngineConfig],
        timeout: float = 5.0,
        validate: bool = False,
        verbose: bool = False,
        jobs: int = 1,
        grace: Optional[float] = None,
        reduce: bool = True,
    ):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.cases = list(cases)
        self.configs = list(configs)
        self.timeout = timeout
        self.validate = validate
        self.verbose = verbose
        self.jobs = jobs
        self.grace = grace
        self.reduce = reduce

    def run(self) -> SuiteResult:
        """Execute the full cross product and return the collected results.

        The result list is always in case-major, configuration-minor
        order, independent of worker completion order.
        """
        specs = [
            _TaskSpec(
                case=case,
                config=config,
                timeout=self.timeout,
                validate=self.validate,
                reduce=self.reduce,
            )
            for case in self.cases
            for config in self.configs
        ]

        def _progress(index: int, pool_result: PoolResult) -> None:
            if self.verbose:
                self._report(self._to_case_result(specs[index], pool_result))

        pool_results = map_with_hard_timeout(
            _execute_case,
            specs,
            timeout=self.timeout,
            jobs=self.jobs,
            grace=self.grace,
            on_result=_progress,
        )

        suite_result = SuiteResult(timeout=self.timeout)
        for spec, pool_result in zip(specs, pool_results):
            suite_result.add(self._to_case_result(spec, pool_result))
        return suite_result

    def run_one(self, case: BenchmarkCase, config: EngineConfig) -> CaseResult:
        """Run a single configuration on a single case in this process.

        Unlike :meth:`run` this enforces the timeout only cooperatively;
        it exists for interactive use and backward compatibility.
        """
        result = _execute_case(
            _TaskSpec(
                case=case,
                config=config,
                timeout=self.timeout,
                validate=self.validate,
                reduce=self.reduce,
            )
        )
        if self.verbose:
            self._report(result)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _to_case_result(spec: _TaskSpec, pool_result: PoolResult) -> CaseResult:
        if pool_result.ok:
            return pool_result.value
        if pool_result.timed_out:
            error = None
        else:
            error = pool_result.error
        return CaseResult(
            case_name=spec.case.name,
            config_name=spec.config.name,
            result=CheckResult.UNKNOWN,
            runtime=pool_result.elapsed,
            timeout=spec.timeout,
            expected=spec.case.expected,
            engine=spec.config.engine,
            error=error,
        )

    @staticmethod
    def _report(result: CaseResult) -> None:
        flag = "" if result.correct else "  << WRONG"
        if result.error:
            flag = f"  << ERROR: {result.error}"
        print(
            f"[harness] {result.config_name:14s} {result.case_name:30s} "
            f"{result.result.value:8s} {result.runtime:7.2f}s{flag}"
        )
