"""Unified process/thread-aware metrics registry.

The live-state counterpart of :mod:`repro.obs.tracer`: where the tracer
records *what happened when*, this module keeps *how much of everything
has happened so far* — monotonic counters and log-bucketed latency
histograms, each with an optional label family
(``repro_engine_runs_total{engine="ic3-pl",result="safe"}``).

Design constraints, in order:

1. **Incrementing must be cheap enough for engine code.**  Counters and
   histograms accumulate into *per-thread cells* (plain dicts reached
   through ``threading.local``) so the hot path is a dict update with no
   lock; a snapshot merges the cells.  Under CPython's GIL a dict
   ``__setitem__`` is atomic, so readers can merge concurrently with
   writers and at worst miss the very latest increment.
2. **Snapshots are plain data.**  :meth:`MetricsRegistry.snapshot`
   returns a JSON-able dict, and :func:`snapshot_totals` condenses it to
   the per-family totals a run manifest embeds.

The module-level :data:`REGISTRY` is the per-process default; tests
build private :class:`MetricsRegistry` instances so they do not share
counters.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "default_latency_buckets",
    "get_registry",
    "record_engine_outcome",
    "snapshot_totals",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def default_latency_buckets() -> Tuple[float, ...]:
    """Log-spaced (powers of two) latency bounds from 1 ms to ~65 s.

    Seventeen finite buckets cover everything from a trivial check to a
    portfolio run against a generous timeout; the implicit ``+Inf``
    bucket catches the rest.
    """
    return tuple(0.001 * 2**i for i in range(17))


class _ThreadCells:
    """A family of per-thread accumulation dicts.

    ``get()`` hands the calling thread its private dict (no lock on the
    hot path); ``merged()`` folds every thread's dict into one.  Cells
    of exited threads are retained — counters are monotonic over the
    life of the process, so their contributions must survive the thread.
    """

    __slots__ = ("_local", "_all", "_lock")

    def __init__(self) -> None:
        self._local = threading.local()
        self._all: List[dict] = []
        self._lock = threading.Lock()

    def get(self) -> dict:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = {}
            self._local.cell = cell
            with self._lock:
                self._all.append(cell)
        return cell

    def cells(self) -> List[dict]:
        with self._lock:
            return list(self._all)


class _Metric:
    """Shared declaration plumbing: name, help text, label family."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name}")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)

    def _key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)


class Counter(_Metric):
    """Monotonic counter (optionally labelled); per-thread accumulation."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        super().__init__(name, help, labels)
        self._cells = _ThreadCells()

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic")
        cell = self._cells.get()
        key = self._key(labels)
        cell[key] = cell.get(key, 0) + amount

    def labels(self, **labels: Any):
        """A bound single-series handle: ``c.labels(engine="bmc").inc()``."""
        key = self._key(labels)
        cells = self._cells
        return _BoundCounter(cells, key)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        total = 0
        for cell in self._cells.cells():
            total += cell.get(key, 0)
        return total

    def collect(self) -> Dict[Tuple[str, ...], float]:
        out: Dict[Tuple[str, ...], float] = {}
        for cell in self._cells.cells():
            for key, value in list(cell.items()):
                out[key] = out.get(key, 0) + value
        return out


class _BoundCounter:
    __slots__ = ("_cells", "_key")

    def __init__(self, cells: _ThreadCells, key: Tuple[str, ...]):
        self._cells = cells
        self._key = key

    def inc(self, amount: float = 1) -> None:
        cell = self._cells.get()
        cell[self._key] = cell.get(self._key, 0) + amount


class Histogram(_Metric):
    """Cumulative histogram with log-spaced bounds; per-thread cells.

    Each thread cell maps a label key to ``[bucket_counts, sum, count]``
    where ``bucket_counts`` has one slot per finite bound plus ``+Inf``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, help, labels)
        bounds = tuple(buckets) if buckets is not None else default_latency_buckets()
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.bounds: Tuple[float, ...] = bounds
        self._cells = _ThreadCells()

    def observe(self, value: float, **labels: Any) -> None:
        cell = self._cells.get()
        key = self._key(labels)
        state = cell.get(key)
        if state is None:
            state = cell[key] = [[0] * (len(self.bounds) + 1), 0.0, 0]
        state[0][bisect_left(self.bounds, value)] += 1
        state[1] += value
        state[2] += 1

    def collect(self) -> Dict[Tuple[str, ...], List[Any]]:
        out: Dict[Tuple[str, ...], List[Any]] = {}
        for cell in self._cells.cells():
            for key, state in list(cell.items()):
                merged = out.get(key)
                if merged is None:
                    merged = out[key] = [[0] * (len(self.bounds) + 1), 0.0, 0]
                for i, n in enumerate(state[0]):
                    merged[0][i] += n
                merged[1] += state[1]
                merged[2] += state[2]
        return out

    def mean(self, **labels: Any) -> Optional[float]:
        """Observed mean for one series; None before any observation."""
        state = self.collect().get(self._key(labels))
        if state is None or state[2] == 0:
            return None
        return state[1] / state[2]


class MetricsRegistry:
    """Declares and snapshots a family of metrics.

    Declaration is idempotent: re-declaring a name with the same kind and
    label family returns the existing metric (call sites in independent
    modules can each declare what they feed); a mismatch raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _declare(self, cls, name: str, help: str, labels: Sequence[str], **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already declared as {existing.kind}"
                        f"{existing.label_names}"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._declare(Histogram, name, help, labels, buckets=buckets)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- snapshot ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Everything declared + accumulated, as one JSON-able document."""
        with self._lock:
            metrics = list(self._metrics.values())
        doc: Dict[str, Any] = {"counters": {}, "histograms": {}}
        for metric in metrics:
            entry: Dict[str, Any] = {
                "help": metric.help,
                "labels": list(metric.label_names),
                "values": [],
            }
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
                for key, state in sorted(metric.collect().items()):
                    entry["values"].append(
                        {
                            "labels": dict(zip(metric.label_names, key)),
                            "buckets": list(state[0]),
                            "sum": state[1],
                            "count": state[2],
                        }
                    )
                doc["histograms"][metric.name] = entry
            else:
                for key, value in sorted(metric.collect().items()):
                    entry["values"].append(
                        {"labels": dict(zip(metric.label_names, key)), "value": value}
                    )
                doc["counters"][metric.name] = entry
        return doc


def snapshot_totals(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Condense a registry snapshot to per-family totals.

    Counters fold their label families into one total; histograms keep
    ``sum``/``count``.  This is the compact form run manifests embed.
    """
    totals: Dict[str, Any] = {}
    for name, entry in sorted(snapshot.get("counters", {}).items()):
        totals[name] = sum(value["value"] for value in entry.get("values", []))
    for name, entry in sorted(snapshot.get("histograms", {}).items()):
        totals[name] = {
            "sum": round(sum(v["sum"] for v in entry.get("values", [])), 6),
            "count": sum(v["count"] for v in entry.get("values", [])),
        }
    return totals


# ----------------------------------------------------------------------
# The per-process default registry and the standard families
# ----------------------------------------------------------------------
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (engines and harness feed it)."""
    return REGISTRY


ENGINE_RUNS = REGISTRY.counter(
    "repro_engine_runs_total",
    "Completed engine checks by engine and verdict.",
    labels=("engine", "result"),
)
ENGINE_RUNTIME = REGISTRY.histogram(
    "repro_engine_runtime_seconds",
    "End-to-end engine check runtime.",
    labels=("engine",),
)
SAT_CALLS = REGISTRY.counter(
    "repro_sat_calls_total", "SAT solver invocations across engine runs."
)
SAT_TIME = REGISTRY.counter(
    "repro_sat_time_seconds_total", "Seconds spent inside SAT solve calls."
)
SAT_CONFLICTS = REGISTRY.counter(
    "repro_sat_conflicts_total", "CDCL conflicts across engine runs."
)
SAT_DECISIONS = REGISTRY.counter(
    "repro_sat_decisions_total", "CDCL decisions across engine runs."
)
SAT_PROPAGATIONS = REGISTRY.counter(
    "repro_sat_propagations_total", "Unit propagations across engine runs."
)
HARNESS_TASKS = REGISTRY.counter(
    "repro_harness_tasks_total",
    "Pooled harness tasks by completion status.",
    labels=("status",),
)
PORTFOLIO_WINS = REGISTRY.counter(
    "repro_portfolio_wins_total",
    "Portfolio races decided, by winning member.",
    labels=("member",),
)
STALLS = REGISTRY.counter(
    "repro_stalls_total",
    "Workers whose heartbeat went silent past the stall limit.",
    labels=("pool",),
)


def record_engine_outcome(outcome: Any) -> None:
    """Fold one finished :class:`CheckOutcome` into the default registry.

    Called once per engine check (from the adapters and the portfolio),
    never from a hot loop — the cost is a handful of dict updates.
    """
    engine = getattr(outcome, "engine", "") or "unknown"
    result = getattr(getattr(outcome, "result", None), "value", None) or str(
        getattr(outcome, "result", "unknown")
    )
    ENGINE_RUNS.inc(engine=engine, result=result)
    ENGINE_RUNTIME.observe(getattr(outcome, "runtime", 0.0) or 0.0, engine=engine)
    stats = getattr(outcome, "stats", None)
    if stats is None:
        return
    for counter, attr in (
        (SAT_CALLS, "sat_calls"),
        (SAT_TIME, "sat_time"),
        (SAT_CONFLICTS, "solver_conflicts"),
        (SAT_DECISIONS, "solver_decisions"),
        (SAT_PROPAGATIONS, "solver_propagations"),
    ):
        amount = getattr(stats, attr, 0) or 0
        if amount > 0:
            counter.inc(amount)
