"""Full-stack observability (``repro.obs``).

Two layers, turned on together by one bootstrap:

* **Tracing** (:mod:`repro.obs.tracer`) — process/thread-aware spans and
  instants that compile to no-ops when disabled, per-worker JSONL sinks,
  Chrome trace-event export (:mod:`repro.obs.export`) and hotspot
  reports (:mod:`repro.obs.report`).  Surfaces: ``--trace-out`` and
  ``repro-check trace-report``.
* **Heartbeats** (:mod:`repro.obs.heartbeat`) — live structured
  progress (IC3 frame, BMC bound, k-induction k, portfolio member
  states, RSS/CPU from ``/proc``) published by worker processes and
  read by the parent.  Surfaces: the ``--live`` status line and the
  harness pool's ``harness.stall`` trace instant.

:func:`session` (:mod:`repro.obs.bootstrap`) runs a command under the
layers it asked for: one temporary directory, named to the worker
processes by one environment variable, ``REPRO_OBS_DIR``.

Engine counts are not a layer of their own: every engine run carries
them in :class:`repro.core.stats.IC3Stats`, which the run manifest
serialises per result.
"""

from repro.obs.bootstrap import session
from repro.obs.export import read_trace, validate_trace_file
from repro.obs.report import format_report

__all__ = ["format_report", "read_trace", "session", "validate_trace_file"]
