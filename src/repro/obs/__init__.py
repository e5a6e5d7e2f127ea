"""Full-stack observability (``repro.obs``).

Two layers:

* **Tracing** (:mod:`repro.obs.tracer`) — process/thread-aware spans and
  instants that compile to no-ops when disabled, JSONL sinks and a
  bounded flight-recorder ring for post-mortems of hard-killed workers,
  Chrome trace-event export with cross-process stitching, hotspot
  reports.  Surfaces: ``--trace-out`` and ``repro-check trace-report``.
* **Heartbeats** (:mod:`repro.obs.heartbeat`) — live structured
  progress (IC3 frame, BMC bound, k-induction k, portfolio member
  states, RSS/CPU from ``/proc``) published by worker processes and
  read by the parent.  Surfaces: the ``--live`` status line and the
  harness pool's ``harness.stall`` trace instant.

Engine counts are not a layer of their own: every engine run carries
them in :class:`repro.core.stats.IC3Stats`, which the run manifest
serialises per result.
"""

from repro.obs.export import (
    collect_worker_events,
    read_jsonl_events,
    read_trace,
    stitch,
    to_chrome_document,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
)
from repro.obs.heartbeat import (
    HEARTBEAT_DIR_ENV,
    NULL_HEARTBEAT,
    Heartbeat,
    HeartbeatMonitor,
    LiveStatus,
    NullHeartbeat,
    format_progress,
    get_heartbeat,
    heartbeat_session,
    install_heartbeat,
    maybe_install_worker_heartbeat,
    shutdown_worker_heartbeat,
    uninstall_heartbeat,
)
from repro.obs.report import format_report, hotspots, phase_totals
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_DIR_ENV,
    JsonlSink,
    NullTracer,
    Tracer,
    get_tracer,
    install,
    maybe_install_worker_tracer,
    shutdown_worker_tracer,
    trace_session,
    uninstall,
)

__all__ = [
    "HEARTBEAT_DIR_ENV",
    "NULL_HEARTBEAT",
    "NULL_TRACER",
    "TRACE_DIR_ENV",
    "Heartbeat",
    "HeartbeatMonitor",
    "JsonlSink",
    "LiveStatus",
    "NullHeartbeat",
    "NullTracer",
    "Tracer",
    "collect_worker_events",
    "format_progress",
    "format_report",
    "get_heartbeat",
    "get_tracer",
    "heartbeat_session",
    "hotspots",
    "install",
    "install_heartbeat",
    "maybe_install_worker_heartbeat",
    "maybe_install_worker_tracer",
    "phase_totals",
    "read_jsonl_events",
    "read_trace",
    "shutdown_worker_heartbeat",
    "shutdown_worker_tracer",
    "stitch",
    "to_chrome_document",
    "trace_session",
    "uninstall",
    "uninstall_heartbeat",
    "validate_chrome_trace",
    "validate_trace_file",
    "write_chrome_trace",
]
