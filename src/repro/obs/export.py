"""Trace export, ingestion and validation.

The on-disk formats:

* **JSONL** — one Chrome trace event per line; what worker sinks write
  incrementally.  Readers tolerate a truncated final line (the
  signature of a SIGKILLed writer).
* **Chrome trace-event JSON** — ``{"traceEvents": [...]}``, loadable in
  Perfetto / ``chrome://tracing``; what ``--trace-out`` produces and
  ``repro-check trace-report`` consumes (it reads JSONL too).

Events from many processes already carry ``pid``/``tid`` and share the
CLOCK_MONOTONIC time base, so stitching them into one timeline is the
sort :func:`to_chrome_document` does.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional

_EVENT_PHASES = {"X", "i", "B", "E", "C", "M"}
_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")


def to_chrome_document(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Wrap events in the Chrome trace-event JSON object form.

    Events are ordered by start time; of two spans that start in the same
    microsecond the longer, enclosing one comes first.
    """
    return {
        "traceEvents": sorted(events, key=lambda e: (e.get("ts", 0), -e.get("dur", 0))),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(path: str, events: Iterable[Dict[str, Any]]) -> None:
    """Write events as a Perfetto-loadable Chrome trace file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_document(events), handle, separators=(",", ":"))
        handle.write("\n")


def read_jsonl_events(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL event file, tolerating a truncated last line."""
    events: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    # A writer killed mid-line leaves one partial record;
                    # everything before it is still usable.
                    continue
                if isinstance(event, dict):
                    events.append(event)
    except OSError:
        return []
    return events


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Read either a Chrome trace JSON document or a JSONL event file.

    Both formats open with ``{``, so detection is by shape: a document
    that parses as one JSON object carrying ``traceEvents`` is Chrome
    JSON; anything else (including a one-line event file) is JSONL.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError:
        return read_jsonl_events(path)
    if isinstance(document, dict) and "traceEvents" in document:
        events = document["traceEvents"]
        return [event for event in events if isinstance(event, dict)]
    return read_jsonl_events(path)


def collect_worker_events(directory: str) -> List[Dict[str, Any]]:
    """Gather the events of every worker sink file under ``directory``."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    events: List[Dict[str, Any]] = []
    for name in names:
        if name.endswith(".jsonl"):
            events.extend(read_jsonl_events(os.path.join(directory, name)))
    return events


def validate_chrome_trace(document: Any) -> List[str]:
    """Validate a Chrome trace-event document; returns problems (empty = ok)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"document must be a JSON object, got {type(document).__name__}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document lacks a traceEvents array"]
    for position, event in enumerate(events):
        prefix = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{prefix}: not an object")
            continue
        for key in _REQUIRED_KEYS:
            if key not in event:
                problems.append(f"{prefix}: missing required key {key!r}")
        phase = event.get("ph")
        if phase is not None and phase not in _EVENT_PHASES:
            problems.append(f"{prefix}: unknown phase {phase!r}")
        if not isinstance(event.get("name", ""), str):
            problems.append(f"{prefix}: name must be a string")
        for key in ("ts", "dur"):
            value = event.get(key)
            if value is not None and not isinstance(value, (int, float)):
                problems.append(f"{prefix}: {key} must be a number")
        if phase == "X":
            if "dur" not in event:
                problems.append(f"{prefix}: complete event lacks dur")
            elif isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
                problems.append(f"{prefix}: negative dur")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{prefix}: args must be an object")
        if len(problems) >= 50:
            problems.append("... (further problems suppressed)")
            break
    return problems


def validate_trace_file(path: str) -> List[str]:
    """Validate a trace file on disk (Chrome JSON or JSONL)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            head = handle.read(1)
            while head and head.isspace():
                head = handle.read(1)
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    if head == "{":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
        return validate_chrome_trace(document)
    return validate_chrome_trace(to_chrome_document(read_jsonl_events(path)))


def wall_span_us(events: List[Dict[str, Any]]) -> Optional[float]:
    """Total wall-clock extent of a timeline in microseconds."""
    stamps = [e["ts"] for e in events if isinstance(e.get("ts"), (int, float))]
    if not stamps:
        return None
    ends = [
        e["ts"] + e.get("dur", 0)
        for e in events
        if isinstance(e.get("ts"), (int, float))
        and isinstance(e.get("dur", 0), (int, float))
    ]
    return max(ends) - min(stamps)
