"""The benchmark's own spans: recorded around public calls, kept in memory.

Each span has an id, its parent's id (the span that was open when it
started, i.e. the one that caused it), a start and a duration in
microseconds on the system-wide monotonic clock, so spans from worker
processes line up with the parent's.  :func:`self_times` subtracts the
children from each span; :func:`chrome_trace` writes the Chrome
trace-event JSON that ``chrome://tracing`` and Perfetto load.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager


def now_us() -> float:
    return time.perf_counter_ns() / 1e3


class Spans:
    """A span recorder; when disabled, :meth:`span` records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[dict] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._ids = itertools.count(self._pid * 1_000_000 + 1)

    @contextmanager
    def span(self, name: str, **args):
        """Record ``name`` around the ``with`` body; yields the event dict
        (``None`` when disabled) so the caller can add args."""
        if not self.enabled:
            yield None
            return
        event = {"name": name, "id": next(self._ids),
                 "parent": self._stack[-1] if self._stack else None,
                 "ts": now_us(), "dur": 0.0, "pid": self._pid,
                 "args": dict(args)}
        self._stack.append(event["id"])
        try:
            yield event
        finally:
            self._stack.pop()
            event["dur"] = now_us() - event["ts"]
            self.events.append(event)

    def add(self, name: str, ts: float, dur: float,
            parent: dict | None = None, **args) -> dict:
        """Add a span the benchmark timed by other means (a pass record,
        a request on a connection); returns its event dict."""
        event = {"name": name, "id": next(self._ids),
                 "parent": parent["id"] if parent else None, "ts": ts,
                 "dur": dur, "pid": self._pid, "args": dict(args)}
        self.events.append(event)
        return event


def self_times(events: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {event["id"]: event["dur"] for event in events}
    for event in events:
        if event["parent"] in own:
            own[event["parent"]] -= event["dur"]
    return own


def chrome_trace(events: list[dict]) -> dict:
    """The trace-event container: one complete event per span."""
    trace = []
    for event in sorted(events, key=lambda e: (e["ts"], -e["dur"])):
        args = dict(event["args"], id=event["id"], parent=event["parent"])
        trace.append({"name": event["name"], "cat": "perfbench", "ph": "X",
                      "pid": event["pid"], "tid": event["pid"],
                      "ts": round(event["ts"], 3),
                      "dur": round(event["dur"], 3), "args": args})
    return {"traceEvents": trace, "displayTimeUnit": "ms"}
