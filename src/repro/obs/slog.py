"""Structured JSON-line logging for the serving stack.

One event per line, machine-parseable, so a served sweep's request flow
can be grepped and joined against traces and the run ledger::

    {"ts": 12.345, "level": "info", "event": "http.request", \
"req_id": "req-4f2a...", "endpoint": "/jobs", "status": 200, \
"wall_ms": 41.2}

The logger follows the repo's zero-cost-when-off discipline: disabled by
default, a single ``enabled`` check per call site, no formatting or
allocation on the off path.  Enable with the ``REPRO_SLOG`` environment
variable (``stderr``, ``-``, or a file path) or programmatically via
:meth:`StructuredLog.enable`.  ``REPRO_SLOG_SLOW_MS`` sets the
slow-request threshold: request events slower than it are escalated to
``level="warn"`` with ``slow=true``, which is the single knob an
operator needs to surface stragglers without drowning in per-request
noise.

Timestamps are ``time.perf_counter()`` seconds (the same monotonic
clock the run ledger and tracer use), so log lines join against span
exports by time as well as by ``req_id`` — the request id doubles as
the trace id when tracing is on.
"""

import json
import os
import sys
import threading
import time
from typing import Optional, TextIO

__all__ = ["SLOG", "StructuredLog", "configure_from_env", "new_request_id"]

DEFAULT_SLOW_MS = 1000.0


def new_request_id() -> str:
    """A fresh request id (``os.urandom`` — never the seeded RNG)."""
    return "req-" + os.urandom(6).hex()


class StructuredLog:
    """Process-wide JSON-line event sink.

    A single lock serializes writes — events arrive concurrently from
    the server's event loop and its bridge thread, and interleaved
    partial lines would defeat the whole point of line-oriented logs.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.slow_ms = DEFAULT_SLOW_MS
        self._sink: Optional[TextIO] = None
        self._path: Optional[str] = None
        self._lock = threading.Lock()

    def enable(self, sink: str = "stderr",
               slow_ms: Optional[float] = None) -> "StructuredLog":
        """Point the log at ``stderr``/``-`` or a file path and turn on."""
        with self._lock:
            if self._sink is not None and self._path is not None:
                self._sink.close()
            if sink in ("stderr", "-", ""):
                self._sink, self._path = sys.stderr, None
            else:
                parent = os.path.dirname(sink)
                if parent:
                    os.makedirs(parent, exist_ok=True)
                self._sink = open(sink, "a", encoding="utf-8")
                self._path = sink
            if slow_ms is not None:
                self.slow_ms = slow_ms
            self.enabled = True
        return self

    def disable(self) -> None:
        with self._lock:
            self.enabled = False
            if self._sink is not None and self._path is not None:
                self._sink.close()
            self._sink = None
            self._path = None

    def log(self, event: str, level: str = "info", **fields) -> None:
        """Emit one event line.  Call sites guard with ``SLOG.enabled``
        themselves when assembling ``fields`` costs anything."""
        if not self.enabled:
            return
        record = {"ts": round(time.perf_counter(), 6), "level": level,
                  "event": event}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            sink = self._sink
            if sink is None:
                return
            sink.write(line + "\n")
            sink.flush()

    def request(self, event: str, wall_ms: float, **fields) -> None:
        """A request-shaped event: escalated to ``warn``/``slow=true``
        when ``wall_ms`` exceeds the slow-request threshold."""
        if not self.enabled:
            return
        level = "info"
        if wall_ms > self.slow_ms:
            level = "warn"
            fields["slow"] = True
        self.log(event, level=level, wall_ms=round(wall_ms, 3), **fields)


def configure_from_env() -> bool:
    """Enable :data:`SLOG` from ``REPRO_SLOG`` / ``REPRO_SLOG_SLOW_MS``;
    returns whether logging ended up enabled.  Called by the serve and
    eval CLIs at startup."""
    sink = os.environ.get("REPRO_SLOG", "").strip()
    if not sink:
        return False
    slow_ms = None
    raw = os.environ.get("REPRO_SLOG_SLOW_MS", "").strip()
    if raw:
        try:
            slow_ms = float(raw)
        except ValueError:
            slow_ms = None
    SLOG.enable(sink, slow_ms=slow_ms)
    return True


#: The process-wide structured log every wired call site consults.
SLOG = StructuredLog()
