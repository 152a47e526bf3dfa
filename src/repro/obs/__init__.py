"""Observability for the intermittent simulator and the sweep drivers.

The policy simulator reproduces the paper's overhead numbers but is a black
box in between: this package opens it up without slowing it down.

* :mod:`repro.obs.events` — typed events for everything the paper's run-time
  machinery decides: power failures, checkpoint commits/aborts, rollbacks,
  buffer overflows, watchdog firings, output commits, section closures.
* :mod:`repro.obs.recorder` — the event bus: a tiny ``Recorder`` protocol
  with in-memory, JSON Lines, and null implementations.  Recording is
  strictly opt-in; with no recorder attached the simulator's per-access hot
  path is untouched.
* :mod:`repro.obs.metrics` — counters and fixed-bucket histograms aggregated
  into :attr:`repro.sim.result.SimulationResult.metrics`.
* :mod:`repro.obs.chrome_trace` — renders an event log, or timed spans
  (tracing exports, a sweep's run ledger), as a Chrome trace-event
  (``chrome://tracing`` / Perfetto) timeline.
* :mod:`repro.obs.profile` — the experiment drivers' wall clock
  (``Profiler.phase``, the one driver clock).
* :mod:`repro.obs.telemetry` — per-run provenance records (engine,
  fallback reason, kernel, cache tier, wall time) collected into the
  shared :data:`~repro.obs.telemetry.LEDGER`, which is also the one
  writer of the ``results/run_ledger.jsonl`` sweep ledger; ``tally``
  is the one row-weighted count of a sweep that every view reads.
* :mod:`repro.obs.report` — the run profile: ``python -m repro.eval``
  prints it at the end of every sweep, and ``python -m repro.obs.report``
  prints it again from the written ledger (or an HTML report, or the
  span timeline), or summarizes a recorded event log.
* :mod:`repro.obs.bench` — ``python -m repro.obs.bench --check`` gates CI
  on the ``results/BENCH_sweep.json`` performance trajectory.
* :mod:`repro.obs.tracing` — zero-cost-when-off distributed spans
  (client → server → resolve tier → worker) propagated over HTTP via
  ``X-Repro-Trace``; ``python -m repro.obs.tracing merge`` renders
  exports as one Chrome timeline.
* :mod:`repro.obs.slog` — structured JSON-line request logs with a
  slow-request threshold (``REPRO_SLOG`` / ``REPRO_SLOG_SLOW_MS``).
* :mod:`repro.obs.watch` — ``python -m repro.obs.watch`` follows an
  in-progress sweep (streamed ledger or a server's ``/stats``):
  rows/sec, engine mix, cache-tier funnel, ETA.
"""

from repro.obs.events import (
    BufferOverflow,
    CheckpointAborted,
    CheckpointCommitted,
    Event,
    OutputCommitted,
    PowerFailure,
    Rollback,
    SectionClosed,
    WatchdogFired,
    WatchdogHalved,
    event_from_dict,
)
from repro.obs.metrics import (
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
    ServingMetrics,
    render_prometheus,
)
# repro.obs.tracing, repro.obs.slog, and repro.obs.watch are imported
# directly by their call sites (and ``python -m``), not re-exported
# here: tracing and watch double as CLI entry points, and importing
# them from the package __init__ would shadow their runpy execution.
from repro.obs.recorder import (
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    Recorder,
    live_recorder,
    read_events,
)
from repro.obs.chrome_trace import to_chrome_trace, write_chrome_trace
from repro.obs.profile import PROFILER, Profiler
from repro.obs.telemetry import (
    LEDGER,
    FallbackReason,
    Ledger,
    RunLedger,
    RunRecord,
    read_ledger,
)

__all__ = [
    "Event",
    "PowerFailure",
    "CheckpointCommitted",
    "CheckpointAborted",
    "Rollback",
    "BufferOverflow",
    "WatchdogFired",
    "WatchdogHalved",
    "OutputCommitted",
    "SectionClosed",
    "event_from_dict",
    "Recorder",
    "NullRecorder",
    "MemoryRecorder",
    "JsonlRecorder",
    "live_recorder",
    "read_events",
    "Counter",
    "CounterFamily",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "ServingMetrics",
    "render_prometheus",
    "to_chrome_trace",
    "write_chrome_trace",
    "Profiler",
    "PROFILER",
    "FallbackReason",
    "RunRecord",
    "RunLedger",
    "Ledger",
    "LEDGER",
    "read_ledger",
]
