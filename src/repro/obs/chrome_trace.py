"""Render an event log, or timed spans, as a Chrome trace-event timeline.

The output dict follows the Trace Event Format consumed by
``chrome://tracing`` and https://ui.perfetto.dev: load the written JSON file
directly.

:func:`to_chrome_trace` renders one simulated run's *event log* (one
simulated cycle = one microsecond) across four lanes:

* ``power``      — one span per power-on period, instants at power failures.
* ``execution``  — re-execution windows after rollbacks (span end is
  approximated by the next checkpoint commit or power failure, the latest
  instant re-execution can still be in progress).
* ``checkpoints``— one span per committed checkpoint routine; aborted
  attempts are instants.
* ``signals``    — watchdog firings/halvings, buffer overflows, outputs.

:func:`spans_to_chrome_trace` renders wall-clock *spans*, one Chrome
process per ``(service, pid)``.  Its inputs are :mod:`repro.obs.tracing`
exports (``python -m repro.obs.tracing merge``) and a sweep's run ledger
turned into spans by :func:`ledger_spans` (``python -m repro.obs.report
--chrome-trace``): an ``eval`` process holding the driver spans and one
``worker`` process per worker pid carrying a span per simulator run
(engine, fallback reason and cache-tier outcome in the span args) — the
view that shows slow runs, and where fallbacks cluster.
"""

import json
import math
from typing import Iterable, List, Optional, Sequence

from repro.obs.events import Event

_PID = 1
_LANE_POWER = 1
_LANE_EXEC = 2
_LANE_CKPT = 3
_LANE_SIGNAL = 4

_LANE_NAMES = {
    _LANE_POWER: "power",
    _LANE_EXEC: "execution",
    _LANE_CKPT: "checkpoints",
    _LANE_SIGNAL: "signals",
}


def _span(name, ts, dur, tid, args=None):
    ev = {
        "name": name,
        "ph": "X",
        "ts": ts,
        "dur": max(0, dur),
        "pid": _PID,
        "tid": tid,
    }
    if args:
        ev["args"] = args
    return ev


def _instant(name, ts, tid, args=None):
    ev = {"name": name, "ph": "i", "ts": ts, "s": "t", "pid": _PID, "tid": tid}
    if args:
        ev["args"] = args
    return ev


def to_chrome_trace(events: Iterable[Event], name: str = "intermittent run") -> dict:
    """Build a Chrome trace-event dict from an ordered event sequence."""
    out: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "args": {"name": name},
        }
    ]
    for tid, lane in _LANE_NAMES.items():
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": lane},
            }
        )

    period_start = 0
    period_no = 1
    cursor = 0  # last known timestamp, for unclocked events
    reexec_start = None

    def close_reexec(end):
        nonlocal reexec_start
        if reexec_start is not None:
            out.append(_span("re-execution", reexec_start, end - reexec_start, _LANE_EXEC))
            reexec_start = None

    for e in events:
        if e.t is not None:
            cursor = e.t
        kind = e.kind
        if kind == "power_failure":
            close_reexec(e.t)
            out.append(
                _span(
                    f"power-on #{e.power_cycle}",
                    period_start,
                    e.t - period_start,
                    _LANE_POWER,
                    {"progress": e.progress, "phase": e.phase},
                )
            )
            out.append(_instant("power failure", e.t, _LANE_POWER, {"phase": e.phase}))
            period_start = e.t
            period_no = e.power_cycle + 1
        elif kind == "checkpoint_committed":
            close_reexec(e.t - e.cycles)
            out.append(
                _span(
                    f"checkpoint[{e.cause}]",
                    e.t - e.cycles,
                    e.cycles,
                    _LANE_CKPT,
                    {"index": e.index, "flushed_words": e.flushed_words},
                )
            )
        elif kind == "rollback":
            if e.from_index > e.to_index:
                reexec_start = e.t
            out.append(
                _instant(
                    "rollback",
                    e.t,
                    _LANE_EXEC,
                    {"from": e.from_index, "to": e.to_index},
                )
            )
        elif kind == "checkpoint_aborted":
            out.append(
                _instant(
                    f"aborted[{e.cause}]",
                    e.t,
                    _LANE_CKPT,
                    {"needed": e.needed_cycles, "available": e.available_cycles},
                )
            )
        elif kind == "watchdog_fired":
            out.append(
                _instant(
                    f"{e.watchdog} watchdog",
                    e.t,
                    _LANE_SIGNAL,
                    {"load_value": e.load_value},
                )
            )
        elif kind == "watchdog_halved":
            out.append(
                _instant(
                    "watchdog halved", cursor, _LANE_SIGNAL, {"load_value": e.load_value}
                )
            )
        elif kind == "buffer_overflow":
            out.append(
                _instant(
                    f"{e.buffer} overflow",
                    cursor,
                    _LANE_SIGNAL,
                    {"waddr": e.waddr, "op": e.op},
                )
            )
        elif kind == "output_committed":
            out.append(
                _instant(
                    "output",
                    e.t,
                    _LANE_SIGNAL,
                    {"waddr": e.waddr, "duplicate": e.duplicate},
                )
            )
        # section_closed carries no extra geometry: the checkpoint span
        # that follows it already delimits the section.

    close_reexec(cursor)
    if cursor > period_start:
        out.append(
            _span(f"power-on #{period_no}", period_start, cursor - period_start, _LANE_POWER)
        )

    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {"cycles_per_us": 1, "source": "repro.obs"},
    }


def write_chrome_trace(
    events: Iterable[Event], path: str, name: str = "intermittent run"
) -> dict:
    """Write the Chrome trace JSON for ``events`` to ``path``; returns it."""
    trace = to_chrome_trace(events, name=name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return trace


# --------------------------------------------------------------------- #
# Span timelines: repro.obs.tracing exports and run ledgers.
# --------------------------------------------------------------------- #

#: Stable viewer ordering: the eval process (its driver spans) first,
#: then the serving pipeline's hops.
_SERVICE_ORDER = {"eval": 0, "client": 1, "server": 2, "worker": 3}


def _num(value) -> Optional[float]:
    """A finite float, or ``None`` for null or junk: hand-edited or
    partial files must render, not crash."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def ledger_spans(ledger) -> List[dict]:
    """A run ledger's timeline as span dicts for
    :func:`spans_to_chrome_trace`.

    Each driver mark becomes an ``eval`` span.  Each run record becomes
    a ``worker`` span on the pid that ran it, with its provenance in the
    attrs.  A batched seed-repeat
    record (``rows > 1``) is one span labelled ``WORKLOAD xROWS``: there
    is no per-row wall clock to subdivide by.  Times are seconds since
    the ledger epoch; a null or junk ``t_start`` reads as the epoch and
    a null ``wall_s`` as zero.
    """
    spans = [
        {"name": str(mark.get("name", "driver")), "service": "eval",
         "span_id": f"driver {i}", "pid": None,
         "t0": mark.get("t0"), "t1": mark.get("t1")}
        for i, mark in enumerate(ledger.drivers)
    ]
    for i, rec in enumerate(ledger.records):
        attrs = {
            "engine": rec.engine,
            "config": rec.config,
            "salt": rec.salt,
            "result_cache": rec.result_cache,
        }
        if rec.fallback_reason:
            attrs["fallback_reason"] = rec.fallback_reason
        if rec.kernel:
            attrs["kernel"] = rec.kernel
        if rec.driver:
            attrs["driver"] = rec.driver
        if rec.stalled:
            attrs["stalled"] = True
        label = rec.workload
        if rec.rows > 1:
            attrs["rows"] = rec.rows
            label = f"{rec.workload} x{rec.rows}"
        t0 = _num(rec.t_start) or 0.0
        spans.append({
            "name": label, "service": "worker", "span_id": f"run {i}",
            "pid": rec.worker, "t0": t0,
            "t1": t0 + (_num(rec.wall_s) or 0.0), "attrs": attrs,
        })
    return spans


def spans_to_chrome_trace(spans: Sequence[dict], name: str = "trace") -> dict:
    """Render span dicts — :mod:`repro.obs.tracing` exports or
    :func:`ledger_spans` — as a Chrome trace.

    Each ``(service, pid)`` pair becomes one Chrome *process* — a merged
    client + server + worker export of a loopback served sweep shows the
    whole causal pipeline stacked in one viewer.  Pids of mixed types
    each get their own process, ordered by their string form.  Within a
    process, spans are laid out so nesting is visible: each top-level
    span (no same-process ancestor) claims the first lane that is free
    at its start time, and its same-process descendants ride that lane,
    where Chrome nests them by time containment.  Timestamps are
    microseconds relative to the earliest span, which is only meaningful
    when every process shares a clock (``perf_counter`` is system-wide
    ``CLOCK_MONOTONIC`` on Linux — the loopback case this repo
    benchmarks).  A null or non-numeric ``t0`` renders at 0, a null or
    non-numeric ``t1`` as an open span reaching the latest timestamp,
    and every span is at least 1 µs wide.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms",
                "otherData": {"source": "repro.obs.tracing", "spans": 0}}

    starts = [_num(s.get("t0")) for s in spans]
    ends = [_num(s.get("t1")) for s in spans]
    t_min = min((t for t in starts if t is not None), default=0.0)
    t_max = max((t for t in starts + ends if t is not None), default=t_min)
    spans = [
        dict(s, t0=t_min if t0 is None else t0, t1=t_max if t1 is None else t1)
        for s, t0, t1 in zip(spans, starts, ends)
    ]
    by_id = {s["span_id"]: s for s in spans}

    def group_of(span: dict):
        return (str(span.get("service") or "eval"), span.get("pid"))

    def local_root(span: dict) -> dict:
        # Topmost ancestor living in the same (service, pid) group; hops
        # to a different process (client span parenting a server span)
        # end the walk — the child anchors its own lane over there.
        seen = {span["span_id"]}
        while True:
            parent = by_id.get(span.get("parent_id"))
            if (parent is None or group_of(parent) != group_of(span)
                    or parent["span_id"] in seen):
                return span
            seen.add(parent["span_id"])
            span = parent

    groups = sorted(
        {group_of(s) for s in spans},
        key=lambda g: (_SERVICE_ORDER.get(g[0], 99), g[0], str(g[1])),
    )
    pid_of = {g: i for i, g in enumerate(groups, start=1)}

    out: List[dict] = []
    for (service, ospid), pid in pid_of.items():
        label = service if ospid is None else f"{service} (pid {ospid})"
        out.append({"name": "process_name", "ph": "M", "pid": pid,
                    "args": {"name": label}})
        out.append({"name": "process_sort_index", "ph": "M", "pid": pid,
                    "args": {"sort_index": pid}})

    # Greedy lane packing per group: a top-level span takes the first
    # lane whose previous occupant ended before it starts.
    lane_ends: dict = {g: [] for g in groups}  # group -> [last t1 per lane]
    lane_of_root: dict = {}  # span_id of local root -> tid
    for span in sorted(spans, key=lambda s: (s["t0"], s["span_id"])):
        group = group_of(span)
        root = local_root(span)
        tid = lane_of_root.get(root["span_id"])
        if tid is None:
            ends = lane_ends[group]
            for i, busy_until in enumerate(ends):
                if busy_until <= root["t0"]:
                    ends[i] = root["t1"]
                    tid = i + 1
                    break
            else:
                ends.append(root["t1"])
                tid = len(ends)
            lane_of_root[root["span_id"]] = tid
        args = dict(span.get("attrs") or {})
        if span.get("trace_id"):
            args["trace_id"] = span["trace_id"]
        args["span_id"] = span["span_id"]
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        ev = _span(str(span.get("name", "span")), (span["t0"] - t_min) * 1e6,
                   max(1.0, (span["t1"] - span["t0"]) * 1e6), tid, args)
        ev["pid"] = pid_of[group]
        out.append(ev)

    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs.tracing",
            "spans": len(spans),
            "name": name,
        },
    }
