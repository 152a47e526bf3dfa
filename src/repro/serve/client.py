"""Client side of the sweep server: route ``run_jobs`` over HTTP.

:class:`ServeClient` implements the same contract as
:func:`repro.eval.parallel.run_jobs` — jobs in, results in submission
order out, ledger fed — but resolves every job against a
:class:`~repro.serve.server.SweepServer` instead of a local pool.
:func:`install` plants it as ``parallel.SERVED_EXECUTOR``, so every
driver (``fig5``, ``fig8``, sweeps…) transparently becomes a thin
client; :func:`uninstall` restores local execution.

Determinism contract: the server returns the same ``to_dict`` payloads
the fork pool ships between processes, and the client merges them in
submission order — so served results are byte-identical to a local run
of the same batch, whatever mix of cache tiers served them.

Provenance: each served job appends one ``engine="served"`` record to
the client's run ledger whose ``result_cache`` field carries the
server-side dedupe tier (``memory`` / ``coalesced`` / ``disk`` /
``remote`` / ``computed``), so a served sweep's ledger still reconciles
row-for-row and shows exactly how much simulation actually happened.
Its ``rows`` and ``wall_s`` sum the server-side records the event
carries; ``wall_s`` is 0 unless this request computed the job.

Verified runs are never served: :func:`repro.eval.parallel.run_jobs`
bypasses the client under ``settings.verify`` (and the server would
refuse the batch with a 400) — a served ``verified`` flag would claim a
check that did not execute in this process (DESIGN decision 13).
"""

import json
import os
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Union

from repro.eval.parallel import decode_result
from repro.obs import telemetry
from repro.obs.slog import SLOG
from repro.obs.tracing import TRACE_HEADER, TRACER, format_traceparent
from repro.serve import jsonio
from repro.sim.batch import BatchResult
from repro.sim.result import SimulationResult

__all__ = ["ServeClient", "install", "uninstall"]

#: Per-read socket timeout while streaming a batch, seconds
#: (``REPRO_SERVE_TIMEOUT`` overrides).  Generous: a cold miss holds the
#: stream open for as long as one simulation takes.
DEFAULT_TIMEOUT = 900.0


def _timeout() -> float:
    try:
        return float(os.environ.get("REPRO_SERVE_TIMEOUT", "") or
                     DEFAULT_TIMEOUT)
    except ValueError:
        return DEFAULT_TIMEOUT


class ServeError(RuntimeError):
    """The server rejected a batch or the stream ended early."""


class ServeClient:
    """Resolves job batches against a sweep server (see module docstring).

    Args:
        url: Server base URL, e.g. ``http://127.0.0.1:8077``.
        timeout: Per-read socket timeout in seconds (``None`` → the
            ``REPRO_SERVE_TIMEOUT`` env var, then 900).
    """

    def __init__(self, url: str, timeout: Optional[float] = None):
        self.url = url.rstrip("/")
        self.timeout = _timeout() if timeout is None else timeout
        #: Cumulative per-tier job counts across every batch this client
        #: resolved (the CLI prints them as the served summary).
        self.tier_counts = {
            "memory": 0, "coalesced": 0, "disk": 0, "remote": 0,
            "computed": 0,
        }
        self.batches = 0
        self.jobs_served = 0

    # -- HTTP ---------------------------------------------------------- #

    def healthz(self) -> bool:
        try:
            with urllib.request.urlopen(
                self.url + "/healthz", timeout=self.timeout
            ) as resp:
                return resp.status == 200
        except (urllib.error.URLError, OSError):
            return False

    def server_stats(self) -> dict:
        with urllib.request.urlopen(
            self.url + "/stats", timeout=self.timeout
        ) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def _stream_batch(
        self,
        payload: dict,
        n_jobs: int,
        headers: Optional[Dict[str, str]] = None,
        on_event=None,
    ) -> List[dict]:
        """POST one batch; return its ``result`` events by submission
        index, raising :class:`ServeError` on rejection, a job-level
        server error, or a truncated stream.

        ``headers`` rides extra request headers (the trace-context
        header); ``on_event`` is called with each result event as it
        arrives — the hook that lets ``run_jobs`` close a job's client
        span at the moment its event lands, not when the batch ends.
        """
        req = urllib.request.Request(
            self.url + "/jobs",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST",
        )
        events: List[Optional[dict]] = [None] * n_jobs
        done = False
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                for raw in resp:
                    line = raw.strip()
                    if not line.startswith(b"data: "):
                        continue
                    event = json.loads(line[len(b"data: "):])
                    etype = event.get("type")
                    if etype == "done":
                        done = True
                    elif etype == "result":
                        if "error" in event:
                            raise ServeError(
                                f"server failed job "
                                f"{event.get('idx')}: {event['error']}"
                            )
                        events[event["idx"]] = event
                        if on_event is not None:
                            on_event(event)
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = exc.read().decode("utf-8", "replace")
            except OSError:
                pass
            raise ServeError(
                f"server rejected batch ({exc.code}): {detail}"
            ) from exc
        except urllib.error.URLError as exc:
            raise ServeError(f"server unreachable: {exc.reason}") from exc
        missing = sum(1 for ev in events if ev is None)
        if not done or missing:
            raise ServeError(
                f"server stream ended early: {missing} of {n_jobs} jobs "
                "unanswered"
            )
        return events  # type: ignore[return-value]

    # -- run_jobs contract --------------------------------------------- #

    def run_jobs(
        self, jobs, settings
    ) -> List[Union[SimulationResult, BatchResult, None]]:
        """Resolve ``jobs`` via the server; submission-order results,
        byte-identical to a local run of the same batch."""
        if not jobs:
            return []
        payload = {
            "settings": jsonio.settings_to_dict(settings),
            "jobs": [jsonio.job_to_dict(job) for job in jobs],
        }
        headers: Dict[str, str] = {}
        batch_span = None
        job_spans: List[Optional[dict]] = [None] * len(jobs)
        on_event = None
        if TRACER.enabled:
            batch_span = TRACER.start(
                "serve.batch", service="client",
                attrs={"jobs": len(jobs), "url": self.url},
            )
            trace_id = batch_span["trace_id"]
            parent = (trace_id, batch_span["span_id"])
            for i, job in enumerate(jobs):
                job_spans[i] = TRACER.start(
                    f"job {job.workload}", parent=parent, service="client",
                    attrs={"workload": job.workload, "config": job.config,
                           "idx": i},
                )
            # Header carries the batch context; the body's trace block
            # names each job's own client span so server resolve spans
            # nest under the exact span awaiting their event.
            headers[TRACE_HEADER] = format_traceparent(trace_id, parent[1])
            payload["trace"] = {
                "trace_id": trace_id,
                "parent": parent[1],
                "jobs": [s["span_id"] for s in job_spans],
            }

            def on_event(event, _spans=job_spans):
                span = _spans[event["idx"]]
                if span is not None:
                    TRACER.finish(span, tier=event.get("tier"))
                    _spans[event["idx"]] = None

        t0 = time.perf_counter()
        try:
            events = self._stream_batch(
                payload, len(jobs), headers=headers, on_event=on_event
            )
        except ServeError as exc:
            if batch_span is not None:
                TRACER.finish(batch_span, error=type(exc).__name__)
            if SLOG.enabled:
                SLOG.log(
                    "client.batch_failed", level="error", url=self.url,
                    jobs=len(jobs), error=str(exc),
                )
            raise
        if batch_span is not None:
            TRACER.finish(batch_span)
        if SLOG.enabled:
            SLOG.request(
                "client.batch", (time.perf_counter() - t0) * 1000.0,
                req_id=(batch_span["trace_id"] if batch_span else None),
                url=self.url, jobs=len(jobs),
            )
        self.batches += 1
        self.jobs_served += len(jobs)
        ledger = telemetry.LEDGER
        results: List[Union[SimulationResult, BatchResult, None]] = []
        for job, event in zip(jobs, events):
            tier = event.get("tier", "computed")
            if tier in self.tier_counts:
                self.tier_counts[tier] += 1
            if ledger.enabled:
                records = event["records"]
                wall_s = 0.0
                if tier == "computed":
                    wall_s = sum(rec["wall_s"] for rec in records)
                ledger.record(telemetry.RunRecord(
                    workload=job.workload,
                    config=job.clank_config().label(),
                    engine=telemetry.ENGINE_SERVED,
                    result_cache=tier,
                    size=job.size,
                    salt=job.salt,
                    driver=ledger.driver,
                    stalled=event["result"] is None and not event["batch"],
                    rows=sum(rec["rows"] for rec in records),
                    wall_s=wall_s,
                    t_start=ledger.now(),
                    worker=os.getpid(),
                ))
            results.append(decode_result(event))
        return results

    def summary_line(self) -> str:
        """One human line for the CLI: how the served jobs broke down."""
        tiers = ", ".join(
            f"{name}={count}"
            for name, count in self.tier_counts.items()
            if count
        ) or "none"
        return (
            f"served {self.jobs_served} jobs in {self.batches} batches "
            f"via {self.url} ({tiers})"
        )


def install(client: ServeClient) -> None:
    """Route every subsequent ``run_jobs`` call through ``client``."""
    from repro.eval import parallel

    parallel.SERVED_EXECUTOR = client


def uninstall() -> None:
    """Restore local execution (idempotent)."""
    from repro.eval import parallel

    parallel.SERVED_EXECUTOR = None
