"""Asyncio sweep server: SimJob batches in, deduped results out.

One :class:`SweepServer` owns three layers:

* **An HTTP front** (hand-rolled on ``asyncio`` streams — no third-party
  framework): ``POST /jobs`` accepts a JSON batch
  ``{"settings": {...}, "jobs": [...]}`` and streams one Server-Sent
  Event per job as it lands (each ``data:`` line is a JSON object with
  the job's submission index, dedupe tier, result payload, and the
  server-side :class:`RunRecord` ledger lines), ``GET /stats`` reports
  the dedupe funnel, :func:`repro.cache.stats` and the trace-cache
  counters, ``GET /metrics`` exposes Prometheus-text latency histograms (per-endpoint requests, per-tier
  resolves, SSE stream durations) and gauges, and ``GET /healthz`` is
  the liveness probe.  Requests carrying an ``X-Repro-Trace`` header
  (plus an optional per-job ``trace`` block in the batch body) get their
  server-side spans parented under the caller's trace
  (:mod:`repro.obs.tracing`), and structured request logs flow through
  :mod:`repro.obs.slog` when enabled.
* **A dedupe front** addressed by :func:`repro.eval.parallel.result_key`
  — the same content hash the local result cache uses, so "identical
  request" is decided by simulation inputs, never by client identity.
  Three tiers answer without simulating: an in-memory LRU of recent
  replies (``memory``), in-flight **single-flight coalescing**
  (``coalesced``: a request whose key is already simulating awaits the
  same future — two clients posting the same key share one execution),
  and the persistent result store the bridge probes first (``disk``).
  Only a full miss builds a trace and simulates (``computed``).
* **A one-thread bridge** to the sweep engine, entered per batch and
  per chunk, never per job.  One bridge call prepares a batch: it
  decodes, keys and groups every job once and registers the batch's
  sweep plans.  The loop then triages the keys in submission order,
  buckets the owned misses by group (one trace, marking and set of walk
  parameters) and sends each bucket back in chunks of
  ``repro.eval.parallel._FAMILY_CHUNK`` jobs, one bridge hop each.  A
  chunk is one call of the local sweep engine (trace caches, store
  reads and puts, ledger records), so its misses walk as the rows of
  one ``simulate_batch`` call; the chunk runner hands it the keys it
  already holds and encodes the body of each job's SSE line, so the
  event loop only does per-job bookkeeping and never blocks on a
  simulation.

A job's SSE line carries its result's stored JSON verbatim: a disk hit
is one ``pread``, one sha256 check and a splice, with no decode or
re-encode here, and memory and coalesced replies reuse the same bytes.

Served batches refuse ``verify=True`` settings with a 400: a served
result would claim a verification that did not execute in the client's
process (DESIGN decision 13).
"""

import asyncio
import json
import threading
import time
import urllib.request
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

import repro.cache as artifact_cache
from repro.cache.store import encode_json
from repro.obs import telemetry
from repro.obs.metrics import ServingMetrics
from repro.obs.slog import SLOG, new_request_id
from repro.obs.tracing import TRACER, make_span, parse_traceparent
from repro.serve import jsonio
from repro.workloads.cache import cache_stats as trace_cache_stats

__all__ = ["ServerHandle", "SweepServer", "start_in_background"]

#: In-memory reply LRU entries (``--memory`` overrides).
DEFAULT_MEMORY_ENTRIES = 4096

#: Largest request body read, bytes: ten times the largest batch a full
#: ``python -m repro.eval all`` sends (fig5, 13,248 jobs, 6.4 MB).
#: A longer ``Content-Length`` is refused with 413 before any body
#: byte is read.
MAX_BODY_BYTES = 64 << 20


class _JobFailed(RuntimeError):
    """Raised from a single-flight future whose owning job failed; its
    message is the owner's ``error`` text, so every duplicate reports
    the same error."""


def _error_text(exc: BaseException) -> str:
    """A failed job's ``error`` field (its duplicates repeat it verbatim)."""
    if isinstance(exc, _JobFailed):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _sse(event: dict) -> bytes:
    blob = json.dumps(event, separators=(",", ":")).encode("utf-8")
    return b"data: " + blob + b"\n\n"


def _event_body(records: list, raw: bytes) -> bytes:
    """An answered job's SSE line after its header: the ledger records
    of the execution that produced the result, then the result's stored
    JSON bytes, verbatim.  Coalesced and memory replies reuse it."""
    return b"".join((
        b',"records":', encode_json(records),
        b',"result":', raw, b"}\n\n",
    ))


def _event_line(idx: int, key: str, tier: str, body: bytes) -> bytes:
    """One answered job's SSE line: this reply's header (a hex key and a
    tier name need no escaping), then ``body``."""
    return b'data: {"type":"result","idx":%d,"key":"%s","tier":"%s"%s' % (
        idx, key.encode("ascii"), tier.encode("ascii"), body,
    )


def _prepare(job_dicts: list, settings) -> list:
    """Decode, plan and key a whole batch in one bridge call.

    Returns one ``(job, key, group, error)`` per wire job; ``group`` is
    the job's ``_group_key`` and ``error`` its own failure text when it
    cannot be decoded, keyed or grouped.  The batch's sweep plans are
    registered before any job dispatches, so its cold SectionMaps come
    from family passes (as in a local ``run_jobs`` sweep).  Keying builds
    no trace: a result key names its workload by identity
    (:func:`repro.eval.parallel.result_key`).
    """
    from repro.common.errors import ConfigError
    from repro.eval.parallel import (_group_key, _register_family_plans,
                                     result_key)

    jobs = []
    for job_d in job_dicts:
        try:
            jobs.append(jsonio.job_from_dict(job_d))
        except Exception as exc:
            jobs.append(exc)
    try:
        _register_family_plans(
            [job for job in jobs if not isinstance(job, Exception)], settings
        )
    except (ConfigError, TypeError, ValueError):
        # Plans only speed up cold maps; the job with the bad config
        # fails on its own when it runs.
        pass
    out = []
    groups: dict = {}
    for idx, job in enumerate(jobs):
        if isinstance(job, Exception):
            out.append((None, None, None, _error_text(job)))
            continue
        try:
            group = _group_key(job, idx)
            # One tuple per group; an unhashable field fails here, alone.
            group = groups.setdefault(group, group)
            out.append((job, result_key(job, settings)[1], group, None))
        except Exception as exc:
            out.append((None, None, None, _error_text(exc)))
    return out


def _run_group(items: list, settings) -> list:
    """Answer ``items`` (see :func:`_run_chunk`) with one
    :func:`repro.eval.parallel._execute` call, or fail them all with its
    error.  Each job's ledger records are split off at the record
    boundaries ``_execute`` reports.  They go to a private ledger and
    travel in the reply, never in process state: a long-lived server
    stays bounded, and an *embedded* server (tests, background-thread
    harness) neither double-counts nor races the client's ledger, which
    gets one ``engine="served"`` row per job instead."""
    from repro.eval.parallel import _execute

    ledger = telemetry.RunLedger().enable()
    ledger.epoch = telemetry.LEDGER.epoch
    ledger.driver = telemetry.LEDGER.driver
    try:
        done = _execute([item[1] for item in items], settings,
                        [item[2] for item in items], raw=True, ledger=ledger)
    except Exception as exc:
        # A rerun must not store or record anything twice.
        assert not ledger.records, "a failed _execute call recorded runs"
        return [(None, None, _error_text(exc))] * len(items)
    out, lo = [], 0
    for (_, job, _, trace_parent), (raw, _, end) in zip(items, done):
        records, lo = ledger.records[lo:end], end
        tier = "computed"
        if all(rec.engine == telemetry.ENGINE_CACHED for rec in records):
            tier = "disk"
        spans = []
        if trace_parent is not None:
            span = make_span(
                "simulate", "worker", trace_id=trace_parent[0],
                parent_id=trace_parent[1],
                attrs={"workload": job.workload, "config": job.config,
                       "tier": tier},
            )
            span["t0"] = ledger.epoch + records[0].t_start
            span["t1"] = span["t0"] + sum(rec.wall_s for rec in records)
            spans.append(span)
        out.append((tier, spans, _event_body(
            [rec.to_dict() for rec in records], raw,
        )))
    return out


def _run_chunk(items: list, settings) -> list:
    """Execute a chunk of owned misses in the bridge thread.

    Each item is ``(idx, job, key, trace_parent)``; the jobs of a chunk
    share one :func:`repro.eval.parallel._group_key`, so the chunk is
    one :func:`_run_group`: the local sweep engine's own path (store
    probes and puts and ledger records per job, in submission order;
    the misses walk as the rows of one ``simulate_batch`` call), so
    served results are byte-identical.  If that call raises, which it
    does before anything is stored or recorded, the chunk reruns job by
    job as groups of one, so a failing job fails alone.

    Each job yields ``(tier, spans, body)``: ``disk`` or ``computed``,
    its worker spans and its SSE line body (:func:`_event_body`), or
    ``(None, None, error)``.  Under a ``trace_parent`` context a job's
    worker ``simulate`` span covers its own window inside the group,
    read off its records (the explicit context survives the executor
    hop, which does not copy contextvars).
    """
    out = _run_group(items, settings)
    if len(items) > 1 and out[0][0] is None:
        out = [_run_group([item], settings)[0] for item in items]
    return out


class SweepServer:
    """The asyncio job server (see module docstring).

    Args:
        host: Bind address (loopback by default).
        port: Bind port; 0 picks an ephemeral port (read ``url`` after
            :meth:`start`).
        memory_entries: In-memory reply LRU cap (``None`` →
            :data:`DEFAULT_MEMORY_ENTRIES`; 0 disables the tier).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        memory_entries: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self._memory_cap = (
            DEFAULT_MEMORY_ENTRIES if memory_entries is None
            else max(0, memory_entries)
        )
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._bridge = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-bridge"
        )
        self.counters = {"batches": 0, "jobs": 0, "errors": 0}
        self.tiers = {"memory": 0, "coalesced": 0, "disk": 0, "computed": 0}
        self.metrics = ServingMetrics()
        self._m_requests = self.metrics.counter(
            "repro_http_requests_total", "HTTP requests by endpoint and status"
        )
        self._m_request_seconds = self.metrics.histogram(
            "repro_http_request_seconds",
            "Wall time per HTTP request by endpoint",
        )
        self._m_resolve_seconds = self.metrics.histogram(
            "repro_resolve_seconds",
            "Per-job dedupe-funnel resolve latency by tier "
            "(one observation per served job)",
        )
        self._m_sse_seconds = self.metrics.histogram(
            "repro_sse_stream_seconds",
            "SSE stream duration per /jobs batch",
        )
        self._m_jobs_in_flight = self.metrics.gauge(
            "repro_jobs_in_flight", "Jobs currently inside the dedupe funnel"
        )
        self._m_inflight_keys = self.metrics.gauge(
            "repro_inflight_keys",
            "Distinct keys currently executing (single-flight table size)",
        )
        self._m_memory_entries = self.metrics.gauge(
            "repro_memory_entries", "Payloads held by the in-memory LRU tier"
        )

    # -- lifecycle ----------------------------------------------------- #

    async def start(self) -> "SweepServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._bridge.shutdown(wait=False, cancel_futures=True)

    # -- dedupe + execution -------------------------------------------- #

    def _memory_hit(self, key: str) -> Optional[bytes]:
        body = self._memory.get(key)
        if body is not None:
            self._memory.move_to_end(key)
        return body

    def _memory_put(self, key: str, body: bytes) -> None:
        if self._memory_cap <= 0:
            return
        self._memory[key] = body
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_cap:
            self._memory.popitem(last=False)

    async def _resolve_batch(
        self, writer, job_dicts: list, settings, parents: list, t0: float,
    ) -> bool:
        """Resolve one batch through the dedupe funnel, streaming each
        job's SSE line as it lands; returns whether the client hung up.

        One bridge call prepares the batch (:func:`_prepare`).  Triage
        then runs on the loop in submission order: a memory hit answers
        at once; a key already in ``_inflight`` — another batch's, or
        one owned earlier in this batch — makes the job a ``coalesced``
        waiter on that future (single flight: two clients posting the
        same key share one execution); any other key gets its future
        installed before anything dispatches.  The owned misses are
        bucketed by group, buckets in order of first appearance, and
        each bucket is cut into chunks of ``_FAMILY_CHUNK``
        (:func:`_run_chunk`, one row-engine call each), all dispatched
        at once and run one after another.  Completed SSE line bodies
        land in the memory LRU, so later duplicates are ``memory`` hits
        that reuse the same bytes.  Every owned chunk runs to
        completion even after the client hangs up: waiters and the
        inflight table depend on it.
        """
        from repro.eval.parallel import _FAMILY_CHUNK

        loop = asyncio.get_running_loop()
        tracing = TRACER.enabled
        spans: list = [None] * len(job_dicts)
        left = len(job_dicts)  # jobs still counted in repro_jobs_in_flight
        broken = False
        own: Dict[str, asyncio.Future] = {}
        waiters: Dict[str, list] = {}

        def answered(idx: int, key: str, tier: str, body: bytes) -> bytes:
            nonlocal left
            # One observation per served job — the reconciliation
            # invariant: summed across tiers, this histogram's count
            # equals the number of jobs the ledger records as
            # engine="served".
            self._m_resolve_seconds.observe(
                time.perf_counter() - t0, tier=tier
            )
            self._m_jobs_in_flight.dec()
            left -= 1
            if spans[idx] is not None:
                TRACER.finish(spans[idx], tier=tier, key=key[:12])
            return _event_line(idx, key, tier, body)

        def failed(idx: int, error: str) -> bytes:
            nonlocal left
            self.counters["errors"] += 1
            self._m_jobs_in_flight.dec()
            left -= 1
            if spans[idx] is not None:
                TRACER.finish(spans[idx], error=error.partition(":")[0])
            return _sse({"type": "result", "idx": idx, "error": error})

        def wake(key: str, fut: asyncio.Future, lines: list) -> None:
            exc = fut.exception()
            for idx in waiters.pop(key, ()):
                if exc is not None:
                    lines.append(failed(idx, _error_text(exc)))
                else:
                    lines.append(
                        answered(idx, key, "coalesced", fut.result())
                    )

        async def send(lines: list) -> None:
            nonlocal broken
            if broken or not lines:
                return
            try:
                writer.write(b"".join(lines))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                broken = True

        self._m_jobs_in_flight.inc(left)
        try:
            prepared = await loop.run_in_executor(
                self._bridge, _prepare, job_dicts, settings
            )
            lines: list = []
            owned: Dict[tuple, list] = {}  # group -> owned items, in order
            foreign: Dict[asyncio.Future, str] = {}
            for idx, (job, key, group, error) in enumerate(prepared):
                span = spans[idx] = (
                    TRACER.start("resolve", parent=parents[idx],
                                 service="server")
                    if tracing else None
                )
                if error is not None:
                    lines.append(failed(idx, error))
                    continue
                body = self._memory_hit(key)
                if body is not None:
                    self.tiers["memory"] += 1
                    lines.append(answered(idx, key, "memory", body))
                    continue
                fut = self._inflight.get(key)
                if fut is not None:
                    self.tiers["coalesced"] += 1
                    if key not in own:
                        foreign[fut] = key
                    waiters.setdefault(key, []).append(idx)
                    continue
                own[key] = self._inflight[key] = loop.create_future()
                owned.setdefault(group, []).append((idx, job, key, (
                    (span["trace_id"], span["span_id"]) if span else None
                )))
            self._m_inflight_keys.set(len(self._inflight))
            chunks = {}
            for bucket in owned.values():
                for lo in range(0, len(bucket), _FAMILY_CHUNK):
                    items = bucket[lo:lo + _FAMILY_CHUNK]
                    chunks[loop.run_in_executor(
                        self._bridge, _run_chunk, items, settings
                    )] = items
            await send(lines)
            pending = set(chunks) | set(foreign)
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                lines = []
                for done_fut in done:
                    if done_fut in foreign:
                        wake(foreign.pop(done_fut), done_fut, lines)
                        continue
                    items = chunks.pop(done_fut)
                    try:
                        results = done_fut.result()
                    except Exception as exc:
                        results = [(None, None, _error_text(exc))] * len(items)
                    for (idx, _, key, _), (tier, worker_spans, body) in zip(
                        items, results
                    ):
                        fut = own[key]
                        del self._inflight[key]
                        if tier is None:
                            fut.set_exception(_JobFailed(body))
                            lines.append(failed(idx, body))
                        else:
                            # Worker spans come back once, with the owning
                            # execution; waiters and the memory LRU share
                            # only the body.
                            if worker_spans and tracing:
                                TRACER.add_all(worker_spans)
                            fut.set_result(body)
                            self.tiers[tier] += 1
                            self._memory_put(key, body)
                            lines.append(answered(idx, key, tier, body))
                        wake(key, fut, lines)
                    self._m_inflight_keys.set(len(self._inflight))
                await send(lines)
        finally:
            # Only an aborted batch (server shutdown) leaves owned keys
            # unsettled or jobs unanswered; fail the keys so no waiter
            # hangs.
            for key, fut in own.items():
                if not fut.done():
                    fut.set_exception(_JobFailed("batch aborted"))
                    del self._inflight[key]
                fut.exception()  # consumed: no-waiter futures must not warn
            self._m_inflight_keys.set(len(self._inflight))
            self._m_jobs_in_flight.dec(left)
        return broken

    # -- stats --------------------------------------------------------- #

    def stats_snapshot(self) -> dict:
        return {
            "server": {
                **self.counters,
                "tiers": dict(self.tiers),
                "inflight": len(self._inflight),
                "memory_entries": len(self._memory),
                "memory_cap": self._memory_cap,
            },
            "cache": artifact_cache.stats(),
            "traces": trace_cache_stats(),
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /metrics``: the labeled
        serving families plus point-in-time gauges and the process-wide
        funnel / cache counters."""
        self._m_inflight_keys.set(len(self._inflight))
        self._m_memory_entries.set(len(self._memory))
        extra = {
            f"repro_server_{name}": value
            for name, value in self.counters.items()
        }
        for tier, n in self.tiers.items():
            extra[f"repro_resolve_tier_total_{tier}"] = n
        for name, value in artifact_cache.stats().items():
            extra[f"repro_cache_{name}"] = value
        return self.metrics.render(extra_counters=extra)

    # -- HTTP ---------------------------------------------------------- #

    async def _handle(self, reader, writer) -> None:
        endpoint = status = None
        t0 = time.perf_counter()
        req_ctx = None
        try:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                return
            request_line, _, header_blob = head.partition(b"\r\n")
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, path = parts[0].upper(), parts[1]
            headers = {}
            for line in header_blob.decode("latin-1").split("\r\n"):
                name, sep, value = line.partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
            if method == "GET" and path in ("/healthz", "/metrics", "/stats"):
                endpoint = path
            elif method == "POST" and path == "/jobs":
                endpoint = "/jobs"
            else:
                endpoint = "other"
            raw_length = headers.get("content-length", "") or "0"
            try:
                length = (
                    int(raw_length)
                    if raw_length.isascii() and raw_length.isdigit() else -1
                )
            except ValueError:  # more digits than int() parses
                length = MAX_BODY_BYTES + 1
            req_ctx = parse_traceparent(headers.get("x-repro-trace"))
            body = b""
            if 0 < length <= MAX_BODY_BYTES:
                body = await reader.readexactly(length)

            if length < 0:
                status = self._plain(
                    writer, 400, b'{"error": "bad Content-Length"}'
                )
            elif length > MAX_BODY_BYTES:
                # Refused unread: the connection closes after the reply.
                status = self._plain(
                    writer, 413,
                    b'{"error": "request body over %d bytes"}'
                    % MAX_BODY_BYTES,
                )
            elif endpoint == "/jobs":
                status = await self._handle_jobs(writer, body, req_ctx)
            elif endpoint == "/healthz":
                status = self._plain(writer, 200, b'{"ok": true}')
            elif endpoint == "/metrics":
                status = self._plain(
                    writer, 200, self.metrics_text().encode("utf-8"),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif endpoint == "/stats":
                blob = json.dumps(
                    self.stats_snapshot(), indent=2, sort_keys=True
                ).encode("utf-8")
                status = self._plain(writer, 200, blob)
            else:
                status = self._plain(writer, 404, b'{"error": "not found"}')
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            if endpoint is not None:
                wall = time.perf_counter() - t0
                # ``status`` is None when the client hung up mid-handler.
                self._m_requests.inc(
                    endpoint=endpoint,
                    status=str(status) if status else "hup",
                )
                self._m_request_seconds.observe(wall, endpoint=endpoint)
                if SLOG.enabled:
                    SLOG.request(
                        "http.request", wall * 1000.0,
                        req_id=(req_ctx[0] if req_ctx else new_request_id()),
                        endpoint=endpoint, status=status,
                    )
            if TRACER.enabled:
                TRACER.flush()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _plain(
        writer, status: int, body: bytes,
        content_type: str = "application/json",
    ) -> int:
        reason = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            413: "Payload Too Large",
        }.get(status, "Error")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        return status

    async def _handle_jobs(
        self, writer, body: bytes,
        req_ctx: Optional[Tuple[str, str]] = None,
    ) -> int:
        """``POST /jobs``: resolve a batch, streaming SSE as jobs land.

        ``req_ctx`` is the parsed ``X-Repro-Trace`` header — the client's
        batch span.  The optional body ``trace`` block refines it with
        per-job client span ids, so each resolve span parents under the
        exact client span awaiting its event::

            {"trace": {"trace_id": "...", "jobs": ["<span_id>", ...]}}
        """
        try:
            req = json.loads(body.decode("utf-8"))
            settings_d = dict(req["settings"])
            job_dicts = list(req["jobs"])
            settings = jsonio.settings_from_dict(settings_d)
        except Exception as exc:
            return self._plain(
                writer, 400,
                json.dumps({"error": f"bad batch: {exc}"}).encode("utf-8"),
            )
        if settings.verify:
            return self._plain(
                writer, 400,
                b'{"error": "served results cannot claim --verify; '
                b'run verification locally"}',
            )
        job_parents = [req_ctx] * len(job_dicts)
        trace_block = req.get("trace")
        if isinstance(trace_block, dict):
            trace_id = trace_block.get("trace_id") or (
                req_ctx[0] if req_ctx else None
            )
            job_span_ids = trace_block.get("jobs") or []
            if trace_id:
                for i, span_id in enumerate(job_span_ids[:len(job_dicts)]):
                    if span_id:
                        job_parents[i] = (trace_id, span_id)
        self.counters["batches"] += 1
        self.counters["jobs"] += len(job_dicts)
        batch_span = (
            TRACER.start("/jobs", parent=req_ctx, service="server",
                         attrs={"jobs": len(job_dicts)})
            if TRACER.enabled else None
        )
        t0 = time.perf_counter()
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        broken = await self._resolve_batch(
            writer, job_dicts, settings, job_parents, t0
        )
        if not broken:
            writer.write(_sse({"type": "done", "jobs": len(job_dicts)}))
        stream_s = time.perf_counter() - t0
        self._m_sse_seconds.observe(stream_s)
        if batch_span is not None:
            TRACER.finish(batch_span, broken=broken)
        if SLOG.enabled:
            SLOG.request(
                "serve.batch", stream_s * 1000.0,
                req_id=(req_ctx[0] if req_ctx else new_request_id()),
                jobs=len(job_dicts), broken=broken,
            )
        return 200


# --------------------------------------------------------------------- #
# Background-thread harness (tests and embedding).
# --------------------------------------------------------------------- #


class ServerHandle:
    """A running server on a background thread; ``stop()`` tears it down."""

    def __init__(self, server: SweepServer, loop, thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def url(self) -> str:
        return self.server.url

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)


def start_in_background(
    host: str = "127.0.0.1",
    port: int = 0,
    memory_entries: Optional[int] = None,
) -> ServerHandle:
    """Start a :class:`SweepServer` on its own event-loop thread and
    return once it is accepting connections (used by the test suite and
    by embedders; the CLI runs the loop in the foreground)."""
    ready = threading.Event()
    box: dict = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = SweepServer(
            host=host, port=port, memory_entries=memory_entries
        )
        box["loop"], box["server"] = loop, server
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind failures to the caller
            box["error"] = exc
            ready.set()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.aclose())
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("sweep server failed to start within 30s")
    if "error" in box:
        raise box["error"]
    return ServerHandle(box["server"], box["loop"], thread)
