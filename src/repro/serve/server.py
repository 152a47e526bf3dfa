"""Asyncio sweep server: SimJob batches in, deduped results out.

One :class:`SweepServer` owns three layers:

* **An HTTP front** (hand-rolled on ``asyncio`` streams — no third-party
  framework): ``POST /jobs`` accepts a JSON batch
  ``{"settings": {...}, "jobs": [...]}`` and streams one Server-Sent
  Event per job as it lands (each ``data:`` line is a JSON object with
  the job's submission index, dedupe tier, result payload, and the
  server-side :class:`RunRecord` ledger lines), ``GET /artifact/{kind}/
  {key}`` serves raw artifact-store bytes to read-through peers
  (``REPRO_CACHE_REMOTE``), ``GET /stats`` reports the dedupe
  funnel plus :func:`repro.cache.stats`, ``GET /metrics`` exposes
  Prometheus-text latency histograms (per-endpoint requests, per-tier
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
  payloads (``memory``), in-flight **single-flight coalescing**
  (``coalesced``: a request whose key is already simulating awaits the
  same future — two clients posting the same key share one execution),
  and the persistent artifact store consulted inside ``execute_job``
  (``disk``, or ``remote`` when the store's read-through tier fetched
  it from a peer).  Only a full miss reaches the simulator
  (``computed``).
* **A thread-pool bridge to the fork worker pool**: each miss occupies
  one bridge thread, which either executes in-process (``--jobs 1``) or
  blocks on ``Pool.apply`` into the same fork pool
  ``repro.eval.parallel`` uses locally — so worker-side behaviour
  (trace caches, artifact flushes, ledger records) is exactly the local
  sweep engine's, and the event loop never blocks on a simulation.

Served batches refuse ``verify=True`` settings with a 400: a served
result would claim a verification that did not execute in the client's
process (DESIGN decision 13).
"""

import asyncio
import json
import os
import re
import threading
import time
import urllib.request
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

import repro.cache as artifact_cache
from repro.obs import telemetry
from repro.obs.metrics import COUNTERS, ServingMetrics
from repro.obs.slog import SLOG, new_request_id
from repro.obs.tracing import TRACER, make_span, parse_traceparent
from repro.serve import jsonio

__all__ = ["ServerHandle", "SweepServer", "start_in_background"]

#: In-memory payload LRU entries (``REPRO_SERVE_MEMORY`` overrides).
DEFAULT_MEMORY_ENTRIES = 4096

_ARTIFACT_RE = re.compile(r"^/artifact/([A-Za-z0-9_-]+)/([0-9a-f]{64})$")


def _memory_cap() -> int:
    try:
        return max(0, int(os.environ.get("REPRO_SERVE_MEMORY", "") or
                          DEFAULT_MEMORY_ENTRIES))
    except ValueError:
        return DEFAULT_MEMORY_ENTRIES


def _job_key(job_d: dict, settings_d: dict) -> str:
    """The dedupe key of one wire-format job (bridge-thread work: it may
    build and compile the trace on first sight of a workload)."""
    from repro.eval.parallel import result_key

    return result_key(
        jsonio.job_from_dict(job_d), jsonio.settings_from_dict(settings_d)
    )[1]


def _pool_run(
    job_d: dict, settings_d: dict, trace_parent: Optional[Tuple[str, str]] = None,
    family: Optional[list] = None,
) -> dict:
    """Execute one wire-format job; runs in a fork-pool worker (or a
    bridge thread under ``--jobs 1``).

    Returns the :func:`repro.eval.parallel.job_payload` of the exact
    function the local sweep engine runs (so served results are
    byte-identical), with the ledger forced on and the dedupe ``tier``
    added.  The records travel in the payload, not in process state:
    this keeps a long-lived server bounded, and keeps an *embedded*
    server (tests, background-thread harness) from double-counting —
    the client's ledger gets one engine="served" row per job instead.
    When the server hands over a ``trace_parent`` context, the
    simulation is wrapped in a worker span shipped back in the payload
    (fork children cannot share the parent's tracer buffer; the explicit
    context also survives the ``run_in_executor`` hop, which does not
    copy contextvars).  ``family`` is the job's sweep-plan window
    (:func:`repro.eval.parallel.family_window`) for a worker that forked
    before the batch registered its plans.
    """
    from repro.eval.parallel import adopt_family_window, job_payload

    job = jsonio.job_from_dict(job_d)
    settings = jsonio.settings_from_dict(settings_d)
    if family:
        adopt_family_window(job, family)
    span = None
    if trace_parent is not None:
        span = make_span(
            "simulate", "worker", trace_id=trace_parent[0],
            parent_id=trace_parent[1],
            attrs={"workload": job.workload, "config": job.config},
        )
    ledger = telemetry.LEDGER
    was_enabled = ledger.enabled
    ledger.enable()
    try:
        payload = job_payload(job, settings, span)
    finally:
        ledger.enabled = was_enabled
    engines = [rec.get("engine") for rec in payload["records"]]
    if engines and all(e == telemetry.ENGINE_CACHED for e in engines):
        remote = payload["counters"].get("cache.remote_hits", 0)
        tier = "remote" if remote else "disk"
    else:
        tier = "computed"
    payload["tier"] = tier
    if span is not None:
        span["attrs"]["tier"] = tier
    return payload


class SweepServer:
    """The asyncio job server (see module docstring).

    Args:
        host: Bind address (loopback by default).
        port: Bind port; 0 picks an ephemeral port (read ``url`` after
            :meth:`start`).
        jobs: Worker processes behind the bridge, resolved like the eval
            CLI's ``--jobs`` (``None`` → ``REPRO_JOBS`` or 1; 0 → all
            CPUs).  1 executes in bridge threads without a fork pool.
        memory_entries: In-memory payload LRU cap (``None`` →
            ``REPRO_SERVE_MEMORY`` or 4096; 0 disables the tier).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: Optional[int] = None,
        memory_entries: Optional[int] = None,
    ):
        from repro.eval.parallel import resolve_workers

        self.host = host
        self.port = port
        self.n_workers = resolve_workers(jobs)
        self._memory_cap = (
            _memory_cap() if memory_entries is None else max(0, memory_entries)
        )
        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._bridge = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="serve-bridge"
        )
        self._pool = None
        if self.n_workers > 1:
            # Created before the event loop runs anything (the
            # constructor is called from plain sync code), so the fork
            # happens on a quiet process; workers inherit warm parent
            # caches exactly like the local sweep engine's pool.
            import multiprocessing

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                ctx = multiprocessing.get_context()
            self._pool = ctx.Pool(processes=self.n_workers)
        self.counters = {
            "batches": 0,
            "jobs": 0,
            "errors": 0,
            "artifact_requests": 0,
            "artifact_hits": 0,
        }
        self.tiers = {
            "memory": 0, "coalesced": 0, "disk": 0, "remote": 0,
            "computed": 0,
        }
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
        self.close_pools()

    def close_pools(self) -> None:
        """Tear down the bridge and fork pool (idempotent, sync)."""
        self._bridge.shutdown(wait=False, cancel_futures=True)
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    # -- dedupe + execution -------------------------------------------- #

    def _memory_hit(self, key: str) -> Optional[dict]:
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
        return payload

    def _memory_put(self, key: str, payload: dict) -> None:
        if self._memory_cap <= 0:
            return
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_cap:
            self._memory.popitem(last=False)

    def _execute(
        self, job_d: dict, settings_d: dict,
        trace_parent: Optional[Tuple[str, str]],
    ) -> dict:
        """Bridge-thread entry: run the job in the fork pool, or inline
        when the server is single-worker.

        A pooled job's counters moved in the worker, so its delta is
        merged here (``/stats`` and ``/metrics`` then count its disk
        traffic); an inline job already counted in this process.
        """
        if self._pool is None:
            payload = _pool_run(job_d, settings_d, trace_parent)
            del payload["counters"]
        else:
            from repro.eval.parallel import family_window

            family = family_window(jsonio.job_from_dict(job_d))
            payload = self._pool.apply(
                _pool_run, (job_d, settings_d, trace_parent, family)
            )
            COUNTERS.merge(payload.pop("counters"))
        del payload["arch"]  # --arch refuses --server: nothing to replay
        return payload

    @staticmethod
    def _register_plans(job_dicts: list, settings_d: dict) -> None:
        """Register a batch's sweep plans before any job dispatches, so
        its cold SectionMaps come from family passes (as in a local
        ``run_jobs`` sweep).  Malformed jobs are skipped here; each one
        fails on its own when it resolves."""
        from repro.eval.parallel import _register_family_plans

        jobs = []
        for job_d in job_dicts:
            try:
                jobs.append(jsonio.job_from_dict(job_d))
            except Exception:
                continue
        _register_family_plans(jobs, jsonio.settings_from_dict(settings_d))

    async def _resolve(
        self, key: str, job_d: dict, settings_d: dict,
        trace_parent: Optional[Tuple[str, str]] = None,
    ) -> Tuple[str, dict]:
        """One job through the dedupe funnel; returns ``(tier, payload)``.

        Single-flight: the first request for a key installs a future in
        ``_inflight`` and executes; every concurrent duplicate awaits
        that future and is accounted ``coalesced``.  Completed payloads
        land in the memory LRU, so later duplicates are ``memory`` hits.
        """
        payload = self._memory_hit(key)
        if payload is not None:
            self.tiers["memory"] += 1
            return "memory", payload
        fut = self._inflight.get(key)
        if fut is not None:
            self.tiers["coalesced"] += 1
            return "coalesced", await asyncio.shield(fut)
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._inflight[key] = fut
        self._m_inflight_keys.set(len(self._inflight))
        try:
            payload = await loop.run_in_executor(
                self._bridge, self._execute, job_d, settings_d, trace_parent
            )
        except BaseException as exc:
            fut.set_exception(exc)
            fut.exception()  # consumed: no-waiter futures must not warn
            raise
        else:
            # Worker spans ride the payload exactly once: absorb them
            # into the server tracer *before* the payload is shared with
            # coalesced waiters and the memory LRU, so replays of the
            # payload never duplicate spans.
            spans = payload.pop("spans", None)
            if spans and TRACER.enabled:
                TRACER.add_all(spans)
            fut.set_result(payload)
            tier = payload["tier"]
            self.tiers[tier] += 1
            self._memory_put(key, payload)
            return tier, payload
        finally:
            self._inflight.pop(key, None)
            self._m_inflight_keys.set(len(self._inflight))

    async def _job_event(
        self, idx: int, job_d: dict, settings_d: dict,
        parent: Optional[Tuple[str, str]] = None,
    ) -> dict:
        """Resolve one job into its SSE event dict (never raises).

        ``parent`` is the client-side span context for *this job* (from
        the batch body's trace block, falling back to the request
        header), so the resolve span nests under the exact client span
        awaiting this event.
        """
        loop = asyncio.get_running_loop()
        span = TRACER.start("resolve", parent=parent, service="server") \
            if TRACER.enabled else None
        self._m_jobs_in_flight.inc()
        t0 = time.perf_counter()
        try:
            key = await loop.run_in_executor(
                self._bridge, _job_key, job_d, settings_d
            )
            trace_parent = (
                (span["trace_id"], span["span_id"]) if span else None
            )
            tier, payload = await self._resolve(
                key, job_d, settings_d, trace_parent
            )
        except Exception as exc:
            self.counters["errors"] += 1
            if span is not None:
                TRACER.finish(span, error=type(exc).__name__)
            return {
                "type": "result",
                "idx": idx,
                "error": f"{type(exc).__name__}: {exc}",
            }
        finally:
            self._m_jobs_in_flight.dec()
        # One observation per served job — the reconciliation invariant:
        # summed across tiers, this histogram's count equals the number
        # of jobs the ledger records as engine="served".
        self._m_resolve_seconds.observe(
            time.perf_counter() - t0, tier=tier
        )
        if span is not None:
            TRACER.finish(span, tier=tier, key=key[:12])
        event = {"type": "result", "idx": idx, "key": key, "tier": tier}
        event.update(payload)
        # Coalesced/memory replies reuse the original payload, whose
        # "tier" names where the *first* execution was served from.
        event["tier"] = tier
        return event

    # -- stats --------------------------------------------------------- #

    def stats_snapshot(self) -> dict:
        return {
            "server": {
                **self.counters,
                "tiers": dict(self.tiers),
                "inflight": len(self._inflight),
                "memory_entries": len(self._memory),
                "memory_cap": self._memory_cap,
                "workers": self.n_workers,
            },
            "cache": artifact_cache.stats(),
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
            body = b""
            length = int(headers.get("content-length", 0) or 0)
            if length:
                body = await reader.readexactly(length)
            req_ctx = parse_traceparent(headers.get("x-repro-trace"))

            if method == "GET" and path == "/healthz":
                endpoint = "/healthz"
                status = self._plain(writer, 200, b'{"ok": true}')
            elif method == "GET" and path == "/metrics":
                endpoint = "/metrics"
                status = self._plain(
                    writer, 200, self.metrics_text().encode("utf-8"),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif method == "GET" and path == "/stats":
                endpoint = "/stats"
                blob = json.dumps(
                    self.stats_snapshot(), indent=2, sort_keys=True
                ).encode("utf-8")
                status = self._plain(writer, 200, blob)
            elif method == "GET" and _ARTIFACT_RE.match(path):
                endpoint = "/artifact"
                status = self._handle_artifact(writer, path)
            elif method == "POST" and path == "/jobs":
                endpoint = "/jobs"
                status = await self._handle_jobs(writer, body, req_ctx)
            else:
                endpoint = "other"
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
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
            status, "Error"
        )
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

    def _handle_artifact(self, writer, path: str) -> int:
        """Serve one artifact's raw pickled bytes to a read-through peer."""
        self.counters["artifact_requests"] += 1
        match = _ARTIFACT_RE.match(path)
        kind, key = match.group(1), match.group(2)
        st = artifact_cache.store()
        blob = None
        if st is not None:
            try:
                with open(st.raw_path(kind, key), "rb") as fh:
                    blob = fh.read()
            except OSError:
                blob = None
        if blob is None:
            return self._plain(writer, 404, b'{"error": "artifact not found"}')
        self.counters["artifact_hits"] += 1
        return self._plain(
            writer, 200, blob, content_type="application/octet-stream"
        )

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
            jsonio.settings_from_dict(settings_d)  # validate field names
        except Exception as exc:
            return self._plain(
                writer, 400,
                json.dumps({"error": f"bad batch: {exc}"}).encode("utf-8"),
            )
        if settings_d.get("verify"):
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
        self._register_plans(job_dicts, settings_d)
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
        tasks = [
            asyncio.ensure_future(
                self._job_event(i, jd, settings_d, job_parents[i])
            )
            for i, jd in enumerate(job_dicts)
        ]
        broken = False
        for next_done in asyncio.as_completed(tasks):
            # Always await every task — coalesced waiters and the
            # inflight table depend on each one running to completion —
            # even after the client hangs up.
            event = await next_done
            if broken:
                continue
            try:
                writer.write(
                    b"data: "
                    + json.dumps(event, separators=(",", ":")).encode("utf-8")
                    + b"\n\n"
                )
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                broken = True
        if not broken:
            writer.write(
                b"data: "
                + json.dumps({"type": "done", "jobs": len(job_dicts)})
                .encode("utf-8")
                + b"\n\n"
            )
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
    jobs: Optional[int] = 1,
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
            host=host, port=port, jobs=jobs, memory_entries=memory_entries
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
