"""Distributed request tracing across the serving and eval stacks.

A *span* is one timed operation — a client batch POST, the server's
``/jobs`` handler, one job's trip through the dedupe funnel, the
server's simulation of one job — carrying a ``trace_id`` shared by everything one
client request caused, its own ``span_id``, and its ``parent_id``, so a
served sweep reconstructs as a causal tree: client job span → server
resolve-tier span → worker compute span.

Design constraints (DESIGN.md decision 15):

* **Zero cost when off.**  Tracing is opt-in (``--trace PATH`` on the
  eval and serve CLIs, or the ``REPRO_TRACE`` environment variable).
  When off, :meth:`Tracer.span` returns one shared no-op context
  manager — no allocation, no id generation, no clock read — and the
  instrumented call sites pay a single attribute check.  The simulator
  hot loops are never instrumented at all: spans are **per request /
  per job, never per memory access** (the same granularity rule the run
  ledger follows).
* **Monotonic, cross-process clocks.**  Span times are raw
  ``time.perf_counter()`` values.  On Linux that is ``CLOCK_MONOTONIC``,
  which is system-wide — so client and server spans recorded on one
  machine share a timebase and merge into one aligned
  timeline (the loopback serving setup this repo benchmarks).  Spans
  merged across *machines* do not align; the merge CLI still renders
  them, one process group per service.
* **Bounded memory.**  The in-process buffer holds at most
  ``max_spans`` finished spans (default 200k ≈ one full eval); further
  spans are counted in ``dropped`` instead of growing the buffer.
* **Explicit propagation over HTTP.**  :func:`format_traceparent` /
  :func:`parse_traceparent` carry ``trace_id-span_id`` in the
  ``X-Repro-Trace`` header; the serve client additionally ships its
  per-job span ids in the batch body so the server can parent each
  job's resolve span under the exact client span that awaits it.
  The server's bridge thread receives each job's parent context as a
  plain argument (:func:`make_span` needs no tracer state; the executor
  hop does not copy contextvars) and ships the finished span back in
  the job payload.

Export is JSON Lines, one span per line; merge any number of span files
(client + server) into a single Chrome trace with::

    python -m repro.obs.tracing merge client.jsonl server.jsonl \
        --out merged_trace.json
"""

import json
import os
import time
from contextvars import ContextVar
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TRACER",
    "Tracer",
    "configure_from_env",
    "format_traceparent",
    "make_span",
    "parse_traceparent",
    "read_spans",
    "write_spans",
]

#: Finished spans kept in memory before further spans are dropped.
DEFAULT_MAX_SPANS = 200_000

#: The header that carries ``trace_id-span_id`` across HTTP hops.
TRACE_HEADER = "X-Repro-Trace"

#: Ambient span context ``(trace_id, span_id)`` for implicit nesting.
#: A ContextVar so concurrent asyncio tasks (the server's per-job
#: resolves) each see their own ancestry.
_CTX: ContextVar[Optional[Tuple[str, str]]] = ContextVar(
    "repro_trace_ctx", default=None
)


def _new_id(nbytes: int = 8) -> str:
    """A random hex id.  ``os.urandom`` so tracing never perturbs the
    seeded ``random`` state the power schedules are derived from —
    outputs must stay byte-identical with tracing on."""
    return os.urandom(nbytes).hex()


def make_span(
    name: str,
    service: str,
    trace_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    attrs: Optional[dict] = None,
) -> dict:
    """A started span as a plain dict (no tracer state required).

    The server's bridge thread uses this directly: it only knows a
    job's parent context ``(trace_id, parent_id)`` handed over with the
    job, stamps ``t0``/``t1`` around the simulation, and ships the dict
    back in the job payload for the event loop to absorb.
    """
    return {
        "name": name,
        "service": service,
        "trace_id": trace_id or _new_id(8),
        "span_id": _new_id(8),
        "parent_id": parent_id,
        "t0": time.perf_counter(),
        "t1": None,
        "pid": os.getpid(),
        "attrs": dict(attrs) if attrs else {},
    }


def finish_span(span: dict) -> dict:
    """Stamp the span's end time (idempotent); returns it."""
    if span.get("t1") is None:
        span["t1"] = time.perf_counter()
    return span


def format_traceparent(trace_id: str, span_id: str) -> str:
    """The ``X-Repro-Trace`` header value: ``trace_id-span_id``."""
    return f"{trace_id}-{span_id}"


def parse_traceparent(value: Optional[str]) -> Optional[Tuple[str, str]]:
    """Parse a header value back to ``(trace_id, span_id)``.

    Malformed values parse as ``None`` — a bad header must never fail a
    request, it just starts a fresh trace.
    """
    if not value:
        return None
    trace_id, sep, span_id = value.strip().partition("-")
    if not sep or not trace_id or not span_id:
        return None
    if not all(c in "0123456789abcdef" for c in trace_id + span_id):
        return None
    return trace_id, span_id


class _NoopSpan:
    """The shared tracing-off span: every operation is a no-op.

    One module-level instance serves every call site, so the off path
    allocates nothing (the test suite pins ``span() is span()``).
    """

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, key, value):
        return self

    @property
    def span_id(self):
        return None

    @property
    def trace_id(self):
        return None


_NOOP = _NoopSpan()


class _SpanContext:
    """A live span bound to the tracer; context-manager entry installs
    it as the ambient parent for anything started inside."""

    __slots__ = ("_tracer", "span", "_token")

    def __init__(self, tracer: "Tracer", span: dict):
        self._tracer = tracer
        self.span = span
        self._token = None

    @property
    def span_id(self) -> str:
        return self.span["span_id"]

    @property
    def trace_id(self) -> str:
        return self.span["trace_id"]

    def set(self, key, value) -> "_SpanContext":
        """Attach one attribute (chainable)."""
        self.span["attrs"][key] = value
        return self

    def __enter__(self) -> "_SpanContext":
        self._token = _CTX.set((self.trace_id, self.span_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CTX.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.span["attrs"]["error"] = exc_type.__name__
        self._tracer.finish(self.span)
        return False


class Tracer:
    """Per-process span collector (see module docstring).

    Disabled by default; :meth:`span` costs one attribute check and
    returns the shared no-op when off.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        self.enabled = False
        self.service = "eval"
        self.max_spans = max_spans
        self.spans: List[dict] = []
        self.dropped = 0
        self.export_path: Optional[str] = None

    # -- lifecycle ----------------------------------------------------- #

    def enable(
        self, service: Optional[str] = None, export_path: Optional[str] = None
    ) -> "Tracer":
        self.enabled = True
        if service:
            self.service = service
        if export_path:
            self.export_path = export_path
        return self

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every buffered span and the dropped counter."""
        self.spans.clear()
        self.dropped = 0

    # -- span creation ------------------------------------------------- #

    def span(
        self,
        name: str,
        parent: Optional[Tuple[str, str]] = None,
        service: Optional[str] = None,
        **attrs,
    ):
        """A context-managed span, or the shared no-op when disabled.

        ``parent`` is an explicit ``(trace_id, span_id)`` remote context
        (e.g. from :func:`parse_traceparent`); without it the ambient
        context-variable parent applies, and without *that* the span
        starts a new trace.
        """
        if not self.enabled:
            return _NOOP
        return _SpanContext(self, self.start(
            name, parent=parent, service=service, attrs=attrs
        ))

    def start(
        self,
        name: str,
        parent: Optional[Tuple[str, str]] = None,
        service: Optional[str] = None,
        attrs: Optional[dict] = None,
    ) -> dict:
        """Manually start a span (no ambient-context installation); pair
        with :meth:`finish`.  Call sites that cannot use ``with`` (spans
        closed by a later event, e.g. the client's per-job spans) use
        this form — guard it with ``TRACER.enabled`` themselves."""
        if parent is None:
            parent = _CTX.get()
        trace_id, parent_id = (parent if parent else (None, None))
        return make_span(
            name,
            service or self.service,
            trace_id=trace_id,
            parent_id=parent_id,
            attrs=attrs,
        )

    def finish(self, span: dict, **attrs) -> dict:
        """End a started span and buffer it (bounded)."""
        if attrs:
            span["attrs"].update(attrs)
        finish_span(span)
        self.add(span)
        return span

    def add(self, span: dict) -> None:
        """Absorb one finished span (local or shipped from a worker)."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    def add_all(self, spans: Iterable[dict]) -> None:
        for span in spans:
            self.add(span)

    @staticmethod
    def current() -> Optional[Tuple[str, str]]:
        """The ambient ``(trace_id, span_id)`` context, if any."""
        return _CTX.get()

    # -- export -------------------------------------------------------- #

    def drain(self) -> List[dict]:
        """Return and clear the buffered spans."""
        spans, self.spans = self.spans, []
        return spans

    def flush(self, path: Optional[str] = None) -> int:
        """Append the buffered spans to ``path`` (or the configured
        export path) as JSONL and clear the buffer; returns the count.
        No-op without a path."""
        path = path or self.export_path
        if not path or not self.spans:
            return 0
        spans = self.drain()
        write_spans(spans, path, append=True)
        return len(spans)


def write_spans(spans: Iterable[dict], path: str, append: bool = False) -> None:
    """Write spans as JSON Lines (one span per line)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def read_spans(path: str) -> List[dict]:
    """Load a span JSONL file (blank lines skipped)."""
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad span line: {exc}")
            if not isinstance(obj, dict) or "span_id" not in obj:
                raise ValueError(f"{path}:{lineno}: not a span line")
            spans.append(obj)
    return spans


def merge_spans(span_lists: Iterable[List[dict]]) -> List[dict]:
    """Merge span collections, dropping duplicate span ids (a worker
    span can legitimately appear in both a server export and a client
    export that absorbed the same payload), ordered by start time (a
    null or non-numeric ``t0`` sorts as 0)."""
    seen: Dict[str, dict] = {}
    for spans in span_lists:
        for span in spans:
            seen.setdefault(span.get("span_id"), span)
    return sorted(seen.values(), key=lambda s: (
        s["t0"] if isinstance(s.get("t0"), (int, float)) else 0.0
    ))


def configure_from_env(service: str) -> Optional[str]:
    """Enable the shared tracer when ``REPRO_TRACE`` names an export
    path; returns the path (or ``None``).  Called by the eval and serve
    CLIs so a wrapper script can turn tracing on without new flags."""
    path = os.environ.get("REPRO_TRACE", "").strip()
    if path:
        TRACER.enable(service=service, export_path=path)
    return path or None


#: The process-wide tracer every instrumented call site consults.
TRACER = Tracer()


# --------------------------------------------------------------------- #
# CLI: merge span files into one Chrome trace.
# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.tracing",
        description="Merge span JSONL exports (client + server) into one "
        "Chrome trace-event timeline for chrome://tracing / Perfetto.",
    )
    parser.add_argument("command", choices=("merge",),
                        help="merge: combine span files into a Chrome trace")
    parser.add_argument("spans", nargs="+",
                        help="span JSONL files (repro.eval --trace / "
                        "repro.serve --trace exports)")
    parser.add_argument("--out", default="merged_trace.json",
                        help="output Chrome trace JSON path")
    parser.add_argument("--name", default="served sweep",
                        help="timeline name shown in the viewer")
    args = parser.parse_args(argv)

    from repro.obs.chrome_trace import spans_to_chrome_trace

    merged = merge_spans(read_spans(path) for path in args.spans)
    trace = spans_to_chrome_trace(merged, name=args.name)
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    roots = sum(1 for s in merged if not s.get("parent_id"))
    print(f"merged {len(merged)} spans ({roots} roots) from "
          f"{len(args.spans)} file(s) into {args.out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
