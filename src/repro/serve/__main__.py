"""CLI entry: ``python -m repro.serve`` runs a sweep server.

Binds, prints ``serving on http://host:port`` (flushed, so wrappers can
wait for readiness by reading one line), then serves until interrupted.
Set ``REPRO_CACHE_DIR`` to give the server a persistent result store;
without it only the in-memory and coalescing tiers dedupe.

Observability: ``--trace PATH`` (or ``REPRO_TRACE``) exports server-side
request/resolve/worker spans as JSONL, flushed after every request;
``--slog SINK`` (or ``REPRO_SLOG``, ``stderr`` or a path) emits
structured JSON request logs with ``REPRO_SLOG_SLOW_MS`` escalation;
``GET /metrics`` and ``GET /healthz`` are always on.
"""

import argparse
import asyncio
import sys

from repro.obs import slog, tracing
from repro.serve.server import SweepServer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve SimJob batches with cache dedupe and "
        "single-flight coalescing.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8077,
                        help="bind port; 0 picks one (default 8077)")
    # Jobs run serially in one bridge thread; ``--jobs 1`` is still
    # accepted so existing launch scripts keep working.
    parser.add_argument("--jobs", type=int, choices=[1], default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--memory", type=int, default=None,
                        help="in-memory reply LRU entries "
                        "(default 4096; 0 disables)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="export request/resolve/worker spans as JSONL "
                        "to PATH (default REPRO_TRACE; off without either)")
    parser.add_argument("--slog", default=None, metavar="SINK",
                        help="structured JSON request logs to SINK "
                        "('stderr' or a path; default REPRO_SLOG)")
    args = parser.parse_args(argv)

    if args.trace:
        tracing.TRACER.enable(service="server", export_path=args.trace)
    else:
        tracing.configure_from_env("server")
    if args.slog:
        slog.SLOG.enable(args.slog)
    else:
        slog.configure_from_env()

    server = SweepServer(
        host=args.host, port=args.port, memory_entries=args.memory,
    )
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        loop.run_until_complete(server.start())
        print(f"serving on {server.url}", flush=True)
        print(
            "  POST /jobs | GET /stats | GET /metrics | GET /healthz",
            flush=True,
        )
        loop.run_until_complete(server.serve_forever())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        loop.run_until_complete(server.aclose())
        loop.close()
        tracing.TRACER.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
