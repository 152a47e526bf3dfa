"""Bench-owned sweep-server launcher: ``python -m bench.server SPEC -- ARGS``.

Runs the unmodified ``repro.serve.__main__.main(ARGS)`` with the speed
probe running and, when ``SPEC`` says ``traced``, the same layer
wrappers a traced unit installs.  The client unit sends ``SIGUSR1``
when its timed window opens and ``SIGUSR2`` when it closes; a watcher
thread receives them with ``sigwait``, so no Python signal handler ever
touches the tracer's lock.  On exit (the parent sends ``SIGINT``) the
launcher writes a JSON report to ``SPEC["report"]`` and the spans to
``SPEC["spans"]``.  The report holds peak RSS, the window's CPU time
(all threads, and the event loop's alone), the window's speed, the
program's counters and the layer self times.
"""

import json
import resource
import signal
import sys
import threading
import time

from bench.probe import SpeedProbe

_WINDOW_SIGNALS = {signal.SIGUSR1, signal.SIGUSR2}


def main(argv=None) -> int:
    probe = SpeedProbe().start()
    argv = list(sys.argv[1:] if argv is None else argv)
    spec = json.loads(argv[0])
    serve_args = argv[argv.index("--") + 1:]
    # Blocked before any thread exists, so every thread inherits the mask
    # and only the watcher's sigwait ever receives the window signals.
    signal.pthread_sigmask(signal.SIG_BLOCK, _WINDOW_SIGNALS)

    from repro.serve import __main__ as serve_main

    from bench.layers import LayerTracer
    from bench.workloads import collect_counters

    tracer = None
    if spec.get("traced"):
        tracer = LayerTracer("server")
        tracer.install(probe)
    window = {}
    # The event loop runs in the main thread: its CPU time is the serving
    # work no wrapper can time (HTTP, SSE encoding, funnel bookkeeping).
    loop_clock = time.pthread_getcpuclockid(threading.main_thread().ident)

    def watch() -> None:
        while True:
            sig = signal.sigwait(_WINDOW_SIGNALS)
            if sig == signal.SIGUSR1:
                window.update(i0=probe.mark(), c0=time.process_time(),
                              l0=time.clock_gettime(loop_clock))
                if tracer is not None:
                    tracer.open_root()
            else:
                if tracer is not None:
                    tracer.close_root()
                window.update(i1=probe.mark(), c1=time.process_time(),
                              l1=time.clock_gettime(loop_clock))

    threading.Thread(target=watch, name="bench-window", daemon=True).start()
    status = 1
    try:
        status = serve_main.main(serve_args)
    finally:
        probe.stop()
        report = {
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "setup_norm": probe.norm(0, window.get("i0")),
            "counters": collect_counters(),
        }
        if "c1" in window:
            report["cpu_s"] = window["c1"] - window["c0"]
            report["norm"] = probe.norm(window["i0"], window["i1"])
            report["loop_cpu_s"] = (
                window["l1"] - window["l0"]
                - sum(probe.samples[window["i0"]:window["i1"]])
            )
        if tracer is not None:
            report["layers"] = tracer.summary()
            tracer.write_spans(spec["spans"])
        with open(spec["report"], "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
