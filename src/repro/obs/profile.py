"""The experiment drivers' wall clock.

:meth:`Profiler.phase` is the one driver clock (``with
PROFILER.phase("fig5")``): it appends a ``{"name", "t0", "t1"}`` mark on
the run ledger's timebase and opens the ``driver NAME`` tracer span.  The
marks become the run ledger's ``driver`` lines
(:meth:`repro.obs.telemetry.RunLedger.finish`), which feed the eval CLI's
``[NAME completed in Xs]`` line, the run profile's driver section
(:func:`repro.obs.report.render_text`) and ``BENCH_sweep.json``'s
per-driver seconds.
"""

from contextlib import contextmanager
from typing import List

from repro.obs.telemetry import LEDGER


class Profiler:
    """Driver phase marks, in the order the phases ran."""

    def __init__(self) -> None:
        self.marks: List[dict] = []

    def reset(self) -> None:
        """Drop all marks (tests and fresh CLI runs)."""
        self.marks.clear()

    @contextmanager
    def phase(self, name: str):
        """Time a driver under ``name``: one mark, stamped with
        :meth:`~repro.obs.telemetry.RunLedger.now` so it shares the
        records' ``t_start`` timebase, plus a ``driver NAME`` span."""
        # Imported here: the package __init__ imports this module, and
        # ``python -m repro.obs.tracing`` must not find tracing loaded.
        from repro.obs.tracing import TRACER

        mark = {"name": name, "t0": LEDGER.now(), "t1": None}
        try:
            with TRACER.span(f"driver {name}"):
                yield self
        finally:
            mark["t1"] = LEDGER.now()
            self.marks.append(mark)


#: Process-wide profiler the eval drivers share.
PROFILER = Profiler()
