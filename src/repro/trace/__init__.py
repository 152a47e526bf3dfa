"""Memory-access traces: the interface between programs and Clank.

The paper's experimental flow runs each benchmark once on a cycle-accurate
instruction-set simulator to produce a *memory access log*, then replays that
log through the Clank policy simulator under different hardware
configurations and power schedules (Section 7.1).  This package defines the
log format (typed ``array`` columns written through one
:class:`AccessLog`) and its statistics.
"""

from repro.trace.access import Access, AccessView, READ, WRITE, kind_name
from repro.trace.trace import AccessLog, CompiledTrace, Trace, Marker
from repro.trace.stats import TraceStats, compute_stats

__all__ = [
    "Access",
    "AccessLog",
    "AccessView",
    "READ",
    "WRITE",
    "kind_name",
    "CompiledTrace",
    "Trace",
    "Marker",
    "TraceStats",
    "compute_stats",
]
