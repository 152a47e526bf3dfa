"""In-process trace cache.

Design-space sweeps replay the same trace under thousands of
configurations; building each workload trace once per process keeps the
experiment cost in the policy simulator, exactly as the paper's two-stage
flow does (one ISS run, many policy-simulator runs).

The cache counts hits and misses (``traces.*`` in
:data:`repro.obs.metrics.COUNTERS`) so the sweep profiler can report
whether a run actually amortized the trace-building cost or silently
rebuilt workloads.
"""

from typing import Dict, Tuple

from repro.obs.metrics import COUNTERS
from repro.trace.trace import Trace

_CACHE: Dict[Tuple[str, str, int], Trace] = {}

_HITS = COUNTERS.counter("traces.hits")
_MISSES = COUNTERS.counter("traces.misses")


def get_trace(name: str, size: str = "default", seed: int = 0) -> Trace:
    """The (cached) trace of workload ``name`` at ``size``/``seed``."""
    key = (name, size, seed)
    if key not in _CACHE:
        from repro.workloads.registry import get_workload

        _MISSES.inc()
        _CACHE[key] = get_workload(name).build(size=size, seed=seed)
    else:
        _HITS.inc()
    return _CACHE[key]


def clear_trace_cache() -> None:
    """Drop all cached traces (tests use this to bound memory)."""
    _CACHE.clear()


def cache_stats() -> Dict[str, int]:
    """Hit/miss counts of :func:`get_trace` since the last
    ``COUNTERS.reset()`` (they survive :func:`clear_trace_cache`)."""
    return {"hits": _HITS.value, "misses": _MISSES.value,
            "entries": len(_CACHE)}
