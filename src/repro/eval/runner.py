"""Shared simulation plumbing for the experiment drivers."""

from typing import Dict, Iterable, List, Optional, Tuple

import repro.cache as artifact_cache
from repro.compiler.program_idempotence import profile_program_idempotent
from repro.eval.settings import EvalSettings
from repro.trace.trace import Trace
from repro.workloads.cache import get_trace
from repro.workloads.registry import mibench2_names

#: Cache of per-trace Program-Idempotence profiles, keyed by
#: :attr:`Trace.digest`.  Keying by ``id(trace)`` would be wrong twice
#: over: a garbage-collected trace's id can be reused by a fresh object
#: (silently returning another trace's profile), and the mapping would
#: grow without bound across sweeps.
_PI_CACHE: Dict[str, frozenset] = {}


def pi_words_for(trace: Trace) -> frozenset:
    """Cached Program-Idempotence word set of a trace.

    Backed by the persistent artifact store when ``REPRO_CACHE_DIR`` is
    set: the profile is a pure function of trace content, so a warm
    worker skips the whole-trace idempotence walk."""
    key = trace.digest
    words = _PI_CACHE.get(key)
    if words is None:
        disk_key = None
        st = artifact_cache.store()
        if st is not None:
            disk_key = artifact_cache.content_key("pi_words", key)
            loaded = st.get("pi", disk_key)
            if isinstance(loaded, (set, frozenset)):
                words = frozenset(loaded)
        if words is None:
            words = profile_program_idempotent(trace)
            if disk_key is not None:
                st.put("pi", disk_key, words)
        _PI_CACHE[key] = words
    return _PI_CACHE[key]


def benchmark_traces(settings: EvalSettings, size: Optional[str] = None) -> List[Tuple[str, Trace]]:
    """(name, trace) for the 23 MiBench2 benchmarks at the given size."""
    size = size or settings.size
    return [(name, get_trace(name, size=size)) for name in mibench2_names()]


def average(values: Iterable[float]) -> float:
    """Arithmetic mean (the paper's cross-benchmark averages)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ci95(values: Iterable[float]) -> float:
    """Normal-approximation 95% confidence half-width of the mean.

    ``1.96 * s / sqrt(n)`` with the sample standard deviation; 0 for
    fewer than two values.  Matches
    :meth:`repro.sim.batch.BatchResult.mean_ci` so figure-level and
    batch-level intervals agree.
    """
    values = list(values)
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return 1.96 * (var ** 0.5) / (n ** 0.5)
